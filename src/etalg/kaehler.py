"""Jacobians, differential-module presentations, and the four decision tests.

A finitely presented algebra A = K[X_1..X_n] / <f_1..f_s> determines the
transposed Jacobian Ja : A^s -> A^n, whose cokernel presents the module of
Kahler differentials together with the universal derivation
d(g) = sum_i (dg/dX_i) ebar_i.  Every flag asks one question, whether 1 is
in <f> + D for a determinantal ideal D of Ja:

  nette (unramified):   D = <n x n minors of Ja>
  standard smooth:      s <= n, D = <leading s x s minor>
  elementary smooth:    D = <s x s minors of Ja>
  standard etale:       s = n, D = <det(Ja)>

A single minor generates the unit ideal together with <f> exactly when it is
invertible mod <f>.  So each flag is data (its size precondition, the minors
it adjoins, and how its certificate prints), and one routine decides them
all.  It checks triviality and the precondition, then runs Buchberger once
on the relations plus the adjoined minors.  From that run it reads the
verdict, the Bezout cofactors, and the inverse of a single minor (the
normal form of its cofactor).  ``decide_all`` decides the flags it is asked
for (all four by default), enumerates the minors of each size once, and
shares the run between flags that adjoin the same minors.  With
certificates, the Bezout identity of each distinct run is checked once and
kept with its basis.  When s = n all four flags adjoin det(Ja), so they
share one run and one check.

Minor enumeration is combinatorial; sizes stay small here.  A presentation
whose ideal contains 1 (the zero ring) satisfies every test vacuously and is
flagged as trivial so callers can surface that instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import NotZeroDimensional, RingMismatch
from .groebner import (
    DEFAULT_PAIR_BUDGET,
    GroebnerBasis,
    buchberger,
    contains_one,
    noether_dimension,
    normal_form,
    one_certificate,
    standard_monomials,
)
from .linalg import rank
from .multipoly import GREVLEX, MultiPoly


@dataclass(frozen=True)
class AlgebraPresentation:
    """K[X_1..X_n] / <f_1..f_s> given by variable names and relations."""

    field: object
    variables: tuple
    relations: tuple

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "relations", tuple(self.relations))
        for f in self.relations:
            if f.field != self.field or f.variables != self.variables:
                raise RingMismatch("relation lives outside the declared ring")

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def s(self) -> int:
        return len(self.relations)

    def ring_zero(self):
        return MultiPoly.zero(self.field, self.variables)


@dataclass(frozen=True)
class DifferentialPresentation:
    """Cokernel presentation of the differentials of an algebra presentation.

    ``generators`` are the symbols dX_i; ``relation_table`` is the n x s
    transposed Jacobian, entry (i, j) = df_j/dX_i, whose columns are the
    relations among the generators.
    """

    ambient: AlgebraPresentation
    generators: tuple
    relation_table: tuple


def jacobian(P: AlgebraPresentation):
    """The s x n Jacobian: entry (i, j) = df_i/dX_j."""
    return [[f.partial_derivative(j) for j in range(P.n)] for f in P.relations]


def transposed_jacobian(P: AlgebraPresentation):
    """Ja, the n x s transpose of the Jacobian."""
    jac = jacobian(P)
    return [[jac[j][i] for j in range(P.s)] for i in range(P.n)]


def omega_presentation(P: AlgebraPresentation) -> DifferentialPresentation:
    """The differential module as Coker(Ja) with generators dX_i."""
    table = tuple(tuple(row) for row in transposed_jacobian(P))
    gens = tuple(f"d{name}" for name in P.variables)
    return DifferentialPresentation(ambient=P, generators=gens, relation_table=table)


def universal_derivation(g: MultiPoly, D: DifferentialPresentation):
    """Coordinates of d(g) over the generators: (dg/dX_1, ..., dg/dX_n)."""
    P = D.ambient
    if g.field != P.field or g.variables != P.variables:
        raise RingMismatch("element lives outside the ambient ring")
    return tuple(g.partial_derivative(i) for i in range(P.n))


# ------------------------------------------------------------------ minors

def det_poly_matrix(rows, ring_zero):
    """Cofactor-expansion determinant of a square polynomial matrix."""
    n = len(rows)
    if n == 0:
        return MultiPoly.one(ring_zero.field, ring_zero.variables)
    if n == 1:
        return rows[0][0]
    total = ring_zero
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = entry * det_poly_matrix(minor, ring_zero)
        total = total + term if j % 2 == 0 else total - term
    return total


def minors(matrix, k, ring_zero):
    """All k x k minors with their row/column index sets, deterministically."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    out = []
    for rows_idx in combinations(range(nrows), k):
        for cols_idx in combinations(range(ncols), k):
            sub = [[matrix[i][j] for j in cols_idx] for i in rows_idx]
            out.append((rows_idx, cols_idx, det_poly_matrix(sub, ring_zero)))
    return out


# ------------------------------------------------------------------ decisions

@dataclass(frozen=True)
class Decision:
    """Outcome of one determinantal test, with optional printable evidence."""

    value: bool
    trivial: bool = False
    detail: str = ""
    labels: tuple = ()
    certificate: tuple = None
    basis: GroebnerBasis = None


@dataclass(frozen=True)
class _Flag:
    """One flag as data: its size precondition and the generators it adjoins.

    A flag that fits adjoins minors of size min(s, n): nette fits when
    s >= n, the other three when s <= n.  Without ``single`` it adjoins every
    minor of that size, certified by a Bezout identity over the relations
    and the minors; ``single`` = (name, detail template) adjoins only the
    leading minor, certified by that minor and its inverse modulo the
    relations.
    """

    fits: object          # (s, n) -> bool
    refusal: str          # detail when the precondition fails, with {s} and {n}
    single: tuple = ()


_FLAGS = {
    "nette": _Flag(lambda s, n: s >= n,
                   "s = {s} < n = {n}: no n x n minors, determinantal ideal is 0"),
    "standard_smooth": _Flag(lambda s, n: s <= n, "s = {s} > n = {n}",
                             single=("minor", "leading minor {}")),
    "elementary_smooth": _Flag(lambda s, n: s <= n,
                               "s = {s} > n = {n}: no s x s minors, determinantal ideal is 0"),
    "standard_etale": _Flag(lambda s, n: s == n, "s = {s} != n = {n}",
                            single=("det", "det(Ja) = {}")),
}
FLAGS = tuple(_FLAGS)  # report order


def relation_basis(P, order=GREVLEX, pair_budget=DEFAULT_PAIR_BUDGET) -> GroebnerBasis:
    """Reduced basis of the relation ideal (the zero ideal when s = 0)."""
    return buchberger(list(P.relations) or [P.ring_zero()], order, pair_budget)


def _adjoined(flag: _Flag, P, order, found):
    """(extra generators, certificate labels, detail) of a flag that fits.

    Every flag that fits uses size min(s, n); ``found`` keeps the minors of
    that size once enumerated.  The leading s x s minor is the first one:
    ``combinations`` yields 0..s-1 first.
    """
    size = min(P.s, P.n)
    if size not in found:
        found[size] = minors(transposed_jacobian(P), size, P.ring_zero())
    if flag.single:
        name, detail = flag.single
        minor = found[size][0][2]
        return (minor,), (name, "inverse"), detail.format(minor.format(order))
    labels = [f"f{j + 1}" for j in range(P.s)]
    for rows_idx, cols_idx, _ in found[size]:
        rows_txt = ",".join(P.variables[i] for i in rows_idx)
        cols_txt = ",".join(f"f{j + 1}" for j in cols_idx)
        labels.append(f"minor[{rows_txt}|{cols_txt}]")
    return tuple(m for _, _, m in found[size]), tuple(labels), ""


def _decide(name, P, order, pair_budget, certificates, gb, runs, found) -> Decision:
    """Is 1 in <f> + <the minors the flag adjoins>?  ``gb`` is the relation basis.

    ``found`` shares the enumerated minors between flags (see ``_adjoined``).
    ``runs`` maps each adjoined generator tuple to its Groebner basis, its
    Bezout cofactors and the inverse of its single minor, so flags that ask
    the same question share one run.  With ``certificates`` that run is the
    tracked one, its identity is checked once, when the run is made, and the
    inverse, the normal form of its last cofactor, is taken once, when a
    single-minor flag first reads it.
    """
    if contains_one(gb):
        return Decision(value=True, trivial=True, detail="the relation ideal contains 1", basis=gb)
    flag = _FLAGS[name]
    if not flag.fits(P.s, P.n):
        return Decision(value=False, detail=flag.refusal.format(s=P.s, n=P.n), basis=gb)
    extra, labels, detail = _adjoined(flag, P, order, found)
    if extra not in runs:
        aug = buchberger(list(P.relations) + list(extra), order, pair_budget, track=certificates)
        runs[extra] = [aug, one_certificate(aug) if certificates else None, None]
    run = runs[extra]
    aug, cofactors, inverse = run
    cert = None
    if cofactors is not None:
        if flag.single and inverse is None:
            inverse = run[2] = normal_form(cofactors[-1], gb)
        cert = (extra[0], inverse) if flag.single else tuple(cofactors)
    return Decision(value=contains_one(aug), detail=detail, labels=labels, certificate=cert,
                    basis=gb if flag.single else aug)


def decide_all(P, order=GREVLEX, pair_budget=DEFAULT_PAIR_BUDGET,
               certificates=False, gb=None, flags=FLAGS) -> dict:
    """The decisions of ``flags`` (default all four) by flag name.

    Only the named flags are decided: a flag left out costs no Groebner
    run.  Minors are enumerated once per size, each distinct ideal is run
    once, and with ``certificates`` each run's Bezout identity is checked
    once however many flags read it.
    """
    if gb is None:
        gb = relation_basis(P, order, pair_budget)
    runs, found = {}, {}
    return {name: _decide(name, P, order, pair_budget, certificates, gb, runs, found)
            for name in flags}


def nette_decision(P, order=GREVLEX, pair_budget=DEFAULT_PAIR_BUDGET,
                   certificates=False, gb=None) -> Decision:
    """Is the presented algebra unramified (nette)?

    Tests 1 in <f> + <n x n minors of Ja>.  When s < n there are no such
    minors, so only the zero ring passes.
    """
    return decide_all(P, order, pair_budget, certificates, gb, ("nette",))["nette"]


def standard_smooth_decision(P, order=GREVLEX, pair_budget=DEFAULT_PAIR_BUDGET,
                             certificates=False, gb=None) -> Decision:
    """s <= n and the leading s x s minor of Ja invertible in the quotient.

    The leading minor uses rows X_1..X_s, so the declared variable order
    matters for this test (and only for this one).
    """
    return decide_all(P, order, pair_budget, certificates, gb,
                      ("standard_smooth",))["standard_smooth"]


def elementary_smooth_decision(P, order=GREVLEX, pair_budget=DEFAULT_PAIR_BUDGET,
                               certificates=False, gb=None) -> Decision:
    """1 in <f> + <s x s minors of Ja>; false when s > n (no such minors)."""
    return decide_all(P, order, pair_budget, certificates, gb,
                      ("elementary_smooth",))["elementary_smooth"]


def standard_etale_decision(P, order=GREVLEX, pair_budget=DEFAULT_PAIR_BUDGET,
                            certificates=False, gb=None) -> Decision:
    """s = n and det(Ja) invertible in the quotient."""
    return decide_all(P, order, pair_budget, certificates, gb,
                      ("standard_etale",))["standard_etale"]


# ------------------------------------------------------------------ omega dimension

def omega_dimension(P, order=GREVLEX, pair_budget=DEFAULT_PAIR_BUDGET, gb=None) -> int:
    """K-vector-space dimension of the differential module.

    Only defined for zero-dimensional quotients: expand the columns of Ja
    over the standard-monomial basis of A (an (m*n) x (m*s) scalar matrix)
    and return m*n minus its rank.  The zero ring reports 0.
    """
    if gb is None:
        gb = relation_basis(P, order, pair_budget)
    if contains_one(gb):
        return 0
    if noether_dimension(gb) != 0:
        raise NotZeroDimensional("omega_dimension needs a zero-dimensional quotient")
    basis = standard_monomials(gb)
    index = {m: k for k, m in enumerate(basis)}
    m = len(basis)
    K = P.field
    ja = transposed_jacobian(P)
    columns = []
    for j in range(P.s):
        for mono in basis:
            vec = [K.zero()] * (m * P.n)
            for i in range(P.n):
                shifted = ja[i][j].mul_term(mono, K.one())
                nf = normal_form(shifted, gb)
                for exps, c in nf.terms.items():
                    vec[i * m + index[exps]] = c
            columns.append(vec)
    rows = [[col[r] for col in columns] for r in range(m * P.n)]
    return m * P.n - rank(rows, K)
