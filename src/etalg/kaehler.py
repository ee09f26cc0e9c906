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
all: ``decide_all``, one loop over the flags it is asked for (all four by
default).  It tests triviality once, then each flag's precondition, and
enumerates the minors of size min(s, n) once per call, when a flag first
fits.  It runs Buchberger once per distinct set of adjoined minors, on the
relations plus those minors, and shares that run between the flags that
adjoin them.  From the run it reads the verdict, the Bezout cofactors, and
the inverse of a single minor (the normal form of its cofactor).  With
certificates, the Bezout identity of each distinct run is checked once and
kept with its basis.  When s = n all four flags adjoin det(Ja), so they
share one run and one check.

A k x k minor expands 2^k sub-minors, shared within a ``minors`` call, but
nothing bounds the count of minors, C(n, k) * C(s, k).  A presentation whose
ideal contains 1 (the zero ring) satisfies every test vacuously and is
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

def minors(matrix, k, ring_zero):
    """All k x k minors with their row/column index sets, deterministically.

    Each minor is a Laplace expansion along its first row into the minors
    on the remaining rows, indexed by row and column sets into ``matrix``.
    A table local to the call expands each of those once, so a k x k
    determinant takes at most k * 2^(k-1) entry-by-minor products, over its
    2^k sub-minors.  Nothing bounds the number of minors, C(rows, k) * C(cols, k).
    """
    ncols = len(matrix[0]) if matrix else 0
    table = {}

    def det(rows, cols):
        if len(rows) < 2:
            return matrix[rows[0]][cols[0]] if rows else MultiPoly.one(ring_zero.field, ring_zero.variables)
        if (rows, cols) not in table:
            total = ring_zero
            for j, col in enumerate(cols):
                entry = matrix[rows[0]][col]
                if not entry.is_zero:
                    term = entry * det(rows[1:], cols[:j] + cols[j + 1:])
                    total = total + term if j % 2 == 0 else total - term
            table[rows, cols] = total
        return table[rows, cols]

    return [(rows, cols, det(rows, cols)) for rows in combinations(range(len(matrix)), k)
            for cols in combinations(range(ncols), k)]


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


def decide_all(P, order=GREVLEX, pair_budget=DEFAULT_PAIR_BUDGET,
               certificates=False, gb=None, flags=FLAGS) -> dict:
    """The decisions of ``flags`` (default all four) by flag name.

    Only the named flags are decided: a flag left out costs no Groebner
    run.  Triviality is tested once, the minors of size min(s, n) are
    enumerated once, when a flag first fits, and each distinct adjoined
    ideal is run once.  With ``certificates`` that run is the tracked one,
    its Bezout identity is checked once, when the run is made, and the
    inverse of the single minor, the normal form of its last cofactor, is
    taken once, when a single-minor flag first reads it.  ``gb`` is the
    relation basis.
    """
    unknown = [name for name in flags if name not in _FLAGS]
    if unknown:
        raise ValueError(f"unknown flag {unknown[0]!r}")
    if gb is None:
        gb = relation_basis(P, order, pair_budget)
    if contains_one(gb):
        trivial = Decision(value=True, trivial=True, detail="the relation ideal contains 1", basis=gb)
        return dict.fromkeys(flags, trivial)
    decisions, runs, found, inverse = {}, {}, None, None
    for name in flags:
        flag = _FLAGS[name]
        if not flag.fits(P.s, P.n):
            decisions[name] = Decision(value=False, detail=flag.refusal.format(s=P.s, n=P.n), basis=gb)
            continue
        if found is None:  # every flag that fits adjoins minors of size min(s, n)
            found = minors(transposed_jacobian(P), min(P.s, P.n), P.ring_zero())
        # the leading s x s minor is the first: ``combinations`` yields 0..s-1 first
        extra = (found[0][2],) if flag.single else tuple(m for _, _, m in found)
        if extra not in runs:
            aug = buchberger(list(P.relations) + list(extra), order, pair_budget, track=certificates)
            runs[extra] = aug, one_certificate(aug) if certificates else None
        aug, cofactors = runs[extra]
        if flag.single:
            if cofactors is not None and inverse is None:
                inverse = normal_form(cofactors[-1], gb)
            label, detail = flag.single
            decisions[name] = Decision(
                value=contains_one(aug), detail=detail.format(extra[0].format(order)),
                labels=(label, "inverse"), basis=gb,
                certificate=None if cofactors is None else (extra[0], inverse))
            continue
        labels = [f"f{j + 1}" for j in range(P.s)]
        for rows_idx, cols_idx, _ in found:
            rows_txt = ",".join(P.variables[i] for i in rows_idx)
            cols_txt = ",".join(f"f{j + 1}" for j in cols_idx)
            labels.append(f"minor[{rows_txt}|{cols_txt}]")
        decisions[name] = Decision(value=contains_one(aug), labels=tuple(labels), basis=aug,
                                   certificate=None if cofactors is None else tuple(cofactors))
    return decisions


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
    # one row per dX_i and standard monomial: the transpose has the same rank, but this
    # orientation takes ~40 % fewer entry updates to eliminate (cyclic-5, katsura-5 over Q)
    rows = [[K.zero()] * (m * P.s) for _ in range(m * P.n)]
    for j in range(P.s):
        for k, mono in enumerate(basis):
            for i in range(P.n):
                shifted = ja[i][j].mul_term(mono, K.one())
                nf = normal_form(shifted, gb)
                for exps, c in nf.terms.items():
                    rows[i * m + index[exps]][j * m + k] = c
    return m * P.n - rank(rows, K)
