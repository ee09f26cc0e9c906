"""Buchberger Groebner engine with normal forms and staircase queries.

The engine computes the reduced monic Groebner basis of an ideal with the
classical pair algorithm: normal selection through a heap keyed (deg lcm,
order key, i, j), the lcm-coprimality criterion, and a pair budget that
raises BudgetExceeded instead of hanging.  The leading monomial of each
basis element is computed once, when it joins the basis, and kept beside
it (also on the returned GroebnerBasis); division works on a dict of terms
in place and builds one polynomial at the end.  Cofactor tracking is
optional; when enabled, every basis element carries an exact representation
as a combination of the original generators, which is what the printable
Bezout certificates of the classification pipeline are made of.

On top of the basis sit the staircase queries: ideal triviality,
invertibility modulo the ideal, Noether dimension via independent variable
subsets of the leading-term ideal, standard monomials, and the structure
constants of a zero-dimensional quotient.  Those take normal forms only on
the border of the staircase (x_k * b for a standard monomial b, when the
product is not standard) and fill every other product of standard monomials
by multiplication-matrix products, FGLM style (Faugere, Gianni, Lazard &
Mora, JSC 1993).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations, product

from .errors import BudgetExceeded, NotZeroDimensional, RingMismatch, TrivialIdeal
from .finalg import FiniteAlgebra
from .multipoly import (
    GREVLEX,
    MultiPoly,
    mono_degree,
    mono_div,
    mono_divides,
    mono_is_coprime,
    mono_lcm,
    mono_mul,
)

DEFAULT_PAIR_BUDGET = 50_000


class GroebnerBasis:
    """Reduced monic basis, its order, and the originating generators.

    ``lms`` holds the leading monomial of each generator, in the same order.
    """

    __slots__ = ("field", "variables", "order", "generators", "lms", "original", "cofactors")

    def __init__(self, field, variables, order, generators, lms, original, cofactors=None):
        self.field = field
        self.variables = tuple(variables)
        self.order = order
        self.generators = tuple(generators)
        self.lms = tuple(lms)
        self.original = tuple(original)
        self.cofactors = cofactors

    def leading_monomials(self):
        return list(self.lms)

    def __repr__(self):
        gens = ", ".join(g.format(self.order) for g in self.generators)
        return f"GroebnerBasis[{self.order}]({gens})"


def _check_ring(polys):
    first = polys[0]
    for p in polys[1:]:
        if p.field != first.field or p.variables != first.variables:
            raise RingMismatch("generators live in different polynomial rings")


def _reduce(f, basis, lms, order, rep=None, reps=None):
    """Full multivariate division of f by the monic basis: (remainder, rep).

    ``lms`` are the leading monomials of ``basis``.  The running polynomial
    is a dict of terms, reduced in place; one MultiPoly is built at the end.
    When ``rep`` is given, each reduction step by ``basis[k]`` subtracts the
    same multiple of ``reps[k]`` from it, so that rep keeps expressing the
    running polynomial in the original generators; otherwise rep stays None.
    """
    K = f.field
    sub, mul, is_zero = K.sub, K.mul, K.is_zero
    zero = K.zero()
    key = order.key
    p = dict(f.terms)
    remainder = {}
    while p:
        lm = max(p, key=key)
        lc = p[lm]
        for hit, glm in enumerate(lms):
            if mono_divides(glm, lm):
                break
        else:
            remainder[lm] = p.pop(lm)
            continue
        q_exps = mono_div(lm, glm)
        for exps, c in basis[hit].terms.items():
            t = mono_mul(exps, q_exps)
            s = sub(p.get(t, zero), mul(lc, c))
            if is_zero(s):
                p.pop(t, None)
            else:
                p[t] = s
        if rep is not None:
            factor = MultiPoly.from_monomial(K, f.variables, q_exps, lc)
            rep = [a - factor * b for a, b in zip(rep, reps[hit])]
    return MultiPoly(K, f.variables, remainder), rep


def _monic(poly, rep, order):
    """(poly scaled to leading coefficient 1, rep (or None) by the same factor, lm)."""
    K = poly.field
    lm, lc = poly.leading(order)
    if lc == K.one():
        return poly, rep, lm
    inv = K.invert(lc)
    return poly.scale(inv), None if rep is None else [c.scale(inv) for c in rep], lm


def buchberger(gens, order=GREVLEX, pair_budget=DEFAULT_PAIR_BUDGET, track=False):
    """Reduced Groebner basis of <gens>; deterministic for fixed input and order.

    ``pair_budget`` bounds the number of critical pairs taken off the queue;
    exceeding it raises BudgetExceeded.  With ``track=True`` the result
    carries cofactors expressing each basis element in the original
    generators; without it no cofactor is built at all.
    """
    gens = list(gens)
    if not gens:
        raise RingMismatch("buchberger needs at least the ambient ring; pass one polynomial")
    _check_ring(gens)
    K = gens[0].field
    variables = gens[0].variables
    ring_zero = MultiPoly.zero(K, variables)
    one = K.one()
    n_orig = len(gens)

    basis = []
    lms = []   # leading monomial of each basis element
    reps = []  # cofactors of each basis element when tracking, else None

    def add(poly, rep):
        poly, rep, lm = _monic(poly, rep, order)
        basis.append(poly)
        lms.append(lm)
        reps.append(rep)

    for idx, g in enumerate(gens):
        if g.is_zero:
            continue
        rep = None
        if track:
            rep = [ring_zero] * n_orig
            rep[idx] = MultiPoly.one(K, variables)
        reduced, rep = _reduce(g, basis, lms, order, rep, reps)
        if not reduced.is_zero:
            add(reduced, rep)

    # Normal selection: the pair with the smallest (deg lcm, order key of lcm,
    # i, j) comes first.  That key is a total order, so the heap pops pairs
    # in one fixed sequence.
    def pair(i, j):
        l = mono_lcm(lms[i], lms[j])
        return (mono_degree(l), order.key(l), i, j)

    pairs = [pair(i, j) for j in range(len(basis)) for i in range(j)]
    heapify(pairs)
    processed = 0
    while pairs:
        processed += 1
        if processed > pair_budget:
            raise BudgetExceeded(f"Groebner pair budget of {pair_budget} exceeded")
        _, _, i, j = heappop(pairs)
        if mono_is_coprime(lms[i], lms[j]):
            continue
        # basis elements are monic: S = (l / lm_i) * g_i - (l / lm_j) * g_j
        l = mono_lcm(lms[i], lms[j])
        ui, uj = mono_div(l, lms[i]), mono_div(l, lms[j])
        s = basis[i].mul_term(ui, one) - basis[j].mul_term(uj, one)
        if s.is_zero:
            continue
        rep = [a.mul_term(ui, one) - b.mul_term(uj, one)
               for a, b in zip(reps[i], reps[j])] if track else None
        reduced, rep = _reduce(s, basis, lms, order, rep, reps)
        if reduced.is_zero:
            continue
        add(reduced, rep)
        new = len(basis) - 1
        for k in range(new):
            heappush(pairs, pair(k, new))

    # Minimalize: keep only elements whose leading monomial no other kept
    # element divides, then tail-reduce against the minimal set.  Tail
    # reduction keeps each leading term, so the result is monic and already
    # ascending.  It is the unique reduced basis, independent of scheduling.
    minimal = []
    for k in sorted(range(len(basis)), key=lambda k: order.key(lms[k])):
        if not any(mono_divides(lms[m], lms[k]) for m in minimal):
            minimal.append(k)
    generators, cofactors = [], []
    for k in minimal:
        others = [m for m in minimal if m != k]
        reduced, rep = _reduce(basis[k], [basis[m] for m in others], [lms[m] for m in others],
                               order, reps[k], [reps[m] for m in others])
        generators.append(reduced)
        cofactors.append(rep)
    cofactors = tuple(tuple(rep) for rep in cofactors) if track else None
    return GroebnerBasis(K, variables, order, generators, [lms[k] for k in minimal], gens,
                         cofactors)


# ------------------------------------------------------------------ queries

def normal_form(f, gb: GroebnerBasis):
    """Remainder of f on division by the basis; zero iff f is in the ideal."""
    if f.field != gb.field or f.variables != gb.variables:
        raise RingMismatch("polynomial lives in a different ring than the basis")
    return _reduce(f, gb.generators, gb.lms, gb.order)[0]


def contains_one(gb: GroebnerBasis) -> bool:
    """True iff the reduced basis is {1}, i.e. the quotient is the zero ring."""
    return len(gb.generators) == 1 and gb.generators[0].is_constant and not gb.generators[0].is_zero


def one_certificate(gb: GroebnerBasis):
    """Cofactors c_j with 1 = sum c_j * original_j, or None.

    Needs a basis computed with ``track=True`` and contains_one(gb).
    The identity is re-verified exactly before returning.
    """
    if gb.cofactors is None or not contains_one(gb):
        return None
    g = gb.generators[0]
    c = g.constant_value()
    inv = gb.field.invert(c)
    cof = [p.scale(inv) for p in gb.cofactors[0]]
    total = MultiPoly.zero(gb.field, gb.variables)
    for factor, orig in zip(cof, gb.original):
        total = total + factor * orig
    if total != MultiPoly.one(gb.field, gb.variables):
        raise AssertionError("cofactor bookkeeping broke; certificate does not multiply out to 1")
    return cof


def is_invertible_mod(g, gb: GroebnerBasis, pair_budget=DEFAULT_PAIR_BUDGET) -> bool:
    """True iff g is invertible in the quotient ring, i.e. 1 in I + <g>."""
    if g.field != gb.field or g.variables != gb.variables:
        raise RingMismatch("polynomial lives in a different ring than the basis")
    augmented = buchberger(list(gb.original) + [g], gb.order, pair_budget)
    return contains_one(augmented)


def inverse_mod(g, gb: GroebnerBasis, pair_budget=DEFAULT_PAIR_BUDGET):
    """An inverse of g modulo the ideal, or None when g is not invertible."""
    augmented = buchberger(list(gb.original) + [g], gb.order, pair_budget, track=True)
    cert = one_certificate(augmented)
    if cert is None:
        return None
    return normal_form(cert[-1], gb)


def noether_dimension(gb: GroebnerBasis) -> int:
    """Combinatorial dimension of the staircase.

    The maximum cardinality of a set S of variables such that no leading
    monomial is supported entirely inside S; 0 means the quotient is a
    finite-dimensional vector space.
    """
    if contains_one(gb):
        raise TrivialIdeal("the ideal contains 1")
    n = len(gb.variables)
    supports = []
    for lm in gb.lms:
        supports.append(frozenset(i for i, e in enumerate(lm) if e > 0))
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if not any(sup <= s for sup in supports):
                return size
    return 0


def standard_monomials(gb: GroebnerBasis):
    """Monomials outside the leading-term ideal, ascending in the basis order."""
    if contains_one(gb):
        raise TrivialIdeal("the ideal contains 1")
    if noether_dimension(gb) != 0:
        raise NotZeroDimensional("the quotient is not finite-dimensional")
    n = len(gb.variables)
    lms = gb.lms
    bounds = []
    for i in range(n):
        pure = [lm[i] for lm in lms if all(e == 0 for k, e in enumerate(lm) if k != i) and lm[i] > 0]
        bounds.append(min(pure))
    out = []
    for exps in product(*(range(b) for b in bounds)):
        if not any(mono_divides(lm, exps) for lm in lms):
            out.append(exps)
    out.sort(key=gb.order.key)
    return out


def quotient_algebra(gb: GroebnerBasis) -> FiniteAlgebra:
    """Structure constants of the quotient on its standard-monomial basis.

    Normal forms are taken only on the border of the staircase: for each
    variable x_k and standard monomial b_l, the column of x_k * b_l is a unit
    vector when the product is standard and its normal form otherwise.  The
    table is then filled in ascending basis order.  The row of 1 is the
    identity; any other b_i is x_k * b_i' for its first variable x_k, where
    b_i' is standard (the staircase is closed under division) and earlier,
    so row i is the multiplication matrix of x_k applied to row i'.

    The returned algebra remembers, as generator references, the coordinate
    vector of every ambient variable: the column of x_k * 1.
    """
    monomials = standard_monomials(gb)
    index = {mono: k for k, mono in enumerate(monomials)}
    m, n = len(monomials), len(gb.variables)
    K = gb.field
    steps = [tuple(int(i == k) for i in range(n)) for k in range(n)]

    def sparse(mono):
        """mono as (basis index, coefficient) pairs: a normal form only off the staircase."""
        if mono in index:
            return ((index[mono], K.one()),)
        nf = normal_form(MultiPoly.from_monomial(K, gb.variables, mono), gb)
        return tuple((index[exps], c) for exps, c in nf.terms.items())

    def dense(pairs):
        vec = [K.zero()] * m
        for r, c in pairs:
            vec[r] = c
        return tuple(vec)

    columns = [[sparse(mono_mul(step, b)) for b in monomials] for step in steps]

    def times(k, vec):
        """x_k * vec, through the columns x_k * b_l."""
        out = [K.zero()] * m
        for c, col in zip(vec, columns[k]):
            if K.is_zero(c):
                continue
            for r, a in col:
                out[r] = K.add(out[r], K.mul(c, a))
        return tuple(out)

    table = [[None] * m for _ in range(m)]
    for j, b in enumerate(monomials):
        table[0][j] = table[j][0] = dense(sparse(b))
    for i in range(1, m):
        k = next(v for v, e in enumerate(monomials[i]) if e)
        prev = table[index[mono_div(monomials[i], steps[k])]]
        for j in range(i, m):
            table[i][j] = table[j][i] = times(k, prev[j])
    refs = {name: dense(columns[k][0]) for k, name in enumerate(gb.variables)}
    sample = MultiPoly.zero(K, gb.variables)
    labels = [sample.format_monomial(mono) for mono in monomials]
    return FiniteAlgebra(K, labels, table, table[0][0], generator_refs=refs)
