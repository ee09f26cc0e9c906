"""Buchberger Groebner engine with normal forms and staircase queries.

The engine computes the reduced monic Groebner basis of an ideal with the
classical pair algorithm: normal selection through a heap keyed (deg lcm,
order key, i, j), the Gebauer-Moller criteria (Gebauer & Moller, JSC 1988;
the UPDATE procedure of Becker & Weispfenning, GTM 141), and a pair budget,
counted on the pairs those criteria keep, that raises BudgetExceeded
instead of hanging.  The leading monomial of each basis element is
computed once, when it joins the basis, and kept beside it (also on the
returned GroebnerBasis).  Each element is a list of rows,
term dicts that one kernel updates in place (row -= c * x^q * g, dropping
zeros): its polynomial and, in a tracked run, its cofactors over the
original generators, which the printable Bezout certificates of the
classification pipeline are made of.  Division, S-polynomials and monic
scaling treat every row alike, and an untracked run has one row per
element.  Rows become polynomials once, in the returned basis.

On top of the basis sit the staircase queries: ideal triviality,
invertibility modulo the ideal, Noether dimension via independent variable
subsets of the leading-term ideal, standard monomials, and the structure
constants of a zero-dimensional quotient.  Those take normal forms only on
the border of the staircase (x_k * b for a standard monomial b, when the
product is not standard), FGLM style (Faugere, Gianni, Lazard & Mora, JSC
1993); ``finalg.FiniteAlgebra`` checks that border and derives every other
product of standard monomials from it.
"""

from __future__ import annotations

from heapq import heapify, heappop
from itertools import combinations

from .errors import (
    BudgetExceeded,
    InternalContradiction,
    NotZeroDimensional,
    RingMismatch,
    TrivialIdeal,
)
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

    def __repr__(self):
        gens = ", ".join(g.format(self.order) for g in self.generators)
        return f"GroebnerBasis[{self.order}]({gens})"


def _check_ring(polys):
    first = polys[0]
    for p in polys[1:]:
        if p.field != first.field or p.variables != first.variables:
            raise RingMismatch("generators live in different polynomial rings")


def _subtract(row, c, q, g, K):
    """row -= c * x^q * g on dicts of terms, in place, dropping zero coefficients."""
    sub, mul, is_zero = K.sub, K.mul, K.is_zero
    zero = K.zero()
    for exps, a in g.items():
        t = mono_mul(exps, q)
        s = sub(row.get(t, zero), mul(c, a))
        if is_zero(s):
            row.pop(t, None)
        else:
            row[t] = s


def _reduce(rows, basis, lms, order, K):
    """Divide rows[0] by the monic basis in place; rows[0] ends as the remainder.

    ``rows`` are term dicts: the polynomial, then its cofactors over the
    original generators in a tracked run.  Each basis element has the same
    rows, and ``lms`` holds their leading monomials.  A step by basis[k]
    subtracts one multiple of each of its rows from the matching row.
    """
    key = order.key
    p = rows[0]
    remainder = {}
    while p:
        lm = max(p, key=key)
        for hit, glm in enumerate(lms):
            if mono_divides(glm, lm):
                break
        else:
            remainder[lm] = p.pop(lm)
            continue
        c, q = p[lm], mono_div(lm, glm)
        for row, g in zip(rows, basis[hit]):
            _subtract(row, c, q, g, K)
    rows[0] = remainder


def buchberger(gens, order=GREVLEX, pair_budget=DEFAULT_PAIR_BUDGET, track=False):
    """Reduced Groebner basis of <gens>; deterministic for fixed input and order.

    Each element joins through the Gebauer-Moller update, which queues only
    the pairs that criteria M, F and Buchberger's coprimality criterion keep
    and drops the queued pairs the chain criterion makes redundant.
    ``pair_budget`` bounds the number of critical pairs taken off the queue
    after those criteria; exceeding it raises BudgetExceeded.  With
    ``track=True`` the result carries cofactors expressing each basis element
    in the original generators; without it no cofactor is built at all.
    """
    gens = list(gens)
    if not gens:
        raise RingMismatch("buchberger needs at least the ambient ring; pass one polynomial")
    _check_ring(gens)
    K = gens[0].field
    variables = gens[0].variables
    one, minus_one = K.one(), K.neg(K.one())
    unit = (0,) * len(variables)

    basis = []   # rows of each basis element: its terms, then its cofactors when tracking
    lms = []     # leading monomial of each basis element
    active = []  # elements whose leading monomial no later element's divides
    # Normal selection: the pair with the smallest (deg lcm, order key of lcm,
    # i, j) comes first.  That key is a total order, so the heap pops pairs
    # in one fixed sequence; the lcm rides along after it.
    pairs = []

    def add(rows):
        """Append rows, scaled so that the polynomial is monic, and update the pairs.

        Every term of rows[0] is reduced, so no earlier leading monomial
        divides the new one.
        """
        lm = max(rows[0], key=order.key)
        if rows[0][lm] != one:
            inv = K.invert(rows[0][lm])
            rows = [{exps: K.mul(inv, a) for exps, a in row.items()} for row in rows]
        t = len(basis)
        basis.append(rows)
        lms.append(lm)
        # Criterion M drops (i, t) when some (j, t) has an lcm properly
        # dividing lcm(i, t); criterion F keeps the first pair of each lcm,
        # and no pair of an lcm that some coprime pair (i, t) has.
        new = [(mono_lcm(lms[i], lm), i) for i in active]
        fresh, coprime = {}, set()
        for l, i in new:
            if any(k != l and mono_divides(k, l) for k, _ in new):
                continue
            fresh.setdefault(l, i)
            if mono_is_coprime(lms[i], lm):
                coprime.add(l)
        # The chain criterion: lm_t | lcm(i, j) makes a queued (i, j) redundant
        # unless lcm(i, t) or lcm(j, t) equals lcm(i, j).
        pairs[:] = [p for p in pairs
                    if not (mono_divides(lm, p[4]) and mono_lcm(lms[p[2]], lm) != p[4]
                            and mono_lcm(lms[p[3]], lm) != p[4])]
        pairs.extend((mono_degree(l), order.key(l), i, t, l)
                     for l, i in fresh.items() if l not in coprime)
        heapify(pairs)
        active[:] = [i for i in active if not mono_divides(lm, lms[i])] + [t]

    for idx, g in enumerate(gens):
        rows = [dict(g.terms)]
        if track:
            rows += [{unit: one} if k == idx else {} for k in range(len(gens))]
        _reduce(rows, basis, lms, order, K)
        if rows[0]:
            add(rows)

    processed = 0
    while pairs:
        processed += 1
        if processed > pair_budget:
            raise BudgetExceeded(f"Groebner pair budget of {pair_budget} exceeded")
        _, _, i, j, l = heappop(pairs)
        # basis elements are monic: S = (l / lm_i) * g_i - (l / lm_j) * g_j
        ui, uj = mono_div(l, lms[i]), mono_div(l, lms[j])
        rows = [{} for _ in basis[i]]
        for row, gi, gj in zip(rows, basis[i], basis[j]):
            _subtract(row, minus_one, ui, gi, K)
            _subtract(row, one, uj, gj, K)
        _reduce(rows, basis, lms, order, K)
        if rows[0]:
            add(rows)

    # Minimalize: the active elements are the minimal set, since no leading
    # monomial divides a later one.  Tail-reduce each (a copy of its rows)
    # against the others.  Tail reduction keeps each leading term, so the
    # result is monic and ascending.  It is the unique reduced basis,
    # independent of scheduling.
    minimal = sorted(active, key=lambda k: order.key(lms[k]))
    generators, cofactors = [], []
    for k in minimal:
        others = [m for m in minimal if m != k]
        rows = [dict(row) for row in basis[k]]
        _reduce(rows, [basis[m] for m in others], [lms[m] for m in others], order, K)
        generators.append(MultiPoly(K, variables, rows[0]))
        cofactors.append(tuple(MultiPoly(K, variables, row) for row in rows[1:]))
    return GroebnerBasis(K, variables, order, generators, [lms[k] for k in minimal], gens,
                         tuple(cofactors) if track else None)


# ------------------------------------------------------------------ queries

def normal_form(f, gb: GroebnerBasis):
    """Remainder of f on division by the basis; zero iff f is in the ideal."""
    if f.field != gb.field or f.variables != gb.variables:
        raise RingMismatch("polynomial lives in a different ring than the basis")
    rows = [dict(f.terms)]
    _reduce(rows, [(g.terms,) for g in gb.generators], gb.lms, gb.order, gb.field)
    return MultiPoly(gb.field, gb.variables, rows[0])


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
        raise InternalContradiction(
            "cofactor bookkeeping broke; certificate does not multiply out to 1")
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
    # Walk the staircase up from 1: it is closed under division, so each
    # standard monomial is x_k times an earlier one.
    n = len(gb.variables)
    out = [(0,) * n]
    seen = set(out)
    for b in out:
        for k in range(n):
            t = b[:k] + (b[k] + 1,) + b[k + 1:]
            if t not in seen:
                seen.add(t)
                if not any(mono_divides(lm, t) for lm in gb.lms):
                    out.append(t)
    out.sort(key=gb.order.key)
    return out


def quotient_algebra(gb: GroebnerBasis) -> FiniteAlgebra:
    """The quotient as a FiniteAlgebra on its standard-monomial basis, built from its border.

    Normal forms are taken only on the border of the staircase: for each
    variable x_k and standard monomial b_l, the column of x_k * b_l is a unit
    vector when the product is standard and its normal form otherwise.  Any
    b_i other than 1 is x_k * b_i' for its first variable x_k, where b_i' is
    standard (the staircase is closed under division) and earlier: the step
    (k, i').  FiniteAlgebra takes the columns and the steps, checks them
    completely (each step column is a basis element, and the multiplication
    matrices commute) and derives every product of standard monomials from
    them, b_i * b_j = b_i' * (x_k * b_j); see ``finalg``.

    The returned algebra remembers, as generator references, the coordinate
    vector of every ambient variable: the column of x_k * 1.
    """
    monomials = standard_monomials(gb)
    index = {mono: k for k, mono in enumerate(monomials)}
    m, n = len(monomials), len(gb.variables)
    K = gb.field
    x_monomials = [tuple(int(i == k) for i in range(n)) for k in range(n)]

    def sparse(mono):
        """mono as (basis index, coefficient) pairs: a normal form only off the staircase."""
        if mono in index:
            return ((index[mono], K.one()),)
        nf = normal_form(MultiPoly.from_monomial(K, gb.variables, mono), gb)
        return tuple((index[exps], c) for exps, c in nf.terms.items())

    columns = [[sparse(mono_mul(x, b)) for b in monomials] for x in x_monomials]
    steps = [None]
    for b in monomials[1:]:
        k = next(v for v, e in enumerate(b) if e)
        steps.append((k, index[mono_div(b, x_monomials[k])]))

    def dense(pairs):
        vec = [K.zero()] * m
        for r, c in pairs:
            vec[r] = c
        return tuple(vec)

    refs = {name: dense(columns[k][0]) for k, name in enumerate(gb.variables)}
    sample = MultiPoly.zero(K, gb.variables)
    labels = [sample.format_monomial(mono) for mono in monomials]
    return FiniteAlgebra(K, labels, generator_refs=refs, border=(columns, steps))
