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
classification pipeline are made of.  Division, S-polynomials and scaling
treat every row alike, and an untracked run has one row per element.
Division finds each leading term on a heap of the row's monomials, pushed
once with their order key as the kernel creates them (Monagan & Pearce,
CASC 2007), and returns the remainder's leading monomial.  ``add`` reduces
input rows and S-polynomials alike and joins a nonzero remainder.

``_normalized`` makes an element monic over GF(p) as it joins, and the
reduced basis as it is returned.  Over Q the rows hold integers and the
kernel never divides: an input row's denominators are cleared as it
enters, ``_normalized`` makes a row primitive (its content divided out,
its leading coefficient positive), and a step by an element whose leading
coefficient is not 1 first multiplies the rows it reduces
(cross-multiplication).  At every step an integer row is a nonzero multiple
of the Fraction row a dividing engine would hold, so the reducers, the
pairs and the reduced basis are the same.  The returned basis keeps its
normalized rows for ``normal_form``, which divides its remainder by the
scale it accumulated, and turns each into a polynomial once, divided by
its leading coefficient: values leave the module as field elements,
Fractions over Q.

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

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm

from .errors import (
    BudgetExceeded,
    InternalContradiction,
    NotZeroDimensional,
    RingMismatch,
    TrivialIdeal,
)
from .finalg import FiniteAlgebra, _combine
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

    ``buchberger`` passes the normalized kernel rows of the reduced basis.
    Each is kept, as a 1-tuple of rows for ``normal_form`` to divide by, and
    divided by its leading coefficient into a generator; ``lms`` holds their
    leading monomials.
    """

    __slots__ = ("field", "variables", "order", "generators", "lms", "original", "cofactors",
                 "_rows")

    def __init__(self, field, variables, order, rows, lms, original, cofactors=None):
        self.field = field
        self.variables = tuple(variables)
        self.order = order
        self._rows = tuple((row,) for row in rows)
        self.lms = tuple(lms)
        self.generators = tuple(MultiPoly(field, variables, _field_row(row, row[lm], field))
                                for row, lm in zip(rows, self.lms))
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


def _integer_row(terms, K):
    """(row, d): a kernel row copy of terms and the factor d it was multiplied by.

    Over Q the row is terms times the lcm d of their denominators, an int
    dict; over GF(p) it is a plain copy and d is 1.
    """
    if K.characteristic():
        return dict(terms), 1
    d = lcm(*(c.denominator for c in terms.values()))
    return {exps: c.numerator * (d // c.denominator) for exps, c in terms.items()}, d


def _field_row(row, d, K):
    """The kernel row divided by d as field elements: Fractions over Q (d is 1 over GF(p))."""
    if K.characteristic():
        return row
    return {exps: Fraction(a, d) for exps, a in row.items()}


def _normalized(rows, lm, K):
    """rows scaled so that rows[0] is monic over GF(p); over Q, primitive together, rows[0][lm] > 0."""
    lc = rows[0][lm]
    if K.characteristic():
        if lc == 1:
            return rows
        inv = K.invert(lc)
        return [{exps: K.reduce(inv * a) for exps, a in row.items()} for row in rows]
    d = gcd(*(a for row in rows for a in row.values()))
    if lc < 0:
        d = -d
    return rows if d == 1 else [{exps: a // d for exps, a in row.items()} for row in rows]


def _subtract(row, c, q, g, K):
    """row -= c * x^q * g on dicts of terms, in place, dropping zero coefficients.

    Returns the monomials it adds to row.  c is nonzero, so each product
    c * a of nonzero field elements is nonzero.
    """
    reduce = K.reduce
    created = []
    for exps, a in g.items():
        t = mono_mul(exps, q)
        b = row.get(t)
        if b is None:
            row[t] = reduce(-c * a)
            created.append(t)
        else:
            s = reduce(b - c * a)
            if s:
                row[t] = s
            else:
                del row[t]
    return created


def _reduce(rows, basis, lms, order, K):
    """Divide rows[0] by the basis in place; return (s, lm): the remainder's scale and
    leading monomial, None for a zero remainder.

    ``rows`` are term dicts: the polynomial, then its cofactors over the
    original generators in a tracked run.  Each basis element has the same
    rows, and ``lms`` holds their leading monomials.  A step by basis[k]
    subtracts one multiple of each of its rows from the matching row.  Its
    leading coefficient L is 1 over GF(p); over Q it is a positive integer,
    and the step first multiplies every row, and the remainder collected so
    far, by L / gcd(c, L), so that no coefficient leaves Z.  rows[0] ends
    as s times the remainder on division by the monic basis, the other rows
    as s times their cofactors.  The remainder is collected largest term
    first, so lm is the first monomial it takes.

    The leading term comes off a heap of rows[0]'s monomials under
    ``order.heap_key`` (Monagan & Pearce, CASC 2007): each monomial is
    pushed with its key when it enters the row, never rescanned.  A popped
    monomial that a step has cancelled is skipped.  It cannot come back,
    since every monomial a step creates is smaller than the one it cancels.
    """
    heap_key = order.heap_key
    p = rows[0]
    heap = [(heap_key(t), t) for t in p]
    heapify(heap)
    remainder = {}
    scale, lead = 1, None
    while p:
        lm = heappop(heap)[1]
        if lm not in p:
            continue
        for hit, glm in enumerate(lms):
            if mono_divides(glm, lm):
                break
        else:
            remainder[lm] = p.pop(lm)
            lead = lm if lead is None else lead
            continue
        g = basis[hit]
        c, leading = p[lm], g[0][glm]
        if leading != 1:
            d = gcd(c, leading)
            c, m = c // d, leading // d
            if m != 1:
                scale *= m
                for row in (*rows, remainder):
                    for exps in row:
                        row[exps] *= m
        q = mono_div(lm, glm)
        for t in _subtract(p, c, q, g[0], K):
            heappush(heap, (heap_key(t), t))
        for row, h in zip(rows[1:], g[1:]):
            _subtract(row, c, q, h, K)
    rows[0] = remainder
    return scale, lead


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
    unit = (0,) * len(variables)

    basis = []   # rows of each basis element: its terms, then its cofactors when tracking
    lms = []     # leading monomial of each basis element
    active = []  # elements whose leading monomial no later element's divides
    # Normal selection: the pair with the smallest (deg lcm, order key of lcm,
    # i, j) comes first.  That key is a total order, so the heap pops pairs
    # in one fixed sequence; the lcm rides along after it.
    pairs = []

    def add(rows):
        """Reduce rows by the basis; join a nonzero remainder, normalized, and update the pairs.

        Every term of the remainder is reduced, so no earlier leading
        monomial divides the new one.
        """
        lm = _reduce(rows, basis, lms, order, K)[1]
        if lm is None:
            return
        rows = _normalized(rows, lm, K)
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
        row, d = _integer_row(g.terms, K)
        add([row] + ([{unit: d} if k == idx else {} for k in range(len(gens))] if track else []))

    processed = 0
    while pairs:
        processed += 1
        if processed > pair_budget:
            raise BudgetExceeded(f"Groebner pair budget of {pair_budget} exceeded")
        _, _, i, j, l = heappop(pairs)
        # S = L_j * (l / lm_i) * g_i - L_i * (l / lm_j) * g_j over the gcd of the
        # leading coefficients L_i, L_j, which are 1 over GF(p)
        ui, uj = mono_div(l, lms[i]), mono_div(l, lms[j])
        li, lj = basis[i][0][lms[i]], basis[j][0][lms[j]]
        d = gcd(li, lj)
        ci, cj = K.reduce(-lj // d), li // d
        rows = [{} for _ in basis[i]]
        for row, gi, gj in zip(rows, basis[i], basis[j]):
            _subtract(row, ci, ui, gi, K)
            _subtract(row, cj, uj, gj, K)
        add(rows)

    # Minimalize: the active elements are the minimal set, since no leading
    # monomial divides a later one.  Tail-reduce each (a copy of its rows)
    # against the others.  Tail reduction keeps each leading term, so the
    # normalized polynomial row is an element of the unique reduced basis,
    # independent of scheduling.
    minimal = sorted(active, key=lambda k: order.key(lms[k]))
    reduced, cofactors = [], []
    for k in minimal:
        others = [m for m in minimal if m != k]
        rows = [dict(row) for row in basis[k]]
        _reduce(rows, [basis[m] for m in others], [lms[m] for m in others], order, K)
        reduced.append(_normalized(rows[:1], lms[k], K)[0])
        lc = rows[0][lms[k]]
        cofactors.append(tuple(MultiPoly(K, variables, _field_row(row, lc, K))
                               for row in rows[1:]))
    return GroebnerBasis(K, variables, order, reduced, [lms[k] for k in minimal], gens,
                         tuple(cofactors) if track else None)


# ------------------------------------------------------------------ queries

def normal_form(f, gb: GroebnerBasis):
    """Remainder of f on division by the basis; zero iff f is in the ideal."""
    if f.field != gb.field or f.variables != gb.variables:
        raise RingMismatch("polynomial lives in a different ring than the basis")
    K = gb.field
    row, d = _integer_row(f.terms, K)
    rows = [row]
    scale = _reduce(rows, gb._rows, gb.lms, gb.order, K)[0]
    return MultiPoly(K, gb.variables, _field_row(rows[0], scale * d, K))


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
    supports = [frozenset(i for i, e in enumerate(lm) if e > 0) for lm in gb.lms]
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if not any(sup <= s for sup in supports):
                return size
    return 0


def standard_monomials(gb: GroebnerBasis):
    """Monomials outside the leading-term ideal, ascending in the basis order."""
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

    refs = {name: _combine(K, m, [(K.one(), column[0])])  # x_k * b_0, b_0 = 1
            for name, column in zip(gb.variables, columns)}
    sample = MultiPoly.zero(K, gb.variables)
    labels = [sample.format_monomial(mono) for mono in monomials]
    return FiniteAlgebra(K, labels, generator_refs=refs, border=(columns, steps))
