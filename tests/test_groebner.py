import random
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul

import pytest

from etalg.errors import (
    BudgetExceeded,
    InternalContradiction,
    NotZeroDimensional,
    RingMismatch,
    TrivialIdeal,
)
from etalg.fields import GF, QQ
from etalg.groebner import (
    _integer_row,
    _reduce,
    buchberger,
    contains_one,
    inverse_mod,
    is_invertible_mod,
    noether_dimension,
    normal_form,
    one_certificate,
    quotient_algebra,
    standard_monomials,
)
from etalg.kaehler import AlgebraPresentation, decide_all, minors, transposed_jacobian
from etalg.multipoly import (
    GREVLEX,
    LEX,
    MultiPoly,
    mono_div,
    mono_divides,
    mono_is_coprime,
    mono_lcm,
    mono_mul,
)
from etalg.parsing import parse_input
from util import mpoly, random_mpoly

V = ("X", "Y")


def gb_of(*specs, field=QQ, variables=V, order=GREVLEX, **kw):
    gens = [mpoly(field, variables, s) for s in specs]
    return buchberger(gens, order, **kw)


def test_buchberger_examples():
    gb = gb_of({(2, 0): 1, (0, 0): -2}, {(0, 2): 1, (0, 0): -3})
    assert set(gb.generators) == {
        mpoly(QQ, V, {(2, 0): 1, (0, 0): -2}),
        mpoly(QQ, V, {(0, 2): 1, (0, 0): -3}),
    }
    gb2 = gb_of({(1, 1): 1, (0, 0): -1})
    assert gb2.generators == (mpoly(QQ, V, {(1, 1): 1, (0, 0): -1}),)
    gb3 = buchberger(
        [mpoly(QQ, ("X",), {(1,): 1}), mpoly(QQ, ("X",), {(1,): 1, (0,): 1})]
    )
    assert gb3.generators == (MultiPoly.one(QQ, ("X",)),)


def test_buchberger_criterion_every_s_poly_reduces_to_zero():
    rng = random.Random(41)
    instances = [
        gb_of({(2, 0): 1, (0, 2): 1, (0, 0): -1}, {(1, 1): 1}),
        gb_of({(3, 0): 1, (0, 1): -1}, {(0, 2): 1, (1, 0): -1}),
    ]
    for K in (QQ, GF(3)):
        gens = [random_mpoly(rng, K, V, max_degree=3, terms=3) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero]
        if gens:
            instances.append(buchberger(gens))
    for gb in instances:
        G = gb.generators
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                fi, fj = G[i], G[j]
                mi, ci = fi.leading(gb.order)
                mj, cj = fj.leading(gb.order)
                l = mono_lcm(mi, mj)
                s = fi.mul_term(mono_div(l, mi), gb.field.invert(ci)) - fj.mul_term(
                    mono_div(l, mj), gb.field.invert(cj)
                )
                assert normal_form(s, gb).is_zero


def test_basis_is_autoreduced():
    gb = gb_of({(2, 0): 1, (0, 2): 1, (0, 0): -1}, {(1, 1): 1})
    lms = gb.lms
    for i, g in enumerate(gb.generators):
        for mono in g.terms:
            for j, lm in enumerate(lms):
                if i == j and mono == lms[i]:
                    continue
                assert not mono_divides(lm, mono)


def test_normal_form_examples():
    gb = gb_of({(2, 0): 1, (0, 0): -2}, {(0, 2): 1, (0, 0): -3})
    assert normal_form(mpoly(QQ, V, {(2, 0): 1}), gb) == mpoly(QQ, V, {(0, 0): 2})
    assert normal_form(mpoly(QQ, V, {(2, 1): 1}), gb) == mpoly(QQ, V, {(0, 1): 2})
    triv = buchberger([MultiPoly.one(QQ, V)])
    assert normal_form(MultiPoly.one(QQ, V), triv).is_zero


def test_normal_form_linear_and_idempotent():
    rng = random.Random(43)
    gb = gb_of({(2, 0): 1, (0, 2): 1, (0, 0): -1}, {(1, 1): 1})
    for _ in range(30):
        f = random_mpoly(rng, QQ, V, max_degree=4, terms=4)
        g = random_mpoly(rng, QQ, V, max_degree=4, terms=4)
        assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)
        assert normal_form(normal_form(f, gb), gb) == normal_form(f, gb)


@pytest.mark.parametrize("order", [GREVLEX, LEX])
@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_normal_form_and_basis_terms_come_in_descending_order(field, order):
    """The kernel builds each remainder largest term first, so the first term of
    a generator is its leading monomial."""
    rng = random.Random(281 + field.characteristic())
    variables = ("X", "Y", "Z")
    checked = 0
    while checked < 15:
        gens = [random_mpoly(rng, field, variables, max_degree=2, terms=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        gb = buchberger(gens, order)
        if contains_one(gb):
            continue
        f = random_mpoly(rng, field, variables, max_degree=5, terms=20, denominator=3)
        remainder = normal_form(f, gb)
        for p in (remainder, *gb.generators):
            keys = [order.key(m) for m in p.terms]
            assert keys == sorted(keys, reverse=True)
        assert [next(iter(g.terms)) for g in gb.generators] == list(gb.lms)
        checked += len(remainder.terms) > 2


@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("order", [GREVLEX, LEX])
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_kernel_rows_round_trip_and_reduce_reports_the_leading_monomial(field, order, track):
    """The basis keeps each generator as the row it would convert back to, and
    ``_reduce`` returns its remainder's largest monomial, None for zero."""
    p = field.characteristic()
    denominator = 1 if p else 5
    rng = random.Random(307 + p + 2 * track + (order == LEX))
    variables = ("X", "Y", "Z")
    for _ in range(12):
        gens = [random_mpoly(rng, field, variables, max_degree=2, terms=4, denominator=denominator)
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero] or [MultiPoly.zero(field, variables)]
        gb = buchberger(gens, order, track=track)
        assert gb._rows == tuple((_integer_row(g.terms, field)[0],) for g in gb.generators)
        f = random_mpoly(rng, field, variables, max_degree=4, terms=8, denominator=denominator)
        multiple = f * gens[0]
        for h, zero in ((f, False), (multiple, True)):
            rows = [_integer_row(h.terms, field)[0]]
            lm = _reduce(rows, gb._rows, gb.lms, order, field)[1]
            assert lm == (max(rows[0], key=order.key) if rows[0] else None)
            assert zero <= (lm is None)


def test_contains_one():
    assert contains_one(
        buchberger([mpoly(QQ, ("X",), {(1,): 1}), mpoly(QQ, ("X",), {(1,): 1, (0,): 1})])
    )
    assert not contains_one(buchberger([mpoly(QQ, ("X",), {(2,): 1, (0,): -2})]))
    assert not contains_one(buchberger([MultiPoly.zero(QQ, ("X",))]))


def test_one_certificate_multiplies_out():
    gens = [mpoly(QQ, V, {(2, 0): 1, (0, 2): 1, (0, 0): -1}), mpoly(QQ, V, {(1, 1): 1}),
            mpoly(QQ, V, {(2, 0): 2, (0, 2): -2})]
    gb = buchberger(gens, track=True)
    cert = one_certificate(gb)
    assert cert is not None
    total = MultiPoly.zero(QQ, V)
    for c, g in zip(cert, gens):
        total = total + c * g
    assert total == MultiPoly.one(QQ, V)


def test_a_certificate_that_does_not_multiply_out_is_a_contradiction():
    gens = [mpoly(QQ, V, {(1, 0): 1}), mpoly(QQ, V, {(1, 0): 1, (0, 0): -1})]
    gb = buchberger(gens, track=True)
    gb.cofactors = tuple(tuple(c.scale(QQ.from_int(2)) for c in row) for row in gb.cofactors)
    with pytest.raises(InternalContradiction, match="cofactor bookkeeping broke"):
        one_certificate(gb)


def test_is_invertible_mod_examples():
    gbx = buchberger([mpoly(QQ, ("X",), {(2,): 1, (0,): -1})])
    assert is_invertible_mod(mpoly(QQ, ("X",), {(1,): 2}), gbx)
    assert inverse_mod(mpoly(QQ, ("X",), {(1,): 2}), gbx) == MultiPoly(
        QQ, ("X",), {(1,): Fraction(1, 2)}
    )
    gbn = buchberger([mpoly(QQ, ("X",), {(2,): 1})])
    assert not is_invertible_mod(mpoly(QQ, ("X",), {(1,): 1}), gbn)
    gbc = gb_of({(2, 0): 1, (0, 2): 1, (0, 0): -1}, {(1, 1): 1})
    det = mpoly(QQ, V, {(2, 0): 2, (0, 2): -2})
    assert is_invertible_mod(det, gbc)
    inv = inverse_mod(det, gbc)
    assert normal_form(inv * det, gbc) == MultiPoly.one(QQ, V)


def test_noether_dimension_examples():
    assert noether_dimension(gb_of({(1, 1): 1, (0, 0): -1})) == 1
    assert noether_dimension(gb_of({(2, 0): 1, (0, 0): -2}, {(0, 2): 1, (0, 0): -3})) == 0
    assert noether_dimension(buchberger([MultiPoly.zero(QQ, ("X",))])) == 1
    with pytest.raises(TrivialIdeal):
        noether_dimension(buchberger([MultiPoly.one(QQ, V)]))


def test_noether_dimension_order_independent():
    rng = random.Random(47)
    instances = [
        [mpoly(QQ, V, {(1, 1): 1, (0, 0): -1})],
        [mpoly(QQ, V, {(2, 0): 1, (0, 2): 1, (0, 0): -1}), mpoly(QQ, V, {(1, 1): 1})],
        [mpoly(QQ, V, {(3, 0): 1, (0, 1): -1})],
    ]
    for K in (QQ, GF(3)):
        gens = [random_mpoly(rng, K, V, max_degree=2, terms=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if gens:
            instances.append(gens)
    for gens in instances:
        a = buchberger(gens, GREVLEX)
        b = buchberger(gens, LEX)
        if contains_one(a):
            assert contains_one(b)
            continue
        assert noether_dimension(a) == noether_dimension(b)


def test_standard_monomials_examples():
    gb = gb_of({(2, 0): 1, (0, 0): -2}, {(0, 2): 1, (0, 0): -3})
    assert set(standard_monomials(gb)) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    # deterministic order: ascending in the basis order (here grevlex)
    assert standard_monomials(gb) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    gbc = gb_of({(2, 0): 1, (0, 2): 1, (0, 0): -1}, {(1, 1): 1})
    assert set(standard_monomials(gbc)) == {(0, 0), (1, 0), (0, 1), (0, 2)}
    gbx = buchberger([mpoly(QQ, ("X",), {(1,): 1})])
    assert standard_monomials(gbx) == [(0,)]
    with pytest.raises(NotZeroDimensional):
        standard_monomials(gb_of({(1, 1): 1, (0, 0): -1}))


def test_quotient_algebra_examples():
    A = quotient_algebra(buchberger([mpoly(QQ, ("X",), {(2,): 1, (0,): -2})]))
    assert A.dimension == 2
    x = A.generator_refs["X"]
    assert A.mul(x, x) == A.scalar_mul(Fraction(2), A.unit)

    B = quotient_algebra(gb_of({(2, 0): 1, (0, 0): -2}, {(0, 2): 1, (0, 0): -3}))
    assert B.dimension == 4
    xy = B.mul(B.generator_refs["X"], B.generator_refs["Y"])
    assert B.mul(xy, xy) == B.scalar_mul(Fraction(6), B.unit)

    C = quotient_algebra(buchberger([mpoly(GF(2), ("X",), {(2,): 1, (1,): 1, (0,): 1})]))
    assert C.dimension == 2
    xc = C.generator_refs["X"]
    assert C.mul(xc, xc) == C.add(xc, C.unit)


def test_quotient_algebra_axioms_on_all_basis_triples():
    B = quotient_algebra(gb_of({(2, 0): 1, (0, 2): 1, (0, 0): -1}, {(1, 1): 1}))
    m = B.dimension
    for i in range(m):
        ei = B.basis_element(i)
        assert B.mul(B.unit, ei) == ei
        for j in range(m):
            ej = B.basis_element(j)
            assert B.mul(ei, ej) == B.mul(ej, ei)
            for k in range(m):
                ek = B.basis_element(k)
                assert B.mul(B.mul(ei, ej), ek) == B.mul(ei, B.mul(ej, ek))


def all_pairs_quotient(gb):
    """(table, unit, generator_refs) from one normal form per basis pair: the oracle."""
    monomials = standard_monomials(gb)
    index = {mono: k for k, mono in enumerate(monomials)}
    K = gb.field

    def coords(exps):
        vec = [K.zero()] * len(monomials)
        for e, c in normal_form(MultiPoly.from_monomial(K, gb.variables, exps), gb).terms.items():
            vec[index[e]] = c
        return tuple(vec)

    table = tuple(tuple(coords(mono_mul(a, b)) for b in monomials) for a in monomials)
    n = len(gb.variables)
    refs = {name: coords(tuple(int(i == k) for i in range(n)))
            for k, name in enumerate(gb.variables)}
    return table, coords((0,) * n), refs


def random_zero_dimensional(rng, field, variables):
    """A univariate relation in every variable, plus up to two products of root factors.

    Each univariate relation has random coefficients or random roots.  A
    product of factors x_k - r, with r a root of x_k's relation, vanishes on
    part of the grid of common roots only: the ideal stays proper and its
    staircase is often not a box.
    """
    n = len(variables)

    def power(k, d):
        return tuple(d if i == k else 0 for i in range(n))

    def linear(k, r):
        return mpoly(field, variables, {power(k, 1): 1, power(k, 0): -r})

    gens, roots = [], {}
    for k in range(n):
        degree = rng.randint(1, 4 - n // 2)
        if rng.random() < 0.5:
            spec = {power(k, d): rng.randint(-3, 3) for d in range(degree)}
            spec[power(k, degree)] = 1
            gens.append(mpoly(field, variables, spec))
            continue
        roots[k] = [rng.randint(-2, 2) for _ in range(degree)]
        gens.append(reduce(mul, (linear(k, r) for r in roots[k])))
    for _ in range(rng.randint(0, 2) if len(roots) > 1 else 0):
        pair = rng.sample(sorted(roots), 2)
        gens.append(reduce(mul, (linear(k, rng.choice(roots[k])) for k in pair)))
    return gens


def test_quotient_algebra_matches_all_pairs_normal_forms():
    rng = random.Random(47)
    names = ("X", "Y", "Z")
    not_a_box = 0
    for field in (QQ, GF(2), GF(5)):
        for order in (GREVLEX, LEX):
            for n in (1, 2, 2, 2, 3, 3, 3, 3):
                gb = buchberger(random_zero_dimensional(rng, field, names[:n]), order)
                A = quotient_algebra(gb)
                staircase = standard_monomials(gb)
                box = reduce(mul, (1 + max(e[k] for e in staircase) for k in range(n)))
                not_a_box += box != len(staircase)
                # the scan of the bounding box of the pure powers: the oracle
                bounds = [min(lm[k] for lm in gb.lms if lm[k] == sum(lm)) for k in range(n)]
                scan = [e for e in product(*map(range, bounds))
                        if not any(mono_divides(lm, e) for lm in gb.lms)]
                assert staircase == sorted(scan, key=order.key)
                table, unit, refs = all_pairs_quotient(gb)
                assert A.table == table
                assert A.unit == unit
                assert A.generator_refs == refs
                m = A.dimension
                if m <= 8:
                    for i in range(m):
                        for j in range(m):
                            for k in range(m):
                                assert (A.mul(A.table[i][j], A.basis_element(k))
                                        == A.mul(A.basis_element(i), A.table[j][k]))
    assert not_a_box >= 5


def linear_min_buchberger(gens, order, track, criteria=True):
    """(generators, cofactors, pairs taken) from a pair loop that takes a linear
    min over a list of pairs and recomputes every key and leading term: the
    oracle.  With ``criteria`` each new element updates the pairs by the
    Gebauer-Moller criteria M, F, B and chain, written plainly; without it
    every pair is queued and only coprime pairs are skipped, when taken."""
    K, variables = gens[0].field, gens[0].variables

    def lm(g):
        return g.leading(order)[0]

    def lcm(i, j):
        return mono_lcm(lm(basis[i]), lm(basis[j]))

    def reduce_(f, basis, rep, reps):
        remainder, p = MultiPoly.zero(K, variables), f
        while not p.is_zero:
            m, c = p.leading(order)
            hit = next((k for k, g in enumerate(basis) if mono_divides(lm(g), m)), None)
            if hit is None:
                t = MultiPoly.from_monomial(K, variables, m, c)
                remainder, p = remainder + t, p - t
                continue
            q = mono_div(m, lm(basis[hit]))
            p = p - basis[hit].mul_term(q, c)
            if rep is not None:
                factor = MultiPoly.from_monomial(K, variables, q, c)
                rep = [a - factor * b for a, b in zip(rep, reps[hit])]
        return remainder, rep

    def monic(poly, rep):
        inv = K.invert(poly.leading(order)[1])
        return poly.scale(inv), None if rep is None else [c.scale(inv) for c in rep]

    basis, reps, pairs, active = [], [], [], []

    def join(reduced, rep):
        reduced, rep = monic(reduced, rep)
        basis.append(reduced)
        reps.append(rep)
        t = len(basis) - 1
        if not criteria:
            pairs.extend((k, t) for k in range(t))
            return
        lm_t = lm(reduced)
        # M: (i, t) goes when some (j, t) has an lcm properly dividing lcm(i, t)
        new = [i for i in active
               if not any(lcm(j, t) != lcm(i, t) and mono_divides(lcm(j, t), lcm(i, t))
                          for j in active)]
        # F and B: one pair per lcm, and none for an lcm that a coprime pair has
        for i in new:
            same = [j for j in new if lcm(j, t) == lcm(i, t)]
            if same[0] == i and not any(mono_is_coprime(lm(basis[j]), lm_t) for j in same):
                pairs.append((i, t))
        # chain: lm_t | lcm(i, j) with lcm(i, t) != lcm(i, j) != lcm(j, t)
        pairs[:] = [(i, j) for i, j in pairs
                    if j == t or not (mono_divides(lm_t, lcm(i, j)) and lcm(i, t) != lcm(i, j)
                                      and lcm(j, t) != lcm(i, j))]
        active[:] = [i for i in active if not mono_divides(lm_t, lm(basis[i]))] + [t]

    for idx, g in enumerate(gens):
        if g.is_zero:
            continue
        rep = None
        if track:
            rep = [MultiPoly.zero(K, variables)] * len(gens)
            rep[idx] = MultiPoly.one(K, variables)
        reduced, rep = reduce_(g, basis, rep, reps)
        if not reduced.is_zero:
            join(reduced, rep)

    def pair_key(pair):
        l = lcm(*pair)
        return (sum(l), order.key(l), *pair)

    taken = 0
    while pairs:
        taken += 1
        i, j = pairs.pop(min(range(len(pairs)), key=lambda k: pair_key(pairs[k])))
        if mono_is_coprime(lm(basis[i]), lm(basis[j])):
            continue
        l = lcm(i, j)
        ui = MultiPoly.from_monomial(K, variables, mono_div(l, lm(basis[i])))
        uj = MultiPoly.from_monomial(K, variables, mono_div(l, lm(basis[j])))
        s = basis[i] * ui - basis[j] * uj
        if s.is_zero:
            continue
        rep = [ui * a - uj * b for a, b in zip(reps[i], reps[j])] if track else None
        reduced, rep = reduce_(s, basis, rep, reps)
        if not reduced.is_zero:
            join(reduced, rep)

    minimal = []
    for k in sorted(range(len(basis)), key=lambda k: order.key(lm(basis[k]))):
        if not any(mono_divides(lm(basis[m]), lm(basis[k])) for m in minimal):
            minimal.append(k)
    final = []
    for k in minimal:
        others = [m for m in minimal if m != k]
        reduced, rep = reduce_(basis[k], [basis[m] for m in others], reps[k],
                               [reps[m] for m in others])
        final.append(monic(reduced, rep))
    final.sort(key=lambda pair: order.key(lm(pair[0])))
    cofactors = tuple(tuple(rep) for _, rep in final) if track else None
    return tuple(poly for poly, _ in final), cofactors, taken


def random_quadric(rng, field, variables):
    """Each monomial of degree <= 2 with probability 2/5 and a coefficient in [-3, 3]."""
    n = len(variables)
    spec = {e: rng.randint(-3, 3) for e in product(range(3), repeat=n)
            if sum(e) <= 2 and rng.random() < 0.4}
    return mpoly(field, variables, spec)


def test_heap_pair_queue_matches_linear_min_oracle():
    # dense quadrics queue enough pairs that a different pair order changes
    # the tracked cofactors of several of these ideals
    rng = random.Random(61)
    names = ("X", "Y", "Z")
    nontrivial = 0
    for field in (QQ, GF(2), GF(5)):
        for order in (GREVLEX, LEX):
            compared = 0
            while compared < 5:
                gens = [random_quadric(rng, field, names) for _ in range(rng.randint(2, 3))]
                if all(g.is_zero for g in gens):
                    continue
                for track in (False, True):
                    generators, cofactors, taken = linear_min_buchberger(gens, order, track)
                    gb = buchberger(gens, order, pair_budget=taken, track=track)
                    assert gb.generators == generators
                    assert gb.cofactors == cofactors
                    assert gb.lms == tuple(g.leading(order)[0] for g in generators)
                    if taken:
                        with pytest.raises(BudgetExceeded):
                            buchberger(gens, order, pair_budget=taken - 1, track=track)
                # the criteria drop pairs, never basis elements: the reduced
                # basis is the criteria-free loop's
                assert linear_min_buchberger(gens, order, False, criteria=False)[0] == generators
                nontrivial += not contains_one(gb)
                compared += 1
    assert nontrivial >= 10


def multiplies_out_to_one(cofactors, gens):
    K, variables = gens[0].field, gens[0].variables
    total = sum((c * g for c, g in zip(cofactors, gens)), MultiPoly.zero(K, variables))
    return total == MultiPoly.one(K, variables)


def test_certificates_hold_where_the_criteria_change_the_cofactors():
    # Four quadrics in three variables generate 1, and 3 x 3 systems with an
    # invertible det(Ja) adjoin it as a single minor.  The criteria take
    # another path than the criteria-free loop on several of these, so their
    # cofactors differ; each certificate must still hold.
    rng = random.Random(75)
    names = ("X", "Y", "Z")
    differ = {"bezout": 0, "inverse": 0}
    for field in (QQ, GF(2), GF(5)):
        found = 0
        while found < 4:
            order = (GREVLEX, LEX)[found % 2]
            gens = [random_quadric(rng, field, names) for _ in range(4)]
            gb = buchberger(gens, order, track=True)
            if not contains_one(gb):
                continue
            assert multiplies_out_to_one(one_certificate(gb), gens)
            free = linear_min_buchberger(gens, order, True, criteria=False)
            differ["bezout"] += free[1] != gb.cofactors
            found += 1
        found = 0
        while found < 2:
            relations = [random_quadric(rng, field, names) for _ in range(3)]
            if any(f.is_zero for f in relations):
                continue
            order = (GREVLEX, LEX)[found % 2]
            P = AlgebraPresentation(field, names, relations)
            decisions = decide_all(P, order, certificates=True)
            etale = decisions["standard_etale"]
            if not etale.value or etale.trivial:
                continue
            aug = decisions["nette"].basis  # the one tracked run on <f> + <det(Ja)>
            assert multiplies_out_to_one(one_certificate(aug), aug.original)
            minor, inverse = etale.certificate
            assert normal_form(minor * inverse - MultiPoly.one(field, names),
                               buchberger(relations, order)).is_zero
            free = linear_min_buchberger(list(aug.original), order, True, criteria=False)
            differ["inverse"] += free[1] != aug.cofactors
            found += 1
    assert differ["bezout"] >= 1 and differ["inverse"] >= 1, differ


CI_MINOR_IDEAL = ("field Q\nvars W, X, Y, Z\nrelations:\n"
                  "  W^2 + X^2 - Y*Z + 3*W - 1\n  X^2 - 2*Y^2 + Z^2 + W*X + Z - 2\n")


def ci_minor_generators():
    P = parse_input(CI_MINOR_IDEAL)
    return list(P.relations) + [m for _, _, m in minors(transposed_jacobian(P), 2, P.ring_zero())]


@pytest.mark.parametrize("track", [False, True])
def test_pair_budget_boundary_on_a_minor_ideal(track):
    # the relations plus the 2 x 2 minors of Ja: 21 pairs leave the queue
    # after the Gebauer-Moller criteria (136 without them)
    gens = ci_minor_generators()
    assert linear_min_buchberger(gens, GREVLEX, track)[2] == 21
    with pytest.raises(BudgetExceeded):
        buchberger(gens, pair_budget=20, track=track)
    assert contains_one(buchberger(gens, pair_budget=21, track=track))


def test_row_kernel_cofactors_match_multipoly_arithmetic_on_a_minor_ideal():
    # the oracle updates each cofactor with MultiPoly products and differences
    gens = ci_minor_generators()
    generators, cofactors, taken = linear_min_buchberger(gens, GREVLEX, True)
    gb = buchberger(gens, track=True)
    assert taken == 21
    assert gb.generators == generators
    assert gb.cofactors == cofactors


def test_tracked_run_makes_no_multipoly_product_or_difference(monkeypatch):
    gens = ci_minor_generators()
    calls = []
    for name in ("__mul__", "__sub__"):
        def counting(self, other, name=name, original=getattr(MultiPoly, name)):
            calls.append(name)
            return original(self, other)
        monkeypatch.setattr(MultiPoly, name, counting)
    gb = buchberger(gens, track=True)
    assert calls == []
    # one_certificate re-verifies 1 = sum c_j * f_j with MultiPoly arithmetic
    assert one_certificate(gb) is not None and "__mul__" in calls


def test_budget_exceeded():
    # X^2 - 2, X*Y - 1 queues a pair (X^2 and X*Y share X); it needs 3 to finish
    specs = ({(2, 0): 1, (0, 0): -2}, {(1, 1): 1, (0, 0): -1})
    with pytest.raises(BudgetExceeded):
        gb_of(*specs, pair_budget=0)
    with pytest.raises(BudgetExceeded):
        gb_of(*specs, pair_budget=2)
    assert gb_of(*specs, pair_budget=3).lms == ((1, 0), (0, 2))  # X - 2*Y, Y^2 - 1/2


def test_ring_mismatch():
    gb = buchberger([mpoly(QQ, ("X",), {(2,): 1})])
    with pytest.raises(RingMismatch):
        normal_form(mpoly(QQ, V, {(1, 1): 1}), gb)
    with pytest.raises(RingMismatch):
        buchberger([mpoly(QQ, ("X",), {(1,): 1}), mpoly(GF(2), ("X",), {(1,): 1})])


def test_determinism_same_result_twice():
    gens = [mpoly(QQ, V, {(2, 0): 1, (0, 2): 1, (0, 0): -1}), mpoly(QQ, V, {(1, 1): 1})]
    a = buchberger(list(gens))
    b = buchberger(list(reversed(gens)))
    # reduced bases are canonical: generator order in the input cannot matter
    assert a.generators == b.generators
