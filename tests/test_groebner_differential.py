"""Differential test: reduced bases against an independent implementation.

Reduced Groebner bases are unique for a fixed ideal and order, so the output
of the in-tree Buchberger engine must coincide, polynomial for polynomial,
with sympy's on random ideals, over Q and over GF(p) (sympy's
``modulus=p``).  Normal forms are unique too and are compared the same way.
Over Q the coefficients are fractions a/b with b up to 7, so the engine's
clearing of denominators on entry and its division on exit are compared
too.
Skipped when sympy is not installed.
"""

import random
from fractions import Fraction
from heapq import heappop

import pytest

sympy = pytest.importorskip("sympy")

from etalg import groebner
from etalg.fields import GF, QQ
from etalg.groebner import buchberger, contains_one, normal_form
from etalg.multipoly import GREVLEX, LEX, MultiPoly
from util import random_mpoly

V = ("X", "Y", "Z")
SYMS = sympy.symbols("X Y Z")


def to_sympy(p):
    expr = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for sym, e in zip(SYMS, exps):
            term *= sym**e
        expr += term
    return expr


def from_sympy(expr, field=QQ):
    """A sympy expression as a MultiPoly; over GF(p) its integer coefficients are read mod p."""
    poly = sympy.Poly(expr, *SYMS, domain="QQ")
    terms = {}
    for exps, c in poly.terms():
        if field == QQ:
            q = Fraction(int(c.numerator), int(c.denominator))
        else:
            assert c.denominator == 1
            q = field.from_int(int(c.numerator))
        terms[tuple(int(e) for e in exps)] = q
    return MultiPoly(field, V, terms)


@pytest.mark.parametrize("order_pair", [(GREVLEX, "grevlex"), (LEX, "lex")])
def test_reduced_bases_agree_with_sympy(order_pair):
    ours_order, sympy_order = order_pair
    rng = random.Random(97)
    compared = 0
    while compared < 20:
        gens = [random_mpoly(rng, QQ, V, max_degree=2, terms=3, denominator=7)
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        mine = buchberger(gens, ours_order)
        tracked = buchberger(gens, ours_order, track=True)
        assert mine.cofactors is None and tracked.cofactors is not None
        assert mine.generators == tracked.generators
        for g, row in zip(tracked.generators, tracked.cofactors):
            assert sum((c * f for c, f in zip(row, gens)), MultiPoly.zero(QQ, V)) == g
        theirs = sympy.groebner([to_sympy(g) for g in gens], *SYMS, order=sympy_order)
        if contains_one(mine):
            assert list(theirs.exprs) == [sympy.Integer(1)]
        else:
            # sympy clears denominators; compare after monic normalization
            theirs_monic = {from_sympy(e).monic(ours_order) for e in theirs.exprs}
            assert set(mine.generators) == theirs_monic
        compared += 1


def test_normal_forms_agree_with_sympy():
    rng = random.Random(98)
    checked = 0
    while checked < 15:
        gens = [random_mpoly(rng, QQ, V, max_degree=2, terms=3, denominator=7) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        mine = buchberger(gens, GREVLEX)
        if contains_one(mine):
            continue
        theirs = sympy.groebner([to_sympy(g) for g in gens], *SYMS, order="grevlex")
        f = random_mpoly(rng, QQ, V, max_degree=3, terms=4, denominator=7)
        _, remainder = theirs.reduce(to_sympy(f))
        assert normal_form(f, mine) == from_sympy(remainder)
        checked += 1


PRIMES = (2, 5, 7)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("order_pair", [(GREVLEX, "grevlex"), (LEX, "lex")])
def test_reduced_bases_agree_with_sympy_mod_p(order_pair, p):
    ours_order, sympy_order = order_pair
    K = GF(p)
    rng = random.Random(1000 * p + len(sympy_order))
    compared = nontrivial = 0
    while compared < 12:
        gens = [random_mpoly(rng, K, V, max_degree=2, terms=4) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        mine = buchberger(gens, ours_order)
        tracked = buchberger(gens, ours_order, track=True)
        assert mine.generators == tracked.generators
        theirs = sympy.groebner([to_sympy(g) for g in gens], *SYMS, order=sympy_order, modulus=p)
        if contains_one(mine):
            assert list(theirs.exprs) == [sympy.Integer(1)]
        else:
            theirs_monic = {from_sympy(e, K).monic(ours_order) for e in theirs.exprs}
            assert set(mine.generators) == theirs_monic
            nontrivial += 1
        compared += 1
    assert nontrivial >= 4


@pytest.mark.parametrize("p", PRIMES)
def test_normal_forms_agree_with_sympy_mod_p(p):
    K = GF(p)
    rng = random.Random(2000 + p)
    checked = 0
    while checked < 12:
        gens = [random_mpoly(rng, K, V, max_degree=2, terms=4) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        mine = buchberger(gens, GREVLEX)
        if contains_one(mine):
            continue
        theirs = sympy.groebner([to_sympy(g) for g in gens], *SYMS, order="grevlex", modulus=p)
        f = random_mpoly(rng, K, V, max_degree=3, terms=5)
        _, remainder = theirs.reduce(to_sympy(f))
        assert normal_form(f, mine) == from_sympy(remainder, K)
        checked += 1


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_normal_form_skips_a_cancelled_term_that_a_later_step_makes_again(field, monkeypatch):
    """In grevlex X > Y > Z > 1.  Dividing 2X + Y - 3Z + 1 by {2X - 3Z, Y - Z}:
    the step on X cancels the row's -3Z, and the step on Y makes Z again, so
    the heap holds Z twice and skips the second, stale entry."""
    X, Y, Z = (MultiPoly.variable(field, V, i) for i in range(3))
    one = MultiPoly.one(field, V)
    two, three = field.from_int(2), field.from_int(3)
    gb = buchberger([X.scale(two) - Z.scale(three), Y - Z], GREVLEX)
    f = X.scale(two) + Y - Z.scale(three) + one
    popped = []

    def recording_heappop(heap):
        entry = heappop(heap)
        popped.append(entry[1])
        return entry

    monkeypatch.setattr(groebner, "heappop", recording_heappop)
    assert normal_form(f, gb) == Z + one
    assert popped == [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1), (0, 0, 0)]
    p = field.characteristic()
    modulus = {"modulus": p} if p else {}
    theirs = sympy.groebner([to_sympy(g) for g in gb.original], *SYMS, order="grevlex", **modulus)
    _, remainder = sympy.reduced(to_sympy(f), list(theirs.exprs), *SYMS, order="grevlex", **modulus)
    assert from_sympy(remainder, field) == Z + one


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)])
@pytest.mark.parametrize("order_pair", [(GREVLEX, "grevlex"), (LEX, "lex")])
def test_normal_forms_of_long_polynomials_agree_with_sympy_reduced(order_pair, field):
    ours_order, sympy_order = order_pair
    p = field.characteristic()
    modulus = {"modulus": p} if p else {}
    denominator = 1 if p else 7
    rng = random.Random(3000 + p + len(sympy_order))
    checked = 0
    while checked < 5:
        gens = [random_mpoly(rng, field, V, max_degree=2, terms=4, denominator=denominator)
                for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        mine = buchberger(gens, ours_order)
        if contains_one(mine):
            continue
        theirs = sympy.groebner([to_sympy(g) for g in gens], *SYMS, order=sympy_order, **modulus)
        f = random_mpoly(rng, field, V, max_degree=7, terms=300, denominator=denominator)
        assert len(f.terms) >= 30
        _, remainder = sympy.reduced(to_sympy(f), list(theirs.exprs), *SYMS, order=sympy_order,
                                     **modulus)
        assert normal_form(f, mine) == from_sympy(remainder, field)
        checked += 1
