"""Differential test: reduced bases against an independent implementation.

Reduced Groebner bases are unique for a fixed ideal and order, so the output
of the in-tree Buchberger engine must coincide, polynomial for polynomial,
with sympy's on random ideals.  Skipped when sympy is not installed.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from etalg.fields import QQ
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


def from_sympy(expr):
    poly = sympy.Poly(expr, *SYMS, domain="QQ")
    terms = {}
    for exps, c in poly.terms():
        q = Fraction(int(c.numerator), int(c.denominator))
        terms[tuple(int(e) for e in exps)] = q
    return MultiPoly(QQ, V, terms)


@pytest.mark.parametrize("order_pair", [(GREVLEX, "grevlex"), (LEX, "lex")])
def test_reduced_bases_agree_with_sympy(order_pair):
    ours_order, sympy_order = order_pair
    rng = random.Random(97)
    compared = 0
    while compared < 20:
        gens = [random_mpoly(rng, QQ, V, max_degree=2, terms=3) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        mine = buchberger(gens, ours_order)
        tracked = buchberger(gens, ours_order, track=True)
        assert mine.cofactors is None and tracked.cofactors is not None
        assert mine.generators == tracked.generators
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
        gens = [random_mpoly(rng, QQ, V, max_degree=2, terms=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        mine = buchberger(gens, GREVLEX)
        if contains_one(mine):
            continue
        theirs = sympy.groebner([to_sympy(g) for g in gens], *SYMS, order="grevlex")
        f = random_mpoly(rng, QQ, V, max_degree=3, terms=4)
        _, remainder = theirs.reduce(to_sympy(f))
        assert normal_form(f, mine) == from_sympy(remainder)
        checked += 1
