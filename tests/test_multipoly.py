import random

import pytest
from hypothesis import example, given, settings, strategies as st

from etalg.errors import IndexOutOfRange, RingMismatch, ZeroOperand
from etalg.fields import GF, QQ
from etalg.multipoly import GREVLEX, LEX, MonomialOrder, MultiPoly, mono_is_coprime
from util import mpoly, power_products, random_mpoly

V = ("X", "Y")


def test_partial_derivative_examples():
    assert mpoly(QQ, V, {(2, 1): 1}).partial_derivative(0) == mpoly(QQ, V, {(1, 1): 2})
    f = mpoly(QQ, V, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    assert f.partial_derivative(1) == mpoly(QQ, V, {(0, 1): 2})
    assert mpoly(GF(2), V, {(1, 1): 1}).partial_derivative(0) == mpoly(GF(2), V, {(0, 1): 1})
    with pytest.raises(IndexOutOfRange):
        f.partial_derivative(2)


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        mpoly(QQ, V, {(1, 0): 1}) + mpoly(QQ, ("X",), {(1,): 1})
    with pytest.raises(RingMismatch):
        mpoly(QQ, V, {(1, 0): 1}) * mpoly(GF(2), V, {(1, 0): 1})
    with pytest.raises(RingMismatch):
        mpoly(QQ, V, {(1, 0): 1}).mul_term((1,), QQ.one())


def test_arithmetic_ring_axioms_random():
    rng = random.Random(5)
    for K in (QQ, GF(5)):
        for _ in range(30):
            f = random_mpoly(rng, K, V)
            g = random_mpoly(rng, K, V)
            h = random_mpoly(rng, K, V)
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f - f == MultiPoly.zero(K, V)


def test_power_takes_the_repeated_squaring_product_count(monkeypatch):
    products = []
    original = MultiPoly.__mul__

    def counting(self, other):
        products.append(None)
        return original(self, other)

    rng = random.Random(41)
    for K in (QQ, GF(2), GF(5)):
        f = random_mpoly(rng, K, V, max_degree=2, terms=3) + MultiPoly.variable(K, V, 0)
        wants = [MultiPoly.one(K, V)]
        for _ in range(10):
            wants.append(wants[-1] * f)
        monkeypatch.setattr(MultiPoly, "__mul__", counting)
        for n, want in enumerate(wants):
            products.clear()
            assert f ** n == want
            assert len(products) == power_products(n)
        monkeypatch.undo()


def test_negative_exponent_raises():
    x = MultiPoly.variable(GF(5), ("X",), 0)
    for n in (-1, -3):
        with pytest.raises(ValueError, match="negative exponent"):
            x ** n


def test_zero_polynomial_has_no_leading_term():
    # an unreduced multiple of p is reduced to zero on construction
    unreduced = MultiPoly(GF(7), ("X",), {(1,): 7})
    for zero in (MultiPoly.zero(GF(5), V), unreduced):
        assert zero.is_zero
        for order in (GREVLEX, LEX):
            with pytest.raises(ZeroOperand):
                zero.leading(order)
            with pytest.raises(ZeroOperand):
                zero.monic(order)


def test_arithmetic_matches_sympy():
    # every entry point of the one term loop, against sympy's polynomials over the same field
    sympy = pytest.importorskip("sympy")
    rng = random.Random(61)
    for K in (GF(2), GF(5), QQ):
        for variables in (("X", "Y"), ("X", "Y", "Z")):
            gens = sympy.symbols(variables)
            domain = {"domain": "QQ"} if K == QQ else {"modulus": K.modulus}

            def theirs(f):
                terms = {e: sympy.Rational(c.numerator, c.denominator) if K == QQ else c
                         for e, c in f.terms.items()}
                return sympy.Poly.from_dict(terms or {(0,) * len(gens): 0}, gens, **domain)

            def check(got, want):
                assert all(got.terms.values())
                assert theirs(got) == want

            zero = MultiPoly.zero(K, variables)
            for _ in range(12):
                f, g, h = (random_mpoly(rng, K, variables, max_degree=2, terms=4)
                           for _ in range(3))
                g = g - f + h  # g holds -f, so f + g cancels f's terms
                F, G = theirs(f), theirs(g)
                check(f + g, F + G)
                check(f - g, F - G)
                check(-f, -F)
                check(f * g, F * G)
                c = K.from_int(rng.randint(-3, 3))
                check(f.scale(c), F * theirs(MultiPoly.constant(K, variables, c)))
                q = tuple(rng.randint(0, 2) for _ in variables)
                check(f.mul_term(q, c),
                      F * theirs(MultiPoly.from_monomial(K, variables, q, c)))
                for i, x in enumerate(gens):
                    check(f.partial_derivative(i), F.diff(x))
                for n in range(7):
                    check(f ** n, F ** n)
                for cancelled in (f - f, f + (-f), f * g - g * f):
                    assert cancelled == zero and cancelled.terms == {}


def test_grevlex_vs_lex():
    x2 = (2, 0)
    xy = (1, 1)
    y3 = (0, 3)
    assert GREVLEX.key(y3) > GREVLEX.key(x2)        # higher total degree wins
    assert GREVLEX.key(x2) > GREVLEX.key(xy)        # grevlex tie break
    assert LEX.key(x2) > LEX.key(y3)                # lex looks at X first


def test_order_axioms_sampled():
    rng = random.Random(9)
    monos = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(60)]
    unit = (0, 0, 0)
    for order in (GREVLEX, LEX):
        keys = [order.key(m) for m in monos]
        # total: keys compare pairwise without error and agree with equality
        for a, ka in zip(monos, keys):
            assert order.key(unit) <= ka  # 1 is the minimum: well-founded start
            for b, kb in zip(monos, keys):
                assert (ka == kb) == (a == b)
        # multiplicative: a < b implies a*c < b*c
        for _ in range(40):
            a, b, c = rng.choice(monos), rng.choice(monos), rng.choice(monos)
            if order.key(a) < order.key(b):
                ac = tuple(i + j for i, j in zip(a, c))
                bc = tuple(i + j for i, j in zip(b, c))
                assert order.key(ac) < order.key(bc)


def _monomial_pairs(n):
    """Two exponent tuples of length n; the second is often the first itself."""
    monomial = st.tuples(*[st.integers(0, 5)] * n)
    return monomial.flatmap(lambda a: st.tuples(st.just(a), st.just(a) | monomial))


@settings(derandomize=True)
@given(st.integers(1, 4).flatmap(_monomial_pairs))
@example(((2, 0, 1), (2, 0, 1)))
@example(((0, 0, 0), (0, 0, 0)))
def test_heap_key_reverses_key(pair):
    a, b = pair
    for order in (GREVLEX, LEX):
        assert (order.heap_key(a) < order.heap_key(b)) == (order.key(a) > order.key(b))
        assert (order.heap_key(a) == order.heap_key(b)) == (a == b) == (order.key(a) == order.key(b))


def test_mono_is_coprime_matches_its_definition():
    rng = random.Random(29)
    coprime = 0
    for _ in range(2000):
        n = rng.randint(0, 5)
        a, b = (tuple(rng.choice((0, 0, 0, 1, 2, 9)) for _ in range(n)) for _ in range(2))
        expected = all(x == 0 or y == 0 for x, y in zip(a, b))
        assert mono_is_coprime(a, b) == expected
        coprime += expected
    assert 200 < coprime < 1800


def test_order_parse():
    assert MonomialOrder.parse("grevlex") == GREVLEX
    assert MonomialOrder.parse("LEX") == LEX
    with pytest.raises(ValueError):
        MonomialOrder.parse("degrevlex-ish")


def test_format_deterministic():
    f = mpoly(QQ, V, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    assert f.format() == "X^2 + Y^2 - 1"
    g = mpoly(QQ, V, {(1, 1): -1, (0, 0): 1})
    assert g.format() == "-X*Y + 1"
    assert MultiPoly.zero(QQ, V).format() == "0"
    h = mpoly(GF(3), V, {(1, 0): 2, (0, 0): 2})
    assert h.format() == "2*X + 2"


def test_format_parse_roundtrip():
    from etalg.parsing import parse_polynomial

    rng = random.Random(31)
    for K in (QQ, GF(5)):
        for _ in range(40):
            f = random_mpoly(rng, K, V, max_degree=4, terms=5)
            assert parse_polynomial(f.format(), K, V) == f
