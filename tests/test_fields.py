import random
from fractions import Fraction
from math import isqrt
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from etalg import linalg
from etalg.errors import CharacteristicZero, CompositeModulus, ZeroNotInvertible
from etalg.fields import GF, PRIMALITY_BOUND, QQ, PrimeField, Rationals, _is_prime, power
from etalg.finalg import eval_in_algebra, monogenic_from_poly, product
from etalg.groebner import buchberger, normal_form, one_certificate, quotient_algebra
from etalg.multipoly import GREVLEX, MultiPoly
from etalg.parsing import parse_input
from etalg.unipoly import UniPoly, derivative, discriminant, gcd, resultant
from util import is_element, power_products, random_monic, random_mpoly


def test_power_by_repeated_squaring():
    products = []

    def mul(a, b):
        products.append((a, b))
        return a * b

    for n in range(40):
        products.clear()
        assert power(3, n, mul, 1) == 3 ** n
        assert len(products) == power_products(n)
        assert all(1 not in pair for pair in products)  # never a product with the unit
    with pytest.raises(ValueError, match="negative exponent -1"):
        power(3, -1, mul, 1)


def test_invert_examples():
    assert QQ.invert(Fraction(2, 3)) == Fraction(3, 2)
    half = QQ.invert(2)  # an int, as native arithmetic can hand it over, still gives a Fraction
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert GF(5).invert(2) == 3
    with pytest.raises(ZeroNotInvertible):
        QQ.invert(Fraction(0))
    with pytest.raises(ZeroNotInvertible):
        GF(7).invert(0)


def test_characteristic():
    assert QQ.characteristic() == 0
    assert GF(7).characteristic() == 7
    assert GF(2).characteristic() == 2


def test_pth_root():
    assert GF(3).pth_root(2) == 2
    assert GF(5).pth_root(4) == 4
    with pytest.raises(CharacteristicZero):
        QQ.pth_root(Fraction(2))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pth_root_is_frobenius_inverse(p):
    K = GF(p)
    for a in range(p):
        b = K.pth_root(a)
        assert pow(b, p, p) == a


def test_enumerate_scalars():
    assert QQ.enumerate_scalars(4) == [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
    assert GF(3).enumerate_scalars(5) == [0, 1, 2]
    assert GF(7).enumerate_scalars(2) == [0, 1]


def test_enumerate_scalars_duplicate_free():
    for K, count in ((QQ, 25), (GF(11), 25)):
        seq = K.enumerate_scalars(count)
        assert len(seq) == len(set(seq))


def test_composite_modulus_rejected():
    for bad in (0, 1, 4, 9, 15, 91):
        with pytest.raises(CompositeModulus):
            PrimeField(bad)


def _trial_division(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, isqrt(n) + 1, 2))


def test_primality_matches_trial_division_below_100000():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)]


@pytest.mark.parametrize("n", [561, 2047, 3215031751, 3825123056546413051,
                               (10**9 + 7) * (10**9 + 9)])
def test_pseudoprimes_and_semiprimes_rejected(n):
    with pytest.raises(CompositeModulus, match="not prime"):
        PrimeField(n)


@pytest.mark.parametrize("p", [10**18 + 3, 2**61 - 1])
def test_large_primes_accepted_quickly(p):
    start = perf_counter()
    assert parse_input(f"field GF({p})\nvars X\nrelations:\n  X^2 - 2\n").field == GF(p)
    assert perf_counter() - start < 1.0


def test_primality_bound_rejected():
    # the bound is composite yet a strong pseudoprime to all 13 witnesses,
    # so only the explicit bound check keeps it out
    assert PRIMALITY_BOUND == 1287836182261 * 2575672364521
    assert _is_prime(PRIMALITY_BOUND)
    for n in (PRIMALITY_BOUND, PRIMALITY_BOUND + 2):
        with pytest.raises(CompositeModulus, match=str(PRIMALITY_BOUND)):
            PrimeField(n)


def test_context_equality():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert Rationals() == QQ
    assert QQ != GF(5)


rationals = st.builds(
    Fraction, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=20)
)
residues5 = st.integers(min_value=0, max_value=4)


def field_axioms(K, a, b, c):
    """The axioms under native operators with every result reduced at once."""
    r = K.reduce
    assert r(r(a + b) + c) == r(a + r(b + c))
    assert r(r(a * b) * c) == r(a * r(b * c))
    assert r(a * r(b + c)) == r(r(a * b) + r(a * c))
    assert r(a - a) == K.zero() and r(a + r(-a)) == K.zero()
    if a:
        assert r(a * K.invert(a)) == K.one()
        assert K.invert(K.invert(a)) == a


@given(rationals, rationals, rationals)
def test_field_axioms_rationals(a, b, c):
    field_axioms(QQ, a, b, c)


@given(residues5, residues5, residues5)
def test_field_axioms_gf5(a, b, c):
    field_axioms(GF(5), a, b, c)


def test_canonical_forms():
    # Q elements stay in lowest terms with positive denominator.
    x = QQ.from_int(4) * QQ.invert(QQ.from_int(-6))
    assert (x.numerator, x.denominator) == (-2, 3)
    # GF(p) residues are fully reduced.
    assert GF(5).from_int(-3) == 2
    assert GF(5).from_int(12) == 2


@pytest.mark.parametrize("K", [QQ, GF(2), GF(7), GF(32003)], ids=str)
def test_every_result_is_an_element(K):
    # native arithmetic reduced once: each value the package returns is a Fraction
    # over Q and an int in [0, p) over GF(p), whatever the operands were
    rng = random.Random(113)

    def check(*values):
        assert all(is_element(K, c) for c in values), values

    def scalar():
        return K.from_int(rng.randint(-40, 40)) * K.invert(K.from_int(rng.choice([1, 1, 3, 5])))

    for _ in range(3):
        rows = [[scalar() for _ in range(4)] for _ in range(3)]
        rows.append([K.reduce(x + y) for x, y in zip(rows[0], rows[1])])  # a dependent row
        check(linalg.det(rows, K), linalg.det(rows[:3] + [[scalar() for _ in range(4)]], K))
        reduced, _ = linalg.rref(rows, K)
        check(*(c for row in reduced for c in row))
        check(*(c for vec in linalg.kernel_basis(rows, K) for c in vec))

        f, g = random_monic(rng, K, 4), UniPoly(K, [scalar(), scalar(), K.one()])
        for h in (f + g, f - g, -f, f * g, f.scale(scalar()), f ** 3, *divmod(f, g), gcd(f, g),
                  derivative(f)):
            check(*h.coeffs)
        check(f(scalar()), discriminant(f), resultant(f, g))

        names = ("X", "Y")
        u, v = (random_mpoly(rng, K, names, terms=4) for _ in range(2))
        c = scalar()
        for h in (u + v, u - v, -u, u * v, u.scale(c), u.mul_term((1, 0), c), v ** 2,
                  u.partial_derivative(0), *(w.monic(GREVLEX) for w in (u, v) if not w.is_zero)):
            check(*h.terms.values())

        ideal = [MultiPoly(K, names, {(2, 0): K.one(), (0, 0): scalar()}),
                 MultiPoly(K, names, {(0, 2): K.one(), (1, 0): scalar()})]
        w = ideal[0].mul_term((1, 0), c) + MultiPoly.one(K, names)  # 1 = w - c*X*ideal[0]
        proper, unit = buchberger(ideal, track=True), buchberger(ideal + [w], track=True)
        for run in (proper, unit):
            check(*(a for h in run.generators for a in h.terms.values()),
                  *(a for row in run.cofactors for h in row for a in h.terms.values()),
                  *normal_form(u.scale(c) * v, run).terms.values())
        check(*(a for h in one_certificate(unit) for a in h.terms.values()))

        B = quotient_algebra(buchberger(ideal))
        for A in (monogenic_from_poly(f), B, product(monogenic_from_poly(f), B)):
            x, y = (tuple(scalar() for _ in range(A.dimension)) for _ in range(2))
            check(*A.unit, *A.zero_element(), *(c for row in A.table for v in row for c in v))
            for z in (A.add(x, y), A.sub(x, y), A.scalar_mul(c, x), A.mul(x, y), A.power(x, 5),
                      eval_in_algebra(f, x, A)):
                check(*z)
            check(A.trace(x), A.discriminant(), *A.minimal_polynomial(x).coeffs)
            check(*(c for row in A.gram_matrix() for c in row))
            check(*(c for row in A.mul_operator(x) for c in row))
