from fractions import Fraction
from math import isqrt
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from etalg.errors import CharacteristicZero, CompositeModulus, ZeroNotInvertible
from etalg.fields import GF, PRIMALITY_BOUND, QQ, PrimeField, Rationals, _is_prime, power
from etalg.parsing import parse_input
from util import power_products


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


@given(rationals, rationals, rationals)
def test_field_axioms_rationals(a, b, c):
    K = QQ
    assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
    assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
    if not K.is_zero(a):
        assert K.mul(a, K.invert(a)) == K.one()
        assert K.invert(K.invert(a)) == a


@given(residues5, residues5, residues5)
def test_field_axioms_gf5(a, b, c):
    K = GF(5)
    assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
    assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
    if not K.is_zero(a):
        assert K.mul(a, K.invert(a)) == K.one()
        assert K.invert(K.invert(a)) == a


def test_canonical_forms():
    # Q elements stay in lowest terms with positive denominator.
    x = QQ.div(QQ.from_int(4), QQ.from_int(-6))
    assert (x.numerator, x.denominator) == (-2, 3)
    # GF(p) residues are fully reduced.
    assert GF(5).from_int(-3) == 2
    assert GF(5).from_int(12) == 2
