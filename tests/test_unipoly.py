import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import etalg.unipoly
from etalg.errors import (
    AlreadySeparable,
    BothZero,
    CharacteristicZero,
    ConstantPolynomial,
    DerivativeNonzero,
    NoCoprimeSplit,
    NotMonic,
    ZeroDerivative,
    ZeroOperand,
)
from etalg.fields import GF, QQ
from etalg.finalg import eval_in_algebra, monogenic_from_poly
from etalg.unipoly import (
    UniPoly,
    coprime_split,
    derivative,
    discriminant,
    extended_gcd,
    gcd,
    is_separable,
    pth_power_decompose,
    resultant,
    squarefree_part,
)
from util import brute_det, is_element, power_products, random_monic, sylvester_matrix, upoly

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


# ------------------------------------------------------------------ basics

def test_zero_polynomial_degree_sentinel():
    z = UniPoly.zero(QQ)
    assert z.is_zero and z.degree is None
    with pytest.raises(TypeError):
        z.degree >= 0  # the sentinel never takes part in arithmetic


def test_trailing_zeros_trimmed():
    assert upoly(QQ, [1, 2, 0, 0]) == upoly(QQ, [1, 2])
    assert upoly(F5, [5, 10]).is_zero
    # unreduced integers are reduced on construction
    assert UniPoly(GF(7), [0, 7]).is_zero and UniPoly(GF(7), [3, 8]) == upoly(GF(7), [3, 1])


def test_power_takes_the_repeated_squaring_product_count(monkeypatch):
    products = []
    original = UniPoly.__mul__

    def counting(self, other):
        products.append(None)
        return original(self, other)

    rng = random.Random(43)
    for K in (QQ, F3, F5):
        f = random_monic(rng, K, 2)
        wants = [UniPoly.one(K)]
        for _ in range(10):
            wants.append(wants[-1] * f)
        monkeypatch.setattr(UniPoly, "__mul__", counting)
        for n, want in enumerate(wants):
            products.clear()
            assert f ** n == want
            assert len(products) == power_products(n)
        monkeypatch.undo()


def test_negative_exponent_raises():
    for n in (-1, -2):
        with pytest.raises(ValueError, match="negative exponent"):
            upoly(F5, [1, 1]) ** n


def test_divmod_roundtrip():
    rng = random.Random(7)
    for K in (QQ, F5):
        for _ in range(40):
            f = random_monic(rng, K, rng.randint(0, 6))
            g = random_monic(rng, K, rng.randint(1, 4))
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.is_zero or r.degree < g.degree


# ------------------------------------------------------------------ gcd

def test_extended_gcd_examples():
    assert gcd(upoly(QQ, [-1, 0, 1]), upoly(QQ, [0, 2])) == UniPoly.one(QQ)
    assert gcd(upoly(QQ, [0, -1, 1]), upoly(QQ, [0, 1])) == UniPoly.variable(QQ)
    # Euclid chain: gcd(X^3 - X^2, 3X^2 - 2X) = X
    assert gcd(upoly(QQ, [0, 0, -1, 1]), upoly(QQ, [0, -2, 3])) == UniPoly.variable(QQ)


def test_extended_gcd_rejects_two_zeros():
    with pytest.raises(BothZero):
        extended_gcd(UniPoly.zero(QQ), UniPoly.zero(QQ))


@given(
    st.lists(st.integers(-4, 4), min_size=0, max_size=9),
    st.lists(st.integers(-4, 4), min_size=0, max_size=9),
)
def test_bezout_identity(fc, gc):
    f, g = upoly(QQ, fc), upoly(QQ, gc)
    if f.is_zero and g.is_zero:
        return
    d, u, v = extended_gcd(f, g)
    assert u * f + v * g == d
    assert d.is_monic
    assert (f % d).is_zero and (g % d).is_zero


def test_gcd_builds_no_cofactors(monkeypatch):
    calls = []

    def counting(name, original):
        def wrapped(*args):
            calls.append(name)
            return original(*args)
        return wrapped

    monkeypatch.setattr(UniPoly, "__mul__", counting("*", UniPoly.__mul__))
    monkeypatch.setattr(UniPoly, "__sub__", counting("-", UniPoly.__sub__))
    monkeypatch.setattr(etalg.unipoly, "extended_gcd", counting("extended_gcd", extended_gcd))
    pairs = [(upoly(QQ, [0, 0, -1, 1]), upoly(QQ, [0, -2, 3])),
             (upoly(F5, [1, 2, 3, 4, 1]), upoly(F5, [4, 0, 1])),
             (upoly(F2, [1, 0, 1]), upoly(F2, [1, 1])),
             (upoly(QQ, [1, 1]), UniPoly.zero(QQ))]
    got = [gcd(f, g) for f, g in pairs]
    assert calls == []
    assert got == [UniPoly.variable(QQ), UniPoly.one(F5), upoly(F2, [1, 1]), upoly(QQ, [1, 1])]


# ------------------------------------------------------------------ derivative

def test_derivative_examples():
    assert derivative(upoly(QQ, [0, 2, 0, 1])) == upoly(QQ, [2, 0, 3])
    assert derivative(upoly(F2, [1, 0, 1])).is_zero
    assert derivative(UniPoly.constant(QQ, Fraction(5))).is_zero


def test_derivative_leibniz_random():
    rng = random.Random(11)
    for K in (QQ, F5):
        for _ in range(50):
            f = random_monic(rng, K, rng.randint(0, 5))
            g = random_monic(rng, K, rng.randint(0, 5))
            assert derivative(f * g) == derivative(f) * g + f * derivative(g)


# ------------------------------------------------------------------ resultant / discriminant

def test_resultant_examples_against_brute_sylvester():
    f = upoly(QQ, [-1, 0, 1])
    g = upoly(QQ, [0, 2])
    assert resultant(f, g) == Fraction(-4)
    assert resultant(f, g) == brute_det(sylvester_matrix(f, g), QQ)
    assert resultant(upoly(QQ, [-2, 1]), upoly(QQ, [-5, 1])) == Fraction(-3)
    assert resultant(upoly(QQ, [1, 0, 0, 1]), UniPoly.one(QQ)) == Fraction(1)


def test_resultant_matches_brute_on_random_pairs():
    rng = random.Random(13)
    for K in (QQ, F5):
        for _ in range(30):
            f = random_monic(rng, K, rng.randint(1, 4))
            g = random_monic(rng, K, rng.randint(1, 4))
            assert resultant(f, g) == brute_det(sylvester_matrix(f, g), K)
        # constant operands: Res(f, c) = c^deg f = Res(c, f), and Res(c, d) = 1
        for c, d in ((2, 3), (3, 2)):
            f = random_monic(rng, K, rng.randint(1, 3))
            C, D = upoly(K, [c]), upoly(K, [d])
            power = K.from_int(c ** f.degree)
            assert power != K.one()
            assert resultant(f, C) == brute_det(sylvester_matrix(f, C), K) == power
            assert resultant(C, f) == brute_det(sylvester_matrix(C, f), K) == power
            assert resultant(C, D) == brute_det(sylvester_matrix(C, D), K) == K.one()


def test_resultant_rejects_zero():
    with pytest.raises(ZeroOperand):
        resultant(UniPoly.zero(QQ), UniPoly.one(QQ))


def test_discriminant_examples():
    assert discriminant(upoly(QQ, [-1, 0, 1])) == Fraction(4)
    assert discriminant(upoly(QQ, [0, 0, 1])) == Fraction(0)
    assert discriminant(upoly(F2, [1, 1, 1])) == 1
    # depressed cubic: disc(X^3 + pX + q) = -4p^3 - 27q^2
    assert discriminant(upoly(QQ, [1, 1, 0, 1])) == Fraction(-4 - 27)
    with pytest.raises(ConstantPolynomial):
        discriminant(UniPoly.one(QQ))


def test_discriminant_equals_trace_form_gram_determinant():
    # cross-module oracle: Gram matrix of Q[X]/<X^2 - 1> is [[2, 0], [0, 2]]
    f = upoly(QQ, [-1, 0, 1])
    A = monogenic_from_poly(f)
    gram = A.gram_matrix()
    assert gram == [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]
    assert discriminant(f) == brute_det(gram, QQ)


# ------------------------------------------------------------------ separability

def test_is_separable_examples():
    assert is_separable(upoly(F2, [1, 1, 1])) is True
    assert is_separable(upoly(F2, [1, 0, 1])) is False
    assert is_separable(upoly(QQ, [0, 0, -1, 1])) is False
    with pytest.raises(NotMonic):
        is_separable(upoly(QQ, [0, 2]))


def test_separable_iff_discriminant_nonzero():
    rng = random.Random(17)
    for K in (QQ, F5, F2):
        for _ in range(60):
            f = random_monic(rng, K, rng.randint(1, 6))
            assert is_separable(f) == bool(discriminant(f))


def test_is_squarefree_examples():
    # over Q and GF(p) squarefree is separable: is_separable is the one test
    assert is_separable(upoly(QQ, [-1, 0, 1])) is True
    assert is_separable(upoly(F2, [1, 0, 1])) is False
    assert is_separable(upoly(QQ, [0, 0, -1, 1])) is False


def test_squarefree_part():
    # (X+1)^2 over GF(2) has derivative 0 but is not squarefree
    assert squarefree_part(upoly(F2, [1, 0, 1])) == upoly(F2, [1, 1])
    assert squarefree_part(upoly(QQ, [0, 0, -1, 1])) == upoly(QQ, [0, -1, 1])
    f = upoly(F3, [0, 0, 0, 1])  # X^3
    assert squarefree_part(f) == UniPoly.variable(F3)


# ------------------------------------------------------------------ coprime splitting

def _check_split_contracts(f, f1, f2):
    fp = derivative(f)
    assert f1 * f2 == f
    assert f1.is_monic and f2.is_monic
    assert gcd(f1, f2) == UniPoly.one(f.field)
    assert gcd(f1, fp) == UniPoly.one(f.field)
    assert f1.degree < f.degree and f2.degree < f.degree


def test_coprime_split_examples():
    f = upoly(QQ, [0, 0, -1, 1])  # X^3 - X^2
    f1, f2 = coprime_split(f)
    assert f1 == upoly(QQ, [-1, 1]) and f2 == upoly(QQ, [0, 0, 1])
    _check_split_contracts(f, f1, f2)

    g = upoly(QQ, [-1, 1]) * upoly(QQ, [-1, 1]) * upoly(QQ, [-2, 1])
    g1, g2 = coprime_split(g)
    assert g1 == upoly(QQ, [-2, 1]) and g2 == upoly(QQ, [-1, 1]) * upoly(QQ, [-1, 1])
    _check_split_contracts(g, g1, g2)

    with pytest.raises(AlreadySeparable):
        coprime_split(upoly(F2, [1, 1, 1]))
    with pytest.raises(ZeroDerivative):
        coprime_split(upoly(F2, [1, 0, 1]))


def test_coprime_split_post_conditions_raise_under_python_O():
    # -O strips assert statements; the post-conditions of coprime_split must still raise
    path = os.pathsep.join(filter(None, (os.path.join(os.path.dirname(__file__), "..", "src"),
                                         os.environ.get("PYTHONPATH"))))
    code = (
        "from etalg.errors import InternalContradiction\n"
        "from etalg.fields import QQ\n"
        "from etalg.unipoly import UniPoly, coprime_split\n"
        "f = UniPoly.from_ints(QQ, [0, 0, -1, 1])  # X^3 - X^2\n"
        "UniPoly.__mul__ = lambda self, other: self  # every product drops its right factor\n"
        "try:\n"
        "    coprime_split(f)\n"
        "except InternalContradiction as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert proc.stdout == "coprime_split: f1 * f2 != f\n"


def test_coprime_split_contracts_on_random_products():
    rng = random.Random(23)
    built = 0
    while built < 25:
        factors = [random_monic(rng, QQ, 1, lo=-3, hi=3) for _ in range(rng.randint(2, 4))]
        f = UniPoly.one(QQ)
        for q in factors:
            f = f * q ** rng.randint(1, 2)
        if is_separable(f):
            continue
        try:
            f1, f2 = coprime_split(f)
        except NoCoprimeSplit:
            # every prime factor repeated; the contract is unsatisfiable
            assert squarefree_part(f).degree < f.degree
            built += 1
            continue
        _check_split_contracts(f, f1, f2)
        built += 1


def test_coprime_split_all_factors_repeated():
    f = upoly(QQ, [-1, 1]) ** 2 * upoly(QQ, [-2, 1]) ** 2
    with pytest.raises(NoCoprimeSplit):
        coprime_split(f)


# ------------------------------------------------------------------ p-th powers

def test_pth_power_decompose_examples():
    g = pth_power_decompose(upoly(F2, [1, 0, 1, 0, 1]))
    assert g == upoly(F2, [1, 1, 1])
    assert g * g == upoly(F2, [1, 0, 1, 0, 1])
    assert pth_power_decompose(upoly(F2, [1, 0, 1])) == upoly(F2, [1, 1])
    assert pth_power_decompose(upoly(F3, [0, 0, 0, 1])) == UniPoly.variable(F3)
    with pytest.raises(DerivativeNonzero):
        pth_power_decompose(upoly(F2, [1, 1, 1]))
    with pytest.raises(CharacteristicZero):
        pth_power_decompose(upoly(QQ, [1, 0, 1]))


def test_pth_power_decompose_pth_power_identity():
    rng = random.Random(29)
    for p in (2, 3):
        K = GF(p)
        for _ in range(20):
            g = random_monic(rng, K, rng.randint(1, 3), lo=0, hi=p - 1)
            f = g ** p
            assert pth_power_decompose(f) == g


# ------------------------------------------------------------------ evaluation in an algebra

def test_eval_in_algebra_examples():
    A = monogenic_from_poly(upoly(QQ, [-1, 0, 1]))
    x = A.generator_refs["x"]
    assert A.is_zero_element(eval_in_algebra(upoly(QQ, [-1, 0, 1]), x, A))
    assert eval_in_algebra(UniPoly.variable(QQ), x, A) == x
    B = monogenic_from_poly(upoly(QQ, [0, -1, 1]))
    xb = B.generator_refs["x"]
    assert B.is_zero_element(eval_in_algebra(upoly(QQ, [0, -1, 1]), xb, B))


def test_format_signed_terms():
    assert upoly(QQ, []).format() == "0"
    assert upoly(QQ, [5]).format() == "5"
    assert upoly(QQ, [-5]).format() == "-5"
    assert upoly(QQ, [-1, 0, -1]).format() == "-T^2 - 1"
    assert upoly(QQ, [2, -1, 1]).format("X") == "X^2 - X + 2"
    assert UniPoly(QQ, [Fraction(-1, 2), 1, Fraction(3, 4)]).format("X") == "3/4*X^2 + X - 1/2"
    assert upoly(GF(5), [4, 0, 3]).format() == "3*T^2 + 4"


# ------------------------------------------------------------------ sympy oracle

def random_poly(rng, K, degree):
    """Degree up to ``degree`` (the zero polynomial included); over Q with small denominators."""
    if K == QQ:
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(degree + 1)]
    else:
        coeffs = [K.from_int(rng.randint(0, K.modulus - 1)) for _ in range(degree + 1)]
    return UniPoly(K, coeffs)


def assert_canonical(f):
    """Trimmed, with every coefficient a reduced residue over GF(p) or a Fraction over Q."""
    assert not f.coeffs or f.coeffs[-1]
    assert all(is_element(f.field, c) for c in f.coeffs)


@pytest.mark.parametrize("K", [F2, F5, QQ], ids=repr)
def test_arithmetic_gcd_and_squarefree_part_match_sympy(K):
    sympy = pytest.importorskip("sympy")
    T = sympy.Symbol("T")
    domain = {"domain": "QQ"} if K == QQ else {"modulus": K.modulus}

    def to_sympy(f):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) if K == QQ else c
                           for c in reversed(f.coeffs)] or [0], T, **domain)

    def agrees(f, want):
        assert_canonical(f)
        assert to_sympy(f) == want

    rng = random.Random(101 + (K.modulus or 0))
    for _ in range(60):
        f, g = random_poly(rng, K, rng.randint(0, 6)), random_poly(rng, K, rng.randint(0, 5))
        if rng.random() < 0.3:  # repeated factors, p-th powers included
            f = random_poly(rng, K, rng.randint(1, 2)) ** rng.choice((2, 3, K.modulus or 2)) * g
        c = random_poly(rng, K, 0).coeff(0)
        F, G = to_sympy(f), to_sympy(g)
        agrees(f + g, F + G)
        agrees(f - g, F - G)
        agrees(-f, -F)
        agrees(f * g, F * G)
        agrees(f.scale(c), F * to_sympy(UniPoly.constant(K, c)))
        for forced_zero in (f - f, f + (-f), f * g - g * f):
            agrees(forced_zero, to_sympy(UniPoly.zero(K)))
        if g.is_zero:
            with pytest.raises(ZeroDivisionError):
                divmod(f, g)
            continue
        q, r = divmod(f, g)
        want_q, want_r = F.div(G)
        agrees(q, want_q)
        agrees(r, want_r)
        q, r = divmod(f * g, g)
        agrees(q, F)
        agrees(r, to_sympy(UniPoly.zero(K)))
        d = gcd(f, g)
        agrees(d, F.gcd(G).monic())
        e, u, v = extended_gcd(f, g)
        assert e == d and d.is_monic
        agrees(u * f + v * g, to_sympy(d))
        for h in (f, g):
            if h.degree is None or h.degree == 0:
                continue
            monic = h.scale(K.invert(h.lc()))
            H = to_sympy(monic)
            agrees(squarefree_part(monic), H.sqf_part().monic())
            # sympy's is_sqf misses f' = 0 over GF(p); compare the degree of the squarefree part
            assert is_separable(monic) == (H.sqf_part().degree() == H.degree())
