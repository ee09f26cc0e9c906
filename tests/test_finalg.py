import os
import random
from fractions import Fraction
from itertools import chain as iter_chain

import pytest

from etalg.errors import (
    DimensionMismatch,
    FieldMismatch,
    InternalContradiction,
    NotIdempotent,
    TrivialIdempotent,
)
from etalg.fields import GF, QQ
import etalg.finalg
from etalg import linalg
from etalg.finalg import (
    FiniteAlgebra,
    eval_in_algebra,
    monogenic_from_poly,
    product,
    split_by_idempotent,
)
from etalg.unipoly import UniPoly, discriminant, is_separable
from util import (brute_det, count_table_sweeps, has_nonzero_nilpotent, is_element, random_monic,
                  reference_operator, reference_product, reference_trace, upoly)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def alg(field, ints, name="x"):
    return monogenic_from_poly(upoly(field, ints), name)


# ------------------------------------------------------------------ traces and the Gram matrix

def test_basis_traces_examples():
    # on the power basis e_0 = 1, so row 0 of the Gram matrix is Tr(e_j) too
    A = alg(QQ, [-1, 0, 1])
    assert A._basis_traces() == A.gram_matrix()[0] == [Fraction(2), Fraction(0)]
    B = alg(F2, [1, 1, 1])
    assert B._basis_traces() == B.gram_matrix()[0] == [0, 1]
    C = alg(QQ, [1, 2, 0, 1])
    assert C._basis_traces()[0] == Fraction(3)


def test_discriminant_examples_with_gram_oracle():
    for ints, expected, gram in (
        ([-1, 0, 1], Fraction(4), [[2, 0], [0, 2]]),
        ([0, 0, 1], Fraction(0), [[2, 0], [0, 0]]),
        ([-2, 0, 1], Fraction(8), [[2, 0], [0, 4]]),
    ):
        A = alg(QQ, ints)
        want = [[Fraction(x) for x in row] for row in gram]
        assert A.gram_matrix() == want
        assert A.discriminant() == expected
        assert A.discriminant() == brute_det(want, QQ)


def test_discriminant_matches_polynomial_discriminant():
    rng = random.Random(53)
    for K in (QQ, F5):
        for _ in range(40):
            f = random_monic(rng, K, rng.randint(1, 6))
            assert monogenic_from_poly(f).discriminant() == discriminant(f)


def random_algebras(rng):
    """Monogenic algebras, their products and two-variable quotients over Q, GF(2), GF(5)."""
    from etalg.groebner import buchberger, quotient_algebra
    from util import mpoly

    V = ("X", "Y")
    for K in (QQ, F2, F5):
        for _ in range(3):
            A = monogenic_from_poly(random_monic(rng, K, rng.randint(1, 4)))
            yield A
            yield product(A, monogenic_from_poly(random_monic(rng, K, rng.randint(1, 3))))
            c = [rng.randint(-3, 3) for _ in range(4)]
            yield quotient_algebra(buchberger([
                mpoly(K, V, {(2, 0): 1, (1, 0): c[0], (0, 0): c[1]}),
                mpoly(K, V, {(0, 2): 1, (1, 0): c[2], (0, 0): c[3]}),
            ]))


def quotient(text):
    from etalg.groebner import quotient_algebra
    from etalg.kaehler import relation_basis
    from etalg.parsing import parse_input

    return quotient_algebra(relation_basis(parse_input(text)))


def golden_input(name):
    with open(os.path.join(os.path.dirname(__file__), "golden", "inputs", name),
              encoding="utf-8") as handle:
        return handle.read()


def richer_algebras():
    """Quotients past random_algebras' m = 4, and both factors of one split (no border)."""
    for name in ("cyclic3.alg", "gf4_squared.alg", "gf64_leaf.alg"):
        yield quotient(golden_input(name))
    yield quotient("field Q\nvars X, Y\nrelations:\n  X^3 - 2\n  Y^2 - X - 1\n")
    yield quotient("field GF(7)\nvars X, Y\nrelations:\n  X^7 - X\n  Y^7 - Y\n")
    yield quotient("field GF(3)\nvars X\nrelations:\n  (X+1)^30 + X\n")
    # every basis element past 1 steps from an earlier one by X, Y or Z, and the
    # border columns X*X, Y*Y, Z*Z, ... are normal forms of several terms
    three = quotient("field GF(5)\nvars X, Y, Z\nrelations:\n"
                     "  X^2 - Y - 2*Z\n  Y^2 + X*Z - 1\n  Z^2 - X + 3\n")
    assert {k for k, _ in three.border[1][1:]} == {0, 1, 2}
    yield three
    A = quotient("field GF(5)\nvars X, Y\nrelations:\n  X^2 - X\n  Y^3 - Y - 1\n")
    split = split_by_idempotent(A.generator_refs["X"], A)
    assert split.first.border is None and split.second.border is None
    yield split.first
    yield split.second


def gram_oracle(A):
    """Tr(e_i * e_j) as the trace of the product of the matrices of b -> e_i*b and b -> e_j*b."""
    K, m = A.field, A.dimension
    ops = [reference_operator(A, A.basis_element(i)) for i in range(m)]
    entries = [[(r, s, c) for r, row in enumerate(op) for s, c in enumerate(row) if c]
               for op in ops]
    return [[K.reduce(sum((c * ops[j][s][r] for r, s, c in entries[i]), K.zero()))
             for j in range(m)] for i in range(m)]


def shifted_power(n):
    """(X + 1)^n + X over GF(3)."""
    return upoly(F3, [1, 1]) ** n + upoly(F3, [0, 1])


def shared_vector_algebras():
    """Tables given whole: K[X]/<(X+1)^60 + X>, which shares equal products, and its product with a quadratic."""
    A = monogenic_from_poly(shifted_power(60))
    yield A
    yield product(A, alg(F3, [1, 0, 1]))


def test_trace_and_gram_match_the_multiplication_operator():
    rng = random.Random(61)
    for A in iter_chain(random_algebras(rng), richer_algebras(), shared_vector_algebras()):
        K, traces = A.field, A._basis_traces()
        for _ in range(3):  # Tr(a) = sum of a_k * Tr(e_k)
            a = tuple(K.from_int(rng.randint(-4, 4)) for _ in range(A.dimension))
            assert K.reduce(sum((c * t for c, t in zip(a, traces)), K.zero())) == reference_trace(A, a)
        assert A.gram_matrix() == gram_oracle(A)


def test_monogenic_and_quotient_gram_matrices_agree_on_the_power_basis():
    Q = quotient("field GF(3)\nvars X\nrelations:\n  (X+1)^160 + X\n")
    A = monogenic_from_poly(shifted_power(160), "X")
    assert Q.basis_labels == A.basis_labels
    assert A.gram_matrix() == Q.gram_matrix()


def every_constructor(rng):
    """random_algebras, and the two factors of each one's product with a quadratic, split apart."""
    for A in random_algebras(rng):
        yield A
        B = product(A, monogenic_from_poly(random_monic(rng, A.field, 2)))
        split = split_by_idempotent((A.field.zero(),) * A.dimension + B.unit[A.dimension:], B)
        yield split.first
        yield split.second


def test_mul_matches_the_triple_loop():
    rng = random.Random(67)
    for A in iter_chain(every_constructor(rng), richer_algebras()):
        K, m = A.field, A.dimension
        for _ in range(3):
            x, y = (tuple(K.from_int(rng.choice([0, 0, -3, -1, 1, 2, 4])) for _ in range(m))
                    for _ in range(2))
            want = [K.zero()] * m
            for i in range(m):
                for j in range(m):
                    for k in range(m):
                        want[k] = K.reduce(want[k] + x[i] * y[j] * A.table[i][j][k])
            assert A.mul(x, y) == tuple(want)


def big_scalar(rng, K):
    """A scalar spread over all of K: any residue, or a Fraction with a small denominator."""
    return Fraction(rng.randint(-99, 99), rng.randint(1, 9)) if K == QQ else rng.randrange(K.modulus)


def kernel_algebras(rng, K):
    """A monogenic algebra, a product, a two-variable quotient (border) and a split factor over K."""
    A = monogenic_from_poly(UniPoly(K, [big_scalar(rng, K) for _ in range(4)] + [K.one()]))
    yield A
    P = product(A, monogenic_from_poly(UniPoly(K, [big_scalar(rng, K), big_scalar(rng, K),
                                                   K.one()])))
    yield P
    a, b, c = (rng.randint(2, 9) for _ in range(3))
    yield quotient(f"field {K.name()}\nvars X, Y\nrelations:\n"
                   f"  X^2 - {a}*Y - {b}\n  Y^3 + {c}*X*Y - 1\n")
    e = (K.zero(),) * A.dimension + P.unit[A.dimension:]
    yield split_by_idempotent(e, P).second


@pytest.mark.parametrize("K", [F2, GF(32003), GF(2 ** 61 - 1), QQ], ids=str)
def test_accumulation_kernel_matches_a_field_operation_loop(K):
    # _combine sums unreduced products and reduces each coordinate once, at the end;
    # the reference reduces after every single operation
    rng = random.Random(89)
    r = K.reduce
    for A in kernel_algebras(rng, K):
        m = A.dimension
        for _ in range(3):
            x, y = (tuple(big_scalar(rng, K) if rng.random() < 0.7 else K.zero()
                          for _ in range(m)) for _ in range(2))
            got = A.mul(x, y)
            assert got == reference_product(A, x, y)
            assert all(is_element(K, c) for c in got)
            for k in range(m):
                column = A._times_basis(x, k)
                assert column == reference_product(A, x, A.basis_element(k))
                assert all(is_element(K, c) for c in column)
            # sums and scalar multiples of tuples and table vectors, cancellations included
            c, v = y[-1], A.table[1][1]
            for got, want in [(A.add(x, y), tuple(r(a + b) for a, b in zip(x, y))),
                              (A.sub(x, y), tuple(r(a - b) for a, b in zip(x, y))),
                              (A.add(v, A.unit), tuple(r(a + b) for a, b in zip(v, A.unit))),
                              (A.scalar_mul(c, x), tuple(r(c * a) for a in x)),
                              (A.scalar_mul(K.zero(), x), A.zero_element()),
                              (A.sub(x, x), A.zero_element()),
                              (A.add(x, A.scalar_mul(r(-K.one()), x)), A.zero_element())]:
                assert got == want
                assert all(is_element(K, a) for a in got)


def test_horner_step_is_one_pass_with_the_three_pass_result(monkeypatch):
    # each step acc * a + c is one accumulation, and gives what mul, scalar_mul and add give
    rng = random.Random(131)
    passes = []
    original = etalg.finalg._combine

    def counting(*args):
        passes.append(None)
        return original(*args)

    for A in iter_chain(kernel_algebras(rng, GF(7)), kernel_algebras(rng, QQ)):
        K = A.field
        a = tuple(big_scalar(rng, K) for _ in range(A.dimension))
        f = UniPoly(K, [big_scalar(rng, K) for _ in range(5)])
        want = A.zero_element()
        for c in reversed(f.coeffs):
            want = A.add(A.mul(want, a), A.scalar_mul(c, A.unit))
        with monkeypatch.context() as patch:
            patch.setattr(etalg.finalg, "_combine", counting)
            passes.clear()
            assert eval_in_algebra(f, a, A) == want
        assert len(passes) == len(f.coeffs)


def test_power_matches_repeated_multiplication(monkeypatch):
    rng = random.Random(97)
    products = []
    original = FiniteAlgebra.mul

    def counting(self, x, y):
        products.append(None)
        return original(self, x, y)

    monkeypatch.setattr(FiniteAlgebra, "mul", counting)
    for A in iter_chain(kernel_algebras(rng, GF(32003)), kernel_algebras(rng, QQ)):
        K = A.field
        x = tuple(big_scalar(rng, K) for _ in range(A.dimension))
        want = A.unit
        for n in range(11):
            products.clear()
            assert A.power(x, n) == want
            # squarings, plus one product per further set bit: none with the unit
            assert len(products) == (n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0)
            want = A.mul(want, x)


def test_negative_power_raises():
    A = alg(F5, [2, 0, 1])  # GF(5)[x]/<x^2 + 2>
    x = A.basis_element(1)
    for n in (-1, -2):
        with pytest.raises(ValueError, match="negative exponent"):
            A.power(x, n)


def sympy_poly(sympy, K, coeffs, T):
    """Descending coefficients as a sympy Poly in T over Q, or over GF(p) from their integer lift."""
    coeffs = [sympy.Rational(c) for c in coeffs]
    return sympy.Poly(coeffs, T, domain="QQ") if K == QQ else sympy.Poly(coeffs, T, modulus=K.modulus)


def test_monogenic_discriminant_matches_sympy():
    # the discriminant of a monic f is an integer polynomial in its coefficients: reduce it mod p
    sympy = pytest.importorskip("sympy")
    T = sympy.Symbol("T")
    rng = random.Random(71)
    for K in (QQ, F2, F5):
        for _ in range(15):
            f = random_monic(rng, K, rng.randint(1, 6))
            want = sympy.discriminant(sympy_poly(sympy, QQ, reversed(f.coeffs), T))
            got = monogenic_from_poly(f).discriminant()
            assert sympy.Rational(got) == want if K == QQ else got == int(want) % K.modulus


def random_quotient(rng, K):
    """K[X, Y]/<X^a + lower terms, Y^b + lower terms> for 1 <= a, b <= 3: zero-dimensional."""
    from etalg.groebner import buchberger, quotient_algebra
    from util import mpoly

    relations = []
    for top in ((rng.randint(1, 3), 0), (0, rng.randint(1, 3))):
        lower = [(i, j) for i in range(3) for j in range(3) if i + j < sum(top)]
        spec = {mono: rng.randint(-3, 3) for mono in rng.sample(lower, min(2, len(lower)))}
        relations.append(mpoly(K, ("X", "Y"), {**spec, top: 1}))
    return quotient_algebra(buchberger(relations))


def test_quotient_discriminant_matches_sympy():
    # over GF(p) the determinant of the integer lift, reduced mod p
    sympy = pytest.importorskip("sympy")
    rng = random.Random(79)
    for K in (QQ, F2, F5):
        for _ in range(6):
            A = random_quotient(rng, K)
            m = A.dimension
            gram = [[reference_trace(A, A.mul(A.basis_element(i), A.basis_element(j)))
                     for j in range(m)] for i in range(m)]
            want = sympy.Matrix([[sympy.Rational(c) for c in row] for row in gram]).det()
            got = A.discriminant()
            assert sympy.Rational(got) == want if K == QQ else got == int(want) % K.modulus


def sympy_operator(sympy, A, a):
    return sympy.Matrix([[sympy.Rational(c) for c in row] for row in reference_operator(A, a)])


def at_operator(sympy, K, poly, M):
    """poly(M) by Horner on the descending coefficients of a sympy Poly; mod p over GF(p)."""
    value = sympy.zeros(*M.shape)
    for c in poly.all_coeffs():
        value = value * M + sympy.Rational(c) * sympy.eye(M.rows)
        if K != QQ:
            value = value.applyfunc(lambda x: x % K.modulus)
    return value


def minimal_polynomial_cases(rng):
    """Elements of split factors, nilpotents (g = T^k, (T - 1)^3, ...) and 0."""
    for K in (QQ, F2, F5):
        B = product(monogenic_from_poly(random_monic(rng, K, 3)),
                    monogenic_from_poly(upoly(K, [1, 0, 0, 1])))
        split = split_by_idempotent((K.zero(),) * 3 + B.unit[3:], B)
        for sub in (split.first, split.second):
            yield sub, tuple(K.from_int(rng.randint(-4, 4)) for _ in range(sub.dimension))
        cube = alg(K, [0, 0, 0, 1])  # K[X]/<X^3>
        x = cube.generator_refs["x"]
        for a in (x, cube.mul(x, x), cube.add(cube.unit, x), cube.zero_element()):
            yield cube, a
    local = quotient("field Q\nvars X, Y\nrelations:\n  X^2\n  Y^2 - X\n")  # Q[Y]/<Y^4>
    for name in ("X", "Y"):
        yield local, local.generator_refs[name]
    yield local, local.add(local.scalar_mul(Fraction(2), local.unit), local.generator_refs["Y"])


def test_minimal_polynomial_between_charpoly_and_its_squarefree_part():
    # g | chi (Cayley-Hamilton) and sqf(chi) | g (both have the eigenvalues as roots); and g
    # is exact: g(M_a) = 0, while (g / q)(M_a) != 0 for every irreducible factor q of g
    sympy = pytest.importorskip("sympy")
    T = sympy.Symbol("T")
    rng = random.Random(73)

    def check(A, a):
        K = A.field
        op = sympy_operator(sympy, A, a)
        chi = sympy_poly(sympy, K, op.charpoly(T).all_coeffs(), T)
        g = sympy_poly(sympy, K, reversed(A.minimal_polynomial(a).coeffs), T)
        assert chi.rem(g).is_zero and g.rem(chi.sqf_part()).is_zero
        assert at_operator(sympy, K, g, op).is_zero_matrix
        for q, _ in g.factor_list()[1]:
            assert not at_operator(sympy, K, g.exquo(q), op).is_zero_matrix

    cases = 0
    for A in random_algebras(rng):
        for _ in range(2):
            check(A, tuple(A.field.from_int(rng.randint(-4, 4)) for _ in range(A.dimension)))
            cases += 1
    for A, a in minimal_polynomial_cases(random.Random(83)):
        check(A, a)
        cases += 1
    assert cases == 54 + 21


# ------------------------------------------------------------------ minimal polynomials

def test_minimal_polynomial_examples():
    A = alg(QQ, [-2, 0, 1])
    assert A.minimal_polynomial(A.generator_refs["x"]) == upoly(QQ, [-2, 0, 1])
    assert A.minimal_polynomial(A.unit) == upoly(QQ, [-1, 1])


def test_minimal_polynomial_stops_at_the_dimension(monkeypatch):
    # with its pivots lost no power reduces to zero; a^m is the last power it takes
    A = alg(F5, [1, 0, 1])
    monkeypatch.setattr(etalg.finalg, "insort", lambda pivots, p: None)
    with pytest.raises(InternalContradiction, match=r"1, a, \.\.\., a\^2 are independent"):
        A.minimal_polynomial(A.generator_refs["x"])


def test_minimal_polynomial_of_sum_of_roots():
    from etalg.groebner import buchberger, quotient_algebra
    from util import mpoly

    V = ("X", "Y")
    gb = buchberger(
        [mpoly(QQ, V, {(2, 0): 1, (0, 0): -2}), mpoly(QQ, V, {(0, 2): 1, (0, 0): -3})]
    )
    A = quotient_algebra(gb)
    b = A.add(A.generator_refs["X"], A.generator_refs["Y"])
    g = A.minimal_polynomial(b)
    assert g == upoly(QQ, [1, 0, -10, 0, 1])
    # oracle: 1, b, b^2, b^3 are linearly independent (nonzero permutation det)
    powers = [A.unit, b, A.power(b, 2), A.power(b, 3)]
    assert brute_det([list(p) for p in powers], QQ) != 0
    # and the claimed identity b^4 - 10 b^2 + 1 = 0 holds symbolically
    val = A.add(
        A.sub(A.power(b, 4), A.scalar_mul(Fraction(10), A.power(b, 2))), A.unit
    )
    assert A.is_zero_element(val)


# ------------------------------------------------------------------ idempotents

def test_idempotent_at_zero_examples():
    # e = 1 - h(a)/h(0) generates <a>: e^2 = e and a * e = a; 1 when a is a unit
    A = alg(QQ, [0, -1, 1])  # Q[X]/<X^2 - X>
    x = A.generator_refs["x"]
    B = alg(QQ, [-2, 0, 1])
    for C, a, want in ((A, x, x), (A, A.scalar_mul(Fraction(2), x), x),
                       (B, B.generator_refs["x"], B.unit)):
        e, _ = C._idempotent(a, C.minimal_polynomial(a), QQ.zero())
        assert e == want and C.mul(e, e) == e and C.mul(a, e) == a


# ------------------------------------------------------------------ splits and products

def test_split_by_idempotent_examples():
    A = alg(QQ, [0, -1, 1])
    split = split_by_idempotent(A.generator_refs["x"], A)
    assert split.first.dimension == 1 and split.second.dimension == 1

    B = alg(QQ, [-1, 0, 1])
    e = B.scalar_mul(Fraction(1, 2), B.add(B.generator_refs["x"], B.unit))
    assert B.mul(e, e) == e
    split2 = split_by_idempotent(e, B)
    assert split2.first.dimension == 1 and split2.second.dimension == 1

    with pytest.raises(TrivialIdempotent):
        split_by_idempotent(B.unit, B)
    with pytest.raises(NotIdempotent):
        split_by_idempotent(B.generator_refs["x"], B)


def test_split_projections_are_ring_maps():
    # w -> the coordinates of u*w on a factor's basis, read at its pivots, is a ring map
    # onto the factor (u is the factor's unit embedded in A), and it embeds back as u*w;
    # 1 lies outside u*A, so it has no coordinates
    A = alg(QQ, [0, -1, 1])
    x = A.generator_refs["x"]
    B = product(alg(F5, [2, 0, 1]), alg(F5, [1, 1]))
    for A, e in ((A, x), (B, B.basis_element(2))):
        K = A.field
        split = split_by_idempotent(e, A)
        elements = [A.unit, e, *(A.basis_element(i) for i in range(A.dimension)),
                    A.add(A.basis_element(0), A.scalar_mul(K.from_int(3), A.basis_element(1)))]
        for sub in (split.first, split.second):
            u = sub.embed(sub.unit)

            def proj(w):
                return sub.coordinates(A.mul(u, w))

            assert proj(A.unit) == sub.unit and sub.coordinates(A.unit) is None
            for a in elements:
                assert sub.embed(proj(a)) == A.mul(u, a)
                for b in elements:
                    assert proj(A.mul(a, b)) == sub.mul(proj(a), proj(b))
        # the second factor is e*A, the first (1 - e)*A
        assert split.second.embed(split.second.unit) == e
        assert split.first.embed(split.first.unit) == A.sub(A.unit, e)


def test_split_rejects_a_basis_not_closed_under_multiplication(monkeypatch):
    # GF(3)^3 split along e1: (1 - e1)*A is spanned by e2 and e3.  A tampered echelon
    # basis (0, 1, 2) alone is not closed: (0, 1, 2)^2 = (0, 1, 1)
    point = alg(F3, [0, 1])
    A = product(product(point, point), point)
    e1 = A.basis_element(0)
    assert split_by_idempotent(e1, A).first.dimension == 2
    monkeypatch.setattr(linalg, "rref", lambda rows, K: ([[0, 1, 2], [0, 0, 0], [0, 0, 0]], [1]))
    with pytest.raises(InternalContradiction, match="not closed"):
        split_by_idempotent(e1, A)


def test_only_a_raw_table_takes_the_full_sweep(monkeypatch):
    # a product's blocks and a factor's closed subspace come from checked algebras;
    # a table handed in whole is swept once
    sweeps = count_table_sweeps(monkeypatch)
    A = product(alg(F5, [1, 0, 1]), alg(F5, [2, 1, 1]))  # factors from their border
    assert sweeps == []
    split = split_by_idempotent(A.sub(A.unit, A.basis_element(0)), A)
    assert sweeps == []
    assert (split.first.dimension, split.second.dimension) == (2, 2)
    FiniteAlgebra(F5, A.basis_labels, A.table, A.unit)
    assert sweeps == ["FiniteAlgebra"]


def test_product_examples():
    A = alg(QQ, [-2, 0, 1])
    Q1 = alg(QQ, [-1, 1])  # Q itself as Q[X]/<X - 1>
    P = product(A, Q1)
    assert P.dimension == 3
    assert P.discriminant() == A.discriminant() * Q1.discriminant() == Fraction(8)
    P2 = product(Q1, Q1)
    assert P2.discriminant() == Fraction(1)
    B = product(alg(F2, [1, 1, 1]), alg(F2, [1, 1]))
    assert B.discriminant()


def test_product_table_shares_the_factor_vectors():
    """Each distinct vector of a factor is padded once, and every cross product is one zero vector."""
    def distinct(A):
        return len({id(v) for row in A.table for v in row})
    rng = random.Random(71)
    for A in iter_chain(random_algebras(rng), shared_vector_algebras()):
        B = monogenic_from_poly(random_monic(rng, A.field, 2))
        assert distinct(product(A, B)) <= distinct(A) + distinct(B) + 1


def test_product_discriminant_multiplicative_random():
    rng = random.Random(59)
    for K in (QQ, F5):
        for _ in range(20):
            f = random_monic(rng, K, rng.randint(1, 3))
            g = random_monic(rng, K, rng.randint(1, 3))
            A, B = monogenic_from_poly(f), monogenic_from_poly(g)
            assert product(A, B).discriminant() == K.reduce(A.discriminant() * B.discriminant())


def test_monogenic_from_poly_is_the_quotient_by_f():
    # K[X]/<f> gets the border, table, unit and generator reference of the quotient by <f>
    rng = random.Random(29)
    for K in (F2, F3, F5, QQ):
        X = UniPoly.variable(K)
        randoms = [random_monic(rng, K, rng.randint(1, 6)) for _ in range(10)]
        # degree 1, and f(0) = 0: X, X + 3 and X times a random f
        for f in [X, upoly(K, [3, 1]), *randoms, *(X * g for g in randoms[:4])]:
            A = monogenic_from_poly(f, "X")
            Q = quotient(f"field {K.name()}\nvars X\nrelations:\n  {f.format('X')}\n")
            assert A.border == Q.border
            assert A.table == Q.table and A.unit == Q.unit
            assert A.generator_refs == Q.generator_refs and A.basis_labels == Q.basis_labels


def test_monogenic_from_poly_examples():
    A = alg(F2, [1, 1, 1])
    x = A.generator_refs["x"]
    assert A.mul(x, x) == A.add(x, A.unit)  # x^2 = x + 1 in F4
    B = alg(QQ, [0, 0, -1, 1])
    assert B.dimension == 3 and B.discriminant() == Fraction(0)


# ------------------------------------------------------------------ reducedness

def is_reduced(A):
    """Over Q and GF(p) a strictly finite algebra is reduced iff its discriminant is nonzero."""
    return bool(A.discriminant())


def test_is_reduced_examples():
    assert is_reduced(alg(QQ, [0, 0, 1])) is False
    assert is_reduced(alg(QQ, [-1, 0, 1])) is True
    assert is_reduced(alg(F2, [1, 0, 1])) is False


def test_is_reduced_matches_exhaustive_nilpotent_oracle():
    # the discriminant test of reducedness against a search of every element
    for K, degrees in ((F2, range(1, 5)), (F3, range(1, 4))):
        p = K.modulus
        for deg in degrees:
            for code in range(p**deg):
                ints = [(code // p**i) % p for i in range(deg)] + [1]
                A = monogenic_from_poly(UniPoly.from_ints(K, ints))
                assert is_reduced(A) == (not has_nonzero_nilpotent(A))


def test_reduced_implies_etale_in_large_characteristic():
    # char(K) > dim(A) and A reduced force a nonzero discriminant
    rng = random.Random(61)
    for p in (5, 7):
        K = GF(p)
        for _ in range(25):
            f = random_monic(rng, K, rng.randint(1, 4))
            if is_separable(f):
                assert monogenic_from_poly(f).discriminant()


# ------------------------------------------------------------------ construction checks

def test_full_associativity_sweep_small():
    for A in (alg(QQ, [-1, 0, 1]), alg(F2, [1, 1, 1]), alg(QQ, [0, 0, -1, 1])):
        m = A.dimension
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    ei, ej, ek = A.basis_element(i), A.basis_element(j), A.basis_element(k)
                    assert A.mul(A.mul(ei, ej), ek) == A.mul(ei, A.mul(ej, ek))


def test_construction_rejects_a_non_commutative_table():
    K = QQ
    one, zero = K.one(), K.zero()
    table = [[(one, zero), (zero, one)], [(one, zero), (one, zero)]]
    with pytest.raises(InternalContradiction, match="not commutative"):
        FiniteAlgebra(K, ("1", "x"), table, (one, zero))


def test_construction_rejects_a_unit_law_break():
    A = alg(QQ, [-1, 0, 1])
    with pytest.raises(InternalContradiction, match="unit law"):
        FiniteAlgebra(QQ, A.basis_labels, A.table, A.generator_refs["x"])


def test_construction_rejects_every_single_entry_corruption_at_dimension_7():
    # K[X]/<X^7 - X - 1> over GF(5): add 1 to one coordinate of e_i * e_j = e_j * e_i, 1 <= i <= j
    A = alg(F5, [-1, -1, 0, 0, 0, 0, 0, 1])
    m = A.dimension
    for i in range(1, m):
        for j in range(i, m):
            table = [list(row) for row in A.table]
            v = list(table[i][j])
            v[(i + j) % m] = F5.reduce(v[(i + j) % m] + F5.one())
            table[i][j] = table[j][i] = tuple(v)
            with pytest.raises(InternalContradiction, match="not associative"):
                FiniteAlgebra(F5, A.basis_labels, table, A.unit)


# (m, a, c, b, d): each layout escaped the fixed sample of 96 basis triples that construction once took
ONE_FAILING_PRODUCT = [(5, 1, 2, 4, 3), (6, 1, 2, 4, 3), (7, 1, 2, 3, 4), (8, 1, 2, 4, 3),
                       (9, 1, 2, 4, 3), (10, 1, 2, 4, 3)]


@pytest.mark.parametrize("m,a,c,b,d", ONE_FAILING_PRODUCT)
def test_construction_rejects_a_table_with_one_failing_product(m, a, c, b, d):
    # e_0 = 1, e_a^2 = e_c, e_c * e_b = e_d, every other product of non-units 0, over GF(7):
    # commutative and unital, but (e_a * e_a) * e_b = e_d while e_a * (e_a * e_b) = 0
    K = GF(7)
    e = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    table = [[(0,) * m] * m for _ in range(m)]
    for i in range(m):
        table[0][i] = table[i][0] = e[i]
    table[a][a] = e[c]
    table[c][b] = table[b][c] = e[d]
    with pytest.raises(InternalContradiction, match="not associative"):
        FiniteAlgebra(K, [f"e{i}" for i in range(m)], table, e[0])


def test_table_entries_unit_and_generators_are_reduced_as_they_enter():
    F7 = GF(7)
    labels, x = ("1", "x"), (0, 1)
    dual = [[(1, 0), x], [x, (7, 0)]]  # x^2 = 7 = 0
    A = FiniteAlgebra(F7, labels, dual, (1, 0), generator_refs={"x": (7, 8)})
    assert A.mul(x, x) == (0, 0) and A.is_zero_element(A.mul(x, x))
    assert A.generator_refs == {"x": x}
    B = FiniteAlgebra(F7, labels, dual, (8, 0))
    assert B.unit == (1, 0) and B.mul(B.unit, B.unit) == (1, 0) and B.power(x, 0) == (1, 0)
    with pytest.raises(DimensionMismatch):
        FiniteAlgebra(F7, labels, dual, (1, 0), generator_refs={"x": (0,)})
    with pytest.raises(DimensionMismatch):
        FiniteAlgebra(F7, labels, dual, (1, 0, 0))


def test_border_scalars_are_reduced_as_they_enter():
    # X^2 + 1 over GF(7) with 7 added to every scalar and a zero pair (0, 7) in the step column
    F7 = GF(7)
    A = alg(F7, [1, 0, 1])
    (column,), steps = A.border
    shifted = [[tuple((r, c + 7) for r, c in col) for col in column]]
    shifted[0][0] = ((0, 7),) + shifted[0][0]
    B = FiniteAlgebra(F7, A.basis_labels, border=(shifted, steps))
    assert B.border == A.border and B.table == A.table


GF5_GRID = "field GF(5)\nvars X, Y\nrelations:\n  X^5 - X\n  (Y+2*X+1)^5 - (Y+2*X+1)\n"
Q_TOWER = "field Q\nvars X, Y\nrelations:\n  X^3 - 2\n  Y^2 - X - 1\n"


def border_corruptions(A):
    """(k, l, border) for every single-entry corruption of the M_k: one added to one coordinate of x_k * e_l."""
    K = A.field
    columns, steps = A.border
    for k, column in enumerate(columns):
        for l, col in enumerate(column):
            for r in range(A.dimension):
                vec = dict(col)
                vec[r] = K.reduce(vec.get(r, K.zero()) + K.one())
                bad = [list(c) for c in columns]
                bad[k][l] = tuple((i, c) for i, c in sorted(vec.items()) if c)
                yield k, l, (bad, steps)


@pytest.mark.parametrize("text,m", [(GF5_GRID, 25), (Q_TOWER, 6)])
def test_construction_rejects_every_single_entry_corruption_of_the_matrices(text, m):
    # a corrupted step column fails the step check, any other the commuting check
    A = quotient(text)
    assert A.dimension == m and len(A.border[0]) == 2
    corruptions = 0
    for _, _, border in border_corruptions(A):
        with pytest.raises(InternalContradiction, match="border step|do not commute"):
            FiniteAlgebra(A.field, A.basis_labels, border=border)
        corruptions += 1
    assert corruptions == 2 * m * m


def test_one_variable_border_rejects_every_step_corruption():
    A = quotient("field GF(5)\nvars X\nrelations:\n  X^7 - X - 1\n")
    K, m = A.field, A.dimension
    for _, l, border in border_corruptions(A):
        if l < m - 1:  # the step column x * b_l = b_(l+1)
            with pytest.raises(InternalContradiction, match=f"border step {l + 1}"):
                FiniteAlgebra(K, A.basis_labels, border=border)
            continue
        # One variable has no second matrix to commute with, and its one border column
        # x * b_(m-1) = x^m = c_0 + c_1 x + ... + c_(m-1) x^(m-1) is a free choice: any
        # choice presents K[X]/<f'> for the monic f' = X^m - c_(m-1) X^(m-1) - ... - c_0,
        # a valid algebra that no check can tell from the intended one.  It is accepted,
        # as that algebra.
        column = dict(border[0][0][l])
        f = UniPoly(K, [K.reduce(-column.get(i, K.zero())) for i in range(m)] + [K.one()])
        assert FiniteAlgebra(K, A.basis_labels, border=border).table == monogenic_from_poly(f).table


def test_dimension_mismatch():
    A = alg(QQ, [-1, 0, 1])
    with pytest.raises(DimensionMismatch):
        A.minimal_polynomial((Fraction(1),))
    short, long = (Fraction(1),), (Fraction(1),) * 3
    for x in (short, long, (Fraction(0),)):
        for op in (lambda: A.add(x, A.unit), lambda: A.add(A.unit, x), lambda: A.sub(x, A.unit),
                   lambda: A.sub(A.unit, x), lambda: A.scalar_mul(Fraction(2), x),
                   lambda: A.is_zero_element(x), lambda: A.format_element(x)):
            with pytest.raises(DimensionMismatch):
                op()
    with pytest.raises(FieldMismatch):
        product(A, alg(F2, [1, 1]))


def test_format_element_signed_terms():
    A = alg(QQ, [-2, 0, 1])
    assert A.basis_labels == ("1", "x")
    assert A.format_element((Fraction(0), Fraction(0))) == "0"
    assert A.format_element((Fraction(1), Fraction(0))) == "1"
    assert A.format_element((Fraction(-1), Fraction(1))) == "-1 + x"
    assert A.format_element((Fraction(2), Fraction(-3, 2))) == "2 - 3/2*x"
    assert A.format_table() == ["1 * 1 = 1", "1 * x = x", "x * x = 2"]
