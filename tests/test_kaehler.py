import random
from itertools import combinations, permutations

import pytest

from etalg import kaehler
from etalg.errors import NotZeroDimensional, RingMismatch
from etalg.fields import GF, QQ
from etalg.kaehler import (
    AlgebraPresentation,
    decide_all,
    elementary_smooth_decision,
    jacobian,
    nette_decision,
    omega_dimension,
    omega_presentation,
    standard_etale_decision,
    standard_smooth_decision,
    transposed_jacobian,
    universal_derivation,
)
from etalg.multipoly import MultiPoly
from etalg.parsing import parse_input
from etalg.unipoly import UniPoly, is_separable
from util import mpoly, perm_sign, random_mpoly, random_monic

V = ("X", "Y")


def pres(field, variables, *specs):
    return AlgebraPresentation(
        field, variables, tuple(mpoly(field, variables, s) for s in specs)
    )


def monogenic_presentation(f: UniPoly):
    spec = {(k,): c for k, c in enumerate(f.coeffs)}
    rel = MultiPoly(f.field, ("X",), spec)
    return AlgebraPresentation(f.field, ("X",), (rel,))


CIRCLE_CROSS = pres(QQ, V, {(2, 0): 1, (0, 2): 1, (0, 0): -1}, {(1, 1): 1})
HYPERBOLA = pres(QQ, V, {(1, 1): 1, (0, 0): -1})
DUAL = pres(QQ, ("X",), {(2,): 1})
TWO_POINTS = pres(QQ, ("X",), {(2,): 1, (0,): -1})
F2_SQUARE = pres(GF(2), ("X",), {(2,): 1, (0,): 1})


def test_presentation_rejects_foreign_relations():
    with pytest.raises(RingMismatch):
        AlgebraPresentation(QQ, V, (mpoly(QQ, ("X",), {(1,): 1}),))


def test_jacobian_layout():
    jac = jacobian(CIRCLE_CROSS)
    assert jac[0][0] == mpoly(QQ, V, {(1, 0): 2})
    assert jac[0][1] == mpoly(QQ, V, {(0, 1): 2})
    assert jac[1][0] == mpoly(QQ, V, {(0, 1): 1})
    assert jac[1][1] == mpoly(QQ, V, {(1, 0): 1})
    assert jacobian(pres(QQ, ("X",), {(2,): 1, (0,): -1})) == [[mpoly(QQ, ("X",), {(1,): 2})]]
    assert jacobian(HYPERBOLA) == [[mpoly(QQ, V, {(0, 1): 1}), mpoly(QQ, V, {(1, 0): 1})]]


def test_omega_presentation_is_transposed_jacobian():
    D = omega_presentation(CIRCLE_CROSS)
    assert D.generators == ("dX", "dY")
    ja = transposed_jacobian(CIRCLE_CROSS)
    assert [list(row) for row in D.relation_table] == ja
    # one-variable examples
    D1 = omega_presentation(TWO_POINTS)
    assert D1.relation_table == ((mpoly(QQ, ("X",), {(1,): 2}),),)
    D2 = omega_presentation(F2_SQUARE)
    assert D2.relation_table[0][0].is_zero


def test_universal_derivation_examples():
    D = omega_presentation(CIRCLE_CROSS)
    dx = universal_derivation(MultiPoly.variable(QQ, V, 0), D)
    assert dx == (MultiPoly.one(QQ, V), MultiPoly.zero(QQ, V))
    dc = universal_derivation(MultiPoly.constant(QQ, V, QQ.from_int(7)), D)
    assert all(c.is_zero for c in dc)
    dxy = universal_derivation(mpoly(QQ, V, {(1, 1): 1}), D)
    assert dxy == (mpoly(QQ, V, {(0, 1): 1}), mpoly(QQ, V, {(1, 0): 1}))


def test_leibniz_and_chain_rule_random():
    rng = random.Random(67)
    D = omega_presentation(CIRCLE_CROSS)
    for _ in range(40):
        g = random_mpoly(rng, QQ, V, max_degree=3, terms=3)
        h = random_mpoly(rng, QQ, V, max_degree=3, terms=3)
        dg, dh = universal_derivation(g, D), universal_derivation(h, D)
        dgh = universal_derivation(g * h, D)
        assert dgh == tuple(g * b + h * a for a, b in zip(dg, dh))
        # chain rule through a univariate polynomial
        f = random_monic(rng, QQ, rng.randint(1, 3), lo=-2, hi=2)
        fg = MultiPoly.zero(QQ, V)
        for k, c in enumerate(f.coeffs):
            fg = fg + (g**k).scale(c)
        fprime_g = MultiPoly.zero(QQ, V)
        for k, c in enumerate(f.coeffs[1:], start=1):
            fprime_g = fprime_g + (g ** (k - 1)).scale(QQ.from_int(k) * c)
        assert universal_derivation(fg, D) == tuple(fprime_g * a for a in dg)


def test_decision_examples():
    assert nette_decision(TWO_POINTS).value is True
    assert nette_decision(DUAL).value is False
    assert nette_decision(F2_SQUARE).value is False

    assert standard_smooth_decision(HYPERBOLA).value is True
    assert standard_smooth_decision(DUAL).value is False
    assert standard_smooth_decision(TWO_POINTS).value is True

    assert elementary_smooth_decision(HYPERBOLA).value is True
    assert elementary_smooth_decision(DUAL).value is False
    assert elementary_smooth_decision(TWO_POINTS).value is True

    assert standard_etale_decision(TWO_POINTS).value is True
    assert standard_etale_decision(CIRCLE_CROSS).value is True
    assert standard_etale_decision(HYPERBOLA).value is False


def test_trivial_presentation_flags():
    trivial = pres(QQ, ("X",), {(1,): 1}, {(1,): 1, (0,): 1})
    for decision in (nette_decision, standard_smooth_decision, elementary_smooth_decision,
                     standard_etale_decision):
        assert decision(trivial).value is True
    assert nette_decision(trivial).trivial is True


def test_polynomial_ring_flags():
    free = AlgebraPresentation(QQ, V, ())
    assert nette_decision(free).value is False
    assert standard_smooth_decision(free).value is True
    assert elementary_smooth_decision(free).value is True
    assert standard_etale_decision(free).value is False


def test_more_relations_than_variables():
    # s > n: the s x s determinantal ideal is zero
    over = pres(QQ, ("X",), {(2,): 1, (0,): -1}, {(3,): 1, (1,): -1})
    decision = elementary_smooth_decision(over)
    assert decision.value is False and "no s x s minors" in decision.detail


def test_omega_dimension_examples():
    assert omega_dimension(F2_SQUARE) == 2
    assert omega_dimension(TWO_POINTS) == 0
    assert omega_dimension(DUAL) == 1
    assert omega_dimension(AlgebraPresentation(QQ, (), ())) == 0  # K itself: Ja has no columns
    with pytest.raises(NotZeroDimensional):
        omega_dimension(HYPERBOLA)


def test_nette_iff_omega_dimension_zero():
    instances = [CIRCLE_CROSS, DUAL, TWO_POINTS, F2_SQUARE,
                 pres(QQ, V, {(2, 0): 1, (0, 0): -2}, {(0, 2): 1, (0, 0): -3}),
                 pres(GF(3), ("X",), {(3,): 1, (1,): -1})]
    for P in instances:
        assert nette_decision(P).value == (omega_dimension(P) == 0)


def test_standard_etale_implies_nette_and_standard_smooth():
    rng = random.Random(71)
    checked = 0
    for K in (QQ, GF(3)):
        for _ in range(20):
            f = random_monic(rng, K, rng.randint(1, 4))
            P = monogenic_presentation(f)
            if standard_etale_decision(P).value:
                assert nette_decision(P).value and standard_smooth_decision(P).value
                checked += 1
    assert checked > 0


def test_monogenic_bridge_nette_iff_separable():
    rng = random.Random(73)
    for K in (QQ, GF(2), GF(3)):
        for _ in range(25):
            f = random_monic(rng, K, rng.randint(1, 4))
            assert nette_decision(monogenic_presentation(f)).value == is_separable(f)


def test_decide_all_expands_det_ja_once_on_the_tower(monkeypatch):
    # s = n = 3: all four flags adjoin the one 3 x 3 minor, det(Ja)
    P = parse_input("field Q\nvars X, Y, Z\nrelations:\n  X^3 - 2\n  Y^2 - X - 1\n  Z^2 - Y - 3\n")
    original = kaehler.minors
    calls = []

    def counting(matrix, k, ring_zero):
        calls.append(k)
        return original(matrix, k, ring_zero)

    monkeypatch.setattr(kaehler, "minors", counting)
    decisions = decide_all(P, certificates=True)
    assert all(d.value for d in decisions.values())
    assert decisions["standard_etale"].certificate[0] == decisions["nette"].basis.original[-1]
    assert calls == [3]
    monkeypatch.setattr(kaehler, "buchberger", None)  # an unknown flag fails before any run
    with pytest.raises(ValueError, match="unknown flag 'etale'"):
        decide_all(P, flags=("nette", "etale", "smooth"))
    assert calls == [3]


def brute_minor(matrix, rows, cols, one):
    """The determinant of a submatrix as a sum over permutations (1 when empty)."""
    total = one - one
    for perm in permutations(range(len(rows))):
        term = one
        for i, j in zip(rows, perm):
            term = term * matrix[i][cols[j]]
        total = total + term if perm_sign(perm) > 0 else total - term
    return total


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=repr)
def test_minors_match_the_permutation_sum(field):
    rng = random.Random(97)
    names = ("X", "Y")
    one = MultiPoly.one(field, names)
    shapes = [(r, c) for r in range(1, 6) for c in range(1, 6)]
    for nrows, ncols in shapes:
        matrix = [[random_mpoly(rng, field, names, max_degree=2, terms=rng.randint(0, 3))
                   for _ in range(ncols)] for _ in range(nrows)]
        for k in range(min(nrows, ncols) + 1):
            found = kaehler.minors(matrix, k, MultiPoly.zero(field, names))
            expected = [(r, c) for r in combinations(range(nrows), k)
                        for c in combinations(range(ncols), k)]
            assert [(r, c) for r, c, _ in found] == expected
            for rows, cols, m in found:
                assert m == brute_minor(matrix, rows, cols, one), (nrows, ncols, rows, cols)


def test_minors_expand_each_sub_minor_once(monkeypatch):
    # an 8 x 8 determinant with no zero entry: at most 8 * 2^7 products, where
    # a cofactor expansion that copies sub-matrices makes about 8! of them
    rng = random.Random(101)
    names = ("X",)
    matrix = [[MultiPoly(QQ, names, {(rng.randint(0, 2),): QQ.from_int(rng.randint(1, 9))})
               for _ in range(8)] for _ in range(8)]
    products = []
    original = MultiPoly.__mul__

    def counting(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    [(_, _, det)] = kaehler.minors(matrix, 8, MultiPoly.zero(QQ, names))
    assert 0 < len(products) <= 8 * 2 ** 7 and not det.is_zero
