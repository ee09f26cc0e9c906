import json
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product as iter_product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import etalg.pipeline
from etalg import groebner, kaehler, linalg
from etalg.cli import SUBCOMMAND_SECTIONS
from etalg.errors import InternalContradiction, NotEtale, SearchExhausted
from etalg.fields import GF, QQ
from etalg.finalg import (FiniteAlgebra, _frobenius_images, _restricted_images, _Vector,
                          eval_in_algebra, monogenic_from_poly, product, split_by_idempotent)
from etalg.groebner import buchberger, quotient_algebra
from etalg.kaehler import FLAGS, AlgebraPresentation, decide_all, relation_basis
from etalg.multipoly import GREVLEX, LEX, MultiPoly
from etalg.parsing import parse_input
from etalg.pipeline import (
    STAGES,
    classify,
    decompose_etale,
    find_nilpotent,
    frobenius_split,
    primitive_element,
    render_report,
)
from etalg.unipoly import is_separable
from util import brute_det, input_files, mpoly, random_monic, random_presentations, upoly

F2 = GF(2)
F3 = GF(3)


def pres(field, variables, *specs):
    return AlgebraPresentation(
        field, variables, tuple(mpoly(field, variables, s) for s in specs)
    )


def quotient_of(field, variables, *specs):
    return quotient_algebra(buchberger([mpoly(field, variables, s) for s in specs]))


CIRCLE_CROSS = pres(QQ, ("X", "Y"), {(2, 0): 1, (0, 2): 1, (0, 0): -1}, {(1, 1): 1})
HYPERBOLA = pres(QQ, ("X", "Y"), {(1, 1): 1, (0, 0): -1})
DUAL = pres(QQ, ("X",), {(2,): 1})


# ------------------------------------------------------------------ classify

def test_classify_circle_cross():
    report = classify(CIRCLE_CROSS)
    assert report.trivial is False
    assert report.nette is True
    assert report.standard_etale is True
    assert report.noether_dimension == 0
    assert report.vector_space_dimension == 4
    assert report.discriminant
    assert report.etale is True
    assert sum(g.degree for g in report.decomposition) == 4
    assert all(is_separable(g) for g in report.decomposition)


def test_classify_hyperbola():
    report = classify(HYPERBOLA)
    assert report.nette is False
    assert report.standard_smooth is True
    assert report.noether_dimension == 1
    assert report.vector_space_dimension is None
    assert report.etale is False
    assert report.decomposition is None


def test_classify_dual_numbers():
    report = classify(DUAL)
    assert report.nette is False
    assert report.noether_dimension == 0
    assert report.discriminant == Fraction(0)
    assert report.etale is False
    witness = report.nilpotent_witness
    assert witness is not None
    A = report.algebra
    assert witness == A.generator_refs["X"]
    assert A.is_zero_element(A.mul(witness, witness))


def test_classify_trivial_algebra():
    trivial = pres(QQ, ("X",), {(1,): 1}, {(1,): 1, (0,): 1})
    report = classify(trivial)
    assert report.trivial is True
    assert report.nette and report.standard_smooth and report.standard_etale
    assert report.etale is True
    assert report.noether_dimension is None
    assert report.vector_space_dimension == 0
    assert report.decomposition == []
    assert any("TrivialAlgebra" in note for note in report.notes)


def test_classify_respects_lex_order():
    report = classify(CIRCLE_CROSS, order=LEX)
    assert report.nette and report.etale
    assert report.vector_space_dimension == 4


# ------------------------------------------------------------------ decompose

def test_decompose_two_points():
    A = monogenic_from_poly(upoly(QQ, [-1, 0, 1]))
    cert = decompose_etale(A)
    assert sum(f.poly.degree for f in cert.factors) == 2
    total = A.zero_element()
    for f in cert.factors:
        assert A.mul(f.idempotent, f.idempotent) == f.idempotent
        total = A.add(total, f.idempotent)
    assert total == A.unit


def test_decompose_sqrt2_sqrt3_primitive():
    A = quotient_of(QQ, ("X", "Y"), {(2, 0): 1, (0, 0): -2}, {(0, 2): 1, (0, 0): -3})
    cert = decompose_etale(A)
    assert len(cert.factors) == 1
    assert cert.factors[0].poly == upoly(QQ, [1, 0, -10, 0, 1])


def test_decompose_f4_single_factor():
    A = monogenic_from_poly(upoly(F2, [1, 1, 1]))
    cert = decompose_etale(A)
    assert len(cert.factors) == 1
    assert cert.factors[0].poly == upoly(F2, [1, 1, 1])


def test_decompose_f2_four_points():
    A = quotient_of(F2, ("X", "Y"), {(2, 0): 1, (1, 0): 1}, {(0, 2): 1, (0, 1): 1})
    cert = decompose_etale(A)
    assert len(cert.factors) == 4
    assert all(f.poly.degree == 1 for f in cert.factors)
    assert any("Frobenius" in note for note in cert.notes)
    # product of the monogenic factors is etale again
    prod = monogenic_from_poly(cert.factors[0].poly)
    for f in cert.factors[1:]:
        prod = product(prod, monogenic_from_poly(f.poly))
    assert prod.discriminant()


# Irreducible polynomials (ascending coefficients) of degree 1 to 3.
IRREDUCIBLE = {
    2: ([0, 1], [1, 1], [1, 1, 1], [1, 1, 0, 1], [1, 0, 1, 1]),
    3: ([0, 1], [1, 1], [2, 1], [1, 0, 1], [2, 1, 1], [2, 2, 1]),
}


def product_of_fields(p, polys):
    """(the product of the GF(p)[X]/<f> over the coefficient lists f, the sorted degrees)."""
    fields = [monogenic_from_poly(upoly(GF(p), coeffs)) for coeffs in polys]
    A = fields[0]
    for F in fields[1:]:
        A = product(A, F)
    return A, sorted(len(coeffs) - 1 for coeffs in polys)


@st.composite
def products_of_fields(draw):
    p = draw(st.sampled_from(sorted(IRREDUCIBLE)))
    return product_of_fields(p, draw(st.lists(st.sampled_from(IRREDUCIBLE[p]), min_size=2, max_size=4)))


@settings(max_examples=25)
@given(products_of_fields())
def test_decompose_products_of_finite_fields(case):
    A, degrees = case
    cert = decompose_etale(A)
    if len(cert.factors) == 1:
        assert cert.factors[0].poly.degree == A.dimension
        assert not cert.notes
    else:
        # the Frobenius route ends at the field factors themselves
        assert any("Frobenius" in note for note in cert.notes)
        assert sorted(f.poly.degree for f in cert.factors) == degrees


@st.composite
def products_without_a_primitive_element(draw):
    """A product of fields that repeats one more often than GF(p) has monic irreducibles of its degree.

    A primitive element needs distinct minimal polynomials on the factors of
    each degree, so none exists.  IRREDUCIBLE lists every monic irreducible of
    each degree it reaches.
    """
    p = draw(st.sampled_from(sorted(IRREDUCIBLE)))
    f = draw(st.sampled_from(IRREDUCIBLE[p]))
    same_degree = sum(len(g) == len(f) for g in IRREDUCIBLE[p])
    others = draw(st.lists(st.sampled_from(IRREDUCIBLE[p]), max_size=2))
    return product_of_fields(p, [f] * (same_degree + 1) + others)


@settings(max_examples=25, derandomize=True)
@given(products_without_a_primitive_element())
def test_decompose_takes_the_frobenius_route_without_a_primitive_element(case):
    A, degrees = case
    cert = decompose_etale(A)
    assert any("Frobenius" in note for note in cert.notes)
    assert sorted(f.poly.degree for f in cert.factors) == degrees


@settings(max_examples=25, derandomize=True)
@given(products_of_fields())
@example(product_of_fields(3, [[0, 1]] * 9))  # GF(3)^9
@example(product_of_fields(2, [[0, 1], [1, 1]] * 2 + [[1, 1, 1]] * 2))  # GF(2)^4 x GF(4)^2
def test_frobenius_leaves_are_placed_in_the_root(case):
    # on the Frobenius route, taken here whether or not a primitive element exists, a leaf's
    # generator g and split chain reach the root through one embedding per level: g lies in
    # e*A for the leaf's idempotent e, poly(g) vanishes there, and every chain idempotent c
    # either holds e (c * e = e) or is orthogonal to it
    A, degrees = case
    leaves = etalg.pipeline._frobenius_leaves(A, (), (), 1000, _frobenius_images(A))
    assert sorted(f.poly.degree for f in leaves) == degrees
    for f in leaves:
        e, g = f.idempotent, f.generator
        assert A.mul(e, g) == g
        assert A.is_zero_element(A.mul(e, eval_in_algebra(f.poly, g, A)))
        for c in f.chain:
            assert A.mul(c, c) == c and A.mul(c, e) in (e, A.zero_element())


def tampered_leaves(monkeypatch, tamper):
    """Make the split replay, the Frobenius route of GF(p)^m, return its genuine factors with
    tampered idempotents."""
    genuine = etalg.pipeline._split_leaves

    def leaves(A, polys):
        factors = genuine(A, polys)
        units = tamper(A, [f.idempotent for f in factors])
        return [replace(f, idempotent=e) for f, e in zip(factors, units)]

    monkeypatch.setattr(etalg.pipeline, "_split_leaves", leaves)


def test_decompose_rejects_non_orthogonal_idempotents(monkeypatch):
    # e1 + e2, e2 + e3, e3 + e4, e2 + e3 are idempotents summing to 1 over GF(2),
    # not orthogonal
    A = quotient_of(F2, ("X", "Y"), {(2, 0): 1, (1, 0): 1}, {(0, 2): 1, (0, 1): 1})
    tampered_leaves(monkeypatch, lambda B, e: [B.add(e[0], e[1]), B.add(e[1], e[2]),
                                               B.add(e[2], e[3]), B.add(e[1], e[2])])
    with pytest.raises(InternalContradiction, match="certificate failed"):
        decompose_etale(A)


def test_decompose_rejects_non_idempotent_members(monkeypatch):
    # GF(3)^4 is not monogenic; 2*e1, e2, e3, e4 - e1 sum to 1, and 2*e1 is not idempotent
    point = monogenic_from_poly(upoly(F3, [0, 1]))
    A = product(product(point, point), product(point, point))
    assert decompose_etale(A).notes
    tampered_leaves(monkeypatch, lambda B, e: [B.scalar_mul(F3.from_int(2), e[0]), e[1], e[2],
                                               B.sub(e[3], e[0])])
    with pytest.raises(InternalContradiction, match="certificate failed"):
        decompose_etale(A)


def test_decompose_requires_etale():
    with pytest.raises(NotEtale):
        decompose_etale(monogenic_from_poly(upoly(QQ, [0, 0, 1])))


# ------------------------------------------------------------------ primitive elements

def test_primitive_element_examples():
    A = quotient_of(QQ, ("X", "Y"), {(2, 0): 1, (0, 0): -2}, {(0, 2): 1, (0, 0): -3})
    b, g = primitive_element(A)
    assert b == A.add(A.generator_refs["X"], A.generator_refs["Y"])
    assert g == upoly(QQ, [1, 0, -10, 0, 1])
    assert is_separable(g)

    B = monogenic_from_poly(upoly(QQ, [-2, 0, 1]))
    b2, g2 = primitive_element(B)
    assert b2 == B.generator_refs["x"] and g2 == upoly(QQ, [-2, 0, 1])

    C = quotient_of(F2, ("X",), {(2,): 1, (1,): 1})  # F2 x F2
    b3, g3 = primitive_element(C)
    assert g3.degree == 2


def test_primitive_element_on_a_non_reduced_algebra():
    # a full-degree minimal polynomial proves A = K[T]/<g>, reduced or not
    A = monogenic_from_poly(upoly(QQ, [0, 0, 1]))  # Q[X]/<X^2>
    assert primitive_element(A) == (A.generator_refs["x"], upoly(QQ, [0, 0, 1]))


def test_primitive_element_search_exhausted_on_f2_fourth_power():
    A = quotient_of(F2, ("X", "Y"), {(2, 0): 1, (1, 0): 1}, {(0, 2): 1, (0, 1): 1})
    with pytest.raises(SearchExhausted):
        primitive_element(A)


def test_primitive_element_budget():
    A = quotient_of(QQ, ("X", "Y"), {(2, 0): 1, (0, 0): -2}, {(0, 2): 1, (0, 0): -3})
    with pytest.raises(SearchExhausted):
        primitive_element(A, budget=2)


@pytest.mark.parametrize("budget,note", [
    (0, "primitive-element budget of 0 exhausted"),
    (3, "primitive-element budget of 3 exhausted"),
    (4, "no primitive element among the 4 candidate combinations"),
    (5, "no primitive element among the 4 candidate combinations"),
])
def test_primitive_scan_boundaries(monkeypatch, capsys, budget, note):
    # GF(2)^4 has 2^2 combinations of X and Y, none primitive: a budget below 4 is spent
    # first, and from 4 on the field runs out of tuples.  X^2 = X and Y^2 = Y with
    # dim 4 > 2, so no combination is scanned: the generators' two minimal polynomials
    # decide it, and the note is the one the scan ends with
    path = os.path.join(os.path.dirname(__file__), "..", "samples", "four_points_gf2.alg")
    text = read_input("..", "samples", "four_points_gf2.alg")
    report = classify(parse_input(text), primitive_budget=budget)
    assert report.notes[0].startswith(f"primitive-element search over GF(2): {note}; ")
    assert etalg.cli.main(["classify", path, "--budget-primitive", str(budget)]) == 0
    assert f"  - primitive-element search over GF(2): {note}; " in capsys.readouterr().out
    A = quotient_algebra(relation_basis(parse_input(text)))
    original = FiniteAlgebra.minimal_polynomial
    seen = []

    def counting(self, a):
        seen.append(a)
        return original(self, a)

    monkeypatch.setattr(FiniteAlgebra, "minimal_polynomial", counting)
    with pytest.raises(SearchExhausted, match=f"^{note}$"):
        primitive_element(A, budget=budget)
    assert seen == [(0, 0, 1, 0), (0, 1, 0, 0)]  # X, Y
    # the scan itself, with the rule off, ends with the same note after min(budget, 4)
    # candidates, each taking one minimal polynomial
    seen.clear()
    monkeypatch.setattr(etalg.pipeline, "_fixed_by_frobenius", lambda A, polys: False)
    with pytest.raises(SearchExhausted, match=f"^{note}$"):
        primitive_element(A, budget=budget)
    assert seen == [(0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0)][:budget]  # 0, Y, X, X + Y


def grid_text(p, S, T):
    """The split grid prod_{c in S} (X - c), prod_{d in T} (Y - d) over GF(p)."""
    def product_of(name, roots):
        return " * ".join(f"({name} + {-c % p})" for c in roots)
    return f"field GF({p})\nvars X, Y\nrelations:\n  {product_of('X', S)}\n  {product_of('Y', T)}\n"


def grid_cases():
    rng = random.Random(30)
    for p in (2, 3, 5):
        for a, b in iter_product(range(1, p + 1), repeat=2):
            yield p, sorted(rng.sample(range(p), a)), sorted(rng.sample(range(p), b))


UNIVARIATE_CASES = [
    "field GF(2)\nvars X\nrelations:\n  X^2 + X\n",
    "field GF(3)\nvars X\nrelations:\n  (X^2 + 1) * (X - 1)\n",
    "field GF(5)\nvars X\nrelations:\n  X^5 - X\n",
    "field GF(5)\nvars X\nrelations:\n  (X^2 + 2) * (X^3 + X + 1)\n",
]


# three points of the GF(3)-plane: X and Y are fixed by x -> x^3, neither generates, and
# dim = p = 3, so the rule must not fire; the scan finds the primitive element X + 2*Y
THREE_POINTS_GF3 = "field GF(3)\nvars X, Y\nrelations:\n  X^2 - X\n  Y^2 - Y\n  X*Y\n"


def test_the_frobenius_rule_changes_no_report(monkeypatch, capsys, tmp_path):
    # the rule fires exactly when the grid has |S| * |T| > p points, and skipping the scan
    # it proves futile leaves the classify and decompose --certificates reports unchanged
    cases = [(grid_text(p, S, T), len(S) * len(T) > p) for p, S, T in grid_cases()]
    cases += [(text, False) for text in UNIVARIATE_CASES + [THREE_POINTS_GF3]]
    original = etalg.pipeline._fixed_by_frobenius
    fired = []

    def recording(A, polys):
        answer = original(A, polys)
        fired.append(answer)
        return answer

    path = tmp_path / "case.alg"
    for text, fires in cases:
        path.write_text(text)
        reports = {}
        for rule in ("on", "off"):
            fired.clear()
            monkeypatch.setattr(etalg.pipeline, "_fixed_by_frobenius",
                                recording if rule == "on" else lambda A, polys: False)
            for argv in (["classify"], ["decompose", "--certificates"]):
                assert etalg.cli.main([argv[0], str(path), *argv[1:]]) == 0, text
                reports[rule, argv[0]] = capsys.readouterr().out
            if rule == "on":
                assert any(fired) == fires, text
        assert reports["on", "classify"] == reports["off", "classify"], text
        assert reports["on", "decompose"] == reports["off", "decompose"], text
    assert sum(fires for _, fires in cases) == 1 + 4 + 15  # of the 4, 9 and 25 grids


def test_the_frobenius_rule_does_not_trust_the_recorded_generators_of_a_table(monkeypatch):
    # GF(5)[T]/<T^6 + T^5 + T^4 + 1> is a field of dimension 6 > 5.  As a table that records
    # only its unit as a generator, that generator is fixed by x -> x^5 but does not generate
    # the field, so the rule must not fire: the basis scan finds the primitive element x, as
    # it does with the rule off, and no note is added
    K = GF(5)
    f = upoly(K, [1, 0, 0, 0, 1, 1, 1])
    B = monogenic_from_poly(f)
    A = FiniteAlgebra(K, B.basis_labels, table=B.table, unit=B.unit,
                      generator_refs={"one": B.unit})
    assert not etalg.pipeline._fixed_by_frobenius(A, [A.minimal_polynomial(A.unit)])
    cert = decompose_etale(A)
    assert cert.notes == ()
    assert [(g.poly, g.generator) for g in cert.factors] == [(f, B.generator_refs["x"])]
    monkeypatch.setattr(etalg.pipeline, "_fixed_by_frobenius", lambda A, polys: False)
    assert decompose_etale(A) == cert


def split_table(p, m, rng):
    """GF(p)^m as a table that records no generators, on the basis of the rows of a random
    invertible matrix over its m points."""
    K = GF(p)
    while True:
        B = [[rng.randrange(p) for _ in range(m)] for _ in range(m)]
        if linalg.rank(B, K) == m:
            break
    inverse = [row[m:] for row in
               linalg.rref([row + [int(i == j) for j in range(m)] for i, row in enumerate(B)], K)[0]]

    def coordinates(values):  # y with y * B = values
        return tuple(sum(v * inverse[k][i] for k, v in enumerate(values)) % p for i in range(m))

    table = [[coordinates([B[i][k] * B[j][k] for k in range(m)]) for j in range(m)]
             for i in range(m)]
    return FiniteAlgebra(K, [f"b{i}" for i in range(m)], table, coordinates([1] * m))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_split_table_without_generators_replays_the_general_route(p):
    # its basis generates it, so the rule fires and the splits are replayed; each leaf is
    # generated by its echelon basis element, a multiple of its idempotent other than 1
    rng = random.Random(p)
    for _ in range(4):
        A = split_table(p, rng.randint(p + 1, p + 5), rng)
        with mock.patch.object(etalg.pipeline, "_split_leaves",
                               wraps=etalg.pipeline._split_leaves) as replay:
            cert = decompose_etale(A)
        assert replay.call_count == 1
        with mock.patch.object(etalg.pipeline, "_fixed_by_frobenius", lambda A, polys: False):
            assert decompose_etale(A) == cert


# ------------------------------------------------------------------ frobenius splitting

@pytest.mark.parametrize("p", [3, 5, 7, 101, 32003])
def test_roots_by_splitting_match_the_scan(p):
    # a divisor of T^p - T is a product of distinct linear factors; splitting finds all
    # its roots, and the smallest is the first that evaluating at 0, 1, ..., p - 1 finds
    K = GF(p)
    rng = random.Random(p)
    for _ in range(40):
        roots = rng.sample(range(p), rng.randint(1, min(p, 12)))
        g = upoly(K, [1])
        for r in roots:
            g = g * upoly(K, [-r, 1])
        assert sorted(etalg.pipeline._split_roots(g, 0)) == sorted(roots)
        scan = next(c for c in range(p) if not g(c))
        assert etalg.pipeline._smallest_root(g) == scan == min(roots)


def test_splitting_a_polynomial_without_linear_factors_raises():
    # T^2 + 1 is irreducible over GF(7): no a < 7 splits it, and the search ends there
    with pytest.raises(InternalContradiction, match="not a product of distinct linear factors"):
        etalg.pipeline._split_roots(upoly(GF(7), [1, 0, 1]), 0)


def test_frobenius_route_at_a_large_prime():
    # four points over GF(2^61 - 1) whose basis elements are not primitive (X*Y takes the
    # value a*b*w twice); with the scan cut to one candidate, the fixed-space split finds
    # the roots of degree-4 minimal polynomials by splitting, not by evaluating up to p
    p = 2 ** 61 - 1
    a, b, w = 10 ** 17, 2 * 10 ** 17 + 1, 3 * 10 ** 17 + 7
    c, d = b * w % p, a * w % p
    text = (f"field GF({p})\nvars X, Y\nrelations:\n  (X - {a})*(X - {b})\n"
            f"  (Y - {c})*(Y - {d})\n")
    report = classify(parse_input(text), primitive_budget=1)
    assert "primitive-element budget of 1 exhausted" in report.notes[0]
    assert [g.degree for g in report.decomposition] == [1, 1, 1, 1]
    assert sorted(-g.coeff(0) % p for g in report.decomposition) == [a, a, b, b]


def test_frobenius_split_examples():
    A = quotient_of(F2, ("X",), {(2,): 1, (1,): 1})
    e = frobenius_split(A)
    assert e == A.generator_refs["X"]

    B = monogenic_from_poly(upoly(F2, [1, 1, 1]))
    assert frobenius_split(B) is None

    C = monogenic_from_poly(upoly(F3, [-1, 0, 1]))
    e3 = frobenius_split(C)
    assert e3 is not None
    assert C.mul(e3, e3) == e3
    assert not C.is_zero_element(e3) and e3 != C.unit
    x = C.generator_refs["x"]
    two_inv = F3.invert(2)
    candidates = {
        C.scalar_mul(two_inv, C.add(C.unit, x)),
        C.scalar_mul(two_inv, C.sub(C.unit, x)),
    }
    assert e3 in candidates


def test_frobenius_split_on_non_reduced_algebras():
    # x^p = x forces a squarefree split minimal polynomial, nilpotents or not
    A = monogenic_from_poly(upoly(F3, [0, 0, -1, 1]))  # GF(3)[X]/<X^2 (X - 1)>
    e = frobenius_split(A)
    assert e is not None and A.mul(e, e) == e
    assert not A.is_zero_element(e) and e != A.unit
    assert frobenius_split(monogenic_from_poly(upoly(F3, [0, 0, 1]))) is None  # local


def test_frobenius_split_requires_prime_field():
    with pytest.raises(NotEtale):
        frobenius_split(monogenic_from_poly(upoly(QQ, [-1, 0, 1])))


def powered(A):
    """F on A by raising each basis element to the p-th power: the oracle."""
    return [A.power(A.basis_element(i), A.field.modulus) for i in range(A.dimension)]


def frobenius_oracle_algebras(rng):
    """Quotients and monogenic algebras (border roots), products and non-reduced ones over GF(2), GF(3), GF(5)."""
    for K in (F2, F3, GF(5)):
        p = K.modulus
        yield quotient_of(K, ("X", "Y"), {(p, 0): 1, (1, 0): -1},
                          {(0, 2): 1, (1, 0): rng.randint(1, 4), (0, 0): rng.randint(0, 4)})
        yield quotient_of(K, ("X", "Y", "Z"), {(2, 0, 0): 1, (0, 1, 0): -1},
                          {(0, 2, 0): 1, (0, 0, 1): -1}, {(0, 0, 2): 1, (1, 0, 0): -1})
        for _ in range(2):
            f = random_monic(rng, K, rng.randint(2, 5))
            yield monogenic_from_poly(f)
            yield monogenic_from_poly(f * f)  # not reduced
            yield product(monogenic_from_poly(f), monogenic_from_poly(random_monic(rng, K, 2)))
        point = monogenic_from_poly(upoly(K, [0, 1]))
        yield product(product(point, point), product(point, monogenic_from_poly(upoly(K, [0, 0, 1]))))


def test_restricted_frobenius_matches_powering_on_every_node():
    # F(e_i) = F(x_k) * F(e_i') along the border, and restriction below the root, give
    # the map that powering each node's own basis gives
    rng = random.Random(101)
    nodes = 0

    def walk(A, images):
        nonlocal nodes
        nodes += 1
        assert images == powered(A)
        e = etalg.pipeline._fixed_space_idempotent(A, images)
        if e is None:
            return
        split = split_by_idempotent(e, A)
        for factor in (split.first, split.second):
            walk(factor, _restricted_images(factor, images))

    borders = 0
    for A in frobenius_oracle_algebras(rng):
        borders += A.border is not None
        walk(A, _frobenius_images(A))
    assert borders == 18 and nodes > 100


def reference_factor(A, u):
    """u*A built directly: u times each basis element of A, echelon form, then each
    product read at the pivots and checked by embedding it back."""
    K = A.field
    rows, pivots = linalg.rref([A.mul(u, A.basis_element(i)) for i in range(A.dimension)], K)
    basis = [tuple(row) for row in rows[: len(pivots)]]

    def coordinates(w):
        coords = tuple(w[p] for p in pivots)
        back = [K.zero()] * A.dimension
        for c, b in zip(coords, basis):
            back = [K.reduce(x + c * y) for x, y in zip(back, b)]
        assert tuple(back) == w
        return coords

    table = tuple(tuple(coordinates(A.mul(b, c)) for c in basis) for b in basis)
    refs = {name: coordinates(A.mul(u, g)) for name, g in A.generator_refs.items()}
    return basis, table, coordinates(u), refs


def test_split_factors_match_the_reference_construction():
    # on random GF(p) algebras, every split along a Frobenius idempotent gives the bases,
    # tables, units and generators of the reference, and each table entry carries its support
    rng = random.Random(30)
    splits = 0

    def walk(A, images):
        nonlocal splits
        e = etalg.pipeline._fixed_space_idempotent(A, images)
        if e is None:
            return
        split = split_by_idempotent(e, A)
        splits += 1
        for factor, u in ((split.first, A.sub(A.unit, e)), (split.second, e)):
            basis, table, unit, refs = reference_factor(A, u)
            assert factor.basis == tuple(basis)
            assert factor.table == table
            assert factor.unit == unit and factor.generator_refs == refs
            for v in (v for row in factor.table for v in row):
                assert v.support == tuple((k, a) for k, a in enumerate(v) if a)
            walk(factor, _restricted_images(factor, images))

    for A in frobenius_oracle_algebras(rng):
        walk(A, _frobenius_images(A))
    assert splits > 50


def test_a_corrupted_parent_product_does_not_close_the_split(monkeypatch):
    # a parent product that leaves (1-e)*A by e is caught as the table is read back
    rng = random.Random(31)
    splits = [(A, etalg.pipeline._fixed_space_idempotent(A, _frobenius_images(A)))
              for A in frobenius_oracle_algebras(rng)]
    splits = [(A, e) for A, e in splits if e is not None]
    assert len(splits) >= 10
    original = FiniteAlgebra.mul
    for A, e in splits:
        assert split_by_idempotent(e, A)

        def corrupted(self, x, y):
            product = original(self, x, y)
            # only products of two basis vectors of a factor are hit
            if self is A and type(x) is type(y) is _Vector:
                return self.add(product, e)
            return product

        monkeypatch.setattr(FiniteAlgebra, "mul", corrupted)
        with pytest.raises(InternalContradiction, match="split basis not closed: b_0 \\* b_0"):
            split_by_idempotent(e, A)
        monkeypatch.setattr(FiniteAlgebra, "mul", original)


def test_a_frobenius_image_outside_its_factor_raises():
    # on GF(3)^3 a map sending e1 to e2 does not preserve the split (1 - e1)*A x e1*A
    point = monogenic_from_poly(upoly(F3, [0, 1]))
    A = product(product(point, point), point)
    e1 = A.basis_element(0)
    split = split_by_idempotent(e1, A)
    images = _frobenius_images(A)
    assert _restricted_images(split.second, images) == [(1,)]
    swapped = [images[1], images[0], images[2]]
    with pytest.raises(InternalContradiction, match="Frobenius image"):
        _restricted_images(split.second, swapped)


def shifted(g, c):
    """g(T + c)."""
    K = g.field
    total = upoly(K, [])
    for k, coeff in enumerate(g.coeffs):
        total = total + (upoly(K, [c, 1]) ** k).scale(coeff)
    return total


@settings(max_examples=25)
@given(products_of_fields())
def test_frobenius_idempotent_is_the_idempotent_of_the_shifted_fixed_element(case):
    # at every split node, the idempotent e read off the fixed element v and the smallest root c
    # of its minimal polynomial g generates <v - c>: e^2 = e, (v - c) * e = v - c, and
    # (v - c) + (1 - e) is a unit; and v - c has minimal polynomial g(T + c)
    A, _ = case
    seen = []
    original = FiniteAlgebra._idempotent

    def recording(self, a, g, c):
        e = original(self, a, g, c)
        seen.append((self, a, g, c, e[0]))
        return e

    def walk(B, images):
        e = etalg.pipeline._fixed_space_idempotent(B, images)
        if e is None:
            return
        split = split_by_idempotent(e, B)
        for factor in (split.first, split.second):
            if factor.dimension > 1:
                walk(factor, _restricted_images(factor, images))

    with mock.patch.object(FiniteAlgebra, "_idempotent", recording):
        walk(A, _frobenius_images(A))
    assert seen
    for B, v, g, c, e in seen:
        shift = B.sub(v, B.scalar_mul(B.field.from_int(c), B.unit))
        assert B.minimal_polynomial(shift) == shifted(g, c)
        assert B.mul(e, e) == e and B.mul(shift, e) == shift
        assert B.minimal_polynomial(B.add(shift, B.sub(B.unit, e))).coeff(0)


# ------------------------------------------------------------------ nilpotent witnesses

def test_find_nilpotent():
    A = monogenic_from_poly(upoly(QQ, [0, 0, -1, 1]))  # X^3 - X^2
    w = find_nilpotent(A)
    assert w is not None and not A.is_zero_element(w)
    assert A.is_zero_element(A.power(w, A.dimension))
    B = monogenic_from_poly(upoly(F2, [1, 0, 1]))  # (X+1)^2
    w2 = find_nilpotent(B)
    assert w2 is not None and B.is_zero_element(B.mul(w2, w2))
    assert find_nilpotent(monogenic_from_poly(upoly(QQ, [-1, 0, 1]))) is None


def test_find_nilpotent_rejects_states_the_theory_rules_out(monkeypatch):
    # on X^3 - X^2 the generator x has g = T^2 (T - 1) and squarefree part r = T (T - 1)
    A = monogenic_from_poly(upoly(QQ, [0, 0, -1, 1]))
    with monkeypatch.context() as patch:
        # r(x) = 0 although deg r < deg g
        patch.setattr(etalg.pipeline, "eval_in_algebra", lambda f, a, algebra: algebra.zero_element())
        with pytest.raises(InternalContradiction, match="annihilates"):
            find_nilpotent(A)
    with monkeypatch.context() as patch:
        # a stand-in r = g / (T - 1) = T^2 gives r(x) = x^2, a nonzero idempotent: never nilpotent
        patch.setattr(etalg.pipeline, "squarefree_part", lambda g: g // upoly(QQ, [-1, 1]))
        with pytest.raises(InternalContradiction, match="survives 3 squarings"):
            find_nilpotent(A)
    assert find_nilpotent(A) is not None


# ------------------------------------------------------------------ reports

def test_report_json_schema():
    report = classify(CIRCLE_CROSS)
    data = json.loads(report.to_json())
    assert list(data) == [
        "input", "trivial", "nette", "standard_smooth", "elementary_smooth",
        "standard_etale", "noether_dimension", "vector_space_dimension",
        "discriminant", "etale", "decomposition", "primitive_element",
        "nilpotent_witness", "notes",
    ]
    assert data["input"]["field"] == "Q"
    assert data["input"]["vars"] == ["X", "Y"]
    assert data["vector_space_dimension"] == 4
    assert data["primitive_element"] is not None
    assert set(data["primitive_element"]) == {"coordinates", "minimal_polynomial"}


def test_report_json_holds_exactly_the_recorded_sections():
    assert list(json.loads(classify(CIRCLE_CROSS, sections=("nette",)).to_json())) == ["nette"]
    report = classify(CIRCLE_CROSS, sections=("etale", "header", "discriminant", "differentials"))
    assert list(json.loads(report.to_json())) == ["input", "discriminant", "etale"]
    assert json.loads(classify(CIRCLE_CROSS, sections=()).to_json()) == {}


def test_report_rendering_deterministic():
    for text in (
        "field Q\nvars X, Y\nrelations:\n  X^2 + Y^2 - 1\n  X*Y\n",
        "field GF(2)\nvars X, Y\nrelations:\n  X^2 + X\n  Y^2 + Y\n",
        "field Q\nvars X\nrelations:\n  X^2\n",
    ):
        first = render_report(classify(parse_input(text), certificates=True))
        second = render_report(classify(parse_input(text), certificates=True))
        assert first == second


CIRCLE_CROSS_TEXT = """\
field: Q
variables: X, Y
relations:
  f1 = X^2 + Y^2 - 1
  f2 = X*Y
trivial: false
nette: true
standard-smooth: true
elementary-smooth: true
standard-etale: true
noether-dimension: 0
vector-space-dimension: 4
basis: 1, Y, X, Y^2
discriminant: 16
etale: true
decomposition:
  g1 = T^4 - 5*T^2 + 4
primitive-element: 2*Y + X  (minimal polynomial T^4 - 5*T^2 + 4)
notes: (none)
"""


def test_report_text_snapshot():
    report = classify(parse_input(
        "field Q\nvars X, Y\nrelations:\n  X^2 + Y^2 - 1\n  X*Y\n"
    ))
    assert render_report(report) == CIRCLE_CROSS_TEXT


def test_classify_reports_search_exhaustion_note():
    report = classify(parse_input("field GF(2)\nvars X, Y\nrelations:\n  X^2 + X\n  Y^2 + Y\n"))
    assert len(report.decomposition) == 4
    assert any("Frobenius" in note for note in report.notes)
    assert report.primitive_element is None


def test_missing_nilpotent_witness_is_a_contradiction(monkeypatch):
    # over a perfect field a zero discriminant always yields a witness
    monkeypatch.setattr(etalg.pipeline, "find_nilpotent", lambda A: None)
    with pytest.raises(InternalContradiction):
        classify(DUAL)


@st.composite
def small_presentations(draw):
    """1 or 2 variables, 1 or 2 relations of degree <= 3, over Q, GF(2) or GF(3).

    Each relation is a power of one variable plus up to three random terms,
    so that many presentations are zero-dimensional, of dimension up to 9.
    """
    field = draw(st.sampled_from((QQ, F2, F3)))
    n = draw(st.integers(1, 2))
    monomials = [e for e in iter_product(range(4), repeat=n) if sum(e) <= 3]
    term = st.tuples(st.sampled_from(monomials), st.integers(-2, 2))
    relations = []
    for _ in range(draw(st.integers(1, 2))):
        var, degree = draw(st.integers(0, n - 1)), draw(st.integers(1, 3))
        power = tuple(degree if k == var else 0 for k in range(n))
        relations.append(mpoly(field, ("X", "Y")[:n],
                               {power: 1, **dict(draw(st.lists(term, max_size=3)))}))
    assume(all(not f.is_zero for f in relations))
    return AlgebraPresentation(field, ("X", "Y")[:n], tuple(relations))


@given(small_presentations())
def test_every_report_keeps_the_invariants_of_the_theory(P):
    report = classify(P)
    if report.nette and not report.trivial:
        assert report.noether_dimension == 0
    A = report.algebra
    if A is None:
        return
    m = A.dimension
    assert report.etale == bool(report.discriminant)
    if report.etale:
        assert sum(g.degree for g in report.decomposition) == m
    else:
        w = power = report.nilpotent_witness
        assert not A.is_zero_element(w)
        for _ in range(m - 1):
            power = A.mul(power, w)
        assert A.is_zero_element(power)  # w^m = 0


def recombined(P, rng):
    """The relations M*f for a random invertible constant s x s matrix M."""
    K = P.field
    while True:
        M = [[K.from_int(rng.randint(-2, 2)) for _ in range(P.s)] for _ in range(P.s)]
        if brute_det(M, K):
            break
    relations = tuple(sum((f.scale(c) for c, f in zip(row, P.relations)), P.ring_zero()) for row in M)
    return AlgebraPresentation(K, P.variables, relations)


def permuted(P, rng):
    """The same relations in a random order of the variables."""
    order = rng.sample(range(P.n), P.n)
    variables = tuple(P.variables[i] for i in order)
    return AlgebraPresentation(P.field, variables, tuple(
        MultiPoly(P.field, variables, {tuple(e[i] for i in order): c for e, c in f.terms.items()})
        for f in P.relations))


def test_reports_are_invariant_under_the_presentation():
    # M*f spans the same ideal, its n x n and s x s minors span the same ideals as f's
    # (Cauchy-Binet), and its leading minor is f's times det M: every line after the
    # relations stays.  A permutation of the variables keeps every flag but standard
    # smooth, whose leading minor takes rows X_1..X_s.
    def invariants(report):
        return (report.trivial, report.nette, report.elementary_smooth, report.standard_etale,
                report.noether_dimension, report.vector_space_dimension, report.etale,
                None if report.discriminant is None else not report.discriminant)

    def after_relations(text):
        return text[text.index("\ntrivial: "):]

    inputs = [parse_input(read_input(path)) for _, path in input_files()]
    rng = random.Random(97)
    for P in inputs + random_presentations(rng, 80):
        report = classify(P)
        assert after_relations(render_report(classify(recombined(P, rng)))) == \
            after_relations(render_report(report))
        assert invariants(classify(permuted(P, rng))) == invariants(report)


def count_buchberger(monkeypatch):
    """Replace buchberger wherever etalg binds it; returns the list of ``track`` flags."""
    original = groebner.buchberger
    calls = []

    def counting(gens, order=GREVLEX, pair_budget=groebner.DEFAULT_PAIR_BUDGET, track=False):
        calls.append(track)
        return original(gens, order, pair_budget, track)

    for name, module in list(sys.modules.items()):
        if name == "etalg" or name.startswith("etalg."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    return calls


TOWER = "field Q\nvars X, Y, Z\nrelations:\n  X^3 - 2\n  Y^2 - X - 1\n  Z^2 - Y - 3\n"
# s = 2 < n = 4: the leading minor and the 2 x 2 minors are different ideals
COMPLETE_INTERSECTION = (
    "field Q\nvars X, Y, Z, W\nrelations:\n  X^2 + Y^2 + Z^2 + W^2 - 1\n  X*Y - Z*W\n"
)


def count_decision_work(monkeypatch):
    """(buchberger's ``track`` flags, Bezout checks, normal forms taken in kaehler), as they happen."""
    counters = count_buchberger(monkeypatch), [], []
    for name, seen in zip(("one_certificate", "normal_form"), counters[1:]):
        def counting(*args, original=getattr(kaehler, name), seen=seen):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(kaehler, name, counting)
    return counters


def assert_flag_subsets_share_runs(P, ideals, certificates, counters):
    """Every non-empty subset of FLAGS decides as the full call does, sharing its runs.

    ``ideals`` names the ideal each flag adjoins, None when its size
    precondition fails.  A subset runs Groebner once per distinct ideal among
    its flags, checks each tracked run once, and normalises the inverse of
    the single minor once if a single-minor flag of the subset prints it
    (with certificates, on a run that holds 1), else never.
    """
    def fields(d):
        return d.value, d.trivial, d.detail, d.labels, d.certificate, d.basis.generators

    calls, checks, inverses = counters
    gb = relation_basis(P)
    full = decide_all(P, certificates=certificates, gb=gb)
    for size in range(1, len(FLAGS) + 1):
        for subset in combinations(FLAGS, size):
            for counter in counters:
                counter.clear()
            decisions = decide_all(P, certificates=certificates, gb=gb, flags=subset)
            assert {name: fields(d) for name, d in decisions.items()} == \
                {name: fields(full[name]) for name in subset}
            runs = len({ideals[name] for name in subset} - {None})
            assert len(calls) == runs and sum(calls) == len(checks) == runs * certificates
            assert len(inverses) == (certificates and any(
                full[name].value for name in subset if name in ("standard_smooth", "standard_etale")))


@pytest.mark.parametrize("certificates,tracked", [(False, 0), (True, 1)])
def test_tower_runs_groebner_once_per_ideal(monkeypatch, certificates, tracked):
    # s = n: the four flags share one run on det(Ja), its identity is checked once,
    # and the inverse of det(Ja) that both single-minor flags print is normalised once
    counters = calls, checks, inverses = count_decision_work(monkeypatch)
    report = classify(parse_input(TOWER), certificates=certificates)
    assert report.nette and report.standard_etale and report.etale
    assert len(calls) == 2 and sum(calls) == tracked
    assert len(checks) == len(inverses) == tracked
    assert all((d.certificate is not None) == certificates for d in report.decisions.values())
    assert_flag_subsets_share_runs(parse_input(TOWER), dict.fromkeys(FLAGS, "det(Ja)"),
                                   certificates, counters)


def test_complete_intersection_runs_groebner_three_times(monkeypatch):
    counters = calls, _, _ = count_decision_work(monkeypatch)
    report = classify(parse_input(COMPLETE_INTERSECTION))
    assert report.noether_dimension == 2 and not report.nette
    assert len(calls) == 3 and sum(calls) == 0
    ideals = {"nette": None, "standard_smooth": "leading minor", "elementary_smooth": "2 x 2 minors",
              "standard_etale": None}
    for certificates in (False, True):
        assert_flag_subsets_share_runs(parse_input(COMPLETE_INTERSECTION), ideals, certificates,
                                       counters)


SHIFTED_POWER = "field GF(3)\nvars X\nrelations:\n  (X + 1)^30 + X\n"


@pytest.mark.parametrize("text,calls", [(SHIFTED_POWER, 1), (TOWER, 3)])
def test_classify_takes_one_minimal_polynomial_per_generator_scanned(monkeypatch, text, calls):
    # a generator of full degree is found on the first scan, and not re-scanned
    original = FiniteAlgebra.minimal_polynomial
    seen = []

    def counting(self, a):
        seen.append(a)
        return original(self, a)

    monkeypatch.setattr(FiniteAlgebra, "minimal_polynomial", counting)
    report = classify(parse_input(text))
    assert report.etale and len(report.decomposition) == 1
    assert len(seen) == calls


GF5_SQUARED_GRID = "field GF(5)\nvars X, Y\nrelations:\n  X^5 - X\n  (Y+2*X+1)^5 - (Y+2*X+1)\n"


@pytest.mark.parametrize("text,border", [(SHIFTED_POWER, 1), (TOWER, 16), (GF5_SQUARED_GRID, 10)],
                         ids=["shifted_power", "tower", "gf5_grid"])
def test_structure_table_takes_normal_forms_on_the_border_only(monkeypatch, text, border):
    # one normal form per (x_k, b) with x_k * b outside the staircase
    gb = relation_basis(parse_input(text))
    staircase = set(groebner.standard_monomials(gb))
    n = len(gb.variables)
    pairs = sum(tuple(e + (i == k) for i, e in enumerate(b)) not in staircase
                for b in staircase for k in range(n))
    original = groebner.normal_form
    calls = []

    def counting(f, gb):
        calls.append(f)
        return original(f, gb)

    monkeypatch.setattr(groebner, "normal_form", counting)
    quotient_algebra(gb)
    assert len(calls) == pairs == border


def read_input(*parts):
    with open(os.path.join(os.path.dirname(__file__), *parts), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("text,calls", [
    (read_input("golden", "inputs", "gf4_squared.alg"), 15),
    (read_input("golden", "inputs", "gf64_leaf.alg"), 31),
    (GF5_SQUARED_GRID, 2),
], ids=["gf4_squared", "gf64_leaf", "gf5_grid"])
def test_frobenius_split_reuses_the_minimal_polynomial_of_its_fixed_element(monkeypatch, text,
                                                                           calls):
    # each Frobenius split takes one minimal polynomial and reads its idempotent off it; the
    # split GF(5)^25 takes only its generators' two, and reads its splits off its idempotents
    original = FiniteAlgebra.minimal_polynomial
    seen = []

    def counting(self, a):
        seen.append(a)
        return original(self, a)

    monkeypatch.setattr(FiniteAlgebra, "minimal_polynomial", counting)
    report = classify(parse_input(text))
    assert report.etale
    assert len(seen) == calls


@pytest.mark.parametrize("text,work", [
    (read_input("golden", "inputs", "gf4_squared.alg"),
     {"splits": 3, "powers": 2, "images": 1, "factors": 2}),
    (read_input("golden", "inputs", "gf64_leaf.alg"),
     {"splits": 4, "powers": 3, "images": 1, "factors": 6}),
    (GF5_SQUARED_GRID, {"splits": 0, "powers": 0, "images": 0, "factors": 0}),
], ids=["gf4_squared", "gf64_leaf", "gf5_grid"])
def test_frobenius_route_powers_once_at_the_root(monkeypatch, text, work):
    # F is one map, powered along the border at the root (one power per variable) and
    # restricted below it; factors of dimension 1 are leaves without a fixed-space split.
    # A split algebra, GF(5)^25 here, replays the splits on its primitive idempotents: it
    # builds neither F nor a split factor
    counts = {"splits": 0, "powers": 0, "public": 0, "images": 0, "factors": 0}

    def counting(key, original):
        def wrapper(*args):
            counts[key] += 1
            return original(*args)
        return wrapper

    for key, owner, name in (("splits", etalg.pipeline, "_fixed_space_idempotent"),
                             ("powers", FiniteAlgebra, "power"),
                             ("public", etalg.pipeline, "frobenius_split"),
                             ("images", etalg.pipeline, "_frobenius_images"),
                             ("factors", etalg.finalg, "_IdealFactor")):
        monkeypatch.setattr(owner, name, counting(key, getattr(owner, name)))
    report = classify(parse_input(text))
    assert report.etale and len(report.decomposition) > 1
    assert counts == {**work, "public": 0}


@pytest.mark.parametrize("text", [
    SHIFTED_POWER,
    read_input("..", "samples", "sqrt2_sqrt3.alg"),
    read_input("golden", "inputs", "gf4_squared.alg"),
    read_input("..", "samples", "four_points_gf2.alg"),
], ids=["shifted_power", "sqrt2_sqrt3", "gf4_squared", "four_points_gf2"])
def test_classify_takes_one_discriminant(monkeypatch, text):
    # one for the report, which the decomposition trusts; none per Frobenius node
    original = FiniteAlgebra.discriminant
    calls = []

    def counting(self):
        calls.append(self.dimension)
        return original(self)

    monkeypatch.setattr(FiniteAlgebra, "discriminant", counting)
    assert classify(parse_input(text)).etale
    assert len(calls) == 1


# ------------------------------------------------------------------ stages per subcommand

def count_stages(monkeypatch):
    """Count Groebner runs, tables, discriminants, decompositions and nilpotent witnesses."""
    counts = {"groebner": count_buchberger(monkeypatch)}
    for key, owner, name in (("tables", etalg.pipeline, "quotient_algebra"),
                             ("discriminants", FiniteAlgebra, "discriminant"),
                             ("decompositions", etalg.pipeline, "_decompose"),
                             ("witnesses", etalg.pipeline, "find_nilpotent")):
        calls = counts[key] = []

        def counting(*args, _original=getattr(owner, name), _calls=calls):
            _calls.append(args)
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
    return counts


# (Groebner runs, tables, discriminants, decompositions, nilpotent witnesses) per subcommand
STAGE_WORK = {
    "tower": (TOWER, {
        "classify": (2, 1, 1, 1, 0), "nette": (2, 0, 0, 0, 0), "smooth": (2, 0, 0, 0, 0),
        "etale": (2, 1, 1, 0, 0), "differentials": (1, 0, 0, 0, 0), "decompose": (1, 1, 1, 1, 0),
    }),
    "dual_numbers": (read_input("..", "samples", "dual_numbers.alg"), {
        "classify": (2, 1, 1, 0, 1), "nette": (2, 0, 0, 0, 0), "smooth": (2, 0, 0, 0, 0),
        "etale": (2, 1, 1, 0, 1), "differentials": (1, 0, 0, 0, 0), "decompose": (1, 1, 1, 0, 1),
    }),
    "shifted_power": (SHIFTED_POWER, {
        "classify": (2, 1, 1, 1, 0), "nette": (2, 0, 0, 0, 0), "smooth": (2, 0, 0, 0, 0),
        "etale": (2, 1, 1, 0, 0), "differentials": (1, 0, 0, 0, 0), "decompose": (1, 1, 1, 1, 0),
    }),
    # s < n: nette and standard etale are refused at once; only the smooth flags adjoin minors
    "complete_intersection": (COMPLETE_INTERSECTION, {
        "classify": (3, 0, 0, 0, 0), "nette": (1, 0, 0, 0, 0), "smooth": (3, 0, 0, 0, 0),
        "etale": (1, 0, 0, 0, 0), "differentials": (1, 0, 0, 0, 0), "decompose": (1, 0, 0, 0, 0),
    }),
}


@pytest.mark.parametrize("name,command", [(name, command) for name in STAGE_WORK
                                          for command in SUBCOMMAND_SECTIONS])
def test_each_subcommand_runs_only_the_stages_its_sections_read(monkeypatch, name, command):
    text, work = STAGE_WORK[name]
    counts = count_stages(monkeypatch)
    classify(parse_input(text), sections=SUBCOMMAND_SECTIONS[command])
    assert tuple(len(calls) for calls in counts.values()) == work[command]


def test_the_etale_verdict_alone_runs_neither_decomposition_nor_witness(monkeypatch):
    for text in (TOWER, read_input("..", "samples", "dual_numbers.alg")):
        counts = count_stages(monkeypatch)
        classify(parse_input(text), sections=("etale",))
        assert len(counts["discriminants"]) == 1
        assert counts["decompositions"] == counts["witnesses"] == []
        monkeypatch.undo()


def test_an_unknown_section_raises_before_any_stage_runs(monkeypatch):
    counts = count_stages(monkeypatch)
    with pytest.raises(ValueError, match="unknown report section 'nete'"):
        classify(parse_input(TOWER), sections=("nette", "nete"))
    assert all(calls == [] for calls in counts.values())


def pinned_inputs():
    """The golden inputs (samples and extra inputs) and 100 seeded random presentations."""
    folders = (os.path.join("..", "samples"), os.path.join("golden", "inputs"))
    texts = [read_input(folder, entry) for folder in folders
             for entry in sorted(os.listdir(os.path.join(os.path.dirname(__file__), folder)))
             if entry.endswith(".alg")]
    return [parse_input(text) for text in texts] + random_presentations(random.Random(404), 100)


EVERY_SECTION = tuple(dict.fromkeys(name for names in SUBCOMMAND_SECTIONS.values() for name in names))


def test_every_section_but_the_header_reads_a_stage():
    read = {name for _, _, readers in STAGES for name in readers}
    assert set(EVERY_SECTION) - read == {"header"}


@pytest.mark.parametrize("certificates", [False, True], ids=["plain", "certified"])
def test_a_run_of_some_sections_renders_them_as_the_full_run_does(certificates):
    for P in pinned_inputs():
        full = classify(P, certificates=certificates, sections=EVERY_SECTION)
        for sections in [*SUBCOMMAND_SECTIONS.values(), *((name,) for name in EVERY_SECTION)]:
            sliced = classify(P, certificates=certificates, sections=sections)
            assert sliced.sections == sections
            assert render_report(sliced) == render_report(replace(full, sections=sections))
