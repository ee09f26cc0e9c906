import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import etalg.pipeline
from etalg import groebner
from etalg.errors import InternalContradiction, NotEtale, SearchExhausted
from etalg.fields import GF, QQ
from etalg.finalg import FiniteAlgebra, monogenic_from_poly, product
from etalg.groebner import buchberger, quotient_algebra
from etalg.kaehler import AlgebraPresentation, relation_basis
from etalg.multipoly import GREVLEX, LEX
from etalg.parsing import parse_input
from etalg.pipeline import (
    classify,
    decompose_etale,
    find_nilpotent,
    frobenius_split,
    primitive_element,
    render_report,
)
from etalg.unipoly import is_separable
from util import mpoly, upoly

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
    assert not QQ.is_zero(report.discriminant)
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
    assert not F2.is_zero(prod.discriminant())


# Irreducible polynomials (ascending coefficients) of degree 1 to 3.
IRREDUCIBLE = {
    2: ([0, 1], [1, 1], [1, 1, 1], [1, 1, 0, 1], [1, 0, 1, 1]),
    3: ([0, 1], [1, 1], [2, 1], [1, 0, 1], [2, 1, 1], [2, 2, 1]),
}


@st.composite
def products_of_fields(draw):
    p = draw(st.sampled_from(sorted(IRREDUCIBLE)))
    polys = draw(st.lists(st.sampled_from(IRREDUCIBLE[p]), min_size=2, max_size=4))
    fields = [monogenic_from_poly(upoly(GF(p), coeffs)) for coeffs in polys]
    A = fields[0]
    for F in fields[1:]:
        A = product(A, F)
    return A, sorted(len(coeffs) - 1 for coeffs in polys)


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


def tampered_leaves(monkeypatch, tamper):
    """Make the Frobenius route return its genuine factors with tampered idempotents."""
    genuine = etalg.pipeline._frobenius_leaves

    def leaves(sub, embed, chain, budget):
        factors = genuine(sub, embed, chain, budget)
        if chain:  # a recursive call on a split node
            return factors
        units = tamper(sub, [f.idempotent for f in factors])
        return [replace(f, idempotent=e) for f, e in zip(factors, units)]

    monkeypatch.setattr(etalg.pipeline, "_frobenius_leaves", leaves)


def test_decompose_rejects_non_orthogonal_idempotents(monkeypatch):
    # e1 + e2, e2 + e3, e3 + e4, e2 + e3 are idempotents summing to 1 over GF(2),
    # not orthogonal
    A = quotient_of(F2, ("X", "Y"), {(2, 0): 1, (1, 0): 1}, {(0, 2): 1, (0, 1): 1})
    tampered_leaves(monkeypatch, lambda B, e: [B.add(e[0], e[1]), B.add(e[1], e[2]),
                                               B.add(e[2], e[3]), B.add(e[1], e[2])])
    with pytest.raises(InternalContradiction):
        decompose_etale(A)


def test_decompose_rejects_non_idempotent_members(monkeypatch):
    # GF(3)^4 is not monogenic; 2*e1, e2, e3, e4 - e1 sum to 1, and 2*e1 is not idempotent
    point = monogenic_from_poly(upoly(F3, [0, 1]))
    A = product(product(point, point), product(point, point))
    assert decompose_etale(A).notes
    tampered_leaves(monkeypatch, lambda B, e: [B.scalar_mul(F3.from_int(2), e[0]), e[1], e[2],
                                               B.sub(e[3], e[0])])
    with pytest.raises(InternalContradiction):
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


# ------------------------------------------------------------------ frobenius splitting

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


@pytest.mark.parametrize("certificates,tracked", [(False, 0), (True, 1)])
def test_tower_runs_groebner_once_per_ideal(monkeypatch, certificates, tracked):
    calls = count_buchberger(monkeypatch)
    report = classify(parse_input(TOWER), certificates=certificates)
    assert report.nette and report.standard_etale and report.etale
    assert len(calls) == 2 and sum(calls) == tracked


def test_complete_intersection_runs_groebner_three_times(monkeypatch):
    calls = count_buchberger(monkeypatch)
    report = classify(parse_input(COMPLETE_INTERSECTION))
    assert report.noether_dimension == 2 and not report.nette
    assert len(calls) == 3 and sum(calls) == 0


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
