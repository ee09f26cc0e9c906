"""The point oracle: an etale algebra over GF(p) read off its points, with no algebra at all.

With the field equations X_i^p - X_i among the relations, the ideal I is
radical and GF(p)[X]/I = GF(p)^|V|, where V is the set of common zeros of
the relations in GF(p)^n.  Enumerating GF(p)^n finds V by evaluating the
relations point by point, sharing nothing with etalg.  So the quotient has
dimension |V|, and its decomposition has |V| factors T - c, one per point,
with c the point's first coordinate (the first variable is the first
generator).  When |V| > p no primitive element exists, and the Frobenius
route replays its splits on the primitive idempotents; the certificate
reports must then equal those of the general route, which
``_fixed_by_frobenius`` forced off selects.
"""

import contextlib
import io
import os
import tempfile
from itertools import product as iter_product
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

import etalg.cli
import etalg.pipeline
from etalg.parsing import parse_input
from etalg.pipeline import classify

NAMES = ("X", "Y", "Z")


@st.composite
def point_systems(draw):
    """(p, variables, relations as {exponents: coefficient}) with GF(p)^n of at most 49 points."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(2, 3 if p ** 3 <= 49 else 2))
    monomial = st.tuples(*[st.integers(0, p - 1)] * n)
    relation = st.dictionaries(monomial, st.integers(1, p - 1), min_size=1, max_size=3)
    field_equations = [{tuple(p * (i == k) for i in range(n)): 1,
                        tuple(int(i == k) for i in range(n)): p - 1} for k in range(n)]
    return p, NAMES[:n], field_equations + draw(st.lists(relation, max_size=2))


def points(p, n, relations):
    """The common zeros in GF(p)^n, by evaluating every relation at every point."""
    def value(relation, point):
        total = 0
        for exponents, c in relation.items():
            term = c
            for x, e in zip(point, exponents):
                term *= x ** e
            total += term
        return total % p
    return [point for point in iter_product(range(p), repeat=n)
            if all(value(relation, point) == 0 for relation in relations)]


def presentation_text(p, variables, relations):
    def term(exponents, c):
        return "*".join([str(c)] + [f"{x}^{e}" for x, e in zip(variables, exponents) if e])
    lines = [" + ".join(term(e, c) for e, c in relation.items()) for relation in relations]
    return (f"field GF({p})\nvars {', '.join(variables)}\nrelations:\n"
            + "".join(f"  {line}\n" for line in lines))


def certificate_reports(path):
    """The classify and decompose --certificates reports of the input at path."""
    reports = []
    for command in ("classify", "decompose"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert etalg.cli.main([command, path, "--certificates"]) == 0
        reports.append(out.getvalue())
    return reports


@settings(max_examples=60, derandomize=True, deadline=None)
@given(point_systems())
def test_a_split_algebra_decomposes_into_its_points(case):
    p, variables, relations = case
    V = points(p, len(variables), relations)
    assume(len(V) > p)
    text = presentation_text(p, variables, relations)
    report = classify(parse_input(text))
    assert report.etale and report.vector_space_dimension == len(V)
    assert all(g.degree == 1 and g.coeffs[1] == 1 for g in report.decomposition)
    assert sorted(-g.coeffs[0] % p for g in report.decomposition) == sorted(x[0] for x in V)

    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "points.alg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with mock.patch.object(etalg.pipeline, "_split_leaves",
                               wraps=etalg.pipeline._split_leaves) as replay:
            replayed = certificate_reports(path)
        assert replay.call_count == 2
        with mock.patch.object(etalg.pipeline, "_fixed_by_frobenius", lambda A, polys: False):
            assert certificate_reports(path) == replayed
