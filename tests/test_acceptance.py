"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (run with -s to see them all);
tolerances are exact equality everywhere, there is nothing to calibrate.
"""

import random
import time

from etalg.fields import GF, QQ
from etalg.finalg import monogenic_from_poly, product
from etalg.groebner import buchberger, contains_one, noether_dimension, quotient_algebra
from etalg.kaehler import (
    AlgebraPresentation,
    nette_decision,
    omega_dimension,
    omega_presentation,
    universal_derivation,
)
from etalg.multipoly import MultiPoly
from etalg.parsing import parse_input
from etalg.pipeline import classify, render_report
from etalg.unipoly import UniPoly, discriminant, is_separable
from util import (has_nonzero_nilpotent, mpoly, random_monic, random_mpoly,
                  random_presentations, upoly)

F2, F3, F5 = GF(2), GF(3), GF(5)


def ok(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def corpus_monic(seed, count, field, max_degree=6):
    rng = random.Random(seed)
    return [random_monic(rng, field, rng.randint(1, max_degree)) for _ in range(count)]


def all_monic(field, degree):
    p = field.modulus
    for code in range(p**degree):
        yield UniPoly.from_ints(field, [(code // p**i) % p for i in range(degree)] + [1])


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_discriminant_coherence():
    start = time.monotonic()
    total = 0
    for field, seed in ((QQ, 101), (F5, 102)):
        for f in corpus_monic(seed, 200, field):
            assert monogenic_from_poly(f).discriminant() == discriminant(f)
            total += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    ok(1, f"trace-form discriminant = polynomial discriminant on {total} random monic f "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_monogenic_etale_and_reduced():
    total = 0
    for field, seed in ((QQ, 201), (F5, 202)):
        for f in corpus_monic(seed, 200, field):
            etale = not field.is_zero(monogenic_from_poly(f).discriminant())
            assert etale == is_separable(f)
            total += 1
    exhaustive = 0
    for field, max_degree in ((F2, 4), (F3, 4)):
        for degree in range(1, max_degree + 1):
            for f in all_monic(field, degree):
                A = monogenic_from_poly(f)
                reduced = not has_nonzero_nilpotent(A)
                assert reduced == is_separable(f)
                exhaustive += 1
    ok(2, f"etale <=> separable on {total} random f; exhaustive-reducedness <=> squarefree "
          f"on {exhaustive} small-field f")


# ---------------------------------------------------------------- criterion 3

def random_triangular(rng, field):
    n = rng.randint(1, 3)
    names = ("X", "Y", "Z")[:n]
    degrees = []
    while True:
        degrees = [rng.randint(1, 4) for _ in range(n)]
        prod_deg = 1
        for d in degrees:
            prod_deg *= d
        if prod_deg <= 16:
            break
    lo, hi = (-3, 3) if field is QQ else (0, field.modulus - 1)
    relations = []
    for i in range(n):
        spec = {}
        lead = [0] * n
        lead[i] = degrees[i]
        spec[tuple(lead)] = field.one()
        for _ in range(rng.randint(0, 3)):
            exps = [0] * n
            for j in range(i + 1):
                exps[j] = rng.randint(0, max(0, degrees[j] - 1))
            c = field.from_int(rng.randint(lo, hi))
            if field.is_zero(c) or tuple(exps) == tuple(lead):
                continue
            spec[tuple(exps)] = field.add(spec.get(tuple(exps), field.zero()), c)
        relations.append(MultiPoly(field, names, spec))
    return AlgebraPresentation(field, names, tuple(relations))


def test_criterion_3_etale_equivalences_on_triangular_families():
    start = time.monotonic()
    rng = random.Random(303)
    checked = 0
    while checked < 50:
        field = QQ if checked % 2 == 0 else F3
        P = random_triangular(rng, field)
        gens = list(P.relations)
        gb = buchberger(gens)
        if contains_one(gb) or noether_dimension(gb) != 0:
            continue
        A = quotient_algebra(gb)
        nette = nette_decision(P, gb=gb).value
        disc_nonzero = not field.is_zero(A.discriminant())
        separable_gens = all(
            is_separable(A.minimal_polynomial(vec))
            for vec in A.generator_refs.values()
        )
        assert nette == disc_nonzero == separable_gens
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    ok(3, f"nette <=> disc != 0 <=> separable generators on {checked} triangular systems "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_pipeline_never_contradicts():
    ran = 0
    etale_presentations = 0
    for P in random_presentations(random.Random(404), 100):
        report = classify(P)  # InternalContradiction would propagate and fail the test
        ran += 1
        if report.trivial:
            continue
        if report.nette:
            assert report.noether_dimension == 0
            assert not P.field.is_zero(report.discriminant)
        if report.standard_etale:
            etale_presentations += 1
            assert report.nette
    witness = classify(parse_input("field Q\nvars X, Y\nrelations:\n  X*Y - 1\n"))
    assert witness.standard_smooth is True
    assert witness.nette is False
    assert witness.noether_dimension == 1
    ok(4, f"{ran} random classifications, no InternalContradiction; "
          f"standard-etale => nette held {etale_presentations} times; hyperbola witness correct")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_worked_instance_circle_cross():
    report = classify(parse_input(
        "field Q\nvars X, Y\nrelations:\n  X^2 + Y^2 - 1\n  X*Y\n"
    ))
    assert report.nette is True
    assert report.standard_etale is True
    assert report.vector_space_dimension == 4
    assert not QQ.is_zero(report.discriminant)
    assert sum(g.degree for g in report.decomposition) == 4
    assert all(is_separable(g) for g in report.decomposition)
    ok(5, "Q[X,Y]/<X^2+Y^2-1, XY>: nette, standard-etale, dim 4, disc != 0, "
          "separable decomposition of total degree 4")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_primitive_element_and_frobenius_fallback():
    report = classify(parse_input(
        "field Q\nvars X, Y\nrelations:\n  X^2 - 2\n  Y^2 - 3\n"
    ))
    coords, g = report.primitive_element
    assert g == upoly(QQ, [1, 0, -10, 0, 1])
    assert is_separable(g)
    A = report.algebra
    assert coords == A.add(A.generator_refs["X"], A.generator_refs["Y"])

    report2 = classify(parse_input(
        "field GF(2)\nvars X, Y\nrelations:\n  X^2 + X\n  Y^2 + Y\n"
    ))
    assert any("no primitive element" in note for note in report2.notes)
    assert any("Frobenius" in note for note in report2.notes)
    assert len(report2.decomposition) == 4
    assert all(g.degree == 1 for g in report2.decomposition)
    ok(6, "primitive element x+y with T^4 - 10*T^2 + 1; (GF(2))^4 exhausts the search and "
          "Frobenius splitting yields 4 linear factors")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_kaehler_suite():
    V = ("X", "Y")
    P = AlgebraPresentation(QQ, V, (mpoly(QQ, V, {(2, 0): 1, (0, 2): 1, (0, 0): -1}),
                                    mpoly(QQ, V, {(1, 1): 1})))
    D = omega_presentation(P)
    rng = random.Random(707)
    pairs = 0
    for _ in range(100):
        g = random_mpoly(rng, QQ, V, max_degree=3, terms=3)
        h = random_mpoly(rng, QQ, V, max_degree=3, terms=3)
        dg, dh = universal_derivation(g, D), universal_derivation(h, D)
        assert universal_derivation(g * h, D) == tuple(
            g * b + h * a for a, b in zip(dg, dh)
        )
        f = random_monic(rng, QQ, rng.randint(1, 3), lo=-2, hi=2)
        fg = MultiPoly.zero(QQ, V)
        for k, c in enumerate(f.coeffs):
            fg = fg + (g**k).scale(c)
        fprime_g = MultiPoly.zero(QQ, V)
        for k, c in enumerate(f.coeffs[1:], start=1):
            fprime_g = fprime_g + (g ** (k - 1)).scale(QQ.mul(QQ.from_int(k), c))
        assert universal_derivation(fg, D) == tuple(fprime_g * a for a in dg)
        pairs += 1
    for i in range(2):
        d_xi = universal_derivation(MultiPoly.variable(QQ, V, i), D)
        assert all((c == MultiPoly.one(QQ, V)) == (j == i) for j, c in enumerate(d_xi))
        assert all(c.is_zero or j == i for j, c in enumerate(d_xi))

    omega_f2 = omega_dimension(AlgebraPresentation(
        F2, ("X",), (mpoly(F2, ("X",), {(2,): 1, (0,): 1}),)
    ))
    assert omega_f2 == 2
    omega_q = omega_dimension(AlgebraPresentation(
        QQ, ("X",), (mpoly(QQ, ("X",), {(2,): 1, (0,): -1}),)
    ))
    assert omega_q == 0

    rng = random.Random(708)
    zero_dim_checked = 0
    instances = [
        P,
        AlgebraPresentation(QQ, ("X",), (mpoly(QQ, ("X",), {(2,): 1}),)),
        AlgebraPresentation(F2, ("X",), (mpoly(F2, ("X",), {(2,): 1, (0,): 1}),)),
    ]
    while len(instances) < 13:
        field = QQ if len(instances) % 2 else F3
        cand = random_triangular(rng, field)
        gb = buchberger(list(cand.relations))
        if contains_one(gb) or noether_dimension(gb) != 0:
            continue
        instances.append(cand)
    for inst in instances:
        assert nette_decision(inst).value == (omega_dimension(inst) == 0)
        zero_dim_checked += 1
    ok(7, f"Leibniz + chain rule on {pairs} pairs; d(x_i) = e_i; omega dimensions 2 and 0; "
          f"nette <=> omega = 0 on {zero_dim_checked} zero-dimensional instances")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_product_discriminant_multiplicative():
    rng = random.Random(808)
    pairs = 0
    for field, seed in ((QQ, 1), (F5, 2)):
        for _ in range(25):
            f = random_monic(rng, field, rng.randint(1, 4))
            g = random_monic(rng, field, rng.randint(1, 4))
            A, B = monogenic_from_poly(f), monogenic_from_poly(g)
            AB = product(A, B)
            assert AB.discriminant() == field.mul(A.discriminant(), B.discriminant())
            etale_ab = not field.is_zero(AB.discriminant())
            etale_each = not field.is_zero(A.discriminant()) and not field.is_zero(
                B.discriminant()
            )
            assert etale_ab == etale_each
            pairs += 1
    ok(8, f"disc(A x B) = disc(A) * disc(B) exactly on {pairs} pairs; "
          "etale(A x B) <=> etale(A) and etale(B)")


# ---------------------------------------------------------------- criterion 9

ALL_INPUTS = [
    "field Q\nvars X, Y\nrelations:\n  X^2 + Y^2 - 1\n  X*Y\n",
    "field Q\nvars X, Y\nrelations:\n  X*Y - 1\n",
    "field Q\nvars X\nrelations:\n  X^2\n",
    "field Q\nvars X, Y\nrelations:\n  X^2 - 2\n  Y^2 - 3\n",
    "field GF(2)\nvars X, Y\nrelations:\n  X^2 + X\n  Y^2 + Y\n",
    "field GF(2)\nvars X\nrelations:\n  X^2 + X + 1\n",
    "field GF(3)\nvars X\nrelations:\n  X^2 - 1\n",
    "field Q\nvars X\nrelations:\n  X - 1\n  X - 2\n",
    "field Q\nvars X, Y\nrelations:\n",
]


def test_criterion_9_reports_byte_identical():
    texts = []
    for text in ALL_INPUTS:
        runs = []
        for _ in range(2):
            report = classify(parse_input(text), certificates=True)
            runs.append((render_report(report), report.to_json()))
        assert runs[0] == runs[1]
        texts.append(runs[0][0])
    # the certified text carries the Bezout identities and the inverses of the minors
    assert any("    1 = (" in text for text in texts)
    assert any("inverse mod relations: " in text for text in texts)
    ok(9, f"text and JSON reports byte-identical across two runs on {len(ALL_INPUTS)} inputs")
