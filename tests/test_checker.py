"""Every decision line of ``classify --certificates``, checked by ``checker`` with sympy alone.

The reports come from ``etalg.cli.main`` in this process; ``checker`` reads
only their text and the input text.  Skipped when sympy is not installed.
"""

import contextlib
import io
import random
from collections import Counter

import pytest

pytest.importorskip("sympy")

from checker import check_report
from etalg.cli import main
from util import input_files, random_presentations

INPUTS = dict(input_files())
KINDS = {"trivial", "bezout", "minor", "inverse", "failed ideal", "basis", "structure constants"}


def certified_report(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["classify", str(path), "--certificates"]) == 0
    return out.getvalue()


def presentation_text(P):
    return (f"field {P.field.name()}\nvars {', '.join(P.variables)}\nrelations:\n"
            + "".join(f"  {f.format()}\n" for f in P.relations))


@pytest.mark.parametrize("name", INPUTS)
def test_sample_and_golden_decision_lines_check(name):
    path = INPUTS[name]
    with open(path, encoding="utf-8") as handle:
        check_report(handle.read(), certified_report(path))


def test_random_presentation_decision_lines_check(tmp_path):
    checked = Counter()
    for k, P in enumerate(random_presentations(random.Random(89), 60)):
        path = tmp_path / f"draw{k}.alg"
        text = presentation_text(P)
        path.write_text(text, encoding="utf-8")
        checked += check_report(text, certified_report(path))
    assert set(checked) == KINDS and sum(checked.values()) >= 300


@pytest.mark.parametrize("name,old,new", [
    ("circle_cross", "1 = (-2*X^2 - 1)*f1", "1 = (-2*X^2 + 1)*f1"),  # a cofactor coefficient
    ("circle_cross", "inverse mod relations: -Y^2 + 1/2", "inverse mod relations: -Y^2 + 1/3"),
    ("circle_cross", "minor: 2*X^2 - 2*Y^2", "minor: 2*X^2 + 2*Y^2"),
    ("dual_numbers", "failed ideal (reduced basis): X\n",
     "failed ideal (reduced basis): X; X^2\n"),                   # not reduced
    ("dual_numbers", "failed ideal (reduced basis): X^2\n",
     "failed ideal (reduced basis): \n"),                         # a dropped generator
    ("dual_numbers", "nette: false", "nette: true"),
    ("unit_gf3", "trivial: true", "trivial: false"),
    ("circle_cross", "  X * X = 1 - Y^2\n", "  X * X = 1 + Y^2\n"),     # a table entry
    ("circle_cross", "  Y * X = 0\n", "  Y * X = X*Y\n"),              # off the basis
    ("gf4", "  X * X = 1 + X\n", "  X * X = X\n"),
    ("circle_cross", "basis: 1, Y, X, Y^2\n", "basis: 1, Y, X, X^2\n"),
    ("sqrt2_sqrt3", "basis: 1, Y, X, X*Y\n", "basis: 1, X, Y, X*Y\n"),  # out of order
])
def test_checker_rejects_a_corrupted_line(name, old, new):
    path = INPUTS[name]
    report = certified_report(path)
    assert old in report
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    with pytest.raises(AssertionError):
        check_report(text, report.replace(old, new, 1))
