"""Golden outputs: the exact stdout of every subcommand, pinned across commits.

Each input has one file under ``tests/golden/`` holding, for every
subcommand plain and with ``--certificates``, a header line
``### etalg <argv> -> exit <code>`` followed by the exact stdout.

    PYTHONPATH=src python tests/test_golden.py    # rewrite the golden files

Rewrite them only for an intended change of the reports.
"""

import os
from contextlib import redirect_stdout
from io import StringIO

import pytest

from etalg.finalg import _DerivedAlgebra
from util import count_table_sweeps, input_files

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

COMMANDS = (
    ("classify",),
    ("classify", "--json"),
    ("nette",),
    ("smooth",),
    ("etale",),
    ("decompose",),
    ("differentials",),
)


def render_all(path):
    """The golden text of one input: every subcommand, plain and certified."""
    from etalg.cli import main

    blocks = []
    for command in COMMANDS:
        for extra in ((), ("--certificates",)):
            argv = [command[0], path, *command[1:], *extra]
            out = StringIO()
            with redirect_stdout(out):
                code = main(argv)
            shown = " ".join([command[0], os.path.basename(path), *command[1:], *extra])
            blocks.append(f"### etalg {shown} -> exit {code}\n{out.getvalue()}")
    return "".join(blocks)


def golden_path(name):
    return os.path.join(GOLDEN, f"{name}.txt")


@pytest.mark.parametrize("name,path", input_files(), ids=[n for n, _ in input_files()])
def test_output_matches_golden(name, path):
    with open(golden_path(name), encoding="utf-8", newline="") as handle:
        expected = handle.read()
    assert render_all(path) == expected


def test_no_subcommand_sweeps_a_whole_table(monkeypatch):
    # quotients come from a border, split factors and products from checked algebras:
    # the full associativity sweep of a table handed in whole never runs on the CLI
    sweeps, derived = count_table_sweeps(monkeypatch), []
    skip = _DerivedAlgebra._check_associativity

    def counting(self):
        derived.append(type(self).__name__)
        return skip(self)

    monkeypatch.setattr(_DerivedAlgebra, "_check_associativity", counting)
    for _, path in input_files():
        render_all(path)
    assert sweeps == []
    assert "_IdealFactor" in derived  # the Frobenius route builds split factors


if __name__ == "__main__":
    for name, path in input_files():
        with open(golden_path(name), "w", encoding="utf-8", newline="") as handle:
            handle.write(render_all(path))
        print(f"wrote {golden_path(name)}")
