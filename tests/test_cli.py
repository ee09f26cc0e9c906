import json
import os
import re
import subprocess
import sys

import pytest

import etalg.cli
import etalg.pipeline
from etalg.cli import main
from etalg.errors import RingMismatch
from etalg.fields import PRIMALITY_BOUND
from etalg.multipoly import LEX
from etalg.parsing import parse_input

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")


def sample(name):
    return os.path.join(SAMPLES, name)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, err = run_main(capsys, "classify", sample("circle_cross.alg"))
    assert code == 0 and err == ""
    assert "nette: true" in out
    assert "standard-etale: true" in out
    assert "vector-space-dimension: 4" in out
    assert "etale: true" in out
    assert "decomposition:" in out


def test_classify_json(capsys):
    code, out, _ = run_main(capsys, "classify", sample("sqrt2_sqrt3.alg"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["etale"] is True
    assert data["decomposition"] == ["T^4 - 10*T^2 + 1"]
    assert data["primitive_element"]["minimal_polynomial"] == "T^4 - 10*T^2 + 1"


def test_subcommands(capsys):
    code, out, _ = run_main(capsys, "nette", sample("dual_numbers.alg"))
    assert code == 0 and out.strip() == "nette: false"

    code, out, _ = run_main(capsys, "smooth", sample("hyperbola.alg"))
    assert code == 0
    assert "standard-smooth: true" in out and "elementary-smooth: true" in out

    code, out, _ = run_main(capsys, "etale", sample("dual_numbers.alg"))
    assert code == 0
    assert "etale: false" in out and "nilpotent-witness: X" in out

    code, out, _ = run_main(capsys, "differentials", sample("circle_cross.alg"))
    assert code == 0
    assert "generators: dX, dY" in out
    assert "omega-dimension: 0" in out

    code, out, _ = run_main(capsys, "decompose", sample("four_points_gf2.alg"))
    assert code == 0
    assert out.count("g") >= 4 and "etale: true" in out


def test_certificates_flag(capsys):
    code, out, _ = run_main(capsys, "nette", sample("circle_cross.alg"), "--certificates")
    assert code == 0
    assert "1 = " in out and "minor[" in out

    code, out, _ = run_main(capsys, "classify", sample("four_points_gf2.alg"), "--certificates")
    assert code == 0
    assert "split chain" in out and "checks:" in out


def test_exit_code_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("field GF(4)\nvars X\nrelations:\n  X\n")
    code, out, err = run_main(capsys, "classify", str(bad))
    assert code == 1 and "not prime" in err

    code, _, err = run_main(capsys, "classify", str(tmp_path / "missing.alg"))
    assert code == 1


def test_modulus_at_the_primality_bound_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "huge.alg"
    path.write_text(f"field GF({PRIMALITY_BOUND})\nvars X\nrelations:\n  X\n")
    code, out, err = run_main(capsys, "classify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(PRIMALITY_BOUND) in err


def test_exit_code_budget_exceeded(capsys):
    code, _, err = run_main(
        capsys, "classify", sample("circle_cross.alg"), "--budget-pairs", "0"
    )
    assert code == 2 and "budget" in err


def test_exit_code_search_exhausted(capsys):
    code, out, err = run_main(
        capsys, "classify", sample("sqrt2_sqrt3.alg"), "--budget-primitive", "0"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_exit_code_internal_contradiction(monkeypatch, capsys):
    monkeypatch.setattr(etalg.pipeline, "find_nilpotent", lambda A: None)
    code, out, err = run_main(capsys, "etale", sample("dual_numbers.alg"))
    assert code == 3 and out == ""
    assert err.startswith("error: InternalContradiction: ") and err.count("\n") == 1


def test_exit_code_other_package_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RingMismatch("operands live in different rings")

    monkeypatch.setattr(etalg.cli, "classify", broken)
    code, out, err = run_main(capsys, "nette", sample("hyperbola.alg"))
    assert code == 3 and out == ""
    assert err == "error: RingMismatch: operands live in different rings\n"


def test_order_flag(capsys):
    code, out, _ = run_main(capsys, "classify", sample("circle_cross.alg"), "--order", "lex")
    assert code == 0 and "etale: true" in out


def test_certificates_print_in_the_order_of_the_run(tmp_path, capsys):
    path = tmp_path / "lex.alg"
    path.write_text("field Q\nvars X, Y\nrelations:\n  X^2 + Y^3 - 1\n  X*Y + Y^2 - 2\n")
    code, out, _ = run_main(capsys, "smooth", str(path), "--order", "lex", "--certificates")
    assert code == 0
    lines = [line.strip() for line in out.splitlines()]
    assert "[leading minor 2*X^2 + 4*X*Y - 3*Y^3]" in lines
    assert "minor: 2*X^2 + 4*X*Y - 3*Y^3" in lines
    inverse = next(line for line in lines if line.startswith("inverse mod relations: "))
    bezout = next(line for line in lines if line.startswith("1 = "))
    printed = [inverse.split(": ", 1)[1], *re.findall(r"\(([^()]*)\)\*", bezout)]
    assert len(printed) == 4
    for text in printed:
        poly = parse_input(f"field Q\nvars X, Y\nrelations:\n  {text}\n").relations[0]
        assert text == poly.format(LEX)


def test_budget_primitive_flag_surfaces_in_notes(capsys):
    # a tiny search budget forces the GF(2) instance onto the Frobenius path
    code, out, _ = run_main(
        capsys, "classify", sample("four_points_gf2.alg"), "--budget-primitive", "1"
    )
    assert code == 0
    assert "budget of 1 exhausted" in out and "Frobenius" in out


GF64_LEAF = os.path.join(os.path.dirname(__file__), "golden", "inputs", "gf64_leaf.alg")


def test_budget_primitive_bounds_the_field_leaf_scan(capsys):
    # the GF(64) leaf is generated by the second element of its scan, not by X or Y
    code, out, err = run_main(capsys, "decompose", GF64_LEAF, "--budget-primitive", "1")
    assert code == 2 and out == ""
    assert "field-generator scan budget of 1 exhausted" in err and err.count("\n") == 1
    code, out, _ = run_main(capsys, "decompose", GF64_LEAF, "--budget-primitive", "2")
    assert code == 0 and "g4 = T^6 + T^4 + T^2 + T + 1" in out


@pytest.mark.parametrize("name", ["circle_cross.alg", "four_points_gf2.alg", "dual_numbers.alg"])
def test_byte_identical_across_processes(name):
    # separate interpreters with different hash seeds must print identical bytes
    outputs = []
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "etalg", "classify", sample(name), "--certificates"],
            capture_output=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
