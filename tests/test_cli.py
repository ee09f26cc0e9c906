import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import etalg.cli
import etalg.finalg
import etalg.pipeline
from etalg.cli import SUBCOMMAND_SECTIONS, main
from etalg.errors import ParseError, RingMismatch
from etalg.fields import PRIMALITY_BOUND
from etalg.multipoly import LEX
from etalg.parsing import parse_file, parse_input
from etalg.unipoly import UniPoly

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def sample(name):
    return os.path.join(SAMPLES, name)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_readme_sample_report_is_the_classify_output(capsys):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    block = re.search(r"Sample report:\n\n```\n(.*?)```\n", readme, re.S)
    assert block is not None
    code, out, err = run_main(capsys, "classify", sample("circle_cross.alg"))
    assert code == 0 and err == ""
    assert out == block.group(1)


def test_readme_library_example_prints_what_its_comments_say(capsys):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    block = re.search(r"Quick library example:\n\n```python\n(.*?)```\n", readme, re.S)
    assert block is not None
    code = block.group(1)
    exec(compile(code, "README.md", "exec"), {})
    comments = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert comments == ["True", "T^2 - 2"]
    assert capsys.readouterr().out == "".join(f"{c}\n" for c in comments)


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


GF4_SQUARED = os.path.join(os.path.dirname(__file__), "golden", "inputs", "gf4_squared.alg")


def test_a_split_that_loses_a_dimension_exits_3(monkeypatch, capsys):
    # GF(4)^2 over GF(2) has no primitive element and is not split, so classify builds
    # split factors along Frobenius idempotents (a split algebra builds none)
    original = etalg.finalg._IdealFactor

    def one_short(A, unit, rows, labels_prefix):
        sub = original(A, unit, rows, labels_prefix)
        if sub.dimension == 1:
            return sub
        return etalg.finalg.monogenic_from_poly(UniPoly.variable(A.field) ** (sub.dimension - 1))

    monkeypatch.setattr(etalg.finalg, "_IdealFactor", one_short)
    code, out, err = run_main(capsys, "classify", GF4_SQUARED)
    assert code == 3 and out == ""
    assert err == "error: InternalContradiction: split dimensions do not add up\n"


def test_exit_code_other_package_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RingMismatch("operands live in different rings")

    monkeypatch.setattr(etalg.cli, "classify", broken)
    code, out, err = run_main(capsys, "nette", sample("hyperbola.alg"))
    assert code == 3 and out == ""
    assert err == "error: RingMismatch: operands live in different rings\n"


def test_main_parses_with_one_parser(monkeypatch, capsys):
    def rebuilt():
        raise AssertionError("main built a parser of its own")

    monkeypatch.setattr(etalg.cli, "build_parser", rebuilt)
    for command in ("nette", "smooth"):
        code, out, err = run_main(capsys, command, sample("hyperbola.alg"))
        assert code == 0 and out and err == ""


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


def test_field_leaf_scan_at_a_large_prime_reads_only_its_budget(capsys, tmp_path):
    # GF(p^6) x GF(p)^3 for p = 2^61 - 1, shaped as gf64_leaf: X and Y have degrees 2 and 3
    # on the GF(p^6) leaf, so its scan runs; it reads one element, never a list of residues
    p = 2 ** 61 - 1
    path = tmp_path / "leaf.alg"
    path.write_text(f"field GF({p})\nvars X, Y, Z\nrelations:\n  Z^2 - Z\n  Z*(X^2 - 3)\n"
                    "  Z*(Y^3 - 5)\n  (Z - 1)*(X^2 - X)\n  (Z - 1)*(Y^2 - Y)\n  (Z - 1)*X*Y\n")
    assert pow(3, (p - 1) // 2, p) == p - 1 and pow(5, (p - 1) // 3, p) != 1  # no square, no cube
    code, out, err = run_main(capsys, "decompose", str(path), "--budget-primitive", "1")
    assert code == 2 and out == ""
    assert "field-generator scan budget of 1 exhausted on a leaf of dimension 6" in err


@pytest.mark.parametrize("name", ["circle_cross.alg", "four_points_gf2.alg", "dual_numbers.alg"])
def test_byte_identical_across_processes(name):
    # separate interpreters with different hash seeds must print identical bytes
    outputs = []
    for seed in ("0", "424242"):
        path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "etalg", "classify", sample(name), "--certificates"],
            capture_output=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["nette", "smooth"])
def test_flag_subcommands_run_no_decomposition(capsys, command):
    # circle_cross has no generator of full degree, so a decomposition would search
    plain = run_main(capsys, command, sample("circle_cross.alg"))
    code, out, err = run_main(capsys, command, sample("circle_cross.alg"), "--budget-primitive", "0")
    assert plain[0] == code == 0 and err == ""
    assert out == plain[1]


def test_etale_runs_no_decomposition(capsys):
    code, out, err = run_main(capsys, "etale", sample("sqrt2_sqrt3.alg"), "--budget-primitive", "0")
    assert code == 0 and err == "" and "etale: true" in out


CI_RELATIONS = ("field Q\nvars W, X, Y, Z\nrelations:\n"
                "  W^2 + X^2 - Y*Z + 3*W - 1\n  X^2 - 2*Y^2 + Z^2 + W*X + Z - 2\n")


def test_decompose_runs_no_decision(tmp_path, capsys):
    # the base basis fits in 20 pairs; the ideal of the relations and 2 x 2 minors does not
    path = tmp_path / "ci.alg"
    path.write_text(CI_RELATIONS)
    code, out, err = run_main(capsys, "decompose", str(path), "--budget-pairs", "20")
    assert code == 0 and err == ""
    assert out == "etale: false\nno decomposition: the quotient is not finite-dimensional\n"
    code, out, err = run_main(capsys, "smooth", str(path), "--budget-pairs", "20")
    assert code == 2 and out == "" and "budget" in err
    # s = 2 < n = 4 refuses nette at once, so nette never adjoins the minors
    code, out, err = run_main(capsys, "nette", str(path), "--budget-pairs", "20")
    assert code == 0 and err == "" and out == "nette: false\n"


def usage_exit(capsys, *argv):
    with pytest.raises(SystemExit) as raised:
        main(list(argv))
    captured = capsys.readouterr()
    return raised.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv,message", [
    (("classify", "f.alg", "--order", "foo"), "invalid choice: 'foo'"),
    (("frobnicate", "x"), "invalid choice: 'frobnicate'"),
    (("classify",), "the following arguments are required: file"),
    (("nette", "f.alg", "--budget-pairs", "-1"), "expected an integer >= 0, got '-1'"),
    (("etale", "f.alg", "--budget-primitive", "-3"), "expected an integer >= 0, got '-3'"),
    (("smooth", "f.alg", "--budget-pairs", "many"), "expected an integer >= 0, got 'many'"),
], ids=["order", "command", "file", "pairs", "primitive", "not_a_number"])
def test_usage_errors_exit_1(capsys, argv, message):
    code, out, err = usage_exit(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: etalg") and message in err


def test_help_exits_0(capsys):
    code, out, err = usage_exit(capsys, "classify", "--help")
    assert code == 0 and out.startswith("usage: etalg classify") and err == ""



# ------------------------------------------------------------------ malformed input text

NON_UTF8 = b"field Q\nvars X\nrelations:\n  X^2 \xff- 1\n"


def nested(depth):
    return f"field Q\nvars X\nrelations:\n  {'(' * depth}X{')' * depth}^2 - 1\n".encode()


def run_process(tmp_path, data, *argv):
    path = tmp_path / "input.alg"
    path.write_bytes(data)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "etalg", *argv, str(path)],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


MALFORMED = (NON_UTF8, nested(1000))


def test_non_utf8_file_is_an_input_error(tmp_path):
    code, out, err = run_process(tmp_path, NON_UTF8, "classify")
    assert code == 1 and out == ""
    assert err == "error: line 4, column 7: not UTF-8 text (byte 0xff)\n"


def test_a_leading_byte_order_mark_is_ignored(tmp_path):
    text = b"field Q\nvars X\nrelations:\n  X^2 - 2\n"
    plain = run_process(tmp_path, text, "classify")
    assert plain[0] == 0 and plain[2] == "" and "etale: true\n" in plain[1]
    assert run_process(tmp_path, b"\xef\xbb\xbf" + text, "classify") == plain


def test_parentheses_past_the_nesting_bound_are_an_input_error(tmp_path):
    code, out, err = run_process(tmp_path, nested(1000), "classify")
    assert code == 1 and out == ""
    assert err == "error: line 4, column 103: parentheses nested more than 100 deep\n"


def test_parentheses_at_the_nesting_bound_classify(tmp_path):
    code, out, err = run_process(tmp_path, nested(100), "classify")
    assert code == 0 and err == ""
    assert "  f1 = X^2 - 1\n" in out and "etale: true\n" in out


# ------------------------------------------------------------------ no exception escapes

FIELDS = ("Q", "GF(2)", "GF(3)", "GF(5)", "GF(7)")
VARIABLES = ("X", "Y", "Z")
ARGVS = tuple([command, *flags] for command in SUBCOMMAND_SECTIONS
              for flags in ((), ("--certificates",))) + (["classify", "--json"],)


JUNK = ("@", "\u00e9", "+", "-", "*", "^", "/", "(", "(", ")", "2", "1/0", "W")


@st.composite
def presentations(draw):
    """Small presentation texts: 1-3 variables, 0-3 relations of at most 4 terms.

    Half of them get one more relation line drawn from rejected characters,
    stray operators and unbalanced parentheses among the variables.
    """
    names = VARIABLES[:draw(st.integers(1, len(VARIABLES)))]
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        line = ""
        for k in range(draw(st.integers(1, 4))):
            c = draw(st.integers(-3, 3))
            factors = [str(abs(c))] + [f"{x}^{e}" for x in names if (e := draw(st.integers(0, 3)))]
            line += ("-" if c < 0 else "") if k == 0 else (" - " if c < 0 else " + ")
            line += "*".join(factors)
        relations.append(f"  {line}\n")
    if draw(st.booleans()):
        junk = draw(st.lists(st.sampled_from(JUNK + names), min_size=1, max_size=8))
        relations.insert(draw(st.integers(0, len(relations))), f"  {' '.join(junk)}\n")
    text = f"field {draw(st.sampled_from(FIELDS))}\nvars {', '.join(names)}\nrelations:\n"
    return (text + "".join(relations)).encode()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=presentations(), argv=st.sampled_from(ARGVS))
@example(data=MALFORMED[0], argv=["classify"])
@example(data=MALFORMED[1], argv=["classify"])
def test_cli_lets_no_exception_escape(tmp_path_factory, data, argv):
    path = tmp_path_factory.getbasetemp() / "cli-input.alg"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, str(path), "--budget-pairs", "2000"])
    try:
        parse_file(str(path))
    except ParseError as exc:  # exit 1 with the one-line message of the rejection, and nothing on stdout
        assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {exc}\n")
        assert re.fullmatch(r"error: line \d+, column \d+: [^\n]+\n", err.getvalue())
    else:
        assert data not in MALFORMED and code in (0, 2), err.getvalue()
