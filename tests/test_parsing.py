from fractions import Fraction

import pytest

from etalg.errors import ParseError
from etalg.fields import GF, QQ
from etalg.parsing import MAX_NESTING, parse_file, parse_input, parse_polynomial
from util import mpoly

VALID = """\
field Q            # rationals
vars X, Y
relations:
  X^2 + Y^2 - 1
  X*Y
"""


def test_parse_valid_file():
    P = parse_input(VALID)
    assert P.field == QQ
    assert P.variables == ("X", "Y")
    assert P.n == 2 and P.s == 2
    assert P.relations[0] == mpoly(QQ, ("X", "Y"), {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    assert P.relations[1] == mpoly(QQ, ("X", "Y"), {(1, 1): 1})


def test_parse_prime_field():
    P = parse_input("field GF(5)\nvars T\nrelations:\n  T^2 - 2\n")
    assert P.field == GF(5)
    assert P.relations[0] == mpoly(GF(5), ("T",), {(2,): 1, (0,): 3})


def test_parse_rational_coefficients():
    P = parse_input("field Q\nvars X\nrelations:\n  1/2*X^2 - 3/4\n")
    assert P.relations[0].terms[(2,)] == Fraction(1, 2)
    assert P.relations[0].terms[(0,)] == Fraction(-3, 4)


def test_parse_rational_coefficient_vanishing_denominator():
    with pytest.raises(ParseError, match="denominator"):
        parse_input("field GF(5)\nvars X\nrelations:\n  1/5*X\n")


def test_non_prime_modulus():
    with pytest.raises(ParseError, match="not prime"):
        parse_input("field GF(4)\nvars X\nrelations:\n  X\n")


def test_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable 'Z'") as info:
        parse_input("field Q\nvars X, Y\nrelations:\n  X*Z\n")
    assert info.value.line == 4


def test_empty_variable_list():
    with pytest.raises(ParseError, match="empty variable list"):
        parse_input("field Q\nvars \nrelations:\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_input("field Q\nvars X, X\nrelations:\n")


def test_missing_sections():
    with pytest.raises(ParseError, match="field"):
        parse_input("vars X\nrelations:\n")
    with pytest.raises(ParseError, match="vars"):
        parse_input("field Q\nrelations:\n")
    with pytest.raises(ParseError, match="relations"):
        parse_input("field Q\nvars X\n")
    with pytest.raises(ParseError, match="empty input"):
        parse_input("# nothing here\n")


def test_empty_relation_list_is_allowed():
    P = parse_input("field Q\nvars X, Y\nrelations:\n")
    assert P.s == 0


def test_grammar_rejections():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_polynomial("X @ Y", QQ, ("X", "Y"))
    with pytest.raises(ParseError, match="nonnegative integer"):
        parse_polynomial("X^Y", QQ, ("X", "Y"))
    with pytest.raises(ParseError, match="trailing"):
        parse_polynomial("X 2", QQ, ("X",))
    with pytest.raises(ParseError, match="expected"):
        parse_polynomial("(X + 1", QQ, ("X",))
    with pytest.raises(ParseError):
        parse_polynomial("X * * Y", QQ, ("X", "Y"))
    # no implicit multiplication
    with pytest.raises(ParseError):
        parse_polynomial("2 X", QQ, ("X",))


def test_grammar_structure():
    p = parse_polynomial("-X^2 + (X - 1)*(X + 1) + 1", QQ, ("X",))
    assert p.is_zero
    q = parse_polynomial("X*Y^2 - 2*X + 1/3", QQ, ("X", "Y"))
    assert q == mpoly(QQ, ("X", "Y"), {(1, 2): 1, (1, 0): -2}) + \
        parse_polynomial("1/3", QQ, ("X", "Y"))


def test_error_positions_reported():
    try:
        parse_input("field Q\nvars X\nrelations:\n  X + W\n")
    except ParseError as exc:
        assert exc.line == 4 and exc.column == 7
    else:
        raise AssertionError("expected ParseError")


def test_parse_file_rejects_non_utf8_at_the_first_bad_byte(tmp_path):
    path = tmp_path / "bad.alg"
    for mark in (b"", b"\xef\xbb\xbf"):  # a leading byte-order mark moves no position
        path.write_bytes(mark + "field Q\r\nvars X\nrelations:\n  \u00e9 X^2 ".encode() + b"\xff- 1\n")
        with pytest.raises(ParseError) as raised:
            parse_file(str(path))
        assert (raised.value.line, raised.value.column) == (4, 9)  # columns count characters
        assert "not UTF-8 text (byte 0xff)" in str(raised.value)


def test_parentheses_nest_up_to_the_bound():
    X = mpoly(QQ, ("X",), {(1,): 1})
    deep = "(" * MAX_NESTING + "X" + ")" * MAX_NESTING
    assert parse_polynomial(deep, QQ, ("X",)) == X
    assert parse_polynomial(" * ".join([deep] * 3), QQ, ("X",)) == X ** 3  # siblings do not add up
    with pytest.raises(ParseError) as raised:
        parse_polynomial("1 + (" + deep + ")", QQ, ("X",), line=7)
    assert (raised.value.line, raised.value.column) == (7, 5 + MAX_NESTING)
