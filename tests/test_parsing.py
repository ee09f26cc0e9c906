import random
from fractions import Fraction

import pytest

from etalg.errors import ParseError
from etalg.fields import GF, PRIMALITY_BOUND, QQ
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


HEAD = "field Q\nvars X, Y\nrelations:\n"
DEEP = "(" * (MAX_NESTING + 1) + "X" + ")" * (MAX_NESTING + 1)
REJECTIONS = [  # (file contents, message, line, column)
    (HEAD + "  X @ Y", "unexpected character '@'", 4, 5),
    (HEAD + "  X 2", "trailing input starting at 2", 4, 5),
    (HEAD + "  X/2", "trailing input starting at '/'", 4, 4),
    (HEAD + "  X^Y", "'^' takes a nonnegative integer literal", 4, 5),
    (HEAD + "  X^", "'^' takes a nonnegative integer literal", 4, 5),
    (HEAD + "  1/X", "'/' joins two integer literals", 4, 5),
    (HEAD + "  X*Z", "unknown variable 'Z'", 4, 5),
    (HEAD + "  (X + 10", "expected ')'", 4, 10),  # end of input sits one past the last token's end
    (HEAD + "  X +   # comment", "unexpected end of input", 4, 6),
    (HEAD + "  X * * Y", "expected a number, a variable, or '('", 4, 7),
    (HEAD + "  " + DEEP, f"parentheses nested more than {MAX_NESTING} deep", 4, MAX_NESTING + 3),
    ("field GF(5)\nvars X\nrelations:\n  X - 1/5", "coefficient denominator 5 vanishes in GF(5)", 4, 9),
    ("", "empty input", 1, 1),
    ("# only a comment\n\n", "empty input", 1, 1),
    ("field R\n", "expected 'field Q' or 'field GF(p)'", 1, 1),
    ("field GF( 4 )\n", "4 is not prime", 1, 11),
    (f"field GF({PRIMALITY_BOUND})\n", f"{PRIMALITY_BOUND} is not below {PRIMALITY_BOUND}, "
     "the bound up to which primality is decided exactly", 1, 10),
    ("# c\n\nfield Q\n", "expected a 'vars' line", 4, 1),
    ("field Q\nvariables X\n", "expected 'vars NAME, NAME, ...'", 2, 1),
    ("field Q\nvars  # none\n", "empty variable list", 2, 1),
    ("field Q\nvars X, 2Y\n", "bad variable name '2Y'", 2, 9),  # a name sits at its own column
    ("field Q\nvars X,\n", "bad variable name ''", 2, 8),
    ("field Q\nvars X, Y, X\n", "duplicate variable 'X'", 2, 12),
    ("field Q\nvars X\n\n# c\n", "expected a 'relations:' line", 3, 1),
    ("field Q\nvars X\nrelations\n", "expected 'relations:'", 3, 1),
    (b"field Q\nvars X\nrelations:\n  X^2 \xff- 1\n", "not UTF-8 text (byte 0xff)", 4, 7),
    # integer literals are ASCII digits: Arabic-Indic 7, 3, 1 and 2 are rejected
    ("field GF(\u0667)\n", "expected 'field Q' or 'field GF(p)'", 1, 1),
    (HEAD + "  X^\u0663 - \u0661\u0662", "unexpected character '\u0663'", 4, 5),
]


@pytest.mark.parametrize("data, message, line, column", REJECTIONS,
                         ids=[f"{k}-{case[1][:24]}" for k, case in enumerate(REJECTIONS)])
def test_every_rejection_names_its_message_line_and_column(tmp_path, data, message, line, column):
    path = tmp_path / "input.alg"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    with pytest.raises(ParseError) as raised:
        parse_file(str(path))
    assert (str(raised.value), raised.value.line, raised.value.column) == \
        (f"line {line}, column {column}: {message}", line, column)


XYZ = ("X", "Y", "Z")


def random_expression(rng, sympy, depth):
    """A random text of the relation grammar over XYZ and the same expression built in sympy."""

    def gap():
        return rng.choice(("", " "))

    def atom(d):
        kind = rng.randrange(4 if d else 3)
        if kind == 0:
            n = rng.randint(0, 12)
            return str(n), sympy.Integer(n)
        if kind == 1:  # denominators prime to 5 and 7
            n, k = rng.randint(0, 12), rng.choice((1, 2, 3, 4, 6, 8, 9))
            return f"{n}/{k}", sympy.Rational(n, k)
        if kind == 2:
            name = rng.choice(XYZ)
            return name, sympy.Symbol(name)
        text, value = expression(d - 1)
        return f"({text})", value

    def factor(d):
        text, value = atom(d)
        if rng.random() < 0.3:
            e = rng.randint(0, 3)
            return f"{text}{gap()}^{gap()}{e}", value ** e
        return text, value

    def term(d):
        factors = [factor(d) for _ in range(rng.randint(1, 3))]
        return f"{gap()}*{gap()}".join(t for t, _ in factors), sympy.Mul(*(v for _, v in factors))

    def expression(d):
        text, value = term(d)
        if rng.random() < 0.3:
            sign = rng.choice("+-")
            text, value = sign + gap() + text, value if sign == "+" else -value
        for _ in range(rng.randint(0, 2)):
            sign = rng.choice("+-")
            t, v = term(d)
            text, value = f"{text}{gap()}{sign}{gap()}{t}", value + v if sign == "+" else value - v
        return text, value

    return expression(depth)


@pytest.mark.parametrize("K", [QQ, GF(5), GF(7)], ids=repr)
def test_accepted_text_matches_sympy_expansion(K):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"parse-{K!r}")
    for _ in range(100):
        text, value = random_expression(rng, sympy, 3)
        expected = {}
        for exps, c in sympy.Poly(value, *sympy.symbols(XYZ), domain="QQ").terms():
            c = Fraction(int(c.p), int(c.q)) if K == QQ else int(c.p) * pow(int(c.q), -1, K.modulus) % K.modulus
            if c:
                expected[exps] = c
        assert parse_polynomial(text, K, XYZ).terms == expected, text
