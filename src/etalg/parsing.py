"""Parser for the declarative algebra-presentation input format.

    field Q            # or: field GF(5)
    vars X, Y
    relations:
      X^2 + Y^2 - 1
      X*Y

Comments run from '#' to end of line.  One header check reads each of the
three header lines.  Each relation line is split by one token scan and read
by one recursive descent; its grammar has integer literals of the ASCII
digits 0-9 and a/b rational literals, declared identifiers, + - * ^ and
parentheses; '^' takes a nonnegative integer literal and there is no
implicit multiplication.  Parentheses nest at most MAX_NESTING deep.  All
rejections, a file that is not UTF-8 included, raise ParseError with line
and column.
"""

from __future__ import annotations

import re

from .errors import CompositeModulus, ParseError, ZeroNotInvertible
from .fields import PrimeField, Rationals
from .kaehler import AlgebraPresentation
from .multipoly import MultiPoly

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"(?P<int>[0-9]+)|(?P<ident>{_NAME.pattern})|(?P<op>[-+*^()/])|(?P<bad>\S)")
MAX_NESTING = 100  # parenthesis depth; inputs in practice nest a few levels


class _PolyParser:
    """Recursive descent over the tokens of one relation line."""

    def __init__(self, text: str, line: int, field, variables):
        self.line = line
        self.tokens = []  # (kind, value, column), ending in an end-of-input token
        end = 0
        for m in _TOKEN.finditer(text):
            if m.lastgroup == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", line, m.start() + 1)
            value = int(m.group()) if m.lastgroup == "int" else m.group()
            self.tokens.append((m.lastgroup, value, m.start() + 1))
            end = m.end()
        self.tokens.append(("eof", None, end + 1))  # one past the last token
        self.index = 0
        self.field = field
        self.variables = tuple(variables)
        self.var_index = {name: i for i, name in enumerate(self.variables)}
        self.depth = 0

    def next(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def take(self, *ops):
        """The next token's operator if it is one of ops, consumed; None, and nothing consumed, otherwise."""
        kind, value, _ = self.tokens[self.index]
        if kind == "op" and value in ops:
            self.index += 1
            return value
        return None

    def literal(self, message):
        """The integer literal that must come next, and its column."""
        kind, value, col = self.next()
        if kind != "int":
            raise ParseError(message, self.line, col)
        return value, col

    def parse(self) -> MultiPoly:
        poly = self.expression()
        kind, value, col = self.tokens[self.index]
        if kind != "eof":
            raise ParseError(f"trailing input starting at {value!r}", self.line, col)
        return poly

    def expression(self) -> MultiPoly:
        sign = self.take("+", "-")
        poly = self.term()
        if sign == "-":
            poly = -poly
        while op := self.take("+", "-"):
            rhs = self.term()
            poly = poly - rhs if op == "-" else poly + rhs
        return poly

    def term(self) -> MultiPoly:
        poly = self.factor()
        while self.take("*"):
            poly = poly * self.factor()
        return poly

    def factor(self) -> MultiPoly:
        base = self.atom()
        if self.take("^"):
            exponent, _ = self.literal("'^' takes a nonnegative integer literal")
            return base ** exponent
        return base

    def atom(self) -> MultiPoly:
        kind, value, col = self.next()
        if kind == "int":
            c = self.field.from_int(value)
            if self.take("/"):
                d, dcol = self.literal("'/' joins two integer literals")
                try:
                    c = self.field.reduce(c * self.field.invert(self.field.from_int(d)))
                except ZeroNotInvertible:
                    raise ParseError(f"coefficient denominator {d} vanishes in {self.field!r}",
                                     self.line, dcol) from None
            return MultiPoly.constant(self.field, self.variables, c)
        if kind == "ident":
            if value not in self.var_index:
                raise ParseError(f"unknown variable {value!r}", self.line, col)
            return MultiPoly.variable(self.field, self.variables, self.var_index[value])
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested more than {MAX_NESTING} deep", self.line, col)
            self.depth += 1
            poly = self.expression()
            if not self.take(")"):
                raise ParseError("expected ')'", self.line, self.tokens[self.index][2])
            self.depth -= 1
            return poly
        raise ParseError(
            "expected a number, a variable, or '('" if kind != "eof" else "unexpected end of input",
            self.line, col,
        )


def parse_polynomial(text: str, field, variables, line: int = 1) -> MultiPoly:
    return _PolyParser(text, line, field, variables).parse()


_FIELD_RE = re.compile(r"^\s*field\s+(Q|GF\(\s*([0-9]+)\s*\))\s*$")
_VARS_RE = re.compile(r"^\s*vars\b(.*)$")
_RELS_RE = re.compile(r"^\s*relations\s*:\s*$")


def parse_input(text: str) -> AlgebraPresentation:
    """Parse the declarative input format into an algebra presentation."""
    body = [(no, content) for no, raw in enumerate(text.splitlines(), 1)
            if (content := raw.partition("#")[0]).strip()]

    def header(k, pattern, missing, malformed):
        """The k-th content line's number and match; ParseError(missing) if absent, (malformed) if unmatched."""
        if len(body) <= k:
            raise ParseError(missing, body[k - 1][0] + 1 if k else 1, 1)
        no, content = body[k]
        m = pattern.match(content)
        if m is None:
            raise ParseError(malformed, no, 1)
        return no, m

    no, m = header(0, _FIELD_RE, "empty input", "expected 'field Q' or 'field GF(p)'")
    try:
        field = Rationals() if m.group(2) is None else PrimeField(int(m.group(2)))
    except CompositeModulus as exc:
        raise ParseError(str(exc), no, m.start(2) + 1) from None

    no, m = header(1, _VARS_RE, "expected a 'vars' line", "expected 'vars NAME, NAME, ...'")
    if not m.group(1).strip():
        raise ParseError("empty variable list", no, 1)
    names, start = [], m.start(1)
    for segment in m.group(1).split(","):
        name = segment.strip()
        col = start + len(segment) - len(segment.lstrip()) + 1  # where the name starts
        if not _NAME.fullmatch(name):
            raise ParseError(f"bad variable name {name!r}", no, col)
        if name in names:
            raise ParseError(f"duplicate variable {name!r}", no, col)
        names.append(name)
        start += len(segment) + 1

    header(2, _RELS_RE, "expected a 'relations:' line", "expected 'relations:'")
    relations = tuple(parse_polynomial(content, field, names, line=no) for no, content in body[3:])
    return AlgebraPresentation(field=field, variables=tuple(names), relations=relations)


def parse_file(path: str) -> AlgebraPresentation:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return parse_input(data.decode("utf-8-sig"))  # a leading byte-order mark is dropped
    except UnicodeDecodeError as exc:  # exc.object is the text after any byte-order mark
        lines = (exc.object[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(f"not UTF-8 text (byte {exc.object[exc.start]:#04x})",
                         len(lines), len(lines[-1])) from None
