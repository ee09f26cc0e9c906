"""Parser for the declarative algebra-presentation input format.

    field Q            # or: field GF(5)
    vars X, Y
    relations:
      X^2 + Y^2 - 1
      X*Y

Comments run from '#' to end of line.  The polynomial grammar has integer
and a/b rational literals, declared identifiers, + - * ^ and parentheses;
'^' takes a nonnegative integer literal and there is no implicit
multiplication.  Parentheses nest at most MAX_NESTING deep.  All rejections,
a file that is not UTF-8 included, raise ParseError with line and column.
"""

from __future__ import annotations

import re

from .errors import CompositeModulus, ParseError, ZeroNotInvertible
from .fields import PrimeField, Rationals
from .kaehler import AlgebraPresentation
from .multipoly import MultiPoly

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()/]))")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
MAX_NESTING = 100  # parenthesis depth; inputs in practice nest a few levels


class _Tokens:
    def __init__(self, text: str, line: int):
        self.line = line
        self.items = []  # (kind, value, column)
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                col = len(text) - len(text[pos:].lstrip()) + 1
                raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
            if m.group("int") is not None:
                self.items.append(("int", int(m.group("int")), m.start("int") + 1))
            elif m.group("ident") is not None:
                self.items.append(("ident", m.group("ident"), m.start("ident") + 1))
            else:
                self.items.append(("op", m.group("op"), m.start("op") + 1))
            pos = m.end()
        self.index = 0

    def peek(self):
        if self.index < len(self.items):
            return self.items[self.index]
        return ("eof", None, len(self.items) and self.items[-1][2] + 1 or 1)

    def next(self):
        tok = self.peek()
        self.index += 1
        return tok

    def expect_op(self, op):
        kind, value, col = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", self.line, col)


class _PolyParser:
    """Recursive descent over one relation line."""

    def __init__(self, tokens: _Tokens, field, variables):
        self.tokens = tokens
        self.field = field
        self.variables = tuple(variables)
        self.var_index = {name: i for i, name in enumerate(self.variables)}
        self.depth = 0

    def parse(self) -> MultiPoly:
        poly = self.expression()
        kind, value, col = self.tokens.peek()
        if kind != "eof":
            raise ParseError(f"trailing input starting at {value!r}", self.tokens.line, col)
        return poly

    def expression(self) -> MultiPoly:
        kind, value, _ = self.tokens.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.tokens.next()
            negate = value == "-"
        poly = self.term()
        if negate:
            poly = -poly
        while True:
            kind, value, _ = self.tokens.peek()
            if kind == "op" and value in "+-":
                self.tokens.next()
                rhs = self.term()
                poly = poly - rhs if value == "-" else poly + rhs
            else:
                return poly

    def term(self) -> MultiPoly:
        poly = self.factor()
        while True:
            kind, value, _ = self.tokens.peek()
            if kind == "op" and value == "*":
                self.tokens.next()
                poly = poly * self.factor()
            else:
                return poly

    def factor(self) -> MultiPoly:
        base = self.atom()
        kind, value, _ = self.tokens.peek()
        if kind == "op" and value == "^":
            self.tokens.next()
            ekind, exponent, col = self.tokens.next()
            if ekind != "int":
                raise ParseError("'^' takes a nonnegative integer literal", self.tokens.line, col)
            return base ** exponent
        return base

    def atom(self) -> MultiPoly:
        kind, value, col = self.tokens.next()
        if kind == "int":
            c = self.field.from_int(value)
            nkind, nvalue, _ = self.tokens.peek()
            if nkind == "op" and nvalue == "/":
                self.tokens.next()
                dkind, dvalue, dcol = self.tokens.next()
                if dkind != "int":
                    raise ParseError("'/' joins two integer literals", self.tokens.line, dcol)
                try:
                    c = self.field.reduce(c * self.field.invert(self.field.from_int(dvalue)))
                except ZeroNotInvertible:
                    raise ParseError(
                        f"coefficient denominator {dvalue} vanishes in {self.field!r}",
                        self.tokens.line, dcol,
                    ) from None
            return MultiPoly.constant(self.field, self.variables, c)
        if kind == "ident":
            if value not in self.var_index:
                raise ParseError(f"unknown variable {value!r}", self.tokens.line, col)
            return MultiPoly.variable(self.field, self.variables, self.var_index[value])
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested more than {MAX_NESTING} deep",
                                 self.tokens.line, col)
            self.depth += 1
            poly = self.expression()
            self.tokens.expect_op(")")
            self.depth -= 1
            return poly
        raise ParseError(
            "expected a number, a variable, or '('" if kind != "eof" else "unexpected end of input",
            self.tokens.line, col,
        )


def parse_polynomial(text: str, field, variables, line: int = 1) -> MultiPoly:
    return _PolyParser(_Tokens(text, line), field, variables).parse()


_FIELD_RE = re.compile(r"^\s*field\s+(Q|GF\(\s*(\d+)\s*\))\s*$")
_VARS_RE = re.compile(r"^\s*vars\b(.*)$")
_RELS_RE = re.compile(r"^\s*relations\s*:\s*$")


def parse_input(text: str) -> AlgebraPresentation:
    """Parse the declarative input format into an algebra presentation."""
    lines = text.splitlines()
    body = [(i + 1, raw.partition("#")[0]) for i, raw in enumerate(lines)]
    body = [(no, content) for no, content in body if content.strip()]
    if not body:
        raise ParseError("empty input", 1, 1)

    no, content = body[0]
    m = _FIELD_RE.match(content)
    if m is None:
        raise ParseError("expected 'field Q' or 'field GF(p)'", no, 1)
    if m.group(1) == "Q":
        field = Rationals()
    else:
        p = int(m.group(2))
        try:
            field = PrimeField(p)
        except CompositeModulus as exc:
            raise ParseError(str(exc), no, content.find(m.group(2)) + 1) from None

    if len(body) < 2:
        raise ParseError("expected a 'vars' line", no + 1, 1)
    no, content = body[1]
    m = _VARS_RE.match(content)
    if m is None:
        raise ParseError("expected 'vars NAME, NAME, ...'", no, 1)
    if not m.group(1).strip():
        raise ParseError("empty variable list", no, 1)
    names = [v.strip() for v in m.group(1).split(",")]
    seen = set()
    for name in names:
        if not _IDENT.match(name):
            raise ParseError(f"bad variable name {name!r}", no, 1)
        if name in seen:
            raise ParseError(f"duplicate variable {name!r}", no, 1)
        seen.add(name)

    if len(body) < 3:
        raise ParseError("expected a 'relations:' line", no + 1, 1)
    no, content = body[2]
    if _RELS_RE.match(content) is None:
        raise ParseError("expected 'relations:'", no, 1)

    relations = []
    for no, content in body[3:]:
        relations.append(parse_polynomial(content, field, names, line=no))
    return AlgebraPresentation(field=field, variables=tuple(names), relations=tuple(relations))


def parse_file(path: str) -> AlgebraPresentation:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return parse_input(data.decode("utf-8-sig"))  # a leading byte-order mark is dropped
    except UnicodeDecodeError as exc:  # exc.object is the text after any byte-order mark
        lines = (exc.object[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(f"not UTF-8 text (byte {exc.object[exc.start]:#04x})",
                         len(lines), len(lines[-1])) from None
