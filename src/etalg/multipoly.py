"""Sparse multivariate polynomials and monomial orders.

A monomial is a tuple of exponents, one per variable of the ambient ring.
A MultiPoly maps monomials to nonzero coefficients over a FieldContext and
remembers its ordered variable names; mixing rings raises RingMismatch.
Two monomial orders are provided: graded reverse lexicographic (the default
everywhere) and lexicographic.

Arithmetic has one term loop, ``_plus`` (self + the sum of c * x^q * g, zeros
dropped as they appear), behind every operation but powers, which go through
``fields.power``.  It shares no code with the Groebner row kernel, so
``groebner.one_certificate`` re-verifies Bezout identities independently.
"""

from __future__ import annotations

from operator import add, le, mul, neg, sub

from .errors import IndexOutOfRange, RingMismatch, ZeroOperand
from .fields import power


# ------------------------------------------------------------------ monomials
# The Groebner engine's hot helpers: ``map`` over ``operator`` functions runs
# the exponent loop in C, faster than a generator expression.

def mono_mul(a, b):
    return tuple(map(add, a, b))

def mono_divides(a, b):
    """True iff a divides b."""
    return all(map(le, a, b))

def mono_div(a, b):
    """a / b, assuming b divides a."""
    return tuple(map(sub, a, b))

def mono_lcm(a, b):
    return tuple(map(max, a, b))

def mono_degree(a):
    return sum(a)

def mono_is_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


class MonomialOrder:
    """Total, multiplicative, well-founded order given by a sort key."""

    def __init__(self, kind: str):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown monomial order {kind!r}")
        self.kind = kind

    def key(self, exps):
        """Sort key: bigger key means bigger monomial."""
        if self.kind == "lex":
            return exps
        return (sum(exps), tuple(map(neg, reversed(exps))))

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.kind == self.kind

    def __hash__(self):
        return hash(("order", self.kind))

    def __repr__(self):
        return self.kind

    @classmethod
    def parse(cls, name: str) -> "MonomialOrder":
        return cls(name.strip().lower())


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


# ------------------------------------------------------------------ polynomials

class MultiPoly:
    __slots__ = ("field", "variables", "terms")

    def __init__(self, field, variables, terms):
        self.field = field
        self.variables = tuple(variables)
        clean = {}
        for exps, c in terms.items():
            if len(exps) != len(self.variables):
                raise RingMismatch("monomial length does not match variable count")
            if not field.is_zero(c):
                clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls, field, variables):
        return cls(field, variables, {})

    @classmethod
    def constant(cls, field, variables, c):
        n = len(tuple(variables))
        return cls(field, variables, {(0,) * n: c})

    @classmethod
    def one(cls, field, variables):
        return cls.constant(field, variables, field.one())

    @classmethod
    def variable(cls, field, variables, i):
        variables = tuple(variables)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(field, variables, {exps: field.one()})

    @classmethod
    def from_monomial(cls, field, variables, exps, c=None):
        c = field.one() if c is None else c
        return cls(field, variables, {tuple(exps): c})

    # -- structure -----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        n = len(self.variables)
        return not self.terms or (len(self.terms) == 1 and (0,) * n in self.terms)

    def constant_value(self):
        n = len(self.variables)
        return self.terms.get((0,) * n, self.field.zero())

    def leading(self, order):
        """(monomial, coefficient) of the leading term under the order."""
        if not self.terms:
            raise ZeroOperand("the zero polynomial has no leading term")
        lm = max(self.terms, key=order.key)
        return lm, self.terms[lm]

    def _same_ring(self, other):
        if self.field != other.field or self.variables != other.variables:
            raise RingMismatch("operands live in different polynomial rings")

    # -- arithmetic ------------------------------------------------------
    def _plus(self, products):
        """self + the sum of c * x^q * g over the (c, q, g) triples, zeros dropped at once."""
        K = self.field
        add, mul, is_zero = K.add, K.mul, K.is_zero
        out = dict(self.terms)
        for c, q, g in products:
            for m, a in g.terms.items():
                t = mono_mul(m, q)
                s, old = mul(c, a), out.get(t)
                if old is not None:
                    s = add(old, s)
                if is_zero(s):
                    out.pop(t, None)
                else:
                    out[t] = s
        result = object.__new__(MultiPoly)  # no zero terms: skip the constructor's validation
        result.field, result.variables, result.terms = K, self.variables, out
        return result

    def __add__(self, other):
        self._same_ring(other)
        return self._plus([(self.field.one(), (0,) * len(self.variables), other)])

    def __sub__(self, other):
        self._same_ring(other)
        K = self.field
        return self._plus([(K.neg(K.one()), (0,) * len(self.variables), other)])

    def __neg__(self):
        K = self.field
        return self.scale(K.neg(K.one()))

    def __mul__(self, other):
        self._same_ring(other)
        return MultiPoly.zero(self.field, self.variables)._plus(
            (c, m, other) for m, c in self.terms.items())

    def scale(self, c):
        return self.mul_term((0,) * len(self.variables), c)

    def mul_term(self, exps, c):
        """c * x^exps * self."""
        exps = tuple(exps)
        if len(exps) != len(self.variables):
            raise RingMismatch("monomial length does not match variable count")
        return MultiPoly.zero(self.field, self.variables)._plus([(c, exps, self)])

    def __pow__(self, n: int):
        return power(self, n, mul, MultiPoly.one(self.field, self.variables))

    def monic(self, order):
        _, lc = self.leading(order)
        if lc == self.field.one():
            return self
        return self.scale(self.field.invert(lc))

    def partial_derivative(self, i: int) -> "MultiPoly":
        """Formal partial derivative with respect to the i-th variable."""
        if not 0 <= i < len(self.variables):
            raise IndexOutOfRange(f"variable index {i} out of range")
        K = self.field
        unit = MultiPoly.one(K, self.variables)
        return MultiPoly.zero(K, self.variables)._plus(
            (K.mul(K.from_int(m[i]), c), m[:i] + (m[i] - 1,) + m[i + 1:], unit)
            for m, c in self.terms.items() if m[i])

    # -- comparison / display ---------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.field == other.field
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.variables, tuple(sorted(self.terms.items()))))

    def format_monomial(self, exps) -> str:
        parts = []
        for name, e in zip(self.variables, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def format(self, order=GREVLEX) -> str:
        monomials = sorted(self.terms, key=order.key, reverse=True)
        return self.field.format_sum((self.terms[m], self.format_monomial(m)) for m in monomials)

    def __repr__(self):
        return f"MultiPoly({self.format()})"
