"""Sparse multivariate polynomials and monomial orders.

A monomial is a tuple of exponents, one per variable of the ambient ring.
A MultiPoly maps monomials to nonzero coefficients over a FieldContext and
remembers its ordered variable names; mixing rings raises RingMismatch.
Two monomial orders are provided: graded reverse lexicographic (the default
everywhere) and lexicographic.
"""

from __future__ import annotations

from operator import add, le, neg, sub

from .errors import IndexOutOfRange, RingMismatch


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
        lm = max(self.terms, key=order.key)
        return lm, self.terms[lm]

    def _same_ring(self, other):
        if self.field != other.field or self.variables != other.variables:
            raise RingMismatch("operands live in different polynomial rings")

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        self._same_ring(other)
        K = self.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = K.add(out.get(m, K.zero()), c)
            if K.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return MultiPoly(K, self.variables, out)

    def __sub__(self, other):
        self._same_ring(other)
        K = self.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = K.sub(out.get(m, K.zero()), c)
            if K.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return MultiPoly(K, self.variables, out)

    def __neg__(self):
        K = self.field
        return MultiPoly(K, self.variables, {m: K.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        self._same_ring(other)
        K = self.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = K.add(out.get(m, K.zero()), K.mul(c1, c2))
                if K.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
        return MultiPoly(K, self.variables, out)

    def scale(self, c):
        K = self.field
        return MultiPoly(K, self.variables, {m: K.mul(c, x) for m, x in self.terms.items()})

    def mul_term(self, exps, c):
        K = self.field
        return MultiPoly(
            K, self.variables, {mono_mul(m, exps): K.mul(c, x) for m, x in self.terms.items()}
        )

    def __pow__(self, n: int):
        result = MultiPoly.one(self.field, self.variables)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        out = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            d = K.mul(K.from_int(m[i]), c)
            if K.is_zero(d):
                continue
            exps = list(m)
            exps[i] -= 1
            out[tuple(exps)] = d
        return MultiPoly(K, self.variables, out)

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
