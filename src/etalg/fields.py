"""Exact arithmetic for the two supported discrete fields: Q and GF(p).

Elements are plain Python values: ``fractions.Fraction`` for Q (always in
lowest terms with positive denominator, so structural equality is semantic
equality) and ``int`` residues in [0, p) for GF(p).  A FieldContext carries
the arithmetic; polynomial and linear-algebra code stays generic over it.

Only prime fields are supported in positive characteristic.  They are
perfect with the identity map as Frobenius inverse, which is exactly what
the p-th-power decomposition of univariate polynomials needs.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import index as _as_int

from .errors import CharacteristicZero, CompositeModulus, ZeroNotInvertible


class FieldContext:
    """A discrete field: every element is zero or invertible, decidably."""

    kind = "abstract"
    modulus = None

    # -- constants ---------------------------------------------------
    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError

    # -- ring operations ---------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.invert(b))

    def is_zero(self, a) -> bool:
        return a == 0

    # -- field-specific structure --------------------------------------
    def characteristic(self) -> int:
        raise NotImplementedError

    def pth_root(self, a):
        raise NotImplementedError

    def enumerate_scalars(self, count: int) -> list:
        """Deterministic, duplicate-free stream of scalars.

        Q: 0, 1, -1, 2, -2, ...   GF(p): 0, 1, ..., min(count, p) - 1.
        """
        raise NotImplementedError

    def format(self, a) -> str:
        return str(a)

    def format_sum(self, terms) -> str:
        """The signed sum of (coefficient, label) pairs; the label "1" is the unit."""
        parts = []
        for c, label in terms:
            if self.is_zero(c):
                continue
            text = self.format(c)
            negative = text.startswith("-")
            if negative:
                text = text[1:]
            body = text if label == "1" else label if text == "1" else f"{text}*{label}"
            if parts:
                parts.append(("- " if negative else "+ ") + body)
            else:
                parts.append(("-" if negative else "") + body)
        return " ".join(parts) or "0"

    def __repr__(self):
        return self.name()

    def name(self) -> str:
        raise NotImplementedError


class Rationals(FieldContext):
    """The field Q with arbitrary-precision rational arithmetic."""

    kind = "Rationals"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(_as_int(n))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def invert(self, a):
        if a == 0:
            raise ZeroNotInvertible("0 is not invertible in Q")
        return 1 / a

    def characteristic(self) -> int:
        return 0

    def pth_root(self, a):
        raise CharacteristicZero("p-th roots are only defined in characteristic p > 0")

    def enumerate_scalars(self, count: int) -> list:
        out = []
        for i in range(count):
            if i == 0:
                out.append(Fraction(0))
            elif i % 2 == 1:
                out.append(Fraction((i + 1) // 2))
            else:
                out.append(Fraction(-(i // 2)))
        return out

    def name(self) -> str:
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


class PrimeField(FieldContext):
    """The prime field GF(p); elements are fully reduced residues."""

    kind = "PrimeField"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise CompositeModulus(f"{p} is not prime")
        self.modulus = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return _as_int(n) % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def invert(self, a):
        if a % self.modulus == 0:
            raise ZeroNotInvertible(f"0 is not invertible in GF({self.modulus})")
        return pow(a, self.modulus - 2, self.modulus)

    def characteristic(self) -> int:
        return self.modulus

    def pth_root(self, a):
        # Frobenius is the identity on GF(p), so every element is its own p-th root.
        return a % self.modulus

    def enumerate_scalars(self, count: int) -> list:
        return list(range(min(count, self.modulus)))

    def name(self) -> str:
        return f"GF({self.modulus})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("GF", self.modulus))


QQ = Rationals()
GF = PrimeField
