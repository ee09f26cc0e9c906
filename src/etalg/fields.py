"""Exact arithmetic for the two supported discrete fields: Q and GF(p).

Elements are plain Python numbers: ``fractions.Fraction`` for Q (always in
lowest terms with positive denominator, so structural equality is semantic
equality) and ``int`` residues in [0, p) for GF(p).  Code everywhere
combines them with native + - * and unary -, and brings each result back
into the field once with the FieldContext's ``reduce`` (``reduce_all`` for a
sequence): x mod p over GF(p), x itself over Q.  That reduction is written
here alone.  A reduced element is zero exactly when it is falsy.  The
FieldContext carries the rest: the constants, ``invert``, the
characteristic, p-th roots, a scalar enumeration and printing.

Only prime fields are supported in positive characteristic.  They are
perfect with the identity map as Frobenius inverse, which is exactly what
the p-th-power decomposition of univariate polynomials needs.

``power`` is the one repeated-squaring loop: every power of a polynomial,
of a finite-algebra element or modulo a polynomial goes through it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index as _as_int

from .errors import CharacteristicZero, CompositeModulus, ZeroNotInvertible


def power(x, n: int, mul, one):
    """x^n under ``mul`` by repeated squaring from x itself; ``one`` only answers n = 0."""
    if n < 0:
        raise ValueError(f"negative exponent {n}")
    if n == 0:
        return one
    while not n & 1:
        x, n = mul(x, x), n >> 1
    result = x
    while n > 1:
        x, n = mul(x, x), n >> 1
        if n & 1:
            result = mul(result, x)
    return result


class FieldContext:
    """A discrete field of numbers: every element is zero or invertible, decidably."""

    modulus = None

    # -- constants ---------------------------------------------------
    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError

    # -- reduction and inverses ------------------------------------------
    def reduce(self, x):
        """The element that a result of native + - * on elements stands for."""
        raise NotImplementedError

    def reduce_all(self, xs) -> tuple:
        """``reduce`` on each of xs, as a tuple."""
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

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
            if not c:
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

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(_as_int(n))

    def reduce(self, x):
        return x  # a Fraction is always in lowest terms

    def reduce_all(self, xs) -> tuple:
        return tuple(xs)

    def invert(self, a):
        if a == 0:
            raise ZeroNotInvertible("0 is not invertible in Q")
        return 1 / Fraction(a)

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


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below PRIMALITY_BOUND, the least strong pseudoprime to all of them
# (Sorenson & Webster, Math. Comp. 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < PRIMALITY_BOUND."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(FieldContext):
    """The prime field GF(p); elements are fully reduced residues."""

    def __init__(self, p: int):
        if p >= PRIMALITY_BOUND:
            raise CompositeModulus(f"{p} is not below {PRIMALITY_BOUND}, "
                                   "the bound up to which primality is decided exactly")
        if not _is_prime(p):
            raise CompositeModulus(f"{p} is not prime")
        self.modulus = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return _as_int(n) % self.modulus

    def reduce(self, x):
        return x % self.modulus

    def reduce_all(self, xs) -> tuple:
        p = self.modulus
        return tuple([x % p for x in xs])

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
