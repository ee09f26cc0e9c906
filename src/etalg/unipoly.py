"""Dense univariate polynomials over a discrete field.

Coefficients are stored ascending by degree with trailing zeros trimmed, so
the zero polynomial has an empty coefficient tuple and its degree is the
``None`` sentinel (it never takes part in arithmetic).

Arithmetic has one coefficient loop, ``_plus`` (self + the sum of c * T^q * g,
with native + and * and each coefficient reduced once, at the end), behind
+, -, unary -, *, ``scale`` and each step of long division; powers go through
``fields.power``.  ``gcd`` runs the remainder sequence alone, while
``extended_gcd`` also carries the Bezout cofactors.  Over the perfect fields
Q and GF(p) squarefree and separable (gcd(f, f') = 1) mean the same thing,
so ``is_separable`` is the one test of both.
The module also provides Sylvester resultants and discriminants, the
gcd-refinement coprime splitting f = f1*f2 with gcd(f1, f2) = gcd(f1, f') = 1,
and the p-th-power decomposition f = g^p available over perfect prime fields.
"""

from __future__ import annotations

from operator import mul

from . import linalg
from .errors import (
    AlreadySeparable,
    BothZero,
    CharacteristicZero,
    ConstantPolynomial,
    DerivativeNonzero,
    FieldMismatch,
    InternalContradiction,
    NoCoprimeSplit,
    NotMonic,
    ZeroDerivative,
    ZeroOperand,
)
from .fields import power


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one(),))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def variable(cls, field):
        return cls(field, (field.zero(), field.one()))

    @classmethod
    def from_ints(cls, field, ints):
        """Build from integer coefficients, ascending by degree."""
        return cls(field, [field.from_int(n) for n in ints])

    # -- structure -----------------------------------------------------
    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self):
        if self.is_zero:
            raise ZeroOperand("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    def coeff(self, k: int):
        return self.coeffs[k] if k < len(self.coeffs) else self.field.zero()

    # -- arithmetic ------------------------------------------------------
    def _same_field(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def _plus(self, products):
        """self + the sum of c * T^q * g over (c, q, g) triples, each coefficient reduced once."""
        K = self.field
        out = list(self.coeffs)
        for c, q, g in products:
            out += [K.zero()] * (q + len(g.coeffs) - len(out))  # pads only when g reaches past out
            for i, a in enumerate(g.coeffs, q):
                out[i] += c * a
        p = K.modulus
        return UniPoly(K, [x % p for x in out] if p else out)

    def __add__(self, other):
        self._same_field(other)
        return self._plus([(self.field.one(), 0, other)])

    def __sub__(self, other):
        self._same_field(other)
        return self._plus([(self.field.neg(self.field.one()), 0, other)])

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one()))

    def __mul__(self, other):
        self._same_field(other)
        return UniPoly.zero(self.field)._plus(
            (a, i, other) for i, a in enumerate(self.coeffs) if a)

    def scale(self, c):
        return UniPoly.zero(self.field)._plus([(c, 0, self)])

    def __pow__(self, n: int):
        return power(self, n, mul, UniPoly.one(self.field))

    def __divmod__(self, other):
        self._same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        K = self.field
        inv_lc = K.invert(other.lc())
        n = len(other.coeffs)
        quo = [K.zero()] * max(len(self.coeffs) - n + 1, 0)
        rem = self
        while len(rem.coeffs) >= n:
            k = len(rem.coeffs) - n
            quo[k] = K.mul(rem.coeffs[-1], inv_lc)
            rem = rem._plus([(K.neg(quo[k]), k, other)])
        return UniPoly(K, quo), rem

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        """Evaluate at a field element (Horner)."""
        K = self.field
        acc = K.zero()
        for c in reversed(self.coeffs):
            acc = K.add(K.mul(acc, x), c)
        return acc

    # -- comparison / display ---------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def format(self, var: str = "T") -> str:
        return self.field.format_sum(
            (self.coeffs[k], "1" if k == 0 else var if k == 1 else f"{var}^{k}")
            for k in range(len(self.coeffs) - 1, -1, -1)
        )

    def __repr__(self):
        return f"UniPoly({self.field!r}, {self.format()})"


# --------------------------------------------------------------------- gcd

def extended_gcd(f: UniPoly, g: UniPoly):
    """Monic d with d = u*f + v*g and <d> = <f, g>.  Returns (d, u, v)."""
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    K = f.field
    r0, r1 = f, g
    u0, u1 = UniPoly.one(K), UniPoly.zero(K)
    v0, v1 = UniPoly.zero(K), UniPoly.one(K)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    inv = K.invert(r0.lc())
    return r0.scale(inv), u0.scale(inv), v0.scale(inv)


def gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic d with <d> = <f, g>: the remainder sequence alone, no cofactors."""
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    while not g.is_zero:
        f, g = g, f % g
    return f.scale(f.field.invert(f.lc()))


def derivative(f: UniPoly) -> UniPoly:
    """Formal derivative; in characteristic p multiples of p vanish."""
    K = f.field
    return UniPoly(K, [K.mul(K.from_int(k), f.coeffs[k]) for k in range(1, len(f.coeffs))])


# --------------------------------------------------------------------- resultants

def resultant(f: UniPoly, g: UniPoly):
    """Determinant of the Sylvester matrix of f and g.

    A constant operand takes the same path: for g = c the matrix is c times
    the identity, so Res(f, c) = c^deg f; two constants give the 0x0 matrix.
    """
    if f.is_zero or g.is_zero:
        raise ZeroOperand("resultant needs nonzero operands")
    K = f.field
    m, n = f.degree, g.degree
    size = m + n
    fd = list(reversed(f.coeffs))
    gd = list(reversed(g.coeffs))
    rows = []
    for i in range(n):
        rows.append([K.zero()] * i + fd + [K.zero()] * (size - i - len(fd)))
    for i in range(m):
        rows.append([K.zero()] * i + gd + [K.zero()] * (size - i - len(gd)))
    return linalg.det(rows, K)


def discriminant(f: UniPoly):
    """disc(f) = (-1)^(m(m-1)/2) * Res(f, f') / lc(f); zero iff f has a repeated root."""
    if f.is_zero or f.degree == 0:
        raise ConstantPolynomial("discriminant needs degree >= 1")
    K = f.field
    fp = derivative(f)
    if fp.is_zero:
        return K.zero()
    m = f.degree
    r = resultant(f, fp)
    r = K.div(r, f.lc())
    return K.neg(r) if (m * (m - 1) // 2) % 2 == 1 else r


# --------------------------------------------------------------------- separability

def _require_monic_nonconstant(f: UniPoly):
    if f.is_zero or f.degree == 0:
        raise ConstantPolynomial("operation needs degree >= 1")
    if not f.is_monic:
        raise NotMonic("operation needs a monic polynomial")


def is_separable(f: UniPoly) -> bool:
    """True iff gcd(f, f') = 1, equivalently disc(f) != 0."""
    _require_monic_nonconstant(f)
    return gcd(f, derivative(f)).degree == 0


def pth_power_decompose(f: UniPoly) -> UniPoly:
    """Given f' = 0 in characteristic p, return g with g^p = f.

    As f' = 0, exponents with nonzero coefficients are all divisible by p,
    and the perfect base field supplies p-th roots of the coefficients.
    """
    K = f.field
    p = K.characteristic()
    if p == 0:
        raise CharacteristicZero("pth_power_decompose needs characteristic p > 0")
    if not f.is_monic:
        raise NotMonic("pth_power_decompose needs a monic polynomial")
    if not derivative(f).is_zero:
        raise DerivativeNonzero("pth_power_decompose needs f' = 0")
    return UniPoly(K, [K.pth_root(c) for c in f.coeffs[::p]])


def squarefree_part(f: UniPoly) -> UniPoly:
    """The radical of a monic polynomial (product of its distinct prime factors)."""
    if f.is_zero:
        raise ZeroOperand("squarefree_part of 0 is undefined")
    if not f.is_monic:
        raise NotMonic("squarefree_part needs a monic polynomial")
    if f.degree == 0:
        return f
    fp = derivative(f)
    if fp.is_zero:
        return squarefree_part(pth_power_decompose(f))
    d = gcd(f, fp)
    if d.degree == 0:
        return f
    w = f // d
    # w holds the primes whose multiplicity p does not divide (all, in characteristic 0);
    # strip them from f, leaving v with v' = 0 (v = 1 in characteristic 0).
    v = f
    h = gcd(v, w)
    while h.degree >= 1:
        v = v // h
        h = gcd(v, w)
    if v.degree == 0:
        return w
    return w * squarefree_part(pth_power_decompose(v))


def coprime_split(f: UniPoly):
    """Split a non-separable f as f1*f2 with gcd(f1, f2) = gcd(f1, f') = 1.

    Starts from f1 = f/gcd(f, f'), f2 = gcd(f, f') and repeatedly moves the
    common part of f1 and f2 into f2; the degree of f1 strictly drops, so the
    loop terminates.  Both factors end up monic with degree below deg f.
    """
    _require_monic_nonconstant(f)
    fp = derivative(f)
    if fp.is_zero:
        raise ZeroDerivative("f' = 0; use pth_power_decompose")
    d = gcd(f, fp)
    if d.degree == 0:
        raise AlreadySeparable("gcd(f, f') = 1")
    f1 = f // d
    f2 = d
    h = gcd(f1, f2)
    while h.degree >= 1:
        f1 = f1 // h
        f2 = f2 * h
        h = gcd(f1, f2)
    if f1.degree == 0:
        raise NoCoprimeSplit("every prime factor of f is repeated")
    if f1 * f2 != f:
        raise InternalContradiction("coprime_split: f1 * f2 != f")
    if gcd(f1, f2).degree != 0:
        raise InternalContradiction("coprime_split: gcd(f1, f2) != 1")
    if gcd(f1, fp).degree != 0:
        raise InternalContradiction("coprime_split: gcd(f1, f') != 1")
    if f1.degree >= f.degree or f2.degree >= f.degree:
        raise InternalContradiction("coprime_split: a factor has the degree of f")
    return f1, f2


def eval_in_algebra(f: UniPoly, a, algebra):
    """Horner evaluation of f at an element of a finite algebra."""
    if f.field != algebra.field:
        raise FieldMismatch("polynomial and algebra live over different fields")
    K = f.field
    acc = algebra.zero_element()
    for c in reversed(f.coeffs):
        acc = algebra.add(algebra.mul(acc, a), algebra.scalar_mul(c, algebra.unit))
    return acc
