"""Strictly finite algebras as structure-constant tables.

A FiniteAlgebra is a commutative, associative, unital algebra of finite
dimension m over a discrete field, stored as the table of coordinate vectors
e_i * e_j on a labelled basis.  Elements are plain coordinate tuples; the
algebra object carries the operations.

Construction validates the unit law and commutativity on the full table.
Associativity is checked on every basis triple for dimensions up to
FULL_ASSOCIATIVITY_DIM and on a fixed deterministic sample of triples above
that (the m^3 sweep costs m^5 field operations, which pure Python cannot
afford for every throwaway algebra; all constructors in this package build
tables that are associative by construction, and the test suite runs the
exhaustive sweep on small instances).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import linalg
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NotIdempotent,
    NotInvertible,
    NotMonic,
    RepeatedZeroRoot,
    TrivialIdempotent,
    ZeroOperand,
)
from .unipoly import UniPoly, eval_in_algebra

FULL_ASSOCIATIVITY_DIM = 4
ASSOCIATIVITY_SAMPLE = 96


class FiniteAlgebra:
    __slots__ = ("field", "dimension", "basis_labels", "table", "unit", "generator_refs")

    def __init__(self, field, basis_labels, table, unit, generator_refs=None):
        self.field = field
        self.basis_labels = tuple(basis_labels)
        self.dimension = len(self.basis_labels)
        if self.dimension < 1:
            raise DimensionMismatch("a strictly finite algebra has dimension >= 1")
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        self.unit = tuple(unit)
        self.generator_refs = dict(generator_refs) if generator_refs else {}
        self._validate()

    def _validate(self):
        m = self.dimension
        if len(self.table) != m or any(len(row) != m for row in self.table):
            raise DimensionMismatch("structure-constant table is not m x m")
        if any(len(v) != m for row in self.table for v in row):
            raise DimensionMismatch("structure-constant vectors have wrong length")
        if len(self.unit) != m:
            raise DimensionMismatch("unit vector has wrong length")
        for i in range(m):
            for j in range(i + 1, m):
                if self.table[i][j] != self.table[j][i]:
                    raise AssertionError(f"multiplication not commutative at ({i}, {j})")
        for i in range(m):
            if self.mul(self.unit, self.basis_element(i)) != self.basis_element(i):
                raise AssertionError(f"unit law fails on basis element {i}")
        if m <= FULL_ASSOCIATIVITY_DIM:
            triples = (
                (i, j, k) for i in range(m) for j in range(m) for k in range(m)
            )
        else:
            triples = (
                ((t * 7) % m, (t * 13 + 1) % m, (t * 29 + 2) % m)
                for t in range(ASSOCIATIVITY_SAMPLE)
            )
        for i, j, k in triples:
            left = self.mul(self.table[i][j], self.basis_element(k))
            right = self.mul(self.basis_element(i), self.table[j][k])
            if left != right:
                raise AssertionError(f"multiplication not associative at ({i}, {j}, {k})")

    # -- elements --------------------------------------------------------
    def zero_element(self):
        return (self.field.zero(),) * self.dimension

    def basis_element(self, i: int):
        K = self.field
        return tuple(K.one() if j == i else K.zero() for j in range(self.dimension))

    def from_scalar(self, c):
        return self.scalar_mul(c, self.unit)

    def _check_element(self, x):
        if len(x) != self.dimension:
            raise DimensionMismatch(f"expected {self.dimension} coordinates, got {len(x)}")

    def add(self, x, y):
        K = self.field
        return tuple(K.add(a, b) for a, b in zip(x, y))

    def sub(self, x, y):
        K = self.field
        return tuple(K.sub(a, b) for a, b in zip(x, y))

    def scalar_mul(self, c, x):
        K = self.field
        return tuple(K.mul(c, a) for a in x)

    def mul(self, x, y):
        self._check_element(x)
        self._check_element(y)
        K = self.field
        out = [K.zero()] * self.dimension
        for i, a in enumerate(x):
            if K.is_zero(a):
                continue
            row = self.table[i]
            for j, b in enumerate(y):
                if K.is_zero(b):
                    continue
                ab = K.mul(a, b)
                for k, c in enumerate(row[j]):
                    if not K.is_zero(c):
                        out[k] = K.add(out[k], K.mul(ab, c))
        return tuple(out)

    def power(self, x, n: int):
        result = self.unit
        base = x
        while n > 0:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def is_zero_element(self, x) -> bool:
        K = self.field
        return all(K.is_zero(a) for a in x)

    # -- trace form --------------------------------------------------------
    def mul_operator(self, a):
        """Matrix of b -> a*b in the basis; entry (i, j) is (a*e_j)_i."""
        self._check_element(a)
        cols = [self.mul(a, self.basis_element(j)) for j in range(self.dimension)]
        return [[cols[j][i] for j in range(self.dimension)] for i in range(self.dimension)]

    def trace(self, a):
        """Trace of b -> a*b: the sum of a_k * Tr(e_k), with the Tr(e_k) read off the table."""
        self._check_element(a)
        K = self.field
        return reduce(K.add, map(K.mul, a, self._basis_traces()), K.zero())

    def gram_matrix(self):
        """Trace-form Gram table G[i][j] = Tr(e_i * e_j): table[i][j] paired with the Tr(e_k)."""
        K, traces = self.field, self._basis_traces()
        return [[reduce(K.add, map(K.mul, v, traces), K.zero()) for v in row] for row in self.table]

    def _basis_traces(self):
        """Tr(e_k) for every k: the sum over j of (e_k * e_j)_j, so no product is formed."""
        K = self.field
        return [reduce(K.add, (v[j] for j, v in enumerate(row)), K.zero()) for row in self.table]

    def discriminant(self):
        """Determinant of the trace-form Gram matrix; nonzero iff etale."""
        return linalg.det(self.gram_matrix(), self.field)

    def is_reduced(self) -> bool:
        """No nonzero nilpotents.

        Over the perfect base fields supported here, a strictly finite
        algebra is reduced exactly when its trace form is nondegenerate, so
        this is the discriminant test.
        """
        return not self.field.is_zero(self.discriminant())

    # -- minimal polynomials and idempotents -------------------------------
    def minimal_polynomial(self, a) -> UniPoly:
        """Monic generator of the annihilator of a.

        Found as the first linear dependence among 1, a, a^2, ...
        """
        self._check_element(a)
        K = self.field
        powers = [self.unit]
        current = self.unit
        for k in range(1, self.dimension + 1):
            current = self.mul(current, a)
            matrix = [[powers[j][i] for j in range(k)] for i in range(self.dimension)]
            sol = linalg.solve(matrix, list(current), K)
            if sol is not None:
                coeffs = [K.neg(c) for c in sol] + [K.one()]
                return UniPoly(K, coeffs)
            powers.append(current)
        raise AssertionError("no linear dependence among m+1 powers; table is inconsistent")

    def _split_zero_root(self, a):
        """Minimal polynomial of a written T^k * h with h(0) != 0."""
        g = self.minimal_polynomial(a)
        k = 0
        while self.field.is_zero(g.coeff(k)):
            k += 1
        h = UniPoly(self.field, g.coeffs[k:])
        return g, k, h

    def idempotent_of(self, a, return_witness=False):
        """The unique idempotent e in K[a] with <a> = <e>.

        Defined when the minimal polynomial of a has at most a simple root
        at 0: for g = T*h with h(0) != 0 (or h = g when a is invertible),
        e = 1 - h(a)/h(0).  A repeated zero root means a generates a
        non-reduced situation; RepeatedZeroRoot then carries the nilpotent
        witness a^(k-1) * h(a).
        """
        self._check_element(a)
        K = self.field
        g, k, h = self._split_zero_root(a)
        if k >= 2:
            witness = self.mul(self.power(a, k - 1), eval_in_algebra(h, a, self))
            raise RepeatedZeroRoot(
                f"minimal polynomial {g.format()} is divisible by T^2", witness=witness
            )
        inv_h0 = K.invert(h.coeff(0))
        e = self.sub(self.unit, self.scalar_mul(inv_h0, eval_in_algebra(h, a, self)))
        # q = (h - h(0)) / T, so that e = a * (-q(a)/h(0)) witnesses e in <a>.
        q = UniPoly(K, h.coeffs[1:])
        w = self.scalar_mul(K.neg(inv_h0), eval_in_algebra(q, a, self))
        assert self.mul(e, e) == e
        assert self.mul(a, e) == a
        assert self.mul(a, w) == e
        if return_witness:
            return e, w
        return e

    def inverse_in_subalgebra(self, a):
        """a^(-1) expressed inside K[a], via q(T) = -(g(T) - g(0)) / (T g(0))."""
        self._check_element(a)
        K = self.field
        g = self.minimal_polynomial(a)
        if K.is_zero(g.coeff(0)):
            raise NotInvertible("minimal polynomial has zero constant term")
        q = UniPoly(K, [K.neg(K.div(c, g.coeff(0))) for c in g.coeffs[1:]])
        b = eval_in_algebra(q, a, self)
        assert self.mul(a, b) == self.unit
        return b

    # -- display -----------------------------------------------------------
    def format_table(self):
        """Structure constants as printable lines e_i * e_j = ..."""
        lines = []
        for i in range(self.dimension):
            for j in range(i, self.dimension):
                lines.append(
                    f"{self.basis_labels[i]} * {self.basis_labels[j]} = "
                    f"{self.format_element(self.table[i][j])}"
                )
        return lines

    def format_element(self, x) -> str:
        return self.field.format_sum(zip(x, self.basis_labels))

    def __repr__(self):
        return f"FiniteAlgebra(dim={self.dimension} over {self.field!r})"


# --------------------------------------------------------------- constructions

@dataclass(frozen=True)
class AlgebraSplit:
    """A ~ first x second along an idempotent e, with maps for certificates.

    ``first`` carries the product on (1-e)*A, ``second`` the one on e*A.
    Basis vectors of each factor are stored in the coordinates of A, so
    embedding is a linear combination and projection is multiplication by
    the factor unit followed by coordinate extraction.
    """

    parent: FiniteAlgebra
    first: FiniteAlgebra
    second: FiniteAlgebra
    first_basis: tuple
    second_basis: tuple
    first_pivots: tuple
    second_pivots: tuple
    first_unit_in_parent: tuple
    second_unit_in_parent: tuple

    def embed_first(self, v):
        return _embed(self.parent, self.first_basis, v)

    def embed_second(self, v):
        return _embed(self.parent, self.second_basis, v)

    def project_first(self, w):
        return _project(self.parent, self.first_basis, self.first_pivots,
                        self.first_unit_in_parent, w)

    def project_second(self, w):
        return _project(self.parent, self.second_basis, self.second_pivots,
                        self.second_unit_in_parent, w)


def _embed(parent, basis_vectors, v):
    acc = parent.zero_element()
    for c, vec in zip(v, basis_vectors):
        acc = parent.add(acc, parent.scalar_mul(c, vec))
    return acc


def _project(parent, basis_vectors, pivots, unit_vec, w):
    inside = parent.mul(unit_vec, w)
    coords = tuple(inside[p] for p in pivots)
    assert _embed(parent, basis_vectors, coords) == inside
    return coords


def _ideal_subalgebra(A, unit_vec, labels_prefix):
    """The ideal u*A as an algebra with unit u, on an echelonized basis."""
    K = A.field
    images = [A.mul(unit_vec, A.basis_element(i)) for i in range(A.dimension)]
    reduced, pivots = linalg.rref(images, K)
    basis = [tuple(row) for row in reduced[: len(pivots)]]
    dim = len(basis)

    def project(w):
        return tuple(w[p] for p in pivots)

    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            vec = project(A.mul(basis[i], basis[j]))
            table[i][j] = vec
            table[j][i] = vec
    refs = {name: project(A.mul(unit_vec, vec)) for name, vec in A.generator_refs.items()}
    labels = [f"{labels_prefix}{k + 1}" for k in range(dim)]
    sub = FiniteAlgebra(K, labels, table, project(unit_vec), generator_refs=refs)
    return sub, tuple(basis), tuple(pivots)


def split_by_idempotent(e, A: FiniteAlgebra) -> AlgebraSplit:
    """Split A as (1-e)*A x e*A along an idempotent e distinct from 0 and 1."""
    A._check_element(e)
    if A.mul(e, e) != e:
        raise NotIdempotent("e^2 != e")
    if A.is_zero_element(e) or e == A.unit:
        raise TrivialIdempotent("e must differ from 0 and 1")
    complement = A.sub(A.unit, e)
    first, basis1, pivots1 = _ideal_subalgebra(A, complement, "u")
    second, basis2, pivots2 = _ideal_subalgebra(A, e, "v")
    if first.dimension + second.dimension != A.dimension:
        raise AssertionError("split dimensions do not add up")
    return AlgebraSplit(
        parent=A,
        first=first,
        second=second,
        first_basis=basis1,
        second_basis=basis2,
        first_pivots=pivots1,
        second_pivots=pivots2,
        first_unit_in_parent=complement,
        second_unit_in_parent=e,
    )


def product(A1: FiniteAlgebra, A2: FiniteAlgebra) -> FiniteAlgebra:
    """Block-diagonal product algebra A1 x A2."""
    if A1.field != A2.field:
        raise FieldMismatch("factors live over different fields")
    K = A1.field
    m1, m2 = A1.dimension, A2.dimension
    m = m1 + m2
    zero = K.zero()

    def pad_left(v):
        return tuple(v) + (zero,) * m2

    def pad_right(v):
        return (zero,) * m1 + tuple(v)

    table = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i < m1 and j < m1:
                table[i][j] = pad_left(A1.table[i][j])
            elif i >= m1 and j >= m1:
                table[i][j] = pad_right(A2.table[i - m1][j - m1])
            else:
                table[i][j] = (zero,) * m
    unit = tuple(A1.unit) + tuple(A2.unit)
    labels = [f"{l}@1" for l in A1.basis_labels] + [f"{l}@2" for l in A2.basis_labels]
    return FiniteAlgebra(K, labels, table, unit)


def monogenic_from_poly(f: UniPoly, name: str = "x") -> FiniteAlgebra:
    """K[X]/<f> on the power basis 1, x, ..., x^(deg f - 1)."""
    if f.is_zero or f.degree == 0:
        raise ZeroOperand("monogenic_from_poly needs degree >= 1")
    if not f.is_monic:
        raise NotMonic("monogenic_from_poly needs a monic polynomial")
    K = f.field
    m = f.degree
    X = UniPoly.variable(K)
    powers = []
    current = UniPoly.one(K)
    for _ in range(2 * m - 1):
        powers.append(current)
        current = (current * X) % f
    def coords(poly):
        return tuple(poly.coeff(i) for i in range(m))
    table = [[coords(powers[i + j]) for j in range(m)] for i in range(m)]
    labels = ["1"] + [name if k == 1 else f"{name}^{k}" for k in range(1, m)]
    unit = coords(UniPoly.one(K))
    gen = coords(powers[1] if m >= 2 else (X % f))
    return FiniteAlgebra(K, labels, table, unit, generator_refs={name: gen})
