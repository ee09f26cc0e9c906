"""Strictly finite algebras as structure-constant tables.

A FiniteAlgebra is a commutative, associative, unital algebra of finite
dimension m over a discrete field, stored as the table of coordinate vectors
e_i * e_j on a labelled basis.  Elements are plain coordinate tuples; the
algebra object carries the operations.  Each distinct vector of a table
gets its support, the (index, scalar) pairs of its nonzero coordinates,
once, when it is built; ``_combine``, the module's one accumulation loop,
walks supports, so products skip zero coordinates.  It accumulates with the
elements' own + and * and reduces each output coordinate once, at the end
(mod p over GF(p); a Fraction is always in lowest terms), so its results are
reduced residues or Fractions like every other element.  Equal products
share one vector, so the trace-form Gram matrix takes one trace per distinct
vector.

An algebra comes from one of three inputs, each with its own construction
check, whose failures raise InternalContradiction:

* A table and a unit (``monogenic_from_poly``, ``product``).  The check
  covers the unit law and commutativity on the full table, and
  associativity on every basis triple when m^3 <= ASSOCIATIVITY_SAMPLE, else
  on that many distinct triples fixed by m alone (the full sweep would cost
  m^5 field operations).  On a commutative table x * e_k is row k weighted
  by x, so both sides of a triple, and the unit law, are read off rows.
* A split factor u*A (``split_by_idempotent``), whose table is derived from
  its parent's.  ``_ideal_subalgebra`` checks that every product b_i * b_j
  of its basis embeds back into u*A, so the table is the parent's product
  restricted to a subspace closed under it; with the unit law and the
  parent's own check this proves it commutative and associative, and no
  triple is sampled.
* A ``border`` (``groebner.quotient_algebra``): columns[k][l] holds x_k * e_l
  as (index, scalar) pairs, the columns of the multiplication matrix M_k,
  and steps[i] = (k, i') says e_i = x_k * e_i' with i' < i (steps[0] is
  None).  The check is complete: every step column x_k * e_i' must be e_i,
  and the M_k must commute (Mourrain, ISSAC 1999; Kehrein, Kreuzer &
  Robbiano 2005).  Then e_i = B_i * e_0 for the product B_i of the M_k along
  the steps, and since every M in K[M_1, ..., M_n] commutes with the B_i,
  M * e_0 = 0 forces M * e_i = 0 for all i: M -> M * e_0 is an isomorphism
  from K[M_1, ..., M_n] onto K^m with B_i -> e_i.  The table is derived from
  the steps, e_i * e_j = B_i' * (M_k * e_j), so it is the multiplication of
  that matrix algebra: commutative, associative and unital by construction,
  with nothing left to sample.

Minimal polynomials come from one echelon form over the powers 1, a, a^2,
..., extended power by power (Krylov).
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from functools import reduce
from itertools import count

from . import linalg
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    InternalContradiction,
    NotIdempotent,
    NotInvertible,
    NotMonic,
    RepeatedZeroRoot,
    TrivialIdempotent,
    ZeroOperand,
)
from .unipoly import UniPoly, eval_in_algebra

ASSOCIATIVITY_SAMPLE = 96


class _Vector(tuple):
    """A table vector: its coordinates, and ``support``, the (index, scalar) pairs of the nonzero ones."""

    def __new__(cls, coords, support):
        vector = super().__new__(cls, coords)
        vector.support = support
        return vector


def _support(x):
    """The nonzero coordinates of x as (index, scalar) pairs; a _Vector carries its own.

    Coordinates are numbers (residues or Fractions), zero exactly when falsy.
    """
    if type(x) is _Vector:
        return x.support
    return tuple([(k, a) for k, a in enumerate(x) if a])


def _vector(coords, pairs=None):
    """coords as a _Vector; supports built with one ``pairs`` dict share each distinct (index, scalar) pair."""
    support = _support(coords)
    if pairs is not None:  # a table repeats pairs often, and over GF(p) there are m (p - 1) at most
        support = tuple(pairs.setdefault(p, p) for p in support)
    return _Vector(coords, support)


def _combine(K, m, pairs):
    """The sum of c * v over the (scalar, support of v) pairs, as a coordinate tuple.

    Scalars may come unreduced (a product of two residues); each coordinate
    is reduced once, after the last term.
    """
    out = [K.zero()] * m
    for c, support in pairs:
        for k, a in support:
            out[k] += c * a
    p = K.modulus
    return tuple([x % p for x in out]) if p else tuple(out)


def _associativity_triples(m):
    """All m^3 triples (i, j, k) up to ASSOCIATIVITY_SAMPLE, else that many, drawn by Random(m)."""
    cube = m ** 3
    indices = (range(cube) if cube <= ASSOCIATIVITY_SAMPLE
               else random.Random(m).sample(range(cube), ASSOCIATIVITY_SAMPLE))
    return [(t // (m * m), t // m % m, t % m) for t in indices]


class FiniteAlgebra:
    __slots__ = ("field", "dimension", "basis_labels", "table", "unit", "generator_refs",
                 "border")

    def __init__(self, field, basis_labels, table=None, unit=None, generator_refs=None,
                 border=None):
        """From a table and a unit, or from a border (columns, steps) alone; see the module docstring."""
        self.field = field
        self.basis_labels = tuple(basis_labels)
        self.dimension = len(self.basis_labels)
        if self.dimension < 1:
            raise DimensionMismatch("a strictly finite algebra has dimension >= 1")
        self.generator_refs = dict(generator_refs) if generator_refs else {}
        if border is None:
            self.border = None
            self.table = self._shared_vectors(table)
            self.unit = tuple(unit)
            self._check_table()
        else:
            columns, steps = border
            self.border = (tuple(map(tuple, columns)), tuple(steps))
            self._check_border()
            self.table = self._table_from_border()
            self.unit = self.basis_element(0)

    def _shared_vectors(self, table):
        """The table with one _Vector per distinct entry object, so equal references stay shared."""
        m = self.dimension
        rows = [list(row) for row in table]  # holds every entry, so no id is reused below
        if len(rows) != m or any(len(row) != m for row in rows):
            raise DimensionMismatch("structure-constant table is not m x m")
        vectors, pairs = {}, {}
        for v in (v for row in rows for v in row):
            if id(v) not in vectors:
                if len(v) != m:
                    raise DimensionMismatch("structure-constant vectors have wrong length")
                vectors[id(v)] = _vector(v, pairs)
        return tuple(tuple(vectors[id(v)] for v in row) for row in rows)

    def _check_table(self):
        m, table = self.dimension, self.table
        if len(self.unit) != m:
            raise DimensionMismatch("unit vector has wrong length")
        for i in range(m):
            for j in range(i + 1, m):
                if table[i][j] != table[j][i]:
                    raise InternalContradiction(f"multiplication not commutative at ({i}, {j})")
        unit = _vector(self.unit)
        for i in range(m):
            if self._times_basis(unit, i) != self.basis_element(i):
                raise InternalContradiction(f"unit law fails on basis element {i}")
        self._check_associativity()

    def _check_associativity(self):
        table = self.table
        for i, j, k in _associativity_triples(self.dimension):
            if self._times_basis(table[i][j], k) != self._times_basis(table[j][k], i):
                raise InternalContradiction(f"multiplication not associative at ({i}, {j}, {k})")

    def _check_border(self):
        """Each step column x_k * e_i' is e_i, and the multiplication matrices M_k commute."""
        K, m = self.field, self.dimension
        columns, steps = self.border
        n, one = len(columns), K.one()
        if (any(len(column) != m for column in columns) or len(steps) != m or steps[0] is not None
                or any(not 0 <= r < m for column in columns for col in column for r, _ in col)):
            raise DimensionMismatch("border columns or steps do not fit the dimension")
        for i, (k, prev) in enumerate(steps[1:], 1):
            if not (0 <= k < n and 0 <= prev < i):
                raise DimensionMismatch(f"border step {i} does not come from an earlier element")
            if columns[k][prev] != ((i, one),):
                raise InternalContradiction(f"border step {i}: x_{k} * e_{prev} is not e_{i}")
        for j in range(n):
            for k in range(j + 1, n):
                for l in range(m):
                    if self._border_times(j, columns[k][l]) != self._border_times(k, columns[j][l]):
                        raise InternalContradiction(
                            f"multiplication matrices of x_{j} and x_{k} do not commute "
                            f"on basis element {l}")

    def _table_from_border(self):
        """The table along the steps, in basis order, once _check_border has passed.

        Row 0 is the identity.  Along a step e_i = x_k * e_i', entry (i, j) for
        j >= i is entry (i', l), the same vector, when x_k * e_j = e_l, and else
        M_k applied to entry (i', j); entries left of the diagonal are the
        mirrors of earlier rows.
        """
        K, m = self.field, self.dimension
        columns, steps = self.border
        one, pairs = K.one(), {}
        rows = [tuple(_Vector(self.basis_element(j), ((j, one),)) for j in range(m))]
        for i in range(1, m):
            k, prev = steps[i]
            earlier, column = rows[prev], columns[k]
            rows.append(tuple(row[i] for row in rows) + tuple(
                earlier[col[0][0]] if len(col) == 1 and col[0][1] == one
                else _vector(self._border_times(k, earlier[j].support), pairs)
                for j, col in enumerate(column[i:], i)))
        return tuple(rows)

    def _border_times(self, k, support):
        """M_k applied to the vector with this support: its scalars weight the columns x_k * e_l."""
        column = self.border[0][k]
        return _combine(self.field, self.dimension, ((c, column[l]) for l, c in support))

    # -- elements --------------------------------------------------------
    def zero_element(self):
        return (self.field.zero(),) * self.dimension

    def basis_element(self, i: int):
        K = self.field
        return tuple(K.one() if j == i else K.zero() for j in range(self.dimension))

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
        K, table = self.field, self.table
        xs, ys = _support(x), _support(y)
        if len(xs) == len(ys) == 1 and xs[0][1] == ys[0][1] == K.one():
            return table[xs[0][0]][ys[0][0]]  # e_i * e_j: the table's own vector
        return _combine(K, self.dimension, ((a * b, table[i][j].support)
                                            for i, a in xs for j, b in ys))

    def _times_basis(self, x, k):
        """x * e_k: row k of the (commutative) table weighted by x."""
        row = self.table[k]
        return _combine(self.field, self.dimension,
                        ((a, row[i].support) for i, a in _support(x)))

    def power(self, x, n: int):
        """x^n by repeated squaring, starting from x itself: no product with the unit."""
        if n == 0:
            return self.unit
        while not n & 1:
            x, n = self.mul(x, x), n >> 1
        result = x
        while n > 1:
            x, n = self.mul(x, x), n >> 1
            if n & 1:
                result = self.mul(result, x)
        return result

    def is_zero_element(self, x) -> bool:
        K = self.field
        return all(K.is_zero(a) for a in x)

    # -- trace form --------------------------------------------------------
    def mul_operator(self, a):
        """Matrix of b -> a*b in the basis; entry (i, j) is (a*e_j)_i."""
        self._check_element(a)
        a = _vector(a)  # its support, once for all the columns
        cols = [self._times_basis(a, j) for j in range(self.dimension)]
        return [[cols[j][i] for j in range(self.dimension)] for i in range(self.dimension)]

    def trace(self, a):
        """Trace of b -> a*b: the sum of a_k * Tr(e_k), with the Tr(e_k) read off the table."""
        self._check_element(a)
        K = self.field
        return reduce(K.add, map(K.mul, a, self._basis_traces()), K.zero())

    def gram_matrix(self):
        """Trace-form Gram table G[i][j] = Tr(e_i * e_j), the trace of table[i][j].

        Tr(v), the sum of v_k * Tr(e_k) over the support of v, is taken once
        per distinct table vector, keyed by id as in ``_shared_vectors``.
        """
        K, traces, seen = self.field, self._basis_traces(), {}
        for v in (v for row in self.table for v in row):
            if id(v) not in seen:
                seen[id(v)] = reduce(K.add, (K.mul(a, traces[k]) for k, a in v.support), K.zero())
        return [[seen[id(v)] for v in row] for row in self.table]

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

        Found as the first linear dependence among 1, a, a^2, ... by one
        echelon form over the powers, extended power by power (Krylov;
        Keller-Gehrig 1985).  Each power is reduced by the rows before it,
        carrying its combination of 1, a, ..., a^k; a nonzero remainder
        becomes a row pivoted at its first nonzero coordinate, and the first
        power that reduces to zero (a^m at the latest) gives the polynomial,
        monic in that power.
        """
        self._check_element(a)
        K = self.field
        rows, pivots = {}, []  # pivot -> (row scaled to 1 at the pivot, its combination)
        power = self.unit
        for k in count():
            vec, comb = power, (K.zero(),) * k + (K.one(),)
            for p in pivots:  # a row reaches only past its pivot, so one ascending pass
                c = vec[p]
                if not K.is_zero(c):
                    row, row_comb = rows[p]  # row_comb is the shorter: an earlier power
                    vec = tuple(K.sub(x, K.mul(c, y)) for x, y in zip(vec, row))
                    comb = (tuple(K.sub(x, K.mul(c, y)) for x, y in zip(comb, row_comb))
                            + comb[len(row_comb):])
            p = next((i for i, c in enumerate(vec) if not K.is_zero(c)), None)
            if p is None:
                return UniPoly(K, comb)
            if vec[p] != K.one():
                inv = K.invert(vec[p])
                vec, comb = tuple(K.mul(inv, c) for c in vec), tuple(K.mul(inv, c) for c in comb)
            rows[p] = (vec, comb)
            insort(pivots, p)
            power = self.mul(power, a)

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
        g = self.minimal_polynomial(a)
        k = 0
        while K.is_zero(g.coeff(k)):
            k += 1
        h = UniPoly(K, g.coeffs[k:])
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
        if self.mul(e, e) != e:
            raise InternalContradiction("idempotent_of: e * e != e")
        if self.mul(a, e) != a:
            raise InternalContradiction("idempotent_of: a * e != a")
        if self.mul(a, w) != e:
            raise InternalContradiction("idempotent_of: the witness w has a * w != e")
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
        if self.mul(a, b) != self.unit:
            raise InternalContradiction("inverse_in_subalgebra: a * b != 1")
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
    Basis vectors of each factor are stored in the coordinates of A, with
    their supports, so embedding is a linear combination over those supports
    and projection is multiplication by the factor unit followed by
    coordinate extraction.
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
        return _embed(self.parent.field, self.first_basis, v)

    def embed_second(self, v):
        return _embed(self.parent.field, self.second_basis, v)

    def project_first(self, w):
        return _project(self.parent, self.first_basis, self.first_pivots,
                        self.first_unit_in_parent, w)

    def project_second(self, w):
        return _project(self.parent, self.second_basis, self.second_pivots,
                        self.second_unit_in_parent, w)


def _embed(K, basis_vectors, v):
    """The combination of basis vectors (_Vectors of one length) with coordinates v."""
    return _combine(K, len(basis_vectors[0]),
                    ((c, basis_vectors[i].support) for i, c in _support(v)))


def _coordinates(K, basis_vectors, pivots, w):
    """w on an echelon basis, read at its pivots; None unless w embeds back (w is in the span)."""
    coords = tuple(w[p] for p in pivots)
    return coords if _embed(K, basis_vectors, coords) == w else None


def _project(parent, basis_vectors, pivots, unit_vec, w):
    coords = _coordinates(parent.field, basis_vectors, pivots, parent.mul(unit_vec, w))
    if coords is None:
        raise InternalContradiction("projection onto a split factor does not embed back")
    return coords


class _IdealFactor(FiniteAlgebra):
    """A split factor u*A whose basis ``_ideal_subalgebra`` found closed under A's product.

    Its table is A's product restricted to that subspace, so the unit law,
    checked on construction, and A's own check make it commutative and
    associative: no triple is sampled.
    """

    __slots__ = ()

    def _check_associativity(self):
        pass


def _ideal_subalgebra(A, unit_vec, labels_prefix):
    """The ideal u*A as an algebra with unit u, on an echelonized basis closed under A's product."""
    K = A.field
    unit = _vector(unit_vec)
    images = [A._times_basis(unit, i) for i in range(A.dimension)]
    reduced, pivots = linalg.rref(images, K)
    basis = [_vector(row) for row in reduced[: len(pivots)]]
    dim = len(basis)

    def project(w):
        return tuple(w[p] for p in pivots)

    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            vec = _coordinates(K, basis, pivots, A.mul(basis[i], basis[j]))
            if vec is None:
                raise InternalContradiction(
                    f"split basis not closed: b_{i} * b_{j} leaves the ideal")
            table[i][j] = vec
            table[j][i] = vec
    refs = {name: project(A.mul(unit_vec, vec)) for name, vec in A.generator_refs.items()}
    labels = [f"{labels_prefix}{k + 1}" for k in range(dim)]
    sub = _IdealFactor(K, labels, table, project(unit_vec), generator_refs=refs)
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
        raise InternalContradiction("split dimensions do not add up")
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


def _padded(table, before, after):
    """Each distinct vector of a table, by id, padded once, so equal products stay shared."""
    distinct = {id(v): v for row in table for v in row}
    return {key: before + v + after for key, v in distinct.items()}


def product(A1: FiniteAlgebra, A2: FiniteAlgebra) -> FiniteAlgebra:
    """Block-diagonal product algebra A1 x A2."""
    if A1.field != A2.field:
        raise FieldMismatch("factors live over different fields")
    K = A1.field
    m1, m2 = A1.dimension, A2.dimension
    zeros1, zeros2 = (K.zero(),) * m1, (K.zero(),) * m2
    zero = zeros1 + zeros2
    first, second = _padded(A1.table, (), zeros2), _padded(A2.table, zeros1, ())
    table = ([[first[id(v)] for v in row] + [zero] * m2 for row in A1.table]
             + [[zero] * m1 + [second[id(v)] for v in row] for row in A2.table])
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
    vectors = [coords(power) for power in powers]
    table = [vectors[i:i + m] for i in range(m)]
    labels = ["1"] + [name if k == 1 else f"{name}^{k}" for k in range(1, m)]
    unit = coords(UniPoly.one(K))
    gen = coords(powers[1] if m >= 2 else (X % f))
    return FiniteAlgebra(K, labels, table, unit, generator_refs={name: gen})
