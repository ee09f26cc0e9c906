"""Strictly finite algebras as structure-constant tables.

A FiniteAlgebra is a commutative, associative, unital algebra of finite
dimension m over a discrete field, stored as the table of coordinate vectors
e_i * e_j on a labelled basis.  Elements are plain coordinate tuples of
field elements; the algebra object carries the operations.  Each distinct
vector of a table gets its support, the (index, scalar) pairs of its nonzero
coordinates, once, when it is built.  ``_combine``, the module's one
accumulation loop behind sums, scalar multiples, products, Horner steps and
Krylov rows, walks supports, so it skips zero coordinates.  It accumulates
with native + and * and reduces each output coordinate once, at the end, by
the field's ``reduce_all``, so its results are elements like any other.
Traces are native sums, reduced once.  Equal products share one vector, so
the trace-form Gram matrix takes one trace per distinct vector.

An algebra comes from one of three inputs, reduced once as they enter (an
unreduced GF(p) integer stands for its residue), each with its own
construction check, whose failures raise InternalContradiction:

* A table and a unit that a caller hands in.  The check covers the unit law,
  commutativity and, by the commuting loop of the border check below with
  the rows as the operators of all m basis elements, e_j * (e_k * e_l) =
  e_k * (e_j * e_l): on a commutative table that is associativity, as
  (e_i * e_j) * e_k = e_k * (e_i * e_j) = e_i * (e_k * e_j).  The sweep costs
  up to m^5 field operations (m = 40: 0.3 s on a sparse GF(7) table, 1.2 s
  on a dense one, CPython 3.11), so ``product``, whose block-diagonal table
  of two checked algebras is associative, skips it as a ``_DerivedAlgebra``.
* A split factor u*A (``split_by_idempotent``), an ``_IdealFactor`` that
  keeps its echelon basis in its parent's coordinates and its pivots:
  ``embed`` writes its elements in the parent, and ``coordinates`` the
  parent's on its basis, None outside u*A.  Its table comes through that
  checked map, so every product b_i * b_j of the basis embeds back and the
  table is the parent's product restricted to a subspace closed under it;
  with the unit law and the parent's own check this proves it commutative
  and associative, and as a ``_DerivedAlgebra`` it skips the sweep.  The
  split forms each e * e_i once, for the spans of both factors, and each
  table entry is read at the pivots once, as a _Vector whose support the
  embed-back check reuses; the table enters as it is built.
* A ``border`` (``groebner.quotient_algebra``, and ``monogenic_from_poly``,
  which hands K[X]/<f> the one-variable border of <f>): columns[k][l] holds
  x_k * e_l as (index, scalar) pairs, the columns of the multiplication
  matrix M_k, and steps[i] = (k, i') says e_i = x_k * e_i' with i' < i (steps[0] is
  None).  The check is complete: every step column x_k * e_i' must be e_i,
  and the M_k must commute (Mourrain, ISSAC 1999; Kehrein, Kreuzer &
  Robbiano 2005).  Then e_i = B_i * e_0 for the product B_i of the M_k along
  the steps, and since every M in K[M_1, ..., M_n] commutes with the B_i,
  M * e_0 = 0 forces M * e_i = 0 for all i: M -> M * e_0 is an isomorphism
  from K[M_1, ..., M_n] onto K^m with B_i -> e_i.  The table is derived from
  the steps, e_i * e_j = B_i' * (M_k * e_j), so it is the multiplication of
  that matrix algebra: commutative, associative and unital by construction,
  with nothing more to check.

Minimal polynomials come from one echelon form over the powers 1, a, a^2,
..., extended power by power (Krylov), whose row updates go through
``_combine`` as well.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement
from operator import mul

from . import fields, linalg
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
from .unipoly import UniPoly


class _Vector(tuple):
    """A table vector: its coordinates, and ``support``, the (index, scalar) pairs of the nonzero ones."""

    def __new__(cls, coords, support):
        vector = super().__new__(cls, coords)
        vector.support = support
        return vector


def _support(x):
    """The nonzero coordinates of x as (index, scalar) pairs; a _Vector carries its own."""
    if type(x) is _Vector:
        return x.support
    return tuple([(k, a) for k, a in enumerate(x) if a])


def _reduced(K, support):
    """The (index, scalar) pairs of support, each scalar reduced, the zero ones dropped."""
    return tuple([(k, a) for (k, _), a in zip(support, K.reduce_all([a for _, a in support])) if a])


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
    return K.reduce_all(out)


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
        self.generator_refs = {k: field.reduce_all(v) for k, v in dict(generator_refs or {}).items()}
        self._check_element(*self.generator_refs.values())
        if border is None:
            self.border = None
            self.table = self._shared_vectors(table)
            self.unit = field.reduce_all(unit)
            self._check_table()
        else:
            columns, steps = border
            self.border = (tuple(tuple(_reduced(field, col) for col in column)
                                 for column in columns), tuple(steps))
            self._check_border()
            self.table = self._table_from_border()
            self.unit = self.basis_element(0)

    def _shared_vectors(self, table):
        """The table with one _Vector per distinct entry object, so equal references stay shared."""
        m = self.dimension
        rows = [list(row) for row in table]  # holds every entry, so no id is reused below
        if len(rows) != m or any(len(row) != m for row in rows):
            raise DimensionMismatch("structure-constant table is not m x m")
        K, vectors, pairs = self.field, {}, {}
        for v in (v for row in rows for v in row):
            if id(v) not in vectors:
                self._check_element(v)
                vectors[id(v)] = _vector(K.reduce_all(v), pairs)
        return tuple(tuple(vectors[id(v)] for v in row) for row in rows)

    def _check_table(self):
        m, table = self.dimension, self.table
        self._check_element(self.unit)
        for i, j in combinations(range(m), 2):
            if table[i][j] != table[j][i]:
                raise InternalContradiction(f"multiplication not commutative at ({i}, {j})")
        unit = _vector(self.unit)
        for i in range(m):
            if self._times_basis(unit, i) != self.basis_element(i):
                raise InternalContradiction(f"unit law fails on basis element {i}")
        self._check_associativity()

    def _check_associativity(self):
        """The rows of the table, the operators of e_0, ..., e_(m-1), commute."""
        self._check_commuting(self.table, self._times_basis,
                              "multiplication not associative: e_{0} * (e_{1} * e_{2}) "
                              "is not e_{1} * (e_{0} * e_{2})")

    def _check_commuting(self, operators, times, failure):
        """Each x_j * (x_k * e_l) is x_k * (x_j * e_l), j < k, else failure.format(j, k, l).

        operators[k][l] is x_k * e_l, and times(v, k) is x_k * v.
        """
        for j, k in combinations(range(len(operators)), 2):
            for l in range(self.dimension):
                if times(operators[k][l], j) != times(operators[j][l], k):
                    raise InternalContradiction(failure.format(j, k, l))

    def _check_border(self):
        """Each step column x_k * e_i' is e_i, and the multiplication matrices M_k commute."""
        columns, steps = self.border
        m, n, one = self.dimension, len(columns), self.field.one()
        if (any(len(column) != m for column in columns) or len(steps) != m or steps[0] is not None
                or any(not 0 <= r < m for column in columns for col in column for r, _ in col)):
            raise DimensionMismatch("border columns or steps do not fit the dimension")
        for i, (k, prev) in enumerate(steps[1:], 1):
            if not (0 <= k < n and 0 <= prev < i):
                raise DimensionMismatch(f"border step {i} does not come from an earlier element")
            if columns[k][prev] != ((i, one),):
                raise InternalContradiction(f"border step {i}: x_{k} * e_{prev} is not e_{i}")
        self._check_commuting(columns, self._border_times,
                              "multiplication matrices of x_{0} and x_{1} do not commute "
                              "on basis element {2}")

    def _table_from_border(self):
        """The table along the steps, in basis order, once _check_border has passed.

        Row 0 is the identity.  Along a step e_i = x_k * e_i', entry (i, j) for
        j >= i is entry (i', l), the same vector, when x_k * e_j = e_l, and else
        M_k applied to entry (i', j); entries left of the diagonal are the
        mirrors of earlier rows.
        """
        columns, steps = self.border
        m, one, pairs = self.dimension, self.field.one(), {}
        rows = [tuple(_Vector(self.basis_element(j), ((j, one),)) for j in range(m))]
        for i in range(1, m):
            k, prev = steps[i]
            earlier, column = rows[prev], columns[k]
            rows.append(tuple(row[i] for row in rows) + tuple(
                earlier[col[0][0]] if len(col) == 1 and col[0][1] == one
                else _vector(self._border_times(earlier[j].support, k), pairs)
                for j, col in enumerate(column[i:], i)))
        return tuple(rows)

    def _border_times(self, support, k):
        """M_k applied to the vector with this support: its scalars weight the columns x_k * e_l."""
        column = self.border[0][k]
        return _combine(self.field, self.dimension, ((c, column[l]) for l, c in support))

    # -- elements --------------------------------------------------------
    def zero_element(self):
        return (self.field.zero(),) * self.dimension

    def basis_element(self, i: int):
        K = self.field
        return tuple(K.one() if j == i else K.zero() for j in range(self.dimension))

    def _check_element(self, *xs):
        for x in xs:
            if len(x) != self.dimension:
                raise DimensionMismatch(f"expected {self.dimension} coordinates, got {len(x)}")

    def add(self, x, y):
        self._check_element(x, y)
        K = self.field
        return _combine(K, self.dimension, ((K.one(), _support(x)), (K.one(), _support(y))))

    def sub(self, x, y):
        self._check_element(x, y)
        K = self.field
        return _combine(K, self.dimension, ((K.one(), _support(x)), (-K.one(), _support(y))))

    def scalar_mul(self, c, x):
        self._check_element(x)
        return _combine(self.field, self.dimension, ((c, _support(x)),))

    def mul(self, x, y):
        self._check_element(x, y)
        xs, ys = _support(x), _support(y)
        if len(xs) == len(ys) == 1 and xs[0][1] == ys[0][1] == self.field.one():
            return self.table[xs[0][0]][ys[0][0]]  # e_i * e_j: the table's own vector
        return self._product(xs, ys)

    def _product(self, xs, ys, extra=()):
        """x * y from supports xs and ys, plus the (scalar, support) pairs of extra: one pass."""
        table = self.table
        return _combine(self.field, self.dimension, chain(
            ((a * b, table[i][j].support) for i, a in xs for j, b in ys), extra))

    def _times_basis(self, x, k):
        """x * e_k: row k of the (commutative) table weighted by x."""
        row = self.table[k]
        return _combine(self.field, self.dimension,
                        ((a, row[i].support) for i, a in _support(x)))

    def power(self, x, n: int):
        """x^n by ``fields.power``: no product with the unit."""
        return fields.power(x, n, self.mul, self.unit)

    def is_zero_element(self, x) -> bool:
        self._check_element(x)
        return not any(x)

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
        return K.reduce(sum(map(mul, a, self._basis_traces()), K.zero()))

    def gram_matrix(self):
        """Trace-form Gram table G[i][j] = Tr(e_i * e_j), the trace of table[i][j].

        Tr(v), the sum of v_k * Tr(e_k) over the support of v, is taken once
        per distinct table vector, keyed by id as in ``_shared_vectors``.
        """
        K, traces, seen = self.field, self._basis_traces(), {}
        for v in (v for row in self.table for v in row):
            if id(v) not in seen:
                seen[id(v)] = K.reduce(sum((a * traces[k] for k, a in v.support), K.zero()))
        return [[seen[id(v)] for v in row] for row in self.table]

    def _basis_traces(self):
        """Tr(e_k) for every k: the sum over j of (e_k * e_j)_j, so no product is formed."""
        K = self.field
        return [K.reduce(sum((v[j] for j, v in enumerate(row)), K.zero())) for row in self.table]

    def discriminant(self):
        """Determinant of the trace-form Gram matrix; nonzero iff etale, over Q and GF(p) iff reduced."""
        return linalg.det(self.gram_matrix(), self.field)

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
        K, m, one = self.field, self.dimension, self.field.one()
        rows, pivots = {}, []  # pivot -> (row, support of its combination, 1 / pivot coordinate)
        a, power = _vector(a), _vector(self.unit)  # supports once, for the products and rows
        for k in range(m + 1):
            multiples = []  # (c, row, its combination): power - sum c * row is 0 at every pivot
            for q in pivots:  # a row reaches only past its pivot, so earlier rows fix c
                c = power[q]
                for c_p, row, _ in multiples:
                    c -= c_p * row[q]
                row, row_comb, inv = rows[q]
                c = K.reduce(c * inv)
                if c:
                    multiples.append((c, row, row_comb))
            if multiples:
                vec = _vector(_combine(K, m, [(one, power.support)]
                                       + [(-c, row.support) for c, row, _ in multiples]))
                comb = _combine(K, k + 1, [(one, ((k, one),))]
                                + [(-c, row_comb) for c, _, row_comb in multiples])
            else:
                vec, comb = power, (K.zero(),) * k + (one,)
            if not vec.support:
                return UniPoly(K, comb)
            p, lead = vec.support[0]
            rows[p] = (vec, _support(comb), K.invert(lead))
            insort(pivots, p)
            power = _vector(self.mul(power, a))
        raise InternalContradiction(f"minimal_polynomial: 1, a, ..., a^{m} are independent")

    def idempotent_of(self, a, return_witness=False):
        """The unique idempotent e in K[a] with <a> = <e>: 1 - h(a)/h(0) by ``_idempotent`` at c = 0.

        Defined when the minimal polynomial g of a has at most a simple root
        at 0.  A repeated zero root means a generates a non-reduced
        situation; RepeatedZeroRoot then carries the nilpotent witness
        (g/T)(a) = a^(k-1) * h(a) for g = T^k * h.
        """
        self._check_element(a)
        K = self.field
        g = self.minimal_polynomial(a)
        if not g.coeff(0) and not g.coeff(1):
            raise RepeatedZeroRoot(f"minimal polynomial {g.format()} is divisible by T^2",
                                   witness=eval_in_algebra(UniPoly(K, g.coeffs[1:]), a, self))
        e, h = self._idempotent(a, g, K.zero())
        # q = (h - h(0)) / T, so that e = a * (-q(a)/h(0)) witnesses e in <a>.
        w = self.scalar_mul(-K.invert(h.coeff(0)),
                            eval_in_algebra(UniPoly(K, h.coeffs[1:]), a, self))
        if self.mul(e, e) != e:
            raise InternalContradiction("idempotent_of: e * e != e")
        if self.mul(a, e) != a:
            raise InternalContradiction("idempotent_of: a * e != a")
        if self.mul(a, w) != e:
            raise InternalContradiction("idempotent_of: the witness w has a * w != e")
        if return_witness:
            return e, w
        return e

    def _idempotent(self, a, g, c):
        """(e, h) with e = 1 - h(a)/h(c), for h = g/(T - c), or h = g when c is no root of g.

        For g the minimal polynomial of a and c at most a simple root of g, e
        is idempotent_of(a - c), as a - c has minimal polynomial g(T + c).
        """
        K = self.field
        h = g if g(c) else g // UniPoly(K, [K.reduce(-c), K.one()])
        return self.sub(self.unit, self.scalar_mul(K.invert(h(c)), eval_in_algebra(h, a, self))), h

    def inverse_in_subalgebra(self, a):
        """a^(-1) inside K[a]: for invertible a, idempotent_of(a) is 1 and its witness is a^(-1)."""
        try:
            e, w = self.idempotent_of(a, return_witness=True)
        except RepeatedZeroRoot as exc:
            raise NotInvertible("minimal polynomial has zero constant term") from exc
        if e != self.unit:
            raise NotInvertible("minimal polynomial has zero constant term")
        return w

    # -- display -----------------------------------------------------------
    def format_table(self):
        """Structure constants as printable lines e_i * e_j = ..., for i <= j."""
        labels = self.basis_labels
        return [f"{labels[i]} * {labels[j]} = {self.format_element(self.table[i][j])}"
                for i, j in combinations_with_replacement(range(self.dimension), 2)]

    def format_element(self, x) -> str:
        self._check_element(x)
        return self.field.format_sum(zip(x, self.basis_labels))

    def __repr__(self):
        return f"FiniteAlgebra(dim={self.dimension} over {self.field!r})"


def eval_in_algebra(f: UniPoly, a, algebra: FiniteAlgebra):
    """Horner evaluation of f at a; each step acc * a + c is one pass, c at the unit's support."""
    if f.field != algebra.field:
        raise FieldMismatch("polynomial and algebra live over different fields")
    algebra._check_element(a)
    a, unit = _support(a), _support(algebra.unit)
    acc = algebra.zero_element()
    for c in reversed(f.coeffs):
        acc = algebra._product(_support(acc), a, ((c, unit),))
    return acc


# --------------------------------------------------------------- constructions

@dataclass(frozen=True)
class AlgebraSplit:
    """A ~ first x second along an idempotent e: the _IdealFactors (1-e)*A and e*A."""

    first: FiniteAlgebra
    second: FiniteAlgebra


class _DerivedAlgebra(FiniteAlgebra):
    """An algebra whose table is built from checked ones (``product``, ``_IdealFactor``): no sweep."""

    __slots__ = ()

    def _check_associativity(self):
        pass


class _IdealFactor(_DerivedAlgebra):
    """The split factor u*A of an algebra A, with unit u, on an echelon basis in A's coordinates.

    ``basis`` holds that basis as _Vectors and ``pivots`` the pivot of each;
    the table, the generators u*g and the unit come through ``coordinates``.
    Each table entry is read at the pivots once, as a _Vector whose support
    the embed-back check reuses, and the table enters the base constructor as
    it is built (``_shared_vectors``).
    """

    __slots__ = ("basis", "pivots")

    def __init__(self, A, unit, rows, labels_prefix):
        """u*A from ``rows``, the products u * e_i for every basis element e_i of A."""
        K = self.field = A.field  # before the base constructor: ``coordinates`` reads it
        reduced, pivots = linalg.rref(rows, K)
        basis = self.basis = tuple(_vector(row) for row in reduced[: len(pivots)])
        self.pivots = tuple(pivots)
        pairs = {}  # one for the whole table, as ``FiniteAlgebra._shared_vectors`` keeps

        def inside(w, what):
            coords = self.coordinates(w, pairs)
            if coords is None:
                raise InternalContradiction(f"{what} leaves the ideal")
            return coords

        dim = len(basis)
        table = [[None] * dim for _ in range(dim)]
        for i, j in combinations_with_replacement(range(dim), 2):
            table[i][j] = table[j][i] = inside(A.mul(basis[i], basis[j]),
                                                f"split basis not closed: b_{i} * b_{j}")
        refs = {name: inside(A.mul(unit, vec), f"u * {name}")
                for name, vec in A.generator_refs.items()}
        super().__init__(K, [f"{labels_prefix}{k + 1}" for k in range(dim)], table,
                         inside(unit, "the unit u"), generator_refs=refs)

    def _shared_vectors(self, table):
        """The table as ``__init__`` built it: d x d, its entries reduced, shared _Vectors."""
        return tuple(map(tuple, table))

    def embed(self, v):
        """The factor element v in the parent's coordinates: one combination of the basis."""
        basis = self.basis
        return _combine(self.field, len(basis[0]), ((c, basis[i].support) for i, c in _support(v)))

    def coordinates(self, w, pairs=None):
        """The reduced parent element w on the basis as a _Vector, read at the pivots once;
        None unless it embeds back.  ``pairs`` shares its support's pairs as in ``_vector``."""
        coords = _vector(tuple(w[p] for p in self.pivots), pairs)
        return coords if self.embed(coords) == w else None


def split_by_idempotent(e, A: FiniteAlgebra) -> AlgebraSplit:
    """Split A as (1-e)*A x e*A along an idempotent e distinct from 0 and 1.

    Each e*e_i is formed once: the e*e_i span e*A, and the e_i - e*e_i span (1-e)*A.
    """
    A._check_element(e)
    if A.mul(e, e) != e:
        raise NotIdempotent("e^2 != e")
    if A.is_zero_element(e) or e == A.unit:
        raise TrivialIdempotent("e must differ from 0 and 1")
    K, e = A.field, _vector(e)
    one, zero = K.one(), K.zero()
    second = [A._times_basis(e, i) for i in range(A.dimension)]
    first = [K.reduce_all([(one if k == i else zero) - a for k, a in enumerate(row)])
             for i, row in enumerate(second)]
    split = AlgebraSplit(_IdealFactor(A, A.sub(A.unit, e), first, "u"),
                         _IdealFactor(A, e, second, "v"))
    if split.first.dimension + split.second.dimension != A.dimension:
        raise InternalContradiction("split dimensions do not add up")
    return split


def _frobenius_images(A: FiniteAlgebra):
    """F(e_i) = e_i^p for every basis element, as _Vectors: the p-power map F, one linear map.

    F is a ring map, so on a quotient it goes along the border steps,
    F(e_i) = F(x_k) * F(e_i') for e_i = x_k * e_i': n powerings and m - 1
    products.  An algebra without a border raises each basis element to the
    p-th power.
    """
    K, m, p = A.field, A.dimension, A.field.modulus
    if A.border is None:
        images = [A.power(A.basis_element(i), p) for i in range(m)]
    else:
        columns, steps = A.border
        xs = [A.power(_combine(K, m, [(K.one(), column[0])]), p)
              for column in columns]  # x_k = x_k * e_0
        images = [A.unit]
        for k, prev in steps[1:]:
            images.append(A.mul(xs[k], images[prev]))
    return [_vector(image) for image in images]


def _restricted_images(factor: _IdealFactor, images):
    """F on a split factor u*A from ``images``, F on A: F(b) for each basis vector b, on the factor's basis.

    F(u*a) = u^p * F(a) = u * F(a), so each F(b) lies in u*A; one outside it
    raises InternalContradiction.  The result is the map that powering the
    factor's own basis would give, in the same basis.
    """
    K, m = factor.field, len(images)
    restricted = []
    for b in factor.basis:
        coords = factor.coordinates(_combine(K, m, ((c, images[i].support) for i, c in b.support)))
        if coords is None:
            raise InternalContradiction("a Frobenius image leaves its split factor")
        restricted.append(coords)
    return restricted


def _padded(table, before, after):
    """Each distinct vector of a table, by id, padded once, so equal products stay shared."""
    distinct = {id(v): v for row in table for v in row}
    return {key: before + v + after for key, v in distinct.items()}


def product(A1: FiniteAlgebra, A2: FiniteAlgebra) -> FiniteAlgebra:
    """Block-diagonal product algebra A1 x A2, a _DerivedAlgebra."""
    if A1.field != A2.field:
        raise FieldMismatch("factors live over different fields")
    K, m1, m2 = A1.field, A1.dimension, A2.dimension
    zeros1, zeros2 = (K.zero(),) * m1, (K.zero(),) * m2
    zero = zeros1 + zeros2
    first, second = _padded(A1.table, (), zeros2), _padded(A2.table, zeros1, ())
    table = ([[first[id(v)] for v in row] + [zero] * m2 for row in A1.table]
             + [[zero] * m1 + [second[id(v)] for v in row] for row in A2.table])
    unit = tuple(A1.unit) + tuple(A2.unit)
    labels = [f"{l}@1" for l in A1.basis_labels] + [f"{l}@2" for l in A2.basis_labels]
    return _DerivedAlgebra(K, labels, table, unit)


def monogenic_from_poly(f: UniPoly, name: str = "x") -> FiniteAlgebra:
    """K[X]/<f> on the power basis 1, x, ..., x^(m-1), from the border of <f> as a quotient.

    x * x^l = x^(l+1) for l < m - 1, x * x^(m-1) = -f_0 - ... - f_(m-1) x^(m-1), x^i = x * x^(i-1).
    """
    if f.is_zero or f.degree == 0:
        raise ZeroOperand("monogenic_from_poly needs degree >= 1")
    if not f.is_monic:
        raise NotMonic("monogenic_from_poly needs a monic polynomial")
    K, m = f.field, f.degree
    top = tuple((i, K.reduce(-c)) for i, c in reversed(tuple(enumerate(f.coeffs[:m]))) if c)
    column = [((l + 1, K.one()),) for l in range(m - 1)] + [top]
    labels = ["1"] + [name if k == 1 else f"{name}^{k}" for k in range(1, m)]
    gen = _combine(K, m, [(K.one(), column[0])])  # x = x * 1
    return FiniteAlgebra(K, labels, generator_refs={name: gen},
                         border=([column], [None] + [(0, i - 1) for i in range(1, m)]))
