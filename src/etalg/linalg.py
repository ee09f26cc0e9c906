"""Exact linear algebra over a FieldContext: one incremental echelon behind every elimination.

``Echelon.reduce`` subtracts the rows, in pivot order, from one dense
accumulator, reading each multiplier at its row's pivot and walking the
row's nonzero coordinates, and reduces the accumulator once: forward
elimination's arithmetic.  A tracking echelon carries each residual's
combination of the vectors offered, so a zero residual is a linear relation.
Vectors enter reduced; ``rank``, ``det``, ``rref`` and ``solve`` reduce their
rows once, so unreduced integers may stand for GF(p) elements.  Echelon forms,
ranks and determinants are unique, so every answer is exact and deterministic.
"""

from __future__ import annotations

from bisect import bisect
from math import prod

from .errors import DimensionMismatch


class Echelon:
    """The echelon form over K of ``vectors`` of length ``width``, extended one vector at a time.

    ``rows`` holds (pivot, support, 1 / lead, row, combination) in pivot order;
    the support is the row's nonzero (index, scalar) pairs, the lead first, and
    the combination, empty unless ``track``, its weights on the vectors offered.
    ``inversions`` counts the pairs of rows whose pivots came in decreasing order.
    """

    __slots__ = ("field", "width", "track", "rows", "offered", "inversions")

    def __init__(self, K, width, vectors=(), track=False):
        self.field, self.width, self.track = K, width, track
        self.rows, self.offered, self.inversions = [], 0, 0
        for v in vectors:
            self.insert(v)

    def reduce(self, v):
        """(residual, combination) of the reduced vector v; the combination, empty unless
        tracked, weighs the vectors offered so far and then v."""
        if len(v) != self.width:
            raise DimensionMismatch(f"matrix rows differ in length: {len(v)} in width {self.width}")
        K = self.field
        return self._eliminate(v, [K.zero()] * self.offered + [K.one()] if self.track else [],
                               self.rows)

    def insert(self, v):
        """``reduce`` v, keep a nonzero residual as a row, and count v as offered."""
        residual, combination = self.reduce(v)
        self.offered += 1
        support = tuple([(k, a) for k, a in enumerate(residual) if a])
        if support:
            q, lead = support[0]
            at = bisect(self.rows, (q,))
            self.rows.insert(at, (q, support, self.field.invert(lead), residual, combination))
            self.inversions += len(self.rows) - 1 - at
        return residual, combination

    def reduced_rows(self):
        """The rows of the reduced row echelon form in pivot order, with their combinations:
        lazily, each scaled to lead 1 and cleared at the later pivots by the rows after it."""
        zero = self.field.zero()
        for i, (_, _, inv, row, combination) in enumerate(self.rows):
            if self.track:
                padding = [zero] * (self.offered - len(combination))
                combination = [inv * b for b in combination] + padding
            yield self._eliminate([inv * a for a in row], combination, self.rows[i + 1:])

    def _eliminate(self, v, combination, rows):
        """v less the multiple of each of rows, in pivot order, that clears its pivot, reduced;
        the combination, a list, less the rows' combinations alike."""
        K, acc = self.field, list(v)
        for q, support, inv, _, row_combination in rows:
            c = acc[q] and K.reduce(acc[q] * inv)
            if c:
                for k, a in support:
                    acc[k] -= c * a
                for j, b in enumerate(row_combination):
                    combination[j] -= c * b
        return K.reduce_all(acc), K.reduce_all(combination)


def _echelon(rows, K):
    """An Echelon of the matrix's rows, each reduced once as it enters."""
    return Echelon(K, len(rows[0]) if rows else 0, (K.reduce_all(row) for row in rows))


def rref(rows, K):
    """Reduced row echelon form.  Returns (rows, pivot_columns); the zero rows come last."""
    echelon = _echelon(rows, K)
    reduced = [list(row) for row, _ in echelon.reduced_rows()]
    zeros = [[K.zero()] * echelon.width for _ in range(len(rows) - len(reduced))]
    return reduced + zeros, [q for q, *_ in echelon.rows]


def rank(rows, K) -> int:
    return len(_echelon(rows, K).rows)


def det(rows, K):
    """Determinant of a square matrix, 1 for the 0x0 one: the product of the leads, negated
    when the pivots, in the order the rows entered, form an odd permutation."""
    if any(len(row) != len(rows) for row in rows):
        raise DimensionMismatch(f"det of a matrix that is not square ({len(rows)} rows)")
    echelon = _echelon(rows, K)
    if len(echelon.rows) < len(rows):
        return K.zero()
    d = prod((support[0][1] for _, support, *_ in echelon.rows), start=K.one())
    return K.reduce(-d if echelon.inversions % 2 else d)


def solve(rows, rhs, K):
    """One solution of rows * x = rhs (free variables set to 0), or None.

    Read off the reduced row echelon form of [rows | rhs]: a pivot in the last column is 1 = 0.
    """
    if len(rhs) != len(rows):
        raise DimensionMismatch(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    ncols = len(rows[0]) if rows else 0
    echelon = _echelon([list(r) + [b] for r, b in zip(rows, rhs)], K)
    x = [K.zero()] * (ncols + 1)
    for (q, *_), (row, _) in zip(echelon.rows, echelon.reduced_rows()):
        x[q] = row[ncols]
    return None if x[ncols] else x[:ncols]
