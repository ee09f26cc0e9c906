"""Dense exact linear algebra over a FieldContext.

Matrices are lists of row lists.  The elimination reduces its input rows
once, so a caller may pass unreduced integers over GF(p), and a row update
reduces each entry once (``K.reduce_all``).  One forward elimination,
pivoting on the first nonzero entry of each column and counting its row
swaps, is exact and deterministic over Q and GF(p).  ``det`` and ``rank`` read it alone; ``rref`` finishes it
by back-substitution.  Sizes stay at desk scale.
"""

from __future__ import annotations

from math import prod

from .errors import DimensionMismatch


def _echelon(rows, K):
    """Row echelon form by forward elimination.  Returns (rows, pivot_columns, swaps).

    Nothing above a pivot is cleared and no row is scaled, so over Q fewer
    entries grow than in Gauss-Jordan.
    """
    m = [list(K.reduce_all(r)) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots, swaps, r = [], 0, 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            swaps += 1
        top = m[r][col:]
        inv = K.invert(top[0])
        for row in m[r + 1:]:
            if row[col]:
                f = K.reduce(row[col] * inv)
                row[col:] = K.reduce_all([x - f * y for x, y in zip(row[col:], top)])
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return m, pivots, swaps


def rref(rows, K):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    m, pivots, _ = _echelon(rows, K)
    for r in reversed(range(len(pivots))):
        col = pivots[r]
        inv = K.invert(m[r][col])
        m[r][col:] = top = K.reduce_all([inv * x for x in m[r][col:]])
        for row in m[:r]:
            f = row[col]
            if f:
                row[col:] = K.reduce_all([x - f * y for x, y in zip(row[col:], top)])
    return m, pivots


def rank(rows, K) -> int:
    return len(_echelon(rows, K)[1])


def det(rows, K):
    """Determinant of a square matrix; det of the 0x0 matrix is 1."""
    m, pivots, swaps = _echelon(rows, K)
    if len(pivots) < len(m):
        return K.zero()
    d = prod((row[i] for i, row in enumerate(m)), start=K.one())
    return K.reduce(-d if swaps % 2 else d)


def solve(rows, rhs, K):
    """One solution of rows * x = rhs (free variables set to 0), or None."""
    if len(rhs) != len(rows):
        raise DimensionMismatch(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, K)
    if ncols in pivots:
        return None
    x = [K.zero()] * ncols
    for i, col in enumerate(pivots):
        x[col] = red[i][ncols]
    return x


def kernel_basis(rows, K):
    """Deterministic basis of the null space of the matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows, K)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [K.zero()] * ncols
        vec[free] = K.one()
        for i, col in enumerate(pivots):
            vec[col] = K.reduce(-red[i][free])
        basis.append(vec)
    return basis
