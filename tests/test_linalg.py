"""The one elimination behind det, rank and rref, against independent oracles.

det is checked against the permutation expansion of ``util.brute_det``, rank
and rref over Q against sympy, and over GF(p) against the identities they
must satisfy whatever the elimination order.
"""

import random
from fractions import Fraction

import pytest

from etalg.errors import DimensionMismatch
from etalg.fields import GF, QQ
from etalg.linalg import det, kernel_basis, rank, rref, solve
from util import brute_det

F5 = GF(5)
F7 = GF(7)


def random_matrix(rng, K, nrows, ncols):
    """Entries in -3..3 (over Q with denominators up to 3), so zeros and swaps are common."""
    def entry():
        n = rng.randint(-3, 3)
        return Fraction(n, rng.randint(1, 3)) if K == QQ else K.from_int(n)
    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def with_dependent_last_row(rng, K, rows):
    """rows with the last one replaced by a combination of the others (zero when there is one row)."""
    last = [K.zero()] * len(rows[0])
    for row in rows[:-1]:
        c = K.from_int(rng.randint(-2, 2))
        last = [K.reduce(x + c * y) for x, y in zip(last, row)]
    return rows[:-1] + [last]


def random_matrices(rng, K, count, max_size=5):
    """Random shapes, square, wide and tall, every other one with a dependent last row."""
    for k in range(count):
        rows = random_matrix(rng, K, rng.randint(1, max_size), rng.randint(1, max_size))
        yield with_dependent_last_row(rng, K, rows) if k % 2 else rows


def mat_vec(rows, x, K):
    out = []
    for row in rows:
        acc = K.zero()
        for a, b in zip(row, x):
            acc = K.reduce(acc + a * b)
        out.append(acc)
    return out


@pytest.mark.parametrize("K", [QQ, F5], ids=str)
def test_det_matches_the_permutation_expansion(K):
    rng = random.Random(73)
    assert det([], K) == K.one()
    for n in range(1, 6):
        for _ in range(8):
            rows = random_matrix(rng, K, n, n)
            assert det(rows, K) == brute_det(rows, K)
            singular = with_dependent_last_row(rng, K, rows)
            assert det(singular, K) == brute_det(singular, K) == K.zero()


def test_det_sign_follows_the_row_swaps():
    one, zero = QQ.one(), QQ.zero()
    swap = [[zero, one], [one, zero]]
    cycle = [[zero, one, zero], [zero, zero, one], [one, zero, zero]]
    assert det(swap, QQ) == -1 and det(cycle, QQ) == 1
    assert det([[0, 2], [3, 0]], F7) == F7.from_int(-6)


def test_rank_and_rref_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(79)
    for rows in random_matrices(rng, QQ, 60):
        M = sympy.Matrix([[sympy.Rational(a) for a in row] for row in rows])
        want, want_pivots = M.rref()
        red, pivots = rref(rows, QQ)
        assert rank(rows, QQ) == M.rank() == len(pivots)
        assert tuple(pivots) == want_pivots
        assert sympy.Matrix([[sympy.Rational(a) for a in row] for row in red]) == want


@pytest.mark.parametrize("K", [F5, F7], ids=str)
def test_kernel_rank_and_rref_identities_over_gf_p(K):
    rng = random.Random(83)
    for rows in random_matrices(rng, K, 60, max_size=6):
        ncols = len(rows[0])
        kernel = kernel_basis(rows, K)
        for v in kernel:
            assert mat_vec(rows, v, K) == [K.zero()] * len(rows)
        assert rank(rows, K) + len(kernel) == ncols
        assert not kernel or rank(kernel, K) == len(kernel)
        red = rref(rows, K)
        assert rref(red[0], K) == red
    # unreduced integers enter the elimination as the elements they stand for
    p = K.modulus
    assert det([[p]], K) == 0 and rank([[p, 0], [0, 1]], K) == 1
    assert kernel_basis([[p, p + 1]], K) == kernel_basis([[0, 1]], K)
    assert solve([[p + 1]], [p + 2], K) == [K.from_int(2)]


@pytest.mark.parametrize("K", [QQ, F5], ids=str)
def test_edge_shapes(K):
    zero, one, two = K.zero(), K.one(), K.from_int(2)
    # no rows
    assert rref([], K) == ([], []) and rank([], K) == 0 and kernel_basis([], K) == []
    # rows with no columns
    empty = [[], []]
    assert rref(empty, K) == ([[], []], []) and rank(empty, K) == 0
    assert kernel_basis(empty, K) == []
    # wide and tall, each of rank 1
    wide = [[one, two, one], [two, K.from_int(4), two]]
    assert rank(wide, K) == 1 and rref(wide, K) == ([[one, two, one], [zero] * 3], [0])
    assert len(kernel_basis(wide, K)) == 2
    tall = [[two], [one], [K.from_int(3)]]
    assert rank(tall, K) == 1 and rref(tall, K) == ([[one], [zero], [zero]], [0])
    assert kernel_basis(tall, K) == []
    # zero matrices
    zeros = [[zero] * 4 for _ in range(3)]
    assert rank(zeros, K) == 0 and rref(zeros, K) == (zeros, [])
    assert kernel_basis(zeros, K) == [[one if i == j else zero for i in range(4)] for j in range(4)]
    assert det([[zero] * 3 for _ in range(3)], K) == zero


def as_matrix(K, ints):
    return [[K.from_int(c) for c in row] for row in ints]


@pytest.mark.parametrize("K", [QQ, F5], ids=str)
def test_det_rejects_a_matrix_that_is_not_square(K):
    for ints in ([[1, 2, 3]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]], [[1]] * 2):
        with pytest.raises(DimensionMismatch, match="not square"):
            det(as_matrix(K, ints), K)


@pytest.mark.parametrize("K", [QQ, F5], ids=str)
def test_ragged_rows_raise_dimension_mismatch(K):
    # checked once, where rows enter the elimination, for every reader of it
    for ints in ([[1, 2], [3]], [[1], [2, 3]], [[], [1]], [[1, 2], [3, 4], [5]]):
        rows = as_matrix(K, ints)
        for op in (rank, rref, kernel_basis):
            with pytest.raises(DimensionMismatch, match="differ in length"):
                op(rows, K)
        with pytest.raises(DimensionMismatch, match="differ in length"):
            solve(rows, [K.zero()] * len(rows), K)


@pytest.mark.parametrize("K", [QQ, F5], ids=str)
def test_solve_consistent_and_inconsistent(K):
    rng = random.Random(89)
    for rows in random_matrices(rng, K, 30):
        x0 = [K.from_int(rng.randint(-3, 3)) for _ in rows[0]]
        b = mat_vec(rows, x0, K)
        x = solve(rows, b, K)
        assert x is not None and mat_vec(rows, x, K) == b
    one, two = K.one(), K.from_int(2)
    assert solve([[one, one], [two, two]], [one, K.from_int(3)], K) is None
    assert solve([[], []], [K.zero(), K.zero()], K) == []
    assert solve([[], []], [K.zero(), one], K) is None
    # every equation has its right-hand side: none is dropped, none is invented
    with pytest.raises(DimensionMismatch):
        solve([[one, K.zero()], [K.zero(), one]], [one], K)
    with pytest.raises(DimensionMismatch):
        solve([[one, K.zero()]], [one, one], K)
    with pytest.raises(DimensionMismatch):
        solve([], [one], K)
