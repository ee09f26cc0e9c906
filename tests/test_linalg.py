"""The one incremental echelon behind det, rank, rref and solve, against independent oracles.

det is checked against the permutation expansion of ``util.brute_det``; rank,
det, rref, solve and the left kernel of a tracking ``Echelon`` against the
reference eliminations of ``util`` and against sympy; and over GF(p) against
the identities they must satisfy whatever the elimination order.
"""

import random
from fractions import Fraction

import pytest

from etalg.errors import DimensionMismatch
from etalg.fields import GF, QQ
from etalg.linalg import Echelon, det, rank, rref, solve
from util import (brute_det, reference_det, reference_kernel_basis, reference_rref,
                  reference_solve)

F2 = GF(2)
F5 = GF(5)
F7 = GF(7)
F32003 = GF(32003)


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


def left_kernel(rows, K):
    """The combinations of the rows that a tracking Echelon reduces to zero, padded to len(rows)."""
    echelon, out = Echelon(K, len(rows[0]) if rows else 0, track=True), []
    for j, row in enumerate(rows):
        residual, combination = echelon.insert(K.reduce_all(row))
        if not any(residual):
            out.append(list(combination) + [K.zero()] * (len(rows) - 1 - j))
    return out


def transpose(rows):
    return [list(column) for column in zip(*rows)]


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
        kernel = left_kernel(transpose(rows), K)  # the null space of rows
        for v in kernel:
            assert mat_vec(rows, v, K) == [K.zero()] * len(rows)
        assert rank(rows, K) + len(kernel) == ncols
        assert not kernel or rank(kernel, K) == len(kernel)
        red = rref(rows, K)
        assert rref(red[0], K) == red
    # unreduced integers enter the elimination as the elements they stand for
    p = K.modulus
    assert det([[p]], K) == 0 and rank([[p, 0], [0, 1]], K) == 1
    assert left_kernel([[p], [p + 1]], K) == left_kernel([[0], [1]], K)
    assert solve([[p + 1]], [p + 2], K) == [K.from_int(2)]


@pytest.mark.parametrize("K", [QQ, F5], ids=str)
def test_edge_shapes(K):
    zero, one, two = K.zero(), K.one(), K.from_int(2)
    # no rows
    assert rref([], K) == ([], []) and rank([], K) == 0 and left_kernel([], K) == []
    # rows with no columns: each is a relation on its own
    empty = [[], []]
    assert rref(empty, K) == ([[], []], []) and rank(empty, K) == 0
    assert left_kernel(empty, K) == [[one, zero], [zero, one]]
    # wide and tall, each of rank 1
    wide = [[one, two, one], [two, K.from_int(4), two]]
    assert rank(wide, K) == 1 and rref(wide, K) == ([[one, two, one], [zero] * 3], [0])
    assert left_kernel(wide, K) == [[K.from_int(-2), one]]
    assert len(left_kernel(transpose(wide), K)) == 2
    tall = [[two], [one], [K.from_int(3)]]
    assert rank(tall, K) == 1 and rref(tall, K) == ([[one], [zero], [zero]], [0])
    assert left_kernel(transpose(tall), K) == []
    # zero matrices
    zeros = [[zero] * 4 for _ in range(3)]
    assert rank(zeros, K) == 0 and rref(zeros, K) == (zeros, [])
    assert left_kernel(transpose(zeros), K) == [[one if i == j else zero for i in range(4)]
                                                for j in range(4)]
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
        for op in (rank, rref, left_kernel):
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


# ------------------------------------------------------------------ against the reference eliminations

FIELDS = [QQ, F2, F5, F32003]


def unreduced_matrix(rng, K, nrows, ncols):
    """Entries that stand for elements without being reduced: any integer in -3p..3p over GF(p),
    Fractions over Q; about a third of the rows are integer combinations of earlier ones
    (a zero row among them), so ranks fall short and pivots skip columns."""
    def entry():
        if K == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return rng.randint(-3 * K.modulus, 3 * K.modulus) if rng.random() < 0.5 else rng.randint(-2, 2)

    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.35:
            weights = [rng.randint(-3, 3) for _ in rows]
            rows.append([sum(w * row[k] for w, row in zip(weights, rows)) for k in range(ncols)])
        else:
            rows.append([entry() if rng.random() < 0.7 else 0 for _ in range(ncols)])
    return rows


def unreduced_matrices(rng, K, count, max_size=7):
    for _ in range(count):
        n = rng.randint(1, max_size)
        yield unreduced_matrix(rng, K, n, n if rng.random() < 0.4 else rng.randint(1, max_size))


@pytest.mark.parametrize("K", FIELDS, ids=str)
def test_echelon_matches_the_reference_eliminations(K):
    # rank, det, rref and solve through the one Echelon against the earlier dense routines
    rng = random.Random(131)
    square = 0
    for rows in unreduced_matrices(rng, K, 150):
        ref_rows, ref_pivots = reference_rref(rows, K)
        assert rref(rows, K) == (ref_rows, ref_pivots)
        assert rank(rows, K) == len(ref_pivots)
        if len(rows) == len(rows[0]):
            square += 1
            assert det(rows, K) == reference_det(rows, K)
        for rhs in ([rng.randint(-40, 40) for _ in rows],
                    mat_vec(rows, [rng.randint(-5, 5) for _ in rows[0]], K)):
            assert solve(rows, rhs, K) == reference_solve(rows, rhs, K)
    assert square > 40


@pytest.mark.parametrize("K", FIELDS, ids=str)
def test_left_kernel_is_the_null_space_of_the_transpose(K):
    # the combinations of the rows that reduce to zero, in order, are the reference null-space
    # basis of the transpose: 1 at the dependent row, nonzero only there and at earlier pivots
    rng = random.Random(137)
    for rows in unreduced_matrices(rng, K, 120):
        assert left_kernel(rows, K) == reference_kernel_basis(transpose(rows), K)


@pytest.mark.parametrize("K", FIELDS, ids=str)
def test_reduced_rows_carry_their_combinations(K):
    # every reduced row is its combination of the offered vectors, which keeps its rank
    rng = random.Random(139)
    for rows in unreduced_matrices(rng, K, 60):
        vectors = [K.reduce_all(row) for row in rows]
        echelon = Echelon(K, len(rows[0]), vectors, track=True)
        reduced = list(echelon.reduced_rows())
        assert [list(row) for row, _ in reduced] == reference_rref(rows, K)[0][:len(reduced)]
        for row, combination in reduced:
            assert len(combination) == len(vectors)
            assert tuple(mat_vec(transpose(vectors), combination, K)) == row


def test_rank_null_space_and_det_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(149)
    for rows in unreduced_matrices(rng, QQ, 80, max_size=5):
        M = sympy.Matrix([[sympy.Rational(a) for a in row] for row in rows])
        assert rank(rows, QQ) == M.rank()
        want = [[Fraction(int(x.p), int(x.q)) for x in v] for v in M.T.nullspace()]
        assert left_kernel(rows, QQ) == want
        if M.rows == M.cols:
            assert det(rows, QQ) == Fraction(int(M.det().p), int(M.det().q))
    for K in (F2, F5, F32003):
        domain = sympy.GF(K.modulus)
        for rows in unreduced_matrices(rng, K, 40, max_size=5):
            M = DomainMatrix([[domain(a) for a in row] for row in rows],
                             (len(rows), len(rows[0])), domain)
            assert rank(rows, K) == M.rank()
            # sympy scales each null vector by a unit; ours has 1 at its last nonzero entry
            want = []
            for v in M.transpose().nullspace().to_list():
                v = [int(x) % K.modulus for x in v]
                scale = K.invert(next(x for x in reversed(v) if x))
                want.append([K.reduce(scale * x) for x in v])
            assert left_kernel(rows, K) == want
            if len(rows) == len(rows[0]):
                assert det(rows, K) == int(M.det()) % K.modulus
