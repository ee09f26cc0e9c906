"""Shared helpers and independent oracles for the test suite.

The determinant here is a permutation expansion, deliberately separate from
the Gaussian elimination the package uses, so Sylvester/Gram assertions are
genuine cross-checks.  The reference eliminations below are the package's
earlier routines, each its own loop: a forward elimination over dense rows
with row swaps, Gauss-Jordan back-substitution, the null space read off the
reduced form, and the Krylov minimal polynomial with its own pivot dict.
``linalg.Echelon`` is checked against them.
"""

import os
from bisect import insort
from fractions import Fraction
from itertools import permutations
from math import prod

from etalg.errors import DimensionMismatch
from etalg.fields import GF, QQ
from etalg.finalg import FiniteAlgebra, _combine, _support, _vector
from etalg.kaehler import AlgebraPresentation
from etalg.multipoly import MultiPoly
from etalg.unipoly import UniPoly


HERE = os.path.dirname(os.path.abspath(__file__))


def input_files():
    """(name, path) of every pinned input: the samples, then the golden files' extra inputs."""
    out = []
    for folder in (os.path.join(os.path.dirname(HERE), "samples"), os.path.join(HERE, "golden", "inputs")):
        for entry in sorted(os.listdir(folder)):
            if entry.endswith(".alg"):
                out.append((entry[: -len(".alg")], os.path.join(folder, entry)))
    return out


def count_table_sweeps(monkeypatch):
    """A list that gets the class name of every algebra that sweeps its whole table for associativity."""
    sweeps = []
    original = FiniteAlgebra._check_commuting

    def counting(self, operators, times, failure):
        if times.__name__ == "_times_basis":
            sweeps.append(type(self).__name__)
        return original(self, operators, times, failure)

    monkeypatch.setattr(FiniteAlgebra, "_check_commuting", counting)
    return sweeps


def upoly(field, ints):
    """Univariate polynomial from integer coefficients, ascending degree."""
    return UniPoly.from_ints(field, ints)


def mpoly(field, variables, spec):
    """Multivariate polynomial from {exponent tuple: int coefficient}."""
    return MultiPoly(field, variables, {tuple(e): field.from_int(c) for e, c in spec.items()})


def power_products(n):
    """Products repeated squaring takes for x^n: squarings, plus one per further set bit of n."""
    return n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0


def is_element(K, c):
    """c is what K's elements are: a Fraction over Q, an int residue in [0, p) over GF(p)."""
    return type(c) is Fraction if K == QQ else type(c) is int and 0 <= c < K.modulus


def reference_product(A, x, y):
    """x * y by the triple loop over A's table, reduced after every single field operation."""
    K, m = A.field, A.dimension
    r = K.reduce
    out = [K.zero()] * m
    for i in range(m):
        for j in range(m):
            for k in range(m):
                out[k] = r(out[k] + r(r(x[i] * y[j]) * A.table[i][j][k]))
    return tuple(out)


def reference_operator(A, a):
    """The matrix of b -> a*b read off A's table: entry (r, j) is the sum of a_i * (e_i * e_j)_r."""
    K, m = A.field, A.dimension
    op = [[K.zero()] * m for _ in range(m)]
    for i, c in enumerate(a):
        if c:
            for j, v in enumerate(A.table[i]):
                for r in range(m):
                    op[r][j] = K.reduce(op[r][j] + K.reduce(c * v[r]))
    return op


def reference_trace(A, a):
    """Tr(a) as the diagonal sum of ``reference_operator``."""
    K, op = A.field, reference_operator(A, a)
    t = K.zero()
    for i in range(A.dimension):
        t = K.reduce(t + op[i][i])
    return t


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def brute_det(rows, K):
    """Permutation-expansion determinant (oracle for small matrices)."""
    n = len(rows)
    total = K.zero()
    for perm in permutations(range(n)):
        prod = K.one()
        for i in range(n):
            prod = K.reduce(prod * rows[i][perm[i]])
        total = K.reduce(total + prod if perm_sign(perm) > 0 else total - prod)
    return total


def sylvester_matrix(f, g):
    """Sylvester arrangement built independently of the library internals."""
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
    return rows


def random_monic(rng, field, degree, lo=-5, hi=5):
    coeffs = [field.from_int(rng.randint(lo, hi)) for _ in range(degree)]
    coeffs.append(field.one())
    return UniPoly(field, coeffs)


def random_mpoly(rng, field, variables, max_degree=3, terms=3, lo=-3, hi=3, denominator=1):
    """Up to ``terms`` terms with coefficients a/b, a in [lo, hi] and b in [1, denominator]."""
    n = len(variables)
    spec = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_degree) for _ in range(n))
        if sum(exps) > max_degree:
            continue
        c = rng.randint(lo, hi)
        if c:
            b = rng.randint(1, denominator) if denominator > 1 else 1
            spec[exps] = field.reduce(field.from_int(c) * field.invert(field.from_int(b)))
    return MultiPoly(field, variables, {e: c for e, c in spec.items()})


def all_algebra_elements(A):
    """Every element of a GF(p)-algebra (exhaustive nilpotent oracle support)."""
    from itertools import product

    K = A.field
    residues = [K.from_int(i) for i in range(K.modulus)]
    for coords in product(residues, repeat=A.dimension):
        yield tuple(coords)


def has_nonzero_nilpotent(A):
    """Exhaustive reducedness oracle for small GF(p)-algebras."""
    for a in all_algebra_elements(A):
        if A.is_zero_element(a):
            continue
        power = a
        for _ in range(A.dimension):
            power = A.mul(power, power)
            if A.is_zero_element(power):
                return True
    return False


def random_presentations(rng, count):
    """Small random presentations over Q and GF(3): 1 to 3 variables, 0 to 3 relations."""
    out = []
    for _ in range(count):
        field = QQ if rng.random() < 0.5 else GF(3)
        n = rng.randint(1, 3)
        names = ("X", "Y", "Z")[:n]
        s = rng.randint(0, 3)
        rels = []
        for _ in range(s):
            f = random_mpoly(rng, field, names, max_degree=3, terms=3,
                             lo=-2 if field is QQ else 0,
                             hi=2 if field is QQ else 2)
            if not f.is_zero:
                rels.append(f)
        out.append(AlgebraPresentation(field, names, tuple(rels)))
    return out


# ------------------------------------------------------------------ reference eliminations

def reference_echelon(rows, K):
    """Row echelon form by forward elimination over dense rows.  Returns (rows, pivot_columns, swaps).

    Pivots on the first nonzero entry of each column, swapping rows; nothing
    above a pivot is cleared and no row is scaled.
    """
    m = [list(K.reduce_all(r)) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    if any(len(row) != ncols for row in m):
        raise DimensionMismatch("matrix rows differ in length")
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


def reference_rref(rows, K):
    """Reduced row echelon form by back-substitution on ``reference_echelon``.  Returns (rows, pivots)."""
    m, pivots, _ = reference_echelon(rows, K)
    for r in reversed(range(len(pivots))):
        col = pivots[r]
        inv = K.invert(m[r][col])
        m[r][col:] = top = K.reduce_all([inv * x for x in m[r][col:]])
        for row in m[:r]:
            f = row[col]
            if f:
                row[col:] = K.reduce_all([x - f * y for x, y in zip(row[col:], top)])
    return m, pivots


def reference_det(rows, K):
    """Determinant from ``reference_echelon``: the diagonal's product, signed by the row swaps."""
    m, pivots, swaps = reference_echelon(rows, K)
    if len(pivots) < len(m):
        return K.zero()
    d = prod((row[i] for i, row in enumerate(m)), start=K.one())
    return K.reduce(-d if swaps % 2 else d)


def reference_solve(rows, rhs, K):
    """One solution of rows * x = rhs (free variables 0) read off ``reference_rref``, or None."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = reference_rref([list(r) + [b] for r, b in zip(rows, rhs)], K)
    if ncols in pivots:
        return None
    x = [K.zero()] * ncols
    for i, col in enumerate(pivots):
        x[col] = red[i][ncols]
    return x


def reference_kernel_basis(rows, K):
    """The null space basis read off ``reference_rref``: one vector per free column, 1 there."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = reference_rref(rows, K)
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


def reference_minimal_polynomial(A, a):
    """The Krylov loop over 1, a, a^2, ...: all multipliers of a power first, then one combination.

    Each power is reduced by the rows before it, carrying its combination of
    the powers; a nonzero remainder becomes a row in a pivot dict, and the
    first power that reduces to zero gives the polynomial.
    """
    K, m, one = A.field, A.dimension, A.field.one()
    rows, pivots = {}, []  # pivot -> (row, support of its combination, 1 / pivot coordinate)
    a, power = _vector(a), _vector(A.unit)
    for k in range(m + 1):
        multiples = []  # (c, row, its combination): power - sum c * row is 0 at every pivot
        for q in pivots:
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
        power = _vector(A.mul(power, a))
    raise AssertionError(f"1, a, ..., a^{m} are independent")
