"""Shared helpers and independent oracles for the test suite.

The determinant here is a permutation expansion, deliberately separate from
the Gaussian elimination the package uses, so Sylvester/Gram assertions are
genuine cross-checks.
"""

from itertools import permutations

from etalg.fields import GF, QQ
from etalg.kaehler import AlgebraPresentation
from etalg.multipoly import MultiPoly
from etalg.unipoly import UniPoly


def upoly(field, ints):
    """Univariate polynomial from integer coefficients, ascending degree."""
    return UniPoly.from_ints(field, ints)


def mpoly(field, variables, spec):
    """Multivariate polynomial from {exponent tuple: int coefficient}."""
    return MultiPoly(field, variables, {tuple(e): field.from_int(c) for e, c in spec.items()})


def power_products(n):
    """Products repeated squaring takes for x^n: squarings, plus one per further set bit of n."""
    return n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0


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
            prod = K.mul(prod, rows[i][perm[i]])
        total = K.add(total, prod if perm_sign(perm) > 0 else K.neg(prod))
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


def random_mpoly(rng, field, variables, max_degree=3, terms=3, lo=-3, hi=3):
    n = len(variables)
    spec = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_degree) for _ in range(n))
        if sum(exps) > max_degree:
            continue
        c = rng.randint(lo, hi)
        if c:
            spec[exps] = field.from_int(c)
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
