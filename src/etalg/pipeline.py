"""The classification pipeline and its structure certificates.

``classify`` takes an algebra presentation and reports, in order: ideal
triviality; the four determinantal flags (nette, standard smooth, elementary
smooth, standard etale); the Noether dimension of the staircase; and, for
zero-dimensional quotients, the structure-constant algebra, its trace-form
discriminant, the etale verdict, and constructive evidence either way:

  * etale: a decomposition into monogenic algebras K[X]/<g_i> with separable
    monic g_i, certified by an orthogonal idempotent family summing to 1,
    plus a primitive element when the algebra is monogenic;
  * not etale: a verified nonzero nilpotent witness.

A nette presentation with positive Noether dimension, or a zero
discriminant without a nilpotent witness, would contradict the theory this
code implements; either raises InternalContradiction and is never reported
silently.

Decomposition routes: etaleness is decided once, at the entry point, by
the discriminant, which ``classify`` passes on to the decomposition and
``decompose_etale`` computes as its guard.  A nonzero discriminant makes
the algebra reduced, and over the perfect fields Q and GF(p) every minimal
polynomial in a reduced algebra is separable, so no generator ever needs a
non-separable split.  ``primitive_element`` and ``frobenius_split`` hold on
any finite algebra.
Route 1 returns a single factor: the first generator or basis element whose
minimal polynomial has full degree, else a primitive element among
deterministic scalar combinations of the generators, which an infinite base
field guarantees.  Over GF(p) that bounded search can run out; it cannot
succeed when ``_fixed_by_frobenius`` holds (dim A > p, and F(x) = x^p fixes
generators that generate A by construction), so then neither the basis nor
the combinations are scanned, and the note is the one the scan would end with.
Route 2 splits along idempotents read off the fixed space of F, each the
idempotent of <v - c> for a fixed element v and the smallest root c of its
minimal polynomial (``FiniteAlgebra._idempotent``), until every leaf is a
field, which finite-field theory makes monogenic.  Two ways walk it:
  * Where ``_fixed_by_frobenius`` holds, A = GF(p)^m, and ``_split_leaves``
    replays the recursion on its m primitive idempotents: one tracking
    ``linalg.Echelon`` per node gives its basis, its v and the values of v
    at its points, with no F, split factor or further minimal polynomial.
  * On any other GF(p)-algebra F is one linear map, built once at the root
    (along the border steps on a quotient) and restricted to each split
    factor, F(u*a) = u*F(a).  Its fixed vectors are the relations that a
    tracking ``linalg.Echelon`` finds among the rows F(e_j) - e_j.
Every generator search is a lazy stream read by one loop under its budget.

Stages and sections: ``classify`` takes the names of the report sections
to compute and runs only the stages they read (``STAGES``): the base basis,
the decisions of the flags among the sections, the Noether dimension, the
table, the discriminant, then the decomposition or the nilpotent witness,
and the dimension of the differentials.  The report records those
sections, and ``render_report`` prints exactly them, so a report cannot
print what its run never computed; the CLI subcommands differ only in the
sections they ask for.  The report also records whether ``classify``
tracked certificates; evidence lines appear exactly then, each polynomial
in the order of the run that produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from itertools import chain as iter_chain, count, islice, product as iter_product

from . import linalg
from .errors import InternalContradiction, NotEtale, SearchExhausted
from .fields import PrimeField, power
from .finalg import (FiniteAlgebra, _combine, _frobenius_images, _restricted_images, _support,
                     eval_in_algebra, split_by_idempotent)
from .groebner import DEFAULT_PAIR_BUDGET, contains_one, noether_dimension, quotient_algebra
from .kaehler import (FLAGS, AlgebraPresentation, Decision, decide_all, omega_dimension,
                      omega_presentation, relation_basis)
from .multipoly import GREVLEX
from .unipoly import UniPoly, gcd, is_separable, squarefree_part

DEFAULT_PRIMITIVE_BUDGET = 1000


# ------------------------------------------------------------------ primitive elements

def _basis(A: FiniteAlgebra):
    return [A.basis_element(i) for i in range(A.dimension)]


def _generators(A: FiniteAlgebra):
    """The recorded generators of A, or its basis when it records none."""
    return list(A.generator_refs.values()) or _basis(A)


def _candidates(A: FiniteAlgebra):
    """Generators, then basis elements: the scan order of the witness search."""
    return [*A.generator_refs.values(), *_basis(A)]


def _combinations(A: FiniteAlgebra):
    """The combinations sum lambda_i * gen_i, lazily, ordered by the largest scalar index used.

    Scalars come from the base field's deterministic enumeration; over GF(p) there are p^r.
    """
    K = A.field
    supports = [_support(v) for v in _generators(A)]
    for tier in count():
        scalars = K.enumerate_scalars(tier + 1)
        if len(scalars) <= tier:
            return
        for indices in iter_product(range(tier + 1), repeat=len(supports)):
            if tier == 0 or max(indices) == tier:
                yield _combine(K, A.dimension, [(scalars[i], s) for i, s in zip(indices, supports)])


def primitive_element(A: FiniteAlgebra, budget=DEFAULT_PRIMITIVE_BUDGET):
    """Search b = sum lambda_i * gen_i with minimal polynomial of full degree.

    Holds on any finite algebra, reduced or not: a minimal polynomial g of
    degree dim A makes A = K[b] = K[T]/<g>, so the answer proves itself.
    ``_first_full_degree``, the one scan loop, reads at most ``budget``
    combinations; SearchExhausted is raised when they are spent, or when a
    finite field runs out of tuples first.  Over GF(p) no scan runs when
    ``_fixed_by_frobenius`` holds, as none can succeed, and the note is the
    one the scan would end with: the budget's when p^r > budget, else the
    count's.
    """
    fixed = _fixed_by_frobenius(A, map(A.minimal_polynomial, _generators(A)))
    return _primitive_search(A, budget, fixed)


def _primitive_search(A: FiniteAlgebra, budget, fixed):
    """``primitive_element`` once ``fixed``, the value of ``_fixed_by_frobenius``, is known."""
    K, r = A.field, len(_generators(A))
    if not fixed:
        found = _first_full_degree(A, islice(_combinations(A), budget))
        if found is not None:
            return found
    if not isinstance(K, PrimeField) or K.modulus ** r > budget:
        raise SearchExhausted(f"primitive-element budget of {budget} exhausted")
    # over GF(p), after all p^r combinations
    raise SearchExhausted(f"no primitive element among the {K.modulus ** r} "
                          "candidate combinations")


def _fixed_by_frobenius(A: FiniteAlgebra, generator_polys):
    """Whether A is over GF(p), dim A > p, and each of ``generator_polys`` divides T^p - T.

    Those are the minimal polynomials of ``_generators(A)``, which must
    generate A by construction (``_generated_by_construction``), so then
    F(x) = x^p fixes a set of algebra generators, and F, a ring map, is the
    identity on A: A = GF(p)^m, every element's minimal polynomial divides
    T^p - T, of degree at most p < dim A, and A has no primitive element.
    The polynomials are read only past the first three tests, and only until
    one fails.
    """
    K = A.field
    if (not isinstance(K, PrimeField) or A.dimension <= K.modulus
            or not _generated_by_construction(A)):
        return False
    p, T, one = K.modulus, UniPoly.variable(K), UniPoly.one(K)
    return all(power(T, p, lambda x, y: x * y % g, one) == T % g for g in generator_polys)


def _generated_by_construction(A: FiniteAlgebra):
    """Whether ``_generators(A)`` generate A by construction: A's basis, or its border's x_k * e_0.

    Recorded generators of a table are the caller's word only, so they never count.
    """
    if not A.generator_refs:
        return True
    if A.border is None:
        return False
    K, m = A.field, A.dimension
    return list(A.generator_refs.values()) == [_combine(K, m, [(K.one(), column[0])])
                                               for column in A.border[0]]


def frobenius_split(A: FiniteAlgebra):
    """A nontrivial idempotent from the fixed space of x -> x^p; None when A is local.

    Holds on any finite GF(p)-algebra, reduced or not (Berlekamp): x^p = x
    makes the minimal polynomial of x divide T^p - T, which is squarefree and
    splits over GF(p), so the fixed space is spanned by idempotents and has
    one dimension per local factor.
    """
    if not isinstance(A.field, PrimeField):
        raise NotEtale("frobenius_split is a GF(p) operation")
    return _fixed_space_idempotent(A, _frobenius_images(A))


def _fixed_space_idempotent(A: FiniteAlgebra, images):
    """``frobenius_split`` with F given by its images of A's basis, in A's coordinates.

    A row F(e_j) - e_j that reduces to zero gives a fixed vector, its combination
    of the rows; these form the fixed space's basis, and v is the first off the scalars.
    """
    K, m = A.field, A.dimension
    echelon, scalars = linalg.Echelon(K, m, track=True), linalg.Echelon(K, m, [A.unit])
    for j, image in enumerate(images):
        row = list(image)
        row[j] = K.reduce(row[j] - K.one())
        residual, combination = echelon.insert(row)
        v = combination + (K.zero(),) * (m - 1 - j)
        if not any(residual) and any(scalars.reduce(v)[0]):
            # g divides T^p - T, so it is squarefree with deg g >= 2 roots in GF(p):
            # the idempotent of <v - c>, for its smallest root c, is neither 0 nor 1.
            g = A.minimal_polynomial(v)
            return A._idempotent(v, g, _smallest_root(g))[0]
    if len(echelon.rows) < m - 1:  # two independent fixed vectors, each a multiple of the unit
        raise InternalContradiction("fixed space of dimension >= 2 inside the scalars")
    return None


def _smallest_root(g: UniPoly):
    """The smallest root in GF(p), as an integer, of a g (of degree d) that divides T^p - T.

    Evaluating g at 0, 1, 2, ... takes about p operations, splitting g about d^2 log2(p)
    per attempt; the scan runs when p <= 16 d^2 log2(p), so always at p = 2.
    """
    p = g.field.modulus
    if p > 16 * g.degree ** 2 * p.bit_length():
        return min(_split_roots(g, 0))
    c = next((c for c in range(p) if not g(c)), None)
    if c is None:
        raise InternalContradiction("p-power-fixed element with no root in the prime field")
    return c


def _split_roots(g: UniPoly, start):
    """The roots of g, a product of distinct linear factors over GF(p), p odd.

    Equal-degree splitting (Cantor & Zassenhaus, Math. Comp. 1981): gcd(g, (T + a)^((p-1)/2) - 1)
    holds the roots r with r + a a nonzero square.  Some a < p separates any two roots, and
    an a that did not split g splits neither part, so both go on from a + 1.
    """
    K, p, one = g.field, g.field.modulus, UniPoly.one(g.field)
    if g.degree == 1:
        return [K.reduce(-g.coeff(0))]
    for a in range(start, p):
        half = power(UniPoly(K, [K.from_int(a), K.one()]), (p - 1) // 2,
                     lambda x, y: x * y % g, one)
        d = gcd(g, half - one)
        if 0 < d.degree < g.degree:
            return _split_roots(d, a + 1) + _split_roots(g // d, a + 1)
    raise InternalContradiction(f"{g.format()} is not a product of distinct linear factors")


# ------------------------------------------------------------------ decomposition

@dataclass(frozen=True)
class DecompositionFactor:
    """One monogenic factor K[X]/<poly> with its witnesses in the root algebra."""

    poly: UniPoly
    generator: tuple       # element of the root algebra generating the factor
    idempotent: tuple      # unit of the factor, seen in the root algebra
    chain: tuple           # idempotents split along, root coordinates


@dataclass(frozen=True)
class DecompositionCertificate:
    """Factors that passed the checks at the end of ``_decompose``."""

    factors: tuple
    notes: tuple


def _first_full_degree(A: FiniteAlgebra, candidates, polys=None):
    """(element, minimal polynomial) of the first candidate that generates A, or None.

    ``polys``, a list when given, collects each minimal polynomial taken.
    """
    for vec in candidates:
        g = A.minimal_polynomial(vec)
        if polys is not None:
            polys.append(g)
        if g.degree == A.dimension:
            return vec, g
    return None


def _frobenius_leaves(sub: FiniteAlgebra, path, chain, budget, images):
    """The field factors of an etale GF(p)-algebra, split along Frobenius idempotents.

    ``path`` holds the split factors from sub up to the root, sub first, and
    an element of sub reaches the root through their ``embed`` in a loop.
    ``images`` is F on sub's basis, restricted from its parent's; it is None
    on dimension 1, where sub is GF(p) itself and a leaf without a split.
    """
    K = sub.field

    def to_root(v):
        for factor in path:
            v = factor.embed(v)
        return v

    e = None if sub.dimension == 1 else _fixed_space_idempotent(sub, images)
    if e is None:
        # every element in coordinate order, as the base-p digits of 0, 1, 2, ...
        p, d = K.modulus, sub.dimension
        scan = (tuple(n // p ** (d - 1 - i) % p for i in range(d)) for n in range(p ** d))
        found = _first_full_degree(sub, iter_chain(_generators(sub), islice(scan, budget)))
        if found is None:
            if next(scan, None) is not None:
                raise SearchExhausted(f"field-generator scan budget of {budget} exhausted "
                                      f"on a leaf of dimension {sub.dimension}")
            # A finite field is generated by one element, so the full scan finds one.
            raise InternalContradiction("a finite-field leaf has no generating element")
        vec, g = found
        return [DecompositionFactor(g, to_root(vec), to_root(sub.unit), chain)]
    split = split_by_idempotent(e, sub)
    chain = chain + (to_root(e),)
    leaves = []
    for factor in (split.first, split.second):
        factor_images = None if factor.dimension == 1 else _restricted_images(factor, images)
        leaves += _frobenius_leaves(factor, (factor, *path), chain, budget, factor_images)
    return leaves


def _split_leaves(A: FiniteAlgebra, polys):
    """``_frobenius_leaves`` of A when ``_fixed_by_frobenius`` holds, replayed with no split factor.

    Then A = GF(p)^m, and its primitive idempotents eps_j fix the whole
    recursion, which the replay walks on index sets S in the same order.  The
    node of S is span{eps_j : j in S} on its reduced echelon basis, which is
    unique, so it is the basis the chain of split factors has.  That basis
    comes off a tracking echelon of the eps_j, each row with its values
    lambda_j, as row = sum lambda_j(row) eps_j.  F is the identity, so v is
    the first row not a multiple of the unit: its values are not all equal.
    The smallest root of v's minimal polynomial is c = min lambda_j(v); the
    idempotent of <v - c>, the sum of the eps_j with lambda_j(v) != c, joins
    the chain, and the replay goes on with lambda_j(v) = c, then with the
    rest.  A leaf eps_j is generated by its first generator candidate:
    lambda_j(x_1) * eps_j for A's first recorded generator x_1, or the
    echelon basis element when A records none.
    ``polys`` holds the minimal polynomials of ``_generators(A)``.
    """
    K, m, one = A.field, A.dimension, A.field.one()
    pairs = _primitive_idempotents(A, polys)
    if len(pairs) != m:
        raise InternalContradiction(f"{len(pairs)} primitive idempotents in a split algebra "
                                    f"of dimension {m}")
    eps = [e for e, _ in pairs]
    leaves = []

    def replay(S, chain):
        if len(S) == 1:
            j = S[0]
            a = pairs[j][1] if A.generator_refs else K.invert(next(x for x in eps[j] if x))
            leaves.append(DecompositionFactor(UniPoly(K, [-a, one]), A.scalar_mul(a, eps[j]),
                                              eps[j], chain))
            return
        echelon = linalg.Echelon(K, m, [eps[j] for j in S], track=True)
        if len(echelon.rows) < len(S):
            raise InternalContradiction("the primitive idempotents are linearly dependent")
        values = next(values for _, values in echelon.reduced_rows() if len(set(values)) > 1)
        c = min(values)
        rest = [j for j, value in zip(S, values) if value != c]
        chain += (_combine(K, m, [(one, _support(eps[j])) for j in rest]),)
        replay([j for j, value in zip(S, values) if value == c], chain)
        replay(rest, chain)

    replay(range(m), ())
    return leaves


def _primitive_idempotents(A: FiniteAlgebra, polys):
    """(eps, lambda(x_1)) for each primitive idempotent eps of A = GF(p)^m, x_1 the first generator.

    An eps is a nonzero product, over the generators x_k of ``_generators(A)``,
    of Lagrange idempotents h(x_k)/h(c), for h = g_k/(T - c) and c a root of
    g_k, the minimal polynomial of x_k in ``polys``; c is eps's value lambda(x_k).
    The products are formed a generator at a time, e * h(x_k)/h(c) as a
    combination of e, e * x_k, e * x_k^2, ..., and stop at m: then they are
    the primitive ones.
    """
    K, m, one = A.field, A.dimension, A.field.one()
    parts = [(A.unit, None)]
    for x, g in zip(_generators(A), polys):
        if len(parts) == m:
            break
        roots = [c for c in range(K.modulus) if not g(c)]
        if len(roots) != g.degree:
            raise InternalContradiction(f"{g.format()} does not split into distinct linear "
                                        "factors over the prime field")
        lagrange = []
        for c in roots:
            h = g // UniPoly(K, [-c, one])
            scale = K.invert(h(c))
            lagrange.append((c, [a * scale for a in h.coeffs]))
        products = []
        for e, value in parts:
            powers = [e]
            for _ in range(1, g.degree):
                powers.append(A.mul(powers[-1], x))
            supports = [_support(power) for power in powers]
            for c, coeffs in lagrange:
                part = _combine(K, m, zip(coeffs, supports))
                if any(part):
                    products.append((part, c if value is None else value))
        parts = products
    return parts


def decompose_etale(A: FiniteAlgebra, primitive_budget=DEFAULT_PRIMITIVE_BUDGET):
    """Decompose an etale algebra as a product of monogenic separable ones.

    Raises NotEtale on zero discriminant, the one etale check of the
    decomposition.  The routes are the module docstring's; route 2 runs over
    GF(p) only, once the search is exhausted, and scans at most
    ``primitive_budget`` elements per field leaf.  Over Q an exhausted search
    propagates.  The certificate checks at the end of ``_decompose`` verify
    every factor and raise InternalContradiction if the theory were broken.
    """
    if not A.discriminant():
        raise NotEtale("decompose_etale needs a nonzero discriminant")
    return _decompose(A, primitive_budget)


def _decompose(A: FiniteAlgebra, primitive_budget):
    """decompose_etale on an algebra whose discriminant the caller found nonzero."""
    notes = []
    polys = []  # the generators' minimal polynomials, for ``_fixed_by_frobenius``
    found = _first_full_degree(A, _generators(A), polys)
    fixed = found is None and _fixed_by_frobenius(A, polys)
    if found is None and A.generator_refs and not fixed:
        found = _first_full_degree(A, _basis(A))
    try:
        vec, g = found or _primitive_search(A, primitive_budget, fixed)
        factors = [DecompositionFactor(g, vec, A.unit, ())]
    except SearchExhausted as exc:
        if not isinstance(A.field, PrimeField):
            raise
        notes.append(f"primitive-element search over {A.field!r}: {exc}; "
                     "splitting along the Frobenius fixed space instead")
        factors = (_split_leaves(A, polys) if fixed else
                   _frobenius_leaves(A, (), (), primitive_budget, _frobenius_images(A)))

    # Each e_k idempotent with (e_1 + ... + e_{k-1}) * e_k = 0 makes the
    # family pairwise orthogonal by induction, in 2r products.
    orthogonal = True
    total = A.zero_element()
    for f in factors:
        e = f.idempotent
        orthogonal = orthogonal and A.mul(e, e) == e and A.is_zero_element(A.mul(total, e))
        total = A.add(total, e)
    if not (orthogonal and total == A.unit
            and all(is_separable(f.poly) for f in factors)
            and sum(f.poly.degree for f in factors) == A.dimension):
        raise InternalContradiction("decomposition certificate failed its own checks")
    return DecompositionCertificate(factors=tuple(factors), notes=tuple(notes))


# ------------------------------------------------------------------ nilpotent witness

def find_nilpotent(A: FiniteAlgebra):
    """A verified nonzero nilpotent, or None.

    Scans generators then basis elements: an element whose minimal
    polynomial g properly exceeds its squarefree part r yields the nilpotent
    r(a).  When the discriminant vanishes some generator is caught this way.
    r(a) is nonzero, as deg r < deg g, and g divides r^k for some k <= deg g,
    so dim A squarings make it zero; InternalContradiction is raised if
    either fails.
    """
    for a in _candidates(A):
        g = A.minimal_polynomial(a)
        r = squarefree_part(g)
        if r.degree == g.degree:
            continue
        w = eval_in_algebra(r, a, A)
        if A.is_zero_element(w):
            raise InternalContradiction(f"the squarefree part {r.format()} of the minimal "
                                        f"polynomial {g.format()} annihilates its element")
        square = w
        for _ in range(A.dimension):
            square = A.mul(square, square)
            if A.is_zero_element(square):
                return w
        raise InternalContradiction(f"r(a) for the squarefree part r = {r.format()} of "
                                    f"{g.format()} survives {A.dimension} squarings")
    return None


# ------------------------------------------------------------------ the report

# The full text report, in report order: what ``classify`` runs by default.
SECTIONS = ("header", "trivial", *FLAGS, "noether_dimension", "vector_space_dimension", "basis",
            "discriminant", "etale", "decomposition", "primitive_element", "nilpotent_witness",
            "notes")
# (stage, the stage it builds on, the sections that read it), each stage after
# the one it builds on.  The header reads only the input.  The nette section
# also reads the Noether dimension, which guards its verdict (see ``classify``).
STAGES = (
    ("jacobian", None, ("differentials",)),
    ("basis", None, ("trivial", "trivial_note")),
    ("decisions", "basis", FLAGS),
    ("noether", "basis", ("nette", "noether_dimension")),
    ("table", "noether", ("vector_space_dimension", "basis")),
    ("discriminant", "table", ("discriminant", "etale", "no_decomposition")),
    ("decomposition", "discriminant", ("decomposition", "primitive_element", "notes")),
    ("witness", "discriminant", ("nilpotent_witness",)),
    ("omega", "noether", ("omega_dimension",)),
)


@dataclass
class ClassificationReport:
    """What one ``classify`` run computed; a field no recorded section reads stays None."""

    input_field: str
    input_variables: tuple
    input_relations: tuple          # canonical strings
    sections: tuple = SECTIONS      # what ``render_report`` prints, in order
    certified: bool = False         # whether classify tracked the evidence the text prints
    trivial: object = None
    nette: object = None
    standard_smooth: object = None
    elementary_smooth: object = None
    standard_etale: object = None
    noether_dimension: object = None       # int, or None for the zero ring
    vector_space_dimension: object = None  # int when zero-dimensional, else None
    discriminant: object = None     # field element when strictly finite, else None
    etale: object = None
    decomposition: object = None    # list of UniPoly when etale, else None
    primitive_element: object = None  # (coords, UniPoly) or None
    nilpotent_witness: object = None  # coords or None
    notes: list = dataclass_field(default_factory=list)
    differentials: object = None    # (generators dX_i, one canonical string per relation)
    omega_dimension: object = None  # int when zero-dimensional, else None
    # non-schema extras used by the text renderer
    algebra: object = None
    certificate: object = None
    decisions: dict = dataclass_field(default_factory=dict)  # the decided flags only

    def to_json_dict(self):
        """The keys of the recorded sections: ``input`` is the header, any other its section."""
        K = self.algebra.field if self.algebra else None

        def coordinates(vec):
            return None if vec is None else [K.format(c) for c in vec]

        prim = self.primitive_element
        keys = {
            "input": {"field": self.input_field, "vars": list(self.input_variables),
                      "relations": list(self.input_relations)},
            **{name: getattr(self, name) for name in
               ("trivial", *FLAGS, "noether_dimension", "vector_space_dimension")},
            "discriminant": None if self.discriminant is None else K.format(self.discriminant),
            "etale": self.etale,
            "decomposition": (None if self.decomposition is None
                              else [g.format() for g in self.decomposition]),
            "primitive_element": prim and {"coordinates": coordinates(prim[0]),
                                           "minimal_polynomial": prim[1].format()},
            "nilpotent_witness": coordinates(self.nilpotent_witness),
            "notes": list(self.notes),
        }
        return {key: value for key, value in keys.items()
                if ("header" if key == "input" else key) in self.sections}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)


def classify(
    P: AlgebraPresentation,
    order=GREVLEX,
    pair_budget=DEFAULT_PAIR_BUDGET,
    primitive_budget=DEFAULT_PRIMITIVE_BUDGET,
    certificates=False,
    sections=SECTIONS,
) -> ClassificationReport:
    """Run the stages of the decision pipeline that the named sections read.

    The report records ``sections`` and ``render_report`` prints exactly
    those; ``STAGES`` says which stages they read.  The default is the full
    text report.  A name that is neither ``"header"`` nor read by a stage
    raises ValueError before any stage runs.
    """
    known = {"header"}.union(*(readers for _, _, readers in STAGES))
    unknown = [name for name in sections if name not in known]
    if unknown:
        raise ValueError(f"unknown report section {unknown[0]!r}")
    stages = set()  # the stages the sections read, with every stage those build on
    for stage, base, readers in reversed(STAGES):
        if stage in stages or not set(readers).isdisjoint(sections):
            stages |= {stage, base}
    report = ClassificationReport(
        input_field=P.field.name(),
        input_variables=P.variables,
        input_relations=tuple(f.format(order) for f in P.relations),
        sections=tuple(sections),
        certified=certificates,
    )
    if "jacobian" in stages:
        D = omega_presentation(P)
        report.differentials = (D.generators, tuple(
            " + ".join(f"({row[j].format(order)})*{gen}"
                       for gen, row in zip(D.generators, D.relation_table) if not row[j].is_zero)
            or "0" for j in range(P.s)))
    if "basis" not in stages:
        return report
    gb = relation_basis(P, order, pair_budget)
    report.trivial = contains_one(gb)
    if "decisions" in stages:
        flags = [name for name in FLAGS if name in sections]
        report.decisions = decide_all(P, order, pair_budget, certificates, gb, flags)
        for name, decision in report.decisions.items():
            setattr(report, name, decision.value)

    if report.trivial:
        report.etale = True
        report.vector_space_dimension = report.omega_dimension = 0
        report.decomposition = []
        report.notes.append("TrivialAlgebra: the relation ideal contains 1; "
                            "every flag holds vacuously for the zero ring")
        return report
    if "noether" not in stages:
        return report
    dim = noether_dimension(gb)
    report.noether_dimension = dim
    if report.nette and dim > 0:
        raise InternalContradiction(
            f"nette presentation with Noether dimension {dim}; this contradicts "
            "the decisive theorem and means the implementation is wrong"
        )
    if dim != 0:
        report.etale = False
        return report
    if "omega" in stages:
        report.omega_dimension = omega_dimension(P, order, pair_budget, gb=gb)
    if "table" not in stages:
        return report

    A = quotient_algebra(gb)
    report.algebra = A
    report.vector_space_dimension = A.dimension
    if "discriminant" not in stages:
        return report
    disc = A.discriminant()
    report.discriminant = disc
    report.etale = bool(disc)
    if report.etale and "decomposition" in stages:
        cert = _decompose(A, primitive_budget)
        report.certificate = cert
        report.decomposition = [f.poly for f in cert.factors]
        report.notes.extend(cert.notes)
        if len(cert.factors) == 1:
            leaf = cert.factors[0]
            report.primitive_element = (leaf.generator, leaf.poly)
        else:
            report.notes.append("no primitive element reported: the decomposition has "
                                f"{len(cert.factors)} factors")
    elif not report.etale and "witness" in stages:
        # Q and GF(p) are perfect, so a zero discriminant means some generator
        # has a non-squarefree minimal polynomial, and find_nilpotent scans
        # the generators first.
        report.nilpotent_witness = find_nilpotent(A)
        if report.nilpotent_witness is None:
            raise InternalContradiction(
                "zero discriminant but no generator or basis element yields a nilpotent"
            )
    return report


# ------------------------------------------------------------------ rendering

def _flag(value: bool) -> str:
    return "true" if value else "false"


def _section(report: ClassificationReport, name):
    """The lines of one section of the text report; none when it does not apply."""
    A = report.algebra
    if name == "header":
        rels = [f"  f{k} = {rel}" for k, rel in enumerate(report.input_relations, start=1)]
        return [f"field: {report.input_field}",
                f"variables: {', '.join(report.input_variables)}",
                "relations:", *(rels or ["  (none)"])]
    if name in ("trivial", "etale") + FLAGS:
        lines = [f"{name.replace('_', '-')}: {_flag(getattr(report, name))}"]
        decision = report.decisions.get(name)
        if report.certified and decision is not None:
            lines += _render_decision(decision)
        return lines
    if name == "trivial_note" and report.trivial:
        return ["note: trivial algebra (the ideal contains 1)"]
    if name == "noether_dimension":
        dim = report.noether_dimension
        return [f"noether-dimension: {dim if dim is not None else 'undefined (zero ring)'}"]
    if name == "vector_space_dimension":
        dim = report.vector_space_dimension
        return [] if dim is None else [f"vector-space-dimension: {dim}"]
    if name == "no_decomposition" and not report.etale:
        return ["no decomposition: the algebra is not etale" if report.noether_dimension == 0
                else "no decomposition: the quotient is not finite-dimensional"]
    if name == "decomposition":
        if report.decomposition is None:
            return []
        lines = ["decomposition:"] + ([] if report.decomposition else ["  (empty product)"])
        lines += [f"  g{k} = {g.format()}" for k, g in enumerate(report.decomposition, start=1)]
        if report.certified and report.certificate is not None:
            lines += _render_certificate(report)
        return lines
    if name == "notes":
        if not report.notes:
            return ["notes: (none)"]
        return ["notes:"] + [f"  - {note}" for note in report.notes]
    if name == "differentials":
        generators, relations = report.differentials
        rels = [f"    r{j}: {rel}" for j, rel in enumerate(relations, start=1)]
        return ["differential-module presentation:", f"  generators: {', '.join(generators)}",
                "  relations (columns of the transposed Jacobian):", *(rels or ["    (none)"])]
    if name == "omega_dimension":
        dim = report.omega_dimension
        text = ("undefined (quotient not finite-dimensional)" if dim is None
                else f"{dim} (zero ring)" if report.trivial else dim)
        return [f"  omega-dimension: {text}"]
    if A is None:  # the remaining sections describe the quotient algebra
        return []
    if name == "basis":
        lines = [f"basis: {', '.join(A.basis_labels)}"]
        if report.certified:
            lines += ["structure constants:"] + [f"  {row}" for row in A.format_table()]
        return lines
    if name == "discriminant" and report.discriminant is not None:
        return [f"discriminant: {A.field.format(report.discriminant)}"]
    if name == "primitive_element" and report.primitive_element is not None:
        coords, poly = report.primitive_element
        return [f"primitive-element: {A.format_element(coords)}"
                f"  (minimal polynomial {poly.format()})"]
    if name == "nilpotent_witness" and report.nilpotent_witness is not None:
        return [f"nilpotent-witness: {A.format_element(report.nilpotent_witness)}"]
    return []


def render_report(report: ClassificationReport) -> str:
    """The text report: the sections its run was asked for, in that order."""
    return "\n".join(line for name in report.sections for line in _section(report, name)) + "\n"


def _render_decision(decision: Decision):
    lines = []
    if decision.detail:
        lines.append(f"    [{decision.detail}]")
    order = decision.basis.order
    if decision.certificate is None:
        if not decision.value:
            gens = "; ".join(g.format(order) for g in decision.basis.generators)
            lines.append(f"    failed ideal (reduced basis): {gens}")
        return lines
    if decision.labels[1:] == ("inverse",):
        what, inv = decision.certificate
        lines.append(f"    {decision.labels[0]}: {what.format(order)}")
        lines.append(f"    inverse mod relations: {inv.format(order)}")
        return lines
    lines.append("    1 = " + " + ".join(
        f"({c.format(order)})*{label}"
        for c, label in zip(decision.certificate, decision.labels)
        if not c.is_zero
    ))
    return lines


def _render_certificate(report: ClassificationReport):
    cert = report.certificate
    A = report.algebra
    lines = []
    for k, f in enumerate(cert.factors, start=1):
        lines.append(f"    factor {k}: generator {A.format_element(f.generator)}, "
                     f"idempotent {A.format_element(f.idempotent)}")
        if f.chain:
            chain = "; ".join(A.format_element(e) for e in f.chain)
            lines.append(f"      split chain: {chain}")
    lines.append(
        "    checks: idempotents orthogonal, sum to 1, degrees add to "
        f"{A.dimension}, every factor separable"
    )
    return lines
