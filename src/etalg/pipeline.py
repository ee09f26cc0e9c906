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
the discriminant: ``classify`` computes it for the report and passes a
nonzero one straight on to the decomposition, and ``decompose_etale``
computes it as its guard.  ``primitive_element`` and ``frobenius_split``
hold on any finite algebra.  A nonzero discriminant makes the algebra
reduced, and over the perfect fields Q and GF(p) every minimal polynomial in
a reduced algebra is separable, so no generator ever needs a non-separable
split.
Route 1 returns a single factor: the first generator or basis element whose
minimal polynomial has full degree, else a primitive element, which an
infinite base field guarantees among deterministic scalar combinations of
the generators.  Over GF(p) that bounded search can run out of candidates;
route 2 then splits along idempotents read off the fixed space of the
p-power (Frobenius) operator until every leaf is a field, and each field
leaf is generated by a single element by finite-field theory.

Rendering: the report is the one source of its text, named sections that
``render_sections`` prints in any selection (the CLI subcommands' too).  It
records whether ``classify`` tracked certificates; evidence lines appear
exactly then, each polynomial in the order of the run that produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from itertools import chain as iter_chain, islice, product as iter_product

from . import linalg
from .errors import InternalContradiction, NotEtale, SearchExhausted
from .fields import PrimeField
from .finalg import FiniteAlgebra, split_by_idempotent
from .groebner import DEFAULT_PAIR_BUDGET, contains_one, noether_dimension, quotient_algebra
from .kaehler import AlgebraPresentation, Decision, decide_all, relation_basis
from .multipoly import GREVLEX
from .unipoly import UniPoly, eval_in_algebra, is_separable, squarefree_part

DEFAULT_PRIMITIVE_BUDGET = 1000


# ------------------------------------------------------------------ primitive elements

def _basis(A: FiniteAlgebra):
    return [A.basis_element(i) for i in range(A.dimension)]


def _generators(A: FiniteAlgebra):
    """The recorded generators of A, or its basis when it records none."""
    return list(A.generator_refs.values()) or _basis(A)


def _candidates(A: FiniteAlgebra):
    """Generators, then basis elements: the scan order of decomposition and witness search."""
    return [*A.generator_refs.values(), *_basis(A)]


def primitive_element(A: FiniteAlgebra, budget=DEFAULT_PRIMITIVE_BUDGET):
    """Search b = sum lambda_i * gen_i with minimal polynomial of full degree.

    Holds on any finite algebra, reduced or not: a minimal polynomial g of
    degree dim A makes A = K[b] = K[T]/<g>, so the answer proves itself.
    Scalars come from the deterministic enumeration of the base field, tuples
    ordered by the largest scalar index they use; the search raises
    SearchExhausted after ``budget`` candidates or when a finite field runs
    out of tuples.
    """
    vectors = _generators(A)
    r = len(vectors)
    tried = 0
    tier = 0
    while True:
        scalars = A.field.enumerate_scalars(tier + 1)
        if len(scalars) <= tier:
            raise SearchExhausted(
                f"no primitive element among the {tried} candidate combinations"
            )
        for indices in iter_product(range(tier + 1), repeat=r):
            if tier > 0 and max(indices) != tier:
                continue
            tried += 1
            if tried > budget:
                raise SearchExhausted(f"primitive-element budget of {budget} exhausted")
            b = A.zero_element()
            for idx, vec in zip(indices, vectors):
                b = A.add(b, A.scalar_mul(scalars[idx], vec))
            g = A.minimal_polynomial(b)
            if g.degree == A.dimension:
                return b, g
        tier += 1


def frobenius_split(A: FiniteAlgebra):
    """A nontrivial idempotent from the fixed space of x -> x^p; None when A is local.

    Holds on any finite GF(p)-algebra, reduced or not (Berlekamp): x^p = x
    makes the minimal polynomial of x divide T^p - T, which is squarefree and
    splits over GF(p), so the fixed space is spanned by idempotents and has
    one dimension per local factor.
    """
    if not isinstance(A.field, PrimeField):
        raise NotEtale("frobenius_split is a GF(p) operation")
    K = A.field
    p = K.modulus
    m = A.dimension
    cols = [A.power(A.basis_element(j), p) for j in range(m)]
    matrix = [
        [K.sub(cols[j][i], K.one() if i == j else K.zero()) for j in range(m)]
        for i in range(m)
    ]
    fixed = linalg.kernel_basis(matrix, K)
    if len(fixed) <= 1:
        return None
    for vec in fixed:
        v = tuple(vec)
        if linalg.rank([list(A.unit), list(v)], K) == 2:
            break
    else:
        raise InternalContradiction("fixed space of dimension >= 2 inside the scalars")
    g = A.minimal_polynomial(v)
    for c in range(p):
        if K.is_zero(g(K.from_int(c))):
            shifted = A.sub(v, A.from_scalar(K.from_int(c)))
            e = A.idempotent_of(shifted)
            if not A.is_zero_element(e) and e != A.unit:
                return e
    raise InternalContradiction("p-power-fixed element with no root in the prime field")


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


def _all_elements(A: FiniteAlgebra):
    """Every element of a GF(p)-algebra, in deterministic coordinate order."""
    K = A.field
    residues = [K.from_int(i) for i in range(K.modulus)]
    for coords in iter_product(residues, repeat=A.dimension):
        yield tuple(coords)


def _first_full_degree(A: FiniteAlgebra, candidates):
    """(element, minimal polynomial) of the first candidate that generates A, or None."""
    for vec in candidates:
        g = A.minimal_polynomial(vec)
        if g.degree == A.dimension:
            return vec, g
    return None


def _frobenius_leaves(sub: FiniteAlgebra, embed, chain, budget):
    """The field factors of an etale GF(p)-algebra, split along Frobenius idempotents."""
    e = frobenius_split(sub)
    if e is None:
        scan = _all_elements(sub)
        found = _first_full_degree(sub, iter_chain(_generators(sub), islice(scan, budget)))
        if found is None:
            if next(scan, None) is not None:
                raise SearchExhausted(f"field-generator scan budget of {budget} exhausted "
                                      f"on a leaf of dimension {sub.dimension}")
            # A finite field is generated by one element, so the full scan finds one.
            raise InternalContradiction("a finite-field leaf has no generating element")
        vec, g = found
        return [DecompositionFactor(g, embed(vec), embed(sub.unit), chain)]
    split = split_by_idempotent(e, sub)
    chain = chain + (embed(e),)
    return (_frobenius_leaves(split.first, lambda v: embed(split.embed_first(v)), chain, budget)
            + _frobenius_leaves(split.second, lambda v: embed(split.embed_second(v)), chain, budget))


def decompose_etale(A: FiniteAlgebra, primitive_budget=DEFAULT_PRIMITIVE_BUDGET):
    """Decompose an etale algebra as a product of monogenic separable ones.

    Raises NotEtale on zero discriminant, the one etale check of the
    decomposition.  Route 1 gives a single factor: the first generator or
    basis element of full degree, else a primitive element from the bounded
    search.  Route 2 runs over GF(p) only, when that search is exhausted: it
    splits along Frobenius idempotents into field leaves, each generated by
    one element that a scan of at most ``primitive_budget`` elements per leaf
    finds.  Over Q an exhausted search propagates.

    No generator can need a non-separable split (see the module docstring);
    the certificate checks at the end of ``_decompose`` still verify every
    factor and raise InternalContradiction if the theory were broken.
    """
    if A.field.is_zero(A.discriminant()):
        raise NotEtale("decompose_etale needs a nonzero discriminant")
    return _decompose(A, primitive_budget)


def _decompose(A: FiniteAlgebra, primitive_budget):
    """decompose_etale on an algebra whose discriminant the caller found nonzero."""
    notes = []
    found = _first_full_degree(A, _candidates(A))
    try:
        vec, g = found or primitive_element(A, budget=primitive_budget)
        factors = [DecompositionFactor(g, vec, A.unit, ())]
    except SearchExhausted as exc:
        if not isinstance(A.field, PrimeField):
            raise
        notes.append(f"primitive-element search over {A.field!r}: {exc}; "
                     "splitting along the Frobenius fixed space instead")
        factors = _frobenius_leaves(A, lambda v: v, (), primitive_budget)

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
    """
    for a in _candidates(A):
        g = A.minimal_polynomial(a)
        if g.degree < 1:
            continue
        r = squarefree_part(g)
        if r.degree == g.degree:
            continue
        w = eval_in_algebra(r, a, A)
        if A.is_zero_element(w):
            continue
        power = w
        for _ in range(A.dimension):
            power = A.mul(power, power)
            if A.is_zero_element(power):
                return w
    return None


# ------------------------------------------------------------------ the report

@dataclass
class ClassificationReport:
    input_field: str
    input_variables: tuple
    input_relations: tuple          # canonical strings
    trivial: bool
    nette: bool
    standard_smooth: bool
    elementary_smooth: bool
    standard_etale: bool
    noether_dimension: object       # int, or None for the zero ring
    vector_space_dimension: object  # int when zero-dimensional, else None
    discriminant: object            # field element when strictly finite, else None
    etale: bool
    decomposition: object           # list of UniPoly when etale, else None
    primitive_element: object       # (coords, UniPoly) or None
    nilpotent_witness: object       # coords or None
    notes: list
    # non-schema extras used by the text renderer
    algebra: object = None
    certificate: object = None
    decisions: dict = dataclass_field(default_factory=dict)
    certified: bool = False         # whether classify tracked the evidence the text prints

    def to_json_dict(self):
        def poly_str(g):
            return g.format()

        def element_str_list(vec):
            K = self.algebra.field if self.algebra else None
            return [K.format(c) for c in vec]

        data = {
            "input": {
                "field": self.input_field,
                "vars": list(self.input_variables),
                "relations": list(self.input_relations),
            },
            "trivial": self.trivial,
            "nette": self.nette,
            "standard_smooth": self.standard_smooth,
            "elementary_smooth": self.elementary_smooth,
            "standard_etale": self.standard_etale,
            "noether_dimension": self.noether_dimension,
            "vector_space_dimension": self.vector_space_dimension,
            "discriminant": None,
            "etale": self.etale,
            "decomposition": None,
            "primitive_element": None,
            "nilpotent_witness": None,
            "notes": list(self.notes),
        }
        if self.discriminant is not None and self.algebra is not None:
            data["discriminant"] = self.algebra.field.format(self.discriminant)
        if self.decomposition is not None:
            data["decomposition"] = [poly_str(g) for g in self.decomposition]
        if self.primitive_element is not None:
            coords, poly = self.primitive_element
            data["primitive_element"] = {
                "coordinates": element_str_list(coords),
                "minimal_polynomial": poly_str(poly),
            }
        if self.nilpotent_witness is not None:
            data["nilpotent_witness"] = element_str_list(self.nilpotent_witness)
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)


def classify(
    P: AlgebraPresentation,
    order=GREVLEX,
    pair_budget=DEFAULT_PAIR_BUDGET,
    primitive_budget=DEFAULT_PRIMITIVE_BUDGET,
    certificates=False,
) -> ClassificationReport:
    """Run the full decision pipeline on a presentation."""
    gb = relation_basis(P, order, pair_budget)
    trivial = contains_one(gb)
    decisions = decide_all(P, order, pair_budget, certificates, gb)

    notes = []
    report = ClassificationReport(
        input_field=P.field.name(),
        input_variables=P.variables,
        input_relations=tuple(f.format(order) for f in P.relations),
        trivial=trivial,
        nette=decisions["nette"].value,
        standard_smooth=decisions["standard_smooth"].value,
        elementary_smooth=decisions["elementary_smooth"].value,
        standard_etale=decisions["standard_etale"].value,
        noether_dimension=None,
        vector_space_dimension=None,
        discriminant=None,
        etale=False,
        decomposition=None,
        primitive_element=None,
        nilpotent_witness=None,
        notes=notes,
        decisions=decisions,
        certified=certificates,
    )

    if trivial:
        report.etale = True
        report.vector_space_dimension = 0
        report.decomposition = []
        notes.append("TrivialAlgebra: the relation ideal contains 1; "
                     "every flag holds vacuously for the zero ring")
        return report

    dim = noether_dimension(gb)
    report.noether_dimension = dim
    if report.nette and dim > 0:
        raise InternalContradiction(
            f"nette presentation with Noether dimension {dim}; this contradicts "
            "the decisive theorem and means the implementation is wrong"
        )
    if dim != 0:
        return report

    A = quotient_algebra(gb)
    report.algebra = A
    report.vector_space_dimension = A.dimension
    disc = A.discriminant()
    report.discriminant = disc
    report.etale = not P.field.is_zero(disc)
    if report.etale:
        cert = _decompose(A, primitive_budget)
        report.certificate = cert
        report.decomposition = [f.poly for f in cert.factors]
        notes.extend(cert.notes)
        if len(cert.factors) == 1:
            leaf = cert.factors[0]
            report.primitive_element = (leaf.generator, leaf.poly)
        else:
            notes.append("no primitive element reported: the decomposition has "
                         f"{len(cert.factors)} factors")
    else:
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


FLAGS = ("nette", "standard_smooth", "elementary_smooth", "standard_etale")
# Every section of the full text report, in report order.  Two more sections,
# "trivial_note" and "no_decomposition", appear only in subcommand selections.
SECTIONS = ("header", "trivial", *FLAGS, "noether_dimension", "vector_space_dimension", "basis",
            "discriminant", "etale", "decomposition", "primitive_element", "nilpotent_witness",
            "notes")


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
    if name == "no_decomposition" and report.decomposition is None:
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


def render_sections(report: ClassificationReport, names) -> list:
    """The lines of the named sections of the text report, in the order given."""
    return [line for name in names for line in _section(report, name)]


def render_report(report: ClassificationReport) -> str:
    """The full text report: every section of ``SECTIONS``."""
    return "\n".join(render_sections(report, SECTIONS)) + "\n"


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
