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

Decomposition recursion: a generator whose minimal polynomial has full
degree makes the algebra visibly monogenic (single factor).  Otherwise an
infinite base field guarantees a primitive element among deterministic
scalar combinations of the generators.  Over GF(p) that search can run out
of candidates; the pipeline then switches to splitting along idempotents
read off the fixed space of the p-power (Frobenius) operator until every
leaf is a field, and each field leaf is monogenic by finite-field theory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from itertools import product as iter_product

from . import linalg
from .errors import (
    InternalContradiction,
    NonEtaleWitness,
    NotEtale,
    RepeatedZeroRoot,
    SearchExhausted,
)
from .fields import PrimeField
from .finalg import FiniteAlgebra, split_by_idempotent
from .groebner import DEFAULT_PAIR_BUDGET, contains_one, noether_dimension, quotient_algebra
from .kaehler import AlgebraPresentation, Decision, decide_all, relation_basis
from .multipoly import GREVLEX
from .unipoly import (
    UniPoly,
    coprime_split,
    derivative,
    eval_in_algebra,
    is_separable,
    pth_power_decompose,
    squarefree_part,
)

DEFAULT_PRIMITIVE_BUDGET = 1000


# ------------------------------------------------------------------ primitive elements

def _generator_items(A: FiniteAlgebra):
    items = list(A.generator_refs.items())
    if items:
        return items
    return [(label, A.basis_element(i)) for i, label in enumerate(A.basis_labels)]


def primitive_element(A: FiniteAlgebra, gens=None, budget=DEFAULT_PRIMITIVE_BUDGET):
    """Search b = sum lambda_i * gen_i with minimal polynomial of full degree.

    Scalars come from the deterministic enumeration of the base field,
    tuples ordered by the largest scalar index they use; the search raises
    SearchExhausted after ``budget`` candidates or when a finite field runs
    out of tuples.
    """
    if A.field.is_zero(A.discriminant()):
        raise NotEtale("primitive elements are only certified for etale algebras")
    gens = _generator_items(A) if gens is None else list(gens)
    vectors = [vec for _, vec in gens]
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
    """A nontrivial idempotent from the fixed space of x -> x^p, if any.

    The fixed space of the p-power operator on an etale GF(p)-algebra has
    one dimension per field factor; when it is just the scalars the algebra
    is a field and None is returned.
    """
    if not isinstance(A.field, PrimeField):
        raise NotEtale("frobenius_split is a GF(p) operation")
    if A.field.is_zero(A.discriminant()):
        raise NotEtale("frobenius_split needs a nonzero discriminant")
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
    factors: tuple
    notes: tuple
    orthogonal: bool
    complete: bool
    separable: bool
    degrees_match: bool


def _all_elements(A: FiniteAlgebra):
    """Every element of a GF(p)-algebra, in deterministic coordinate order."""
    K = A.field
    residues = [K.from_int(i) for i in range(K.modulus)]
    for coords in iter_product(residues, repeat=A.dimension):
        yield tuple(coords)


def _field_leaf_generator(A: FiniteAlgebra):
    """A generator of full degree in a finite-field leaf (always exists)."""
    for _, vec in _generator_items(A):
        if A.minimal_polynomial(vec).degree == A.dimension:
            return vec
    for vec in _all_elements(A):
        if A.minimal_polynomial(vec).degree == A.dimension:
            return vec
    raise SearchExhausted("no generating element in a finite-field leaf")


def decompose_etale(A: FiniteAlgebra, primitive_budget=DEFAULT_PRIMITIVE_BUDGET):
    """Decompose an etale algebra as a product of monogenic separable ones.

    Raises NotEtale on zero discriminant.  A non-separable generator inside
    a supposedly etale algebra would contradict the discriminant test; the
    splitting machinery still handles it defensively and any nilpotent that
    surfaces is raised as NonEtaleWitness with the witness attached.
    """
    if A.field.is_zero(A.discriminant()):
        raise NotEtale("decompose_etale needs a nonzero discriminant")
    factors = []
    notes = []

    def emit(poly, generator, sub, embed, chain):
        factors.append(
            DecompositionFactor(
                poly=poly,
                generator=embed(generator),
                idempotent=embed(sub.unit),
                chain=chain,
            )
        )

    def recurse(sub: FiniteAlgebra, embed, chain):
        for _, vec in _generator_items(sub):
            g = sub.minimal_polynomial(vec)
            if g.degree >= 1 and derivative(g).is_zero:
                g1 = pth_power_decompose(g)
                witness = eval_in_algebra(g1, vec, sub)
                raise NonEtaleWitness(
                    "generator annihilated by a p-th power; the algebra is not reduced",
                    witness=embed(witness),
                )
            if g.degree >= 1 and not is_separable(g):
                g1, _g2 = coprime_split(g)
                try:
                    e = sub.idempotent_of(eval_in_algebra(g1, vec, sub))
                except RepeatedZeroRoot as exc:
                    raise NonEtaleWitness(
                        "splitting element is a zero divisor with nilpotent part",
                        witness=embed(exc.witness),
                    ) from None
                _split_and_recurse(sub, e, embed, chain, recurse)
                return
        for _, vec in _generator_items(sub):
            g = sub.minimal_polynomial(vec)
            if g.degree == sub.dimension:
                emit(g, vec, sub, embed, chain)
                return
        for i in range(sub.dimension):
            vec = sub.basis_element(i)
            g = sub.minimal_polynomial(vec)
            if g.degree == sub.dimension:
                emit(g, vec, sub, embed, chain)
                return
        if isinstance(sub.field, PrimeField):
            try:
                b, g = primitive_element(sub, budget=primitive_budget)
                emit(g, b, sub, embed, chain)
            except SearchExhausted as exc:
                notes.append(f"primitive-element search over {sub.field!r}: {exc}; "
                             "splitting along the Frobenius fixed space instead")
                frobenius_phase(sub, embed, chain)
        else:
            b, g = primitive_element(sub, budget=primitive_budget)
            emit(g, b, sub, embed, chain)

    def frobenius_phase(sub: FiniteAlgebra, embed, chain):
        e = frobenius_split(sub)
        if e is None:
            vec = _field_leaf_generator(sub)
            emit(sub.minimal_polynomial(vec), vec, sub, embed, chain)
            return
        _split_and_recurse(sub, e, embed, chain, frobenius_phase)

    def _split_and_recurse(sub, e, embed, chain, cont):
        split = split_by_idempotent(e, sub)
        chain = chain + (embed(e),)

        def embed1(v):
            return embed(split.embed_first(v))

        def embed2(v):
            return embed(split.embed_second(v))

        cont(split.first, embed1, chain)
        cont(split.second, embed2, chain)

    recurse(A, lambda v: v, ())

    orthogonal = all(
        A.is_zero_element(A.mul(factors[i].idempotent, factors[j].idempotent))
        for i in range(len(factors))
        for j in range(i + 1, len(factors))
    )
    total = A.zero_element()
    for f in factors:
        total = A.add(total, f.idempotent)
    complete = total == A.unit
    separable = all(is_separable(f.poly) for f in factors)
    degrees_match = sum(f.poly.degree for f in factors) == A.dimension
    if not (orthogonal and complete and separable and degrees_match):
        raise InternalContradiction("decomposition certificate failed its own checks")
    return DecompositionCertificate(
        factors=tuple(factors),
        notes=tuple(notes),
        orthogonal=orthogonal,
        complete=complete,
        separable=separable,
        degrees_match=degrees_match,
    )


# ------------------------------------------------------------------ nilpotent witness

def find_nilpotent(A: FiniteAlgebra):
    """A verified nonzero nilpotent, or None.

    Scans generators then basis elements: an element whose minimal
    polynomial g properly exceeds its squarefree part r yields the nilpotent
    r(a).  When the discriminant vanishes some generator is caught this way.
    """
    K = A.field
    candidates = [vec for _, vec in _generator_items(A)]
    candidates += [A.basis_element(i) for i in range(A.dimension)]
    for a in candidates:
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
        cert = decompose_etale(A, primitive_budget)
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
# Every section of the text report, in report order.
SECTIONS = ("header", "trivial", *FLAGS, "noether_dimension", "vector_space_dimension", "basis",
            "discriminant", "etale", "decomposition", "primitive_element", "nilpotent_witness",
            "notes")


def _section(report: ClassificationReport, name, certificates):
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
        if certificates and decision is not None:
            lines += _render_decision(decision)
        return lines
    if name == "noether_dimension":
        dim = report.noether_dimension
        return [f"noether-dimension: {dim if dim is not None else 'undefined (zero ring)'}"]
    if name == "vector_space_dimension":
        dim = report.vector_space_dimension
        return [] if dim is None else [f"vector-space-dimension: {dim}"]
    if name == "decomposition":
        if report.decomposition is None:
            return []
        lines = ["decomposition:"] + ([] if report.decomposition else ["  (empty product)"])
        lines += [f"  g{k} = {g.format()}" for k, g in enumerate(report.decomposition, start=1)]
        if certificates and report.certificate is not None:
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
        if certificates:
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


def render_sections(report: ClassificationReport, names, certificates=False) -> list:
    """The lines of the named sections of the text report, in the order given."""
    return [line for name in names for line in _section(report, name, certificates)]


def render_report(report: ClassificationReport, certificates=False) -> str:
    return "\n".join(render_sections(report, SECTIONS, certificates)) + "\n"


def _render_decision(decision: Decision):
    lines = []
    if decision.detail:
        lines.append(f"    [{decision.detail}]")
    if decision.certificate is None:
        if not decision.value and decision.basis is not None and not decision.trivial:
            gens = "; ".join(g.format(decision.basis.order) for g in decision.basis.generators)
            lines.append(f"    failed ideal (reduced basis): {gens}")
        return lines
    if decision.labels[1:] == ("inverse",):
        what, inv = decision.certificate
        lines.append(f"    {decision.labels[0]}: {what.format()}")
        lines.append(f"    inverse mod relations: {inv.format()}")
        return lines
    lines.append("    1 = " + " + ".join(
        f"({c.format()})*{label}"
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
