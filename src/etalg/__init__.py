"""Exact classification of finitely presented algebras over Q and GF(p).

The package decides, in exact arithmetic, whether a finitely presented
algebra over a discrete field is unramified (nette), standard / elementary
smooth, or standard etale; computes the presentation of its module of
Kahler differentials; and, for finite-dimensional quotients, certifies the
trace-form etale property together with a constructive decomposition into
monogenic separable algebras.
"""

from .errors import EtalgError
from .fields import GF, QQ, FieldContext, PrimeField, Rationals
from .finalg import (FiniteAlgebra, eval_in_algebra, monogenic_from_poly, product,
                     split_by_idempotent)
from .groebner import (
    GroebnerBasis,
    buchberger,
    contains_one,
    is_invertible_mod,
    noether_dimension,
    normal_form,
    quotient_algebra,
    standard_monomials,
)
from .kaehler import (
    AlgebraPresentation,
    DifferentialPresentation,
    elementary_smooth_decision,
    jacobian,
    nette_decision,
    omega_dimension,
    omega_presentation,
    standard_etale_decision,
    standard_smooth_decision,
    universal_derivation,
)
from .multipoly import GREVLEX, LEX, MonomialOrder, MultiPoly
from .parsing import parse_file, parse_input
from .pipeline import (
    ClassificationReport,
    DecompositionCertificate,
    classify,
    decompose_etale,
    frobenius_split,
    primitive_element,
    render_report,
)
from .unipoly import (
    UniPoly,
    coprime_split,
    derivative,
    discriminant,
    extended_gcd,
    is_separable,
    pth_power_decompose,
    resultant,
)

__version__ = "0.1.0"
