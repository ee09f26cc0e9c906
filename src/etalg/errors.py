"""Exception types shared across the package."""


class EtalgError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------- fields

class ZeroNotInvertible(EtalgError):
    """The zero-or-invertible dichotomy landed on zero."""


class CharacteristicZero(EtalgError):
    """A p-th root was requested over a field of characteristic zero."""


class CompositeModulus(EtalgError):
    """The modulus of a prime field failed the primality check."""


# ---------------------------------------------------------------- univariate polynomials

class BothZero(EtalgError):
    """gcd of two zero polynomials is undefined."""


class ZeroOperand(EtalgError):
    """Resultant of a zero polynomial is not defined."""


class ConstantPolynomial(EtalgError):
    """The operation needs degree >= 1."""


class NotMonic(EtalgError):
    """The operation needs a monic polynomial."""


class AlreadySeparable(EtalgError):
    """coprime_split called on a polynomial coprime to its derivative."""


class ZeroDerivative(EtalgError):
    """coprime_split called with f' = 0; use pth_power_decompose instead."""


class DerivativeNonzero(EtalgError):
    """pth_power_decompose needs f' = 0."""


class NoCoprimeSplit(EtalgError):
    """Every irreducible factor is repeated; no split meets the degree contract."""


class FieldMismatch(EtalgError):
    """Operands live over different base fields."""


# ---------------------------------------------------------------- multivariate / Groebner

class IndexOutOfRange(EtalgError):
    """Variable index outside the ambient ring."""


class RingMismatch(EtalgError):
    """Operands live in different polynomial rings."""


class BudgetExceeded(EtalgError):
    """A work budget (Groebner pair count) ran out before completion."""


class TrivialIdeal(EtalgError):
    """The ideal contains 1; the quotient is the zero ring."""


class NotZeroDimensional(EtalgError):
    """The quotient is not a finite-dimensional vector space."""


# ---------------------------------------------------------------- finite algebras

class DimensionMismatch(EtalgError):
    """Element coordinates do not match the algebra dimension."""


class RepeatedZeroRoot(EtalgError):
    """Minimal polynomial divisible by T^2: non-reduced situation.

    Carries a nonzero nilpotent ``witness`` (coordinate tuple).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotInvertible(EtalgError):
    """Element with vanishing minimal-polynomial constant term."""


class NotIdempotent(EtalgError):
    """split_by_idempotent called on e with e^2 != e."""


class TrivialIdempotent(EtalgError):
    """split_by_idempotent called on e = 0 or e = 1."""


# ---------------------------------------------------------------- pipeline

class NotEtale(EtalgError):
    """Decomposition requested for an algebra with zero discriminant."""


class SearchExhausted(EtalgError):
    """A bounded search (primitive element, field generator) ran out."""


class InternalContradiction(EtalgError):
    """A theorem-backed invariant failed; this is a bug, never silent."""


class ParseError(EtalgError):
    """Input text rejected, with position information."""

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f"line {line}"
            if column is not None:
                location += f", column {column}"
            location += ": "
        super().__init__(location + message)
        self.line = line
        self.column = column
