"""Exception types shared across the toolkit.

Every error raised by kholo derives from :class:`KholoError`, so callers can
catch toolkit failures without swallowing genuine bugs.  Each class declares
the process exit code the CLI returns for it: 2 for an input error (every
:class:`InputError`), 1 for a negative verdict (:class:`Disconnected`), and
3, the default, for an internal error.
"""


class KholoError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 3


class InputError(KholoError):
    """The input is malformed or outside a pipeline's hypotheses."""

    exit_code = 2


# -- scalars ----------------------------------------------------------------

class DivisionByZero(InputError, ZeroDivisionError):
    """Division by the zero element of Q(i)."""


# -- polynomials ------------------------------------------------------------

class SpaceMismatch(InputError):
    """Two polynomials from different variable spaces were combined."""


class UnknownVariable(InputError):
    """A variable name is not part of the relevant variable space."""


class IncompleteSubstitution(InputError):
    """A substitution lacks an image for a variable that occurs."""


class IncompleteAssignment(InputError):
    """An evaluation point lacks a value for a variable that occurs."""


class NonZSpace(InputError):
    """Operation requires a polynomial in complex z-variables only."""


class NonRealCoefficients(InputError, ValueError):
    """Operation requires a polynomial with real coefficients."""


class IndexOutOfRange(InputError):
    """A complex-coordinate index is outside 1..n."""


class DimensionOutOfRange(InputError):
    """The number of complex dimensions is below 1 or above the supported bound."""


class DegreeOverflow(InputError):
    """A computed degree exceeds the supported bound."""


class ExpansionTooLarge(InputError):
    """An expression would expand past the term budget or the integer digit limit."""


class AnswerTooLarge(InputError):
    """An answer holds an integer with more digits than ``str`` converts."""


class InexactDivision(KholoError):
    """Polynomial division expected to be exact left a remainder."""


# -- elimination ------------------------------------------------------------

class ZeroInput(InputError):
    """Resultant of the zero polynomial is undefined."""


class DegreeZeroBoth(InputError):
    """Both resultant arguments are constant in the elimination variable."""


# -- branches ---------------------------------------------------------------

class ZeroDegree(InputError):
    """A discriminant or an annihilator needs positive degree in the fiber variable."""


class LeadingCoefficientVanishes(InputError):
    """Specialization point kills the leading fiber coefficient."""


class NonConvergence(KholoError):
    """Numeric root iteration hit its iteration cap."""


class PointOnLocus(InputError):
    """A sample point lies on the discriminant locus."""


class NoSamplePoints(InputError):
    """A covering check was given no sample points."""


# -- simplicial router ------------------------------------------------------

class InvalidComplex(InputError):
    """Input data does not describe a valid simplicial complex."""


class InvalidSubcomplex(InvalidComplex):
    """Marked faces violate the subcomplex requirements."""


class InvalidEndpoints(InputError):
    """Routing endpoints are not vertices of the complex interior to tops."""


class Disconnected(KholoError):
    """No facet path connects the endpoint simplices."""

    exit_code = 1


class InvalidPath(InputError):
    """A piecewise-linear path leaves the complex it claims to live in."""


# -- parsing ----------------------------------------------------------------

class ExprSyntaxError(InputError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class NegativeExponent(ExprSyntaxError):
    """Exponents must be non-negative integer literals."""
