"""Exception hierarchy shared by all modules.

Two broad families: caller mistakes (bad files, bad dimensions, bad
requests) and numerical failures (singular or degenerate systems).
The CLI maps the former to exit status 2 and the latter to 3.
"""


class RsmError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 3


class InputError(RsmError):
    """Caller-side contract violation (arguments, files, dimensions)."""

    exit_code = 2


class DimensionMismatch(InputError):
    """Vector or matrix has the wrong length for the operation."""


class DuplicateTerm(InputError):
    """The same model term appears more than once."""


class IndexOutOfRange(InputError):
    """Variable or canonical-axis index outside the model's range."""


class DomainError(InputError):
    """Value outside the real domain of the requested power transform."""


class WrongKind(InputError):
    """Operation applied to a region of the wrong conic kind."""


class NonPositiveBound(InputError):
    """Response-fluctuation bound M must be positive and finite."""


class SameSignPair(InputError):
    """Iso-response slope requested for eigenvalues that cannot cancel."""


class NotTwoVariable(InputError):
    """Canonical pair mixes more than two original variables."""


class TooFewRows(InputError):
    """Dataset too small for the requested number of fitted terms."""


class ParseError(InputError):
    """Malformed input file; message carries row/column context."""


class SchemaError(InputError):
    """Structurally valid file that violates the expected schema."""


class NumericalError(RsmError):
    """A computation failed for numerical rather than usage reasons."""


class NonConvergence(NumericalError):
    """Eigensolver sweep limit reached with off-diagonal entries still above the threshold."""


class SingularMatrix(NumericalError):
    """Matrix is singular (or nearly so) at the working tolerance."""


class DegeneratePair(NumericalError):
    """A requested eigenvalue is below the degeneracy tolerance."""


class NoPositiveBranch(NumericalError):
    """Neither sign branch yields a positive conversion ratio."""


class RankDeficient(NumericalError):
    """Design matrix is rank deficient; collinear columns are named."""
