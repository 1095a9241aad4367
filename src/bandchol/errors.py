"""Exception types for numerical failures, under BandcholError, and for an
empty bandwidth grid, which is bad input and so a ValueError.

Column indices reported by these errors are 1-based, matching
the row/column numbering of the input data file.
"""


class BandcholError(Exception):
    """Base class for numerical failures raised by this package."""


class SingularMatrix(BandcholError):
    """A matrix required to be positive definite was not."""


class SingularDesign(BandcholError):
    """The regressor Gram matrix of one column was not invertible."""

    def __init__(self, column, detail=""):
        self.column = int(column)
        msg = f"singular regressor Gram matrix at column {self.column}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DegenerateResidual(BandcholError):
    """A residual variance collapsed to (numerical) zero."""

    def __init__(self, column, value=0.0):
        self.column = int(column)
        super().__init__(
            f"residual variance at column {self.column} is {value:.3e}; "
            "posterior is degenerate"
        )


class TruncationMassZero(BandcholError):
    """The truncated inverse-gamma posterior carries no mass below the cap.

    scale is the column's variance scale n*dhat/nj, the reciprocal of the
    untruncated posterior mean of its innovation precision 1/d.
    """

    def __init__(self, column, cap, scale):
        self.column = int(column)
        super().__init__(
            f"posterior mass of d_{self.column} on (0, {cap:g}] underflows to zero: "
            f"the column's variance scale n*dhat/nj is {scale:.3g}, and the cap M "
            "is absolute, in squared data units"
        )


class NonFiniteLogPosterior(BandcholError):
    """A bandwidth log posterior evaluated to NaN or infinity.

    mass_zero, when given, is the TruncationMassZero of the first column
    whose truncation mass is zero at bandwidth k, the cause of a -inf; the
    message repeats its column, cap and variance scale.
    """

    def __init__(self, k, value, mass_zero=None):
        self.k = int(k)
        self.mass_zero = mass_zero
        msg = f"log posterior at bandwidth {self.k} is {value}"
        if mass_zero is not None:
            msg += f": {mass_zero}"
        super().__init__(msg)


class EmptyGrid(ValueError):
    """A bandwidth search grid contained no candidate values."""


class ExperimentFailed(BandcholError):
    """Too many replications of an experiment raised numerical errors."""
