"""Exception hierarchy shared across the package.

Every error raised on a contract violation derives from CvasError so
callers (and the CLI) can distinguish library failures from bugs.
"""


class CvasError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- blackbox

class SingleClassData(CvasError):
    """Training or subsampled labels contain only one class."""


class NonFiniteInput(CvasError):
    """Features or labels contain NaN or infinity."""


class DimensionMismatch(CvasError):
    """Input width does not match what the model was built for."""


class BadLabelValue(CvasError):
    """A label is outside {-1, +1} (training) or {-1, +1} / {0, 1} (CSV)."""


# ----------------------------------------------------------------- sampler

class NoOppositeClassPrototypes(CvasError):
    """No usable dataset point with the opposite predicted label."""


class DegenerateSample(CvasError):
    """Pseudo-labeled ball sample has fewer than two points in a class."""


# ----------------------------------------------------------------- moments

class TooFewSamples(CvasError):
    """Moment estimation needs at least two rows."""


class ZeroSlope(CvasError):
    """Slope vector is identically zero."""


class SingularCovariance(CvasError):
    """Covariance is not positive definite even after ridging."""


# --------------------------------------------------------------- surrogate

class DomainError(CvasError):
    """Scalar argument outside the mathematical domain of the function."""


class NegativeRadius(CvasError):
    """Divergence radius must be nonnegative."""


class IdenticalMeans(CvasError):
    """Class-conditional means coincide; no separating normalization."""


class SolverDidNotConverge(CvasError):
    """Damped Newton slope solver missed the gradient tolerance.

    Raised when the gradient-norm line search stalls or 100 Newton
    iterations pass without ||g|| <= 1e-9 * (1 + |F|).
    """


# ---------------------------------------------------------------- recourse

class NoActionableRecourse(CvasError):
    """No combination of allowed feature changes crosses the boundary."""


class NoValidRecourse(CvasError):
    """Recourse search exhausted its retries without flipping the model.

    Carries the best attempt in ``result`` so callers can still inspect it.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


# ------------------------------------------------------------- evalharness

class EmptyInput(CvasError):
    """Metric requested over an empty collection."""


# --------------------------------------------------------------------- cli

class SchemaMismatch(CvasError):
    """CSV columns do not line up with the feature-spec schema."""


class EmptySplit(CvasError):
    """Train/test split produced an empty side."""
