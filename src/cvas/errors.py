"""Exception hierarchy shared across the package.

Every error raised on a contract violation derives from CvasError so
callers (and the CLI) can distinguish library failures from bugs.
"""

import operator

import numpy as np


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
    """A label is outside {-1, +1} (training) or {-1, +1} / {0, 1} (CSV),
    or one CSV label column holds both -1 and 0."""


# ----------------------------------------------------------------- sampler

class NoOppositeClassPrototypes(CvasError):
    """No dataset row has the opposite predicted label from the query point."""


class DegenerateSample(CvasError):
    """Pseudo-labeled ball sample has fewer than two points in a class."""


# ----------------------------------------------------------------- moments

class TooFewSamples(CvasError):
    """Moment estimation needs at least two rows."""


class ZeroSlope(CvasError):
    """Slope vector is identically zero."""


class SingularCovariance(CvasError):
    """A ridged covariance gives a negative w^T Sigma w or a^T Sigma^-1 a,
    or the solve's weighted covariance is singular."""


# --------------------------------------------------------------- surrogate

class DomainError(CvasError):
    """Scalar argument outside the mathematical domain of the function."""


class NegativeRadius(CvasError):
    """Divergence radius must be nonnegative."""


class IdenticalMeans(CvasError):
    """Class-conditional means coincide; no separating normalization."""


class SolverDidNotConverge(CvasError):
    """Fixed-point slope solver missed its stop test.

    Raised only when 1000 steps pass without an iterate w meeting
    ||P grad F(w)|| * ||w|| <= 1e-9 * F(w); nothing else raises it.
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


# ------------------------------------------------------------ input checks

def finite_array(x, what, shape=None, nonzero=False, nonempty=False, frozen=False):
    """x as a float array, checked once for every entry point (internal).

    Raises, in this order: DimensionMismatch unless x has `shape` (None
    matches any length), EmptyInput if `nonempty` and x is empty,
    NonFiniteInput for a NaN or infinite entry, ZeroSlope if `nonzero`
    and x is all 0. frozen=True returns a read-only copy, for value types.
    """
    x = np.array(x, dtype=float) if frozen else np.asarray(x, dtype=float)
    if shape is not None and (x.ndim != len(shape) or any(
            want is not None and want != got for want, got in zip(shape, x.shape))):
        raise DimensionMismatch(f"{what} has shape {x.shape}, expected {shape} "
                                "(None: any length)")
    if nonempty and x.size == 0:
        raise EmptyInput(f"{what} is empty")
    if not np.isfinite(x).all():
        raise NonFiniteInput(f"{what} must be finite")
    if nonzero and not x.any():
        raise ZeroSlope(f"{what} is the zero vector")
    if frozen:
        x.flags.writeable = False
    return x


def check_integer(value, what, minimum):
    """ValueError unless value is an integer, numpy's included, and at
    least `minimum` (internal): a setting that counts or seeds."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}")
