"""Per-class moment estimation.

The surrogate machinery only ever sees a dataset through the first two
moments of each pseudo-labeled class. This module estimates those
moments and stabilizes near-singular covariances with a trace-scaled
ridge; the geometry on them (tau, halfspace distances) lives in
surrogate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, DomainError, finite_array


@dataclass(frozen=True)
class ClassMoments:
    """Empirical mean and covariance of one class.

    The mean is a finite vector, the covariance a finite square matrix
    of its width, symmetrized so downstream factorizations never see
    floating-point asymmetry; both are kept as read-only copies.
    Building one raises NonFiniteInput for a NaN or infinite entry,
    DimensionMismatch for a covariance not of the mean's width, and
    DomainError for a covariance whose symmetrization overflows.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = finite_array(self.mean, "class mean", shape=(None,), frozen=True)
        cov = finite_array(self.covariance, "class covariance", shape=mean.shape * 2)
        cov = _symmetric(cov)
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


def _symmetric(matrix):
    """(matrix + matrix^T) / 2, or DomainError where the sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (matrix + matrix.T) / 2.0
    if not np.isfinite(sym).all():
        raise DomainError("covariance overflows float64 when symmetrized")
    return sym


def estimate_moments(features):
    """Estimate mean and unbiased covariance of a sample.

    Parameters
    ----------
    features : ndarray, shape (m, d)
        Sample rows, one observation per row.

    Returns
    -------
    ClassMoments
        Mean vector and symmetrized unbiased covariance.

    Raises
    ------
    DegenerateSample
        If fewer than two rows are supplied.
    NonFiniteInput
        If a row holds NaN or infinity, or the covariance overflows.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    m = features.shape[0]
    if m < 2:
        raise DegenerateSample(f"need at least 2 rows to estimate a covariance, got {m}")
    # A non-finite row gives a non-finite mean, which ClassMoments rejects.
    with np.errstate(invalid="ignore", over="ignore"):
        mean = features.mean(axis=0)
        centered = features - mean
        cov = centered.T @ centered / (m - 1)
    return ClassMoments(mean=mean, covariance=cov)


def ridge(covariance):
    """Add a trace-scaled ridge to keep a covariance invertible.

    The ridge is max(1e-10, 1e-12 * trace / d), small enough to be
    invisible at the tolerances used anywhere downstream but large
    enough that the solve succeeds on rank-deficient sample covariances.
    Raises DomainError if the trace overflows float64.
    """
    cov = np.asarray(covariance, dtype=float)
    d = cov.shape[0]
    with np.errstate(over="ignore"):
        trace = float(np.trace(cov))
    if not math.isfinite(trace):
        raise DomainError("covariance trace overflows float64")
    eps = max(1e-10, 1e-12 * trace / d)
    return cov + eps * np.eye(d)
