"""Per-class moment estimation and Mahalanobis halfspace geometry.

The surrogate machinery only ever sees a dataset through the first two
moments of each pseudo-labeled class. This module estimates those
moments, stabilizes near-singular covariances with a trace-scaled ridge,
and computes the Mahalanobis distance from a class mean to a halfspace,
which is the quantity both coverage and validity reduce to.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    SingularCovariance,
    TooFewSamples,
    finite_array,
)


@dataclass(frozen=True)
class ClassMoments:
    """Empirical mean, covariance, and row count of one class.

    The mean is a finite vector, the covariance a finite square matrix
    of its width, symmetrized so downstream factorizations never see
    floating-point asymmetry; both are kept as read-only copies.
    Building one raises NonFiniteInput for a NaN or infinite entry,
    DimensionMismatch for a covariance not of the mean's width, and
    DomainError for a covariance whose symmetrization overflows.
    """

    mean: np.ndarray
    covariance: np.ndarray
    count: int

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
        Mean vector, symmetrized unbiased covariance, and count m.

    Raises
    ------
    TooFewSamples
        If fewer than two rows are supplied.
    NonFiniteInput
        If a row holds NaN or infinity, or the covariance overflows.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    m = features.shape[0]
    if m < 2:
        raise TooFewSamples(f"need at least 2 rows to estimate a covariance, got {m}")
    # A non-finite row gives a non-finite mean, which ClassMoments rejects.
    with np.errstate(invalid="ignore", over="ignore"):
        mean = features.mean(axis=0)
        centered = features - mean
        cov = centered.T @ centered / (m - 1)
    return ClassMoments(mean=mean, covariance=cov, count=m)


def ridge(covariance):
    """Add a trace-scaled ridge to keep a covariance invertible.

    The ridge is max(1e-10, 1e-12 * trace / d), small enough to be
    invisible at the tolerances used anywhere downstream but large
    enough that Cholesky succeeds on rank-deficient sample covariances.
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


def halfspace_distance(mean, covariance, w, b):
    """Mahalanobis distance from a mean to the halfspace w^T x - b >= 0.

    Parameters
    ----------
    mean : ndarray, shape (d,)
    covariance : ndarray, shape (d, d)
        Ridged internally; must be positive definite afterwards.
    w : ndarray, shape (d,)
        Halfspace normal. Must not be the zero vector.
    b : float
        Halfspace offset.

    Returns
    -------
    float
        |w^T mean - b| / sqrt(w^T cov w) when the mean lies strictly
        outside the halfspace, 0.0 when it already lies inside.

    Raises
    ------
    ZeroSlope
        If w is identically zero.
    SingularCovariance
        If the ridged covariance has no Cholesky factorization.
    DimensionMismatch, NonFiniteInput
        If an input is not finite or not of the width of w.
    DomainError
        If b - w^T mean leaves float range, or w^T cov w does for a mean
        outside the halfspace.
    """
    w = finite_array(np.ravel(w), "halfspace normal", nonzero=True)
    mean = finite_array(mean, "mean", shape=w.shape)
    cov = ridge(finite_array(covariance, "covariance", shape=w.shape * 2))
    b = float(finite_array(b, "halfspace offset", shape=()))
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("covariance not positive definite after ridge") from exc
    deficit = _deficit(w, mean, b)
    if deficit <= 0.0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        q = float(w @ cov @ w)
    if not 0.0 < q < math.inf:
        raise DomainError(f"w^T Sigma w = {q:.3g} is outside float range")
    return deficit / math.sqrt(q)


def _deficit(w, x, b):
    """b - w^T x, or DomainError where it leaves float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        deficit = b - float(w @ x)
    if not math.isfinite(deficit):
        raise DomainError(f"the deficit b - w^T x overflows to {deficit}")
    return deficit

