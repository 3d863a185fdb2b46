"""Per-class moment estimation and Mahalanobis halfspace geometry.

The surrogate machinery only ever sees a dataset through the first two
moments of each pseudo-labeled class. This module estimates those
moments, stabilizes near-singular covariances with a trace-scaled ridge,
and computes the Mahalanobis distance from a class mean to a halfspace,
which is the quantity both coverage and validity reduce to.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, SingularCovariance, TooFewSamples, ZeroSlope


@dataclass(frozen=True)
class ClassMoments:
    """Empirical mean, covariance, and row count of one class.

    The covariance is symmetrized on construction so downstream
    factorizations never see floating-point asymmetry.
    """

    mean: np.ndarray
    covariance: np.ndarray
    count: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        cov = (cov + cov.T) / 2.0
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


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
        If a row holds NaN or infinity.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        features = np.atleast_2d(features)
    m = features.shape[0]
    if m < 2:
        raise TooFewSamples(f"need at least 2 rows to estimate a covariance, got {m}")
    if not np.isfinite(features).all():
        raise NonFiniteInput("moment estimation needs finite rows")
    mean = features.mean(axis=0)
    centered = features - mean
    cov = centered.T @ centered / (m - 1)
    return ClassMoments(mean=mean, covariance=cov, count=m)


def ridge(covariance):
    """Add a trace-scaled ridge to keep a covariance invertible.

    The ridge is max(1e-10, 1e-12 * trace / d), small enough to be
    invisible at the tolerances used anywhere downstream but large
    enough that Cholesky succeeds on rank-deficient sample covariances.
    """
    cov = np.asarray(covariance, dtype=float)
    d = cov.shape[0]
    eps = max(1e-10, 1e-12 * float(np.trace(cov)) / d)
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
    """
    mean = np.asarray(mean, dtype=float)
    w = np.asarray(w, dtype=float)
    if not np.any(w):
        raise ZeroSlope("halfspace normal is the zero vector")
    cov = ridge(covariance)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("covariance not positive definite after ridge") from exc
    margin = float(w @ mean) - float(b)
    if margin >= 0.0:
        return 0.0
    return abs(margin) / float(np.sqrt(w @ cov @ w))


def condition_number(covariance):
    """Eigenvalue condition number of a ridged covariance.

    Returns +inf when the smallest eigenvalue is nonpositive before
    ridging, signalling that the estimate itself is degenerate.
    """
    cov = np.asarray(covariance, dtype=float)
    cov = (cov + cov.T) / 2.0
    eigenvalues = np.linalg.eigvalsh(cov)
    if eigenvalues[0] <= 0.0:
        return float("inf")
    ridged = np.linalg.eigvalsh(ridge(cov))
    return float(ridged[-1] / ridged[0])
