"""Covariance-robust linear surrogates of a local decision boundary.

The surrogate is the hyperplane sign(w^T x - b) that maximizes the
worse of two Mahalanobis margins: coverage (distance from the positive
class mean to the negatively-predicted halfspace) and validity
(distance from the negative mean to the positively-predicted
halfspace). Robustness to model shift enters through a divergence ball
of radius rho_y around each class covariance; the worst-case standard
deviation over that ball has a closed form tau_y(w) for each supported
divergence, and the robust surrogate minimizes

    F(w) = tau_pos(w) + tau_neg(w)    over    {w : w^T (mu_pos - mu_neg) = 1},

after which kappa = 1/F(w*) is the optimal margin and the intercept
equalizes the two classes: |w^T mu_y - b| = kappa * tau_y(w*).

Conventions: the favorable side is w^T x - b >= 0, slopes are
normalized by w^T (mu_pos - mu_neg) = 1.
"""

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._io import atomic_write_text
from .errors import (
    CvasError,
    DimensionMismatch,
    DomainError,
    IdenticalMeans,
    NegativeRadius,
    NonFiniteInput,
    SingularCovariance,
    SolverDidNotConverge,
    finite_array,
)
from .moments import ridge

_STOP_TOL = 1e-9
_MAX_STEPS = 1000
# The largest fisher-rao or logdet radius: exp(rho) overflows from 709.8
# on, and exp(-rho - 1) is subnormal from 707.4 on and 0 from 745 on.
_RHO_CAP = 700.0


class DivergenceKind(str, Enum):
    NOMINAL = "nominal"
    QUADRATIC = "quadratic"
    BURES = "bures"
    FISHER_RAO = "fisher-rao"
    LOGDET = "logdet"


@dataclass(frozen=True)
class Divergence:
    """Divergence kind plus per-class radii (rho_pos, rho_neg): each one
    solve_cvas accepts, or, for at most one class, +inf: the
    infinite-radius limit, which asymptotic_surrogate takes and records.

    A radius has its tau term's units: none for fisher-rao and logdet,
    feature units for bures (rho ||w||), feature units to the fourth power
    for quadratic (sqrt(rho) I sits inside the covariance).
    """

    kind: DivergenceKind
    rho_pos: float = 0.0
    rho_neg: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", DivergenceKind(self.kind))
        if self.rho_pos == self.rho_neg == math.inf:
            raise DomainError("at most one radius may be +inf, the inflated class's")
        for rho in (self.rho_pos, self.rho_neg):
            if rho != math.inf:
                _check_radius(self.kind, rho)
        if self.kind is DivergenceKind.NOMINAL and (self.rho_pos or self.rho_neg):
            raise ValueError("nominal divergence requires both radii equal to 0")

    def check_finite(self):
        """DomainError unless solve_cvas takes both radii (neither is +inf)."""
        for rho in (self.rho_pos, self.rho_neg):
            _check_radius(self.kind, rho)


@dataclass(frozen=True)
class Surrogate:
    """Linear surrogate w, b with its margin kappa and divergence.

    kappa is 1/(tau_pos + tau_neg) at the optimum, with 0.0 denoting
    the infinite-radius asymptotic limit. w is kept as a read-only copy.
    """

    w: np.ndarray
    b: float
    kappa: float
    divergence: Divergence

    def __post_init__(self):
        w = finite_array(np.ravel(self.w), "surrogate slope", nonzero=True,
                         frozen=True)
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")
        if not math.isfinite(self.kappa):
            raise NonFiniteInput("kappa must be finite")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", float(finite_array(self.b, "offset", shape=())))

    def decision_values(self, features):
        """w^T x - b for a batch of rows, shape (n,).

        Raises DimensionMismatch for rows of the wrong width and
        NonFiniteInput for rows holding NaN or infinity.
        """
        features = finite_array(np.atleast_2d(features), "surrogate input",
                                shape=(None, self.w.size))
        return features @ self.w - self.b

    def label(self, features):
        """Hard labels in {-1, +1}; the boundary itself counts as +1."""
        return np.where(self.decision_values(features) >= 0.0, 1, -1)


def lambert_w_minus1(x):
    """Branch -1 of the Lambert W function on [-1/e, 0).

    Solves r * exp(r) = x for the solution r <= -1. Initialized with the
    branch-point series near -1/e and the log-log asymptotic near 0,
    then polished with Halley steps to relative residual <= 1e-12. For
    subnormal x, exp(r) is subnormal too and r * exp(r) - x loses its
    bits, so Newton steps solve the log form r + log(-r) = log(-x)
    instead, to a relative residual of about 1e-16.

    Raises
    ------
    DomainError
        If x is outside [-1/e, 0).
    """
    branch = -math.exp(-1.0)
    if not branch <= x < 0.0:
        raise DomainError(f"lambert_w_minus1 domain is [-1/e, 0), got {x}")
    if x == branch:
        return -1.0

    if x > -0.25:
        log_neg_x = math.log(-x)
        log_log = math.log(-log_neg_x)
        w = log_neg_x - log_log + log_log / log_neg_x
        if -x < sys.float_info.min:
            for _ in range(50):
                step = (w + math.log(-w) - log_neg_x) * w / (w + 1.0)
                w -= step
                if abs(step) <= 1e-15 * -w:
                    break
            return w
    else:
        # Above -1/e, 1 + e*x is at least one ulp of 1: p < 0.
        p = -math.sqrt(2.0 * (1.0 + math.e * x))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0

    for _ in range(200):
        ew = math.exp(w)
        residual = w * ew - x
        if abs(residual) <= 0.25e-12 * abs(x):
            break
        wp1 = w + 1.0
        step = residual / (ew * wp1 - (w + 2.0) * residual / (2.0 * wp1))
        w -= step
        if abs(step) <= 1e-17 * abs(w):
            break
    return min(w, -1.0)


def _check_radius(kind, rho):
    if rho < 0.0:
        raise NegativeRadius(f"rho must be nonnegative, got {rho}")
    if not math.isfinite(rho):
        raise DomainError(
            f"rho must be finite, got {rho}; "
            "asymptotic_surrogate takes a divergence with one +inf radius"
        )
    if kind in (DivergenceKind.FISHER_RAO, DivergenceKind.LOGDET) and rho > _RHO_CAP:
        raise DomainError(
            f"{kind.value} radius {rho} exceeds the overflow cap {_RHO_CAP}; "
            "asymptotic_surrogate takes its +inf limit"
        )


def _terms(kind, rho, covariance):
    # tau = sum of weight * sqrt(w^T M w) over these (weight, M) pairs.
    _check_radius(kind, rho)
    if kind is DivergenceKind.QUADRATIC:
        return [(1.0, covariance + math.sqrt(rho) * np.eye(len(covariance)))]
    if kind is DivergenceKind.BURES:
        return [(1.0, covariance), (rho, np.eye(len(covariance)))]
    if kind is DivergenceKind.FISHER_RAO:
        return [(math.exp(rho / 2.0), covariance)]
    if kind is DivergenceKind.LOGDET:
        # sqrt(-W_-1(-exp(-rho-1))); equals 1 at rho = 0.
        return [(math.sqrt(-lambert_w_minus1(-math.exp(-rho - 1.0))), covariance)]
    return [(1.0, covariance)]


def _positive(value, name):
    # A quadratic form the solve takes the root of or divides by.
    if value < 0.0:
        raise SingularCovariance(
            f"{name} = {value:.3g} < 0: a covariance is not positive semidefinite")
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} = {value:.3g} is outside float range")
    return value


def _evaluate(terms, w):
    # tau = sum of c * s over the (c, M) terms, s = sqrt(w^T M w), and
    # the weights c / s, which make grad tau = (sum of (c / s) M) w.
    value, weights = 0.0, []
    for c, m in terms:
        with np.errstate(over="ignore", invalid="ignore"):
            q = float(w @ (m @ w))
        s = math.sqrt(_positive(q, "w^T Sigma w"))
        if not math.isfinite(c * s + c / s):  # a finite radius past float range
            raise DomainError(f"tau overflows at weight {c:.3g}; use the asymptote")
        value += c * s
        weights.append(c / s)
    return value, weights


def tau(kind, rho, covariance, w):
    """Worst-case standard deviation along w over a divergence ball.

    Closed forms, with S = covariance and q = sqrt(w^T S w):
    nominal or rho = 0 -> q; quadratic -> sqrt(w^T (S + sqrt(rho) I) w);
    bures -> rho*||w||_2 + q; fisher-rao -> exp(rho/2) * q;
    logdet -> sqrt(-W_-1(-exp(-rho-1))) * q.

    The covariance is used as given; ridge upstream if it may be
    singular. Radii must be finite; NaN or +inf raise DomainError, as
    do a fisher-rao or logdet radius above 700, a radius so large that
    tau or its derivatives overflow, and a w^T S w that overflows or
    underflows to 0. A negative w^T S w raises SingularCovariance.
    """
    kind = DivergenceKind(kind)
    w = finite_array(np.ravel(w), "tau slope", nonzero=True)
    cov = finite_array(covariance, "covariance", shape=w.shape * 2)
    return _evaluate(_terms(kind, rho, cov), w)[0]


def _mean_gap(moments_pos, moments_neg):
    """a = mu_pos - mu_neg, the slope's normalization direction, and a^T a."""
    if moments_pos.mean.shape != moments_neg.mean.shape:
        raise DimensionMismatch("the two classes have different widths")
    a = moments_pos.mean - moments_neg.mean
    if not np.any(a):
        raise IdenticalMeans("class means are identical; no normalized slope exists")
    with np.errstate(over="ignore"):
        return a, _positive(float(a @ a), "a^T a")


def _mpm_step(m, a):
    """The minimax probability machine's step w = M^-1 a / (a^T M^-1 a),
    the module's one solve; M is I or sums ridged covariances."""
    try:
        solved = np.linalg.solve(m, a)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("the weighted class covariance is singular "
                                 "after ridge") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        return solved / _positive(float(a @ solved), "a^T M^-1 a")


def solve_cvas(moments_pos, moments_neg, divergence):
    """Solve the robust surrogate problem for one divergence setting.

    F(w) is a sum of terms c_t * s_t(w) with s_t = sqrt(w^T M_t w), so
    the solve is a minimax probability machine's fixed-point iteration
    (Lanckriet et al., JMLR 2002). From w0 = a/||a||^2, with
    a = mu_pos - mu_neg, each step forms M = sum of (c_t / s_t) M_t at
    the current w and moves to

        w <- M^{-1} a / (a^T M^{-1} a),

    one symmetric positive-definite solve. F cannot increase: by
    sqrt(q) <= (q / s + s) / 2, the quadratic (w'^T M w' + F(w)) / 2
    lies above F and touches it at w, and the step minimizes it over
    w'^T a = 1. The gradient of F is M w, so the stop test reuses M: it
    accepts w once ||P M w|| * ||w|| <= 1e-9 * F, with P the projection
    onto {z : a^T z = 0}. The test is scale-free because w^T grad F = F.
    Every iterate is tested, w0 and the last one included; with d = 1,
    w0 passes at once.

    Returns
    -------
    Surrogate
        With kappa = 1/(tau_pos + tau_neg) and b placed so both classes
        sit at Mahalanobis margin kappa.

    Raises
    ------
    DomainError
        If a radius is not finite, or a fisher-rao or logdet radius
        exceeds 700 (use asymptotic_surrogate for the infinite-radius
        limit), or if a^T a, w^T Sigma w or tau leaves float range.
    DimensionMismatch
        If the two classes have different widths.
    IdenticalMeans
        If the class means coincide.
    SingularCovariance
        If a ridged class covariance gives w^T Sigma w < 0 at an
        iterate, or the weighted covariance of a step is singular.
    SolverDidNotConverge
        If the stop test still fails after 1000 steps.
    """
    a, a_sq = _mean_gap(moments_pos, moments_neg)
    kind = divergence.kind
    terms_pos = _terms(kind, divergence.rho_pos, ridge(moments_pos.covariance))
    terms_neg = _terms(kind, divergence.rho_neg, ridge(moments_neg.covariance))
    terms = terms_pos + terms_neg
    w = a / a_sq
    for steps in range(_MAX_STEPS + 1):
        f, weights = _evaluate(terms, w)
        with np.errstate(over="ignore", invalid="ignore"):
            m_bar = sum(weight * m for weight, (_, m) in zip(weights, terms))
            grad = m_bar @ w
            projected = grad - (float(a @ grad) / a_sq) * a
            residual = float(np.linalg.norm(projected) * np.linalg.norm(w))
            if residual <= _STOP_TOL * f:
                break
            if steps == _MAX_STEPS:
                raise SolverDidNotConverge(
                    f"||P grad F|| * ||w|| / F = {residual / f:.3e} above "
                    f"{_STOP_TOL} after {_MAX_STEPS} steps")
            w = _mpm_step(m_bar, a)

    tau_pos = _evaluate(terms_pos, w)[0]
    tau_neg = _evaluate(terms_neg, w)[0]
    kappa = 1.0 / (tau_pos + tau_neg)
    b = float(w @ moments_pos.mean) - kappa * tau_pos
    return Surrogate(w=w, b=b, kappa=kappa, divergence=divergence)


def _deficit(w, x, b):
    """b - w^T x, or DomainError where it leaves float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        deficit = b - float(w @ x)
    if not math.isfinite(deficit):
        raise DomainError(f"the deficit b - w^T x overflows to {deficit}")
    return deficit


def halfspace_distance(mean, covariance, w, b):
    """Mahalanobis distance from a mean to the halfspace w^T x - b >= 0.

    For a mean strictly outside the halfspace, (b - w^T mean) over the
    nominal tau sqrt(w^T cov w) of the ridged covariance, which is read
    only along w, as solve_cvas reads it; for a mean inside, 0.0, and no
    tau is taken. w must not be the zero vector (ZeroSlope). Raises
    NonFiniteInput or DimensionMismatch for an input that is not finite
    or not of w's width, DomainError where b - w^T mean leaves float
    range, and, for a mean outside, SingularCovariance where
    w^T cov w < 0 and DomainError where it leaves float range.
    """
    w = finite_array(np.ravel(w), "halfspace normal", nonzero=True)
    mean = finite_array(mean, "mean", shape=w.shape)
    cov = ridge(finite_array(covariance, "covariance", shape=w.shape * 2))
    b = float(finite_array(b, "halfspace offset", shape=()))
    deficit = _deficit(w, mean, b)
    if deficit <= 0.0:
        return 0.0
    return deficit / _evaluate([(1.0, cov)], w)[0]


def coverage_validity(surrogate, moments_pos, moments_neg):
    """Mahalanobis margins of the two class means.

    Coverage is the distance from the positive mean to the
    negatively-predicted halfspace {x : w^T x - b <= 0}; validity the
    distance from the negative mean to {x : w^T x - b >= 0}. Either is
    0 when the surrogate misclassifies that class mean. Raises as
    halfspace_distance does, DomainError past float range included.
    """
    w, b = surrogate.w, surrogate.b
    coverage = halfspace_distance(moments_pos.mean, moments_pos.covariance, -w, -b)
    validity = halfspace_distance(moments_neg.mean, moments_neg.covariance, w, b)
    return coverage, validity


def worst_case_misclassification(surrogate, moments_pos, moments_neg):
    """Probability certificates of the two classes, positive first.

    Each is the distribution-free moment bound 1/(1 + m^2) of the class's
    margin m from coverage_validity (Lanckriet et al., JMLR 2002): a mean
    on its own side certifies below 1, one on the wrong side or on the
    hyperplane 1.0, without taking tau. Raises as coverage_validity does.
    """
    margins = coverage_validity(surrogate, moments_pos, moments_neg)
    return tuple(1.0 / (1.0 + m * m) for m in margins)


def asymptotic_surrogate(moments_pos, moments_neg, divergence):
    """Limit of the robust surrogate as one radius grows without bound.

    The divergence's +inf radius names the inflated class y; its other
    radius does not enter. With a = mu_pos - mu_neg, the limit is one
    step of solve_cvas's iteration, w = M^-1 a / (a^T M^-1 a), with
    M = I for quadratic and bures (so w = a/||a||^2, exactly: the
    l2-regularized minimax probability machine) and M the ridged
    Sigma_y for fisher-rao and logdet (the class-reweighted one). Both
    put the hyperplane through the other class mean: b = w^T mu_y - y.

    The returned Surrogate records kappa = 0.0, the limiting margin,
    and the divergence it was given.
    Raises ValueError for a divergence with no +inf radius, and
    otherwise what solve_cvas's step raises: SingularCovariance where
    the ridged Sigma_y is singular or a^T Sigma_y^-1 a < 0, DomainError
    past float range, DimensionMismatch and IdenticalMeans.
    """
    if divergence.rho_pos == math.inf:
        y, inflated = 1, moments_pos
    elif divergence.rho_neg == math.inf:
        y, inflated = -1, moments_neg
    else:
        raise ValueError("the asymptote needs a divergence with one +inf radius")
    a, _ = _mean_gap(moments_pos, moments_neg)
    isotropic = divergence.kind in (DivergenceKind.QUADRATIC, DivergenceKind.BURES)
    w = _mpm_step(np.eye(a.size) if isotropic else ridge(inflated.covariance), a)
    return Surrogate(w=w, b=float(w @ inflated.mean) - y, kappa=0.0,
                     divergence=divergence)


def optimal_mean(w, b, mean_hat, covariance, nu):
    """Mean inside a Mahalanobis ball minimizing (b - w^T mu)^2.

    Over {mu : (mu - mean_hat)^T Sigma^{-1} (mu - mean_hat) <= nu^2},
    the minimizer moves along Sigma w. When the ball reaches the
    hyperplane the objective is 0 and w^T mu* = b; otherwise mu* sits
    on the ball boundary facing the hyperplane and the objective is
    (|b - w^T mean_hat| - nu*sqrt(w^T Sigma w))^2, with Sigma ridged
    and sqrt(w^T Sigma w) its nominal tau. nu = +inf reaches every
    hyperplane; a NaN nu raises DomainError, as do a gap b - w^T mean_hat,
    mu* or objective past float range, and the covariance raises as in
    halfspace_distance.

    Returns
    -------
    (mu_star, objective)
    """
    w = finite_array(np.ravel(w), "slope", nonzero=True)
    if nu < 0.0:
        raise NegativeRadius(f"nu must be nonnegative, got {nu}")
    if math.isnan(nu):
        raise DomainError("nu must not be NaN")
    mean_hat = finite_array(np.ravel(mean_hat), "mean_hat", shape=w.shape)
    cov = ridge(finite_array(covariance, "covariance", shape=w.shape * 2))
    shortfall = _deficit(w, mean_hat, float(finite_array(b, "offset", shape=())))
    scale = _evaluate([(1.0, cov)], w)[0]
    reaches = abs(shortfall) <= nu * scale
    step = shortfall / scale / scale if reaches else math.copysign(nu / scale, shortfall)
    with np.errstate(over="ignore", invalid="ignore"):
        mu_star = mean_hat + step * (cov @ w)
    gap = abs(shortfall) - nu * scale
    objective = 0.0 if reaches else gap * gap
    if not (np.isfinite(mu_star).all() and objective < math.inf):
        raise DomainError("the optimal mean or its objective overflows float64")
    return mu_star, objective


def save_surrogate(surrogate, path):
    """Atomic JSON write of {w, b, kappa, divergence, rho_pos, rho_neg}
    (infinities serialized in Python's extended JSON form)."""
    divergence = surrogate.divergence
    record = {"w": [float(v) for v in surrogate.w], "b": surrogate.b,
              "kappa": surrogate.kappa, "divergence": divergence.kind.value,
              "rho_pos": divergence.rho_pos, "rho_neg": divergence.rho_neg}
    atomic_write_text(path, json.dumps(record, indent=2) + "\n")


def load_surrogate(path):
    """Read a surrogate written by save_surrogate; Surrogate checks it.

    Raises
    ------
    CvasError
        Naming the path, for a file that is not a whole surrogate
        record: malformed JSON, a missing key, or a field of the wrong
        type or outside its domain (an unknown divergence, a negative
        kappa).
    NonFiniteInput, ZeroSlope, DimensionMismatch, NegativeRadius, DomainError
        As Divergence and Surrogate raise them for the values read.
    OSError
        If the file cannot be read.
    """
    try:
        with open(path) as fh:
            record = json.load(fh)
        divergence = Divergence(kind=record["divergence"], rho_pos=record["rho_pos"],
                                rho_neg=record["rho_neg"])
        return Surrogate(w=record["w"], b=record["b"], kappa=record["kappa"],
                         divergence=divergence)
    except (KeyError, TypeError, ValueError) as exc:
        raise CvasError(f"{path} is not a surrogate record: {exc!r}") from exc
