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
from .moments import halfspace_distance, ridge

_GRAD_TOL = 1e-9
_MAX_NEWTON = 100
_MAX_HALVINGS = 60
# The largest fisher-rao or logdet radius: exp(rho) overflows from 709.8
# on, and exp(-rho - 1) is subnormal from 707.4 on and 0 from 745 on.
_RHO_CAP = 700.0


class DivergenceKind(str, Enum):
    NOMINAL = "nominal"
    QUADRATIC = "quadratic"
    BURES = "bures"
    FISHER_RAO = "fisher-rao"
    LOGDET = "logdet"


class AsymptoticFamily(str, Enum):
    """Infinite-radius limits group the divergences into two families."""

    QUADRATIC_OR_BURES = "quadratic-or-bures"
    FISHER_RAO_OR_LOGDET = "fisher-rao-or-logdet"


@dataclass(frozen=True)
class Divergence:
    """Divergence kind plus per-class radii (rho_pos, rho_neg): each one
    solve_cvas accepts, or +inf as asymptotic_surrogate records it."""

    kind: DivergenceKind
    rho_pos: float = 0.0
    rho_neg: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", DivergenceKind(self.kind))
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
    """Linear surrogate w, b with its margin kappa and solve metadata.

    objective is sum of tau_y at the optimum (None for hand-built
    surrogates); kappa is 1/objective, with 0.0 denoting the
    infinite-radius asymptotic limit. w is kept as a read-only copy.
    """

    w: np.ndarray
    b: float
    kappa: float
    divergence: Divergence
    objective: float = None

    def __post_init__(self):
        w = finite_array(np.ravel(self.w), "surrogate slope", nonzero=True,
                         frozen=True)
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")
        if not math.isfinite(self.kappa) or (self.objective is not None
                                             and math.isnan(self.objective)):
            raise NonFiniteInput("kappa must be finite and objective not NaN")
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
    then polished with Halley steps to relative residual <= 1e-12.

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
    else:
        p = -math.sqrt(max(0.0, 2.0 * (1.0 + math.e * x)))
        if p == 0.0:
            return -1.0
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0

    for _ in range(200):
        ew = math.exp(w)
        residual = w * ew - x
        if abs(residual) <= 0.25e-12 * abs(x):
            break
        wp1 = w + 1.0
        denominator = ew * wp1 - (w + 2.0) * residual / (2.0 * wp1)
        if denominator == 0.0:
            break
        step = residual / denominator
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
            "use asymptotic_surrogate for infinite radii"
        )
    if kind in (DivergenceKind.FISHER_RAO, DivergenceKind.LOGDET) and rho > _RHO_CAP:
        raise DomainError(
            f"{kind.value} radius {rho} exceeds the overflow cap {_RHO_CAP}; "
            "use asymptotic_surrogate for larger radii"
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


def _derivatives(terms, w):
    # Value, gradient and Hessian of sum c * sqrt(w^T M w).
    value, grad, hess = 0.0, 0.0, 0.0
    for c, m in terms:
        mw = m @ w
        s = math.sqrt(float(w @ mw))
        if not math.isfinite(c * s + c / s):  # a finite radius past float range
            raise DomainError(f"tau overflows at weight {c:.3g}; use the asymptote")
        value += c * s
        grad = grad + (c / s) * mw
        hess = hess + (c / s) * (m - np.outer(mw, mw) / (s * s))
    return value, grad, hess


def tau(kind, rho, covariance, w):
    """Worst-case standard deviation along w over a divergence ball.

    Closed forms, with S = covariance and q = sqrt(w^T S w):
    nominal or rho = 0 -> q; quadratic -> sqrt(w^T (S + sqrt(rho) I) w);
    bures -> rho*||w||_2 + q; fisher-rao -> exp(rho/2) * q;
    logdet -> sqrt(-W_-1(-exp(-rho-1))) * q.

    The covariance is used as given; ridge upstream if it may be
    singular. Radii must be finite; NaN or +inf raise DomainError, as
    do a fisher-rao or logdet radius above 700 and a radius so large
    that tau or its derivatives overflow.
    """
    kind = DivergenceKind(kind)
    _check_radius(kind, rho)
    w = finite_array(np.ravel(w), "tau slope", nonzero=True)
    cov = finite_array(covariance, "covariance", shape=w.shape * 2)
    return _derivatives(_terms(kind, rho, cov), w)[0]


def _reduced_basis(direction):
    # Orthonormal basis of the hyperplane {z : direction^T z = 0}.
    d = direction.shape[0]
    q, _ = np.linalg.qr(direction.reshape(d, 1), mode="complete")
    return q[:, 1:]


def _backtrack(reduced, z, step, grad_norm):
    # Halve t from 1 until ||g(z + t step)|| <= (1 - 1e-4 t) ||g(z)||.
    t = 1.0
    for _ in range(_MAX_HALVINGS):
        trial = reduced(z + t * step)
        if float(np.linalg.norm(trial[3])) <= (1.0 - 1e-4 * t) * grad_norm:
            return trial
        t *= 0.5
    raise SolverDidNotConverge(
        f"line search stalled at reduced gradient norm {grad_norm:.3e}")


def _mean_gap(moments_pos, moments_neg):
    """a = mu_pos - mu_neg, the direction the slope is normalized along."""
    if moments_pos.mean.shape != moments_neg.mean.shape:
        raise DimensionMismatch("the two classes have different widths")
    a = moments_pos.mean - moments_neg.mean
    if not np.any(a):
        raise IdenticalMeans("class means are identical; no normalized slope exists")
    return a


def solve_cvas(moments_pos, moments_neg, divergence):
    """Solve the robust surrogate problem for one divergence setting.

    Eliminates the normalization w^T a = 1 (a = mu_pos - mu_neg) through
    w = w0 + N z with w0 = a/||a||^2 and N an orthonormal null-space
    basis, then runs damped Newton on the reduced convex objective until
    ||g|| <= 1e-9 * (1 + |F|). The line search halves the step until the
    reduced gradient norm falls by the factor (1 - 1e-4 t): the reduced
    Hessian is positive definite, so the Newton direction always
    decreases ||g||, and the analytic gradient stays accurate after
    differences in F have rounded away. With d = 1 there are no free
    directions and w0 is the answer.

    Returns
    -------
    Surrogate
        With kappa = 1/(tau_pos + tau_neg) and b placed so both classes
        sit at Mahalanobis margin kappa.

    Raises
    ------
    DomainError
        If a radius is not finite, or a fisher-rao or logdet radius
        exceeds 700; use asymptotic_surrogate for the infinite-radius
        limit.
    DimensionMismatch
        If the two classes have different widths.
    IdenticalMeans
        If the class means coincide.
    SolverDidNotConverge
        If the line search stalls or the gradient test still fails
        after 100 Newton iterations.
    """
    a = _mean_gap(moments_pos, moments_neg)
    kind = divergence.kind
    terms_pos = _terms(kind, divergence.rho_pos, ridge(moments_pos.covariance))
    terms_neg = _terms(kind, divergence.rho_neg, ridge(moments_neg.covariance))
    w0 = a / float(a @ a)
    basis = _reduced_basis(a)

    def reduced(z):
        w = w0 + basis @ z
        f, grad, hess = _derivatives(terms_pos + terms_neg, w)
        return z, w, f, basis.T @ grad, basis.T @ hess @ basis

    z, w, f, g, h = reduced(np.zeros(a.shape[0] - 1))
    for _ in range(_MAX_NEWTON):
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= _GRAD_TOL * (1.0 + abs(f)):
            break
        z, w, f, g, h = _backtrack(reduced, z, np.linalg.solve(h, -g), grad_norm)
    else:
        raise SolverDidNotConverge(
            f"reduced gradient norm {grad_norm:.3e} above tolerance "
            f"after {_MAX_NEWTON} Newton iterations"
        )

    tau_pos = _derivatives(terms_pos, w)[0]
    tau_neg = _derivatives(terms_neg, w)[0]
    objective = tau_pos + tau_neg
    kappa = 1.0 / objective
    b = float(w @ moments_pos.mean) - kappa * tau_pos
    return Surrogate(w=w, b=b, kappa=kappa, divergence=divergence,
                     objective=objective)


def coverage_validity(surrogate, moments_pos, moments_neg):
    """Mahalanobis margins of the two class means.

    Coverage is the distance from the positive mean to the
    negatively-predicted halfspace {x : w^T x - b <= 0}; validity the
    distance from the negative mean to {x : w^T x - b >= 0}. Either is
    0 when the surrogate misclassifies that class mean.
    """
    w, b = surrogate.w, surrogate.b
    coverage = halfspace_distance(moments_pos.mean, moments_pos.covariance, -w, -b)
    validity = halfspace_distance(moments_neg.mean, moments_neg.covariance, w, b)
    return coverage, validity


def worst_case_misclassification(surrogate, mean, covariance, gaussian=False):
    """Probability certificate for a class with the given moments.

    nu is the Mahalanobis distance from the mean to the complementary
    halfspace. gaussian=False gives the distribution-free moment bound
    1/(1 + nu^2); gaussian=True gives 1 - Phi(nu) for Gaussian classes.
    """
    w, b = surrogate.w, surrogate.b
    mean = finite_array(mean, "class mean", shape=w.shape)
    cov = ridge(finite_array(covariance, "class covariance", shape=w.shape * 2))
    nu = abs(float(w @ mean) - b) / math.sqrt(float(w @ cov @ w))
    if gaussian:
        return 0.5 * math.erfc(nu / math.sqrt(2.0))
    return 1.0 / (1.0 + nu * nu)


def asymptotic_surrogate(moments_pos, moments_neg, family, inflated_class):
    """Limit of the robust surrogate as one radius grows without bound.

    With a = mu_pos - mu_neg and y the inflated class:
    quadratic-or-bures -> w = a/||a||^2; fisher-rao-or-logdet ->
    w = Sigma_y^{-1} a / (a^T Sigma_y^{-1} a). Both put the hyperplane
    through the other class mean: b = w^T mu_y - y.

    The returned Surrogate records kappa = 0.0 and objective = +inf,
    the limiting values, with the inflated radius stored as +inf.
    """
    family = AsymptoticFamily(family)
    if inflated_class not in (1, -1):
        raise ValueError("inflated_class must be +1 or -1")
    a = _mean_gap(moments_pos, moments_neg)

    if family is AsymptoticFamily.QUADRATIC_OR_BURES:
        w = a / float(a @ a)
        kind = DivergenceKind.BURES
    else:
        cov = ridge((moments_pos if inflated_class == 1 else moments_neg).covariance)
        try:
            solved = np.linalg.solve(cov, a)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance(
                "inflated-class covariance is singular after ridge") from exc
        w = solved / float(a @ solved)
        kind = DivergenceKind.FISHER_RAO

    mu_inflated = (moments_pos if inflated_class == 1 else moments_neg).mean
    b = float(w @ mu_inflated) - inflated_class
    rho_pos = math.inf if inflated_class == 1 else 0.0
    rho_neg = math.inf if inflated_class == -1 else 0.0
    divergence = Divergence(kind=kind, rho_pos=rho_pos, rho_neg=rho_neg)
    return Surrogate(w=w, b=b, kappa=0.0, divergence=divergence,
                     objective=math.inf)


def fr_worst_case_covariance(covariance, rho, w):
    """Covariance attaining the Fisher-Rao worst case along w.

    Returns S^(1/2) (I + (e^rho - 1) vv^T/||v||^2) S^(1/2) with
    v = S^(1/2) w: the matrix at Fisher-Rao distance rho from S that
    maximizes w^T S' w, scaling it by exactly e^rho.
    """
    _check_radius(DivergenceKind.FISHER_RAO, rho)
    w = finite_array(np.ravel(w), "slope", nonzero=True)
    cov = ridge(finite_array(covariance, "covariance", shape=w.shape * 2))
    cov = (cov + cov.T) / 2.0
    eigenvalues, vectors = np.linalg.eigh(cov)
    if eigenvalues[0] <= 0.0:
        raise SingularCovariance("covariance not positive definite after ridge")
    sqrt_cov = (vectors * np.sqrt(eigenvalues)) @ vectors.T
    v = sqrt_cov @ w
    scale = (math.exp(rho) - 1.0) / float(v @ v)
    inner = np.eye(cov.shape[0]) + scale * np.outer(v, v)
    result = sqrt_cov @ inner @ sqrt_cov
    return (result + result.T) / 2.0


def optimal_mean(w, b, mean_hat, covariance, nu):
    """Mean inside a Mahalanobis ball minimizing (b - w^T mu)^2.

    Over {mu : (mu - mean_hat)^T Sigma^{-1} (mu - mean_hat) <= nu^2},
    the minimizer moves along Sigma w. When the ball reaches the
    hyperplane the objective is 0 and w^T mu* = b; otherwise mu* sits
    on the ball boundary facing the hyperplane and the objective is
    (|b - w^T mean_hat| - nu*sqrt(w^T Sigma w))^2. A NaN nu raises
    DomainError; nu = +inf reaches every hyperplane.

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
    shortfall = float(finite_array(b, "offset", shape=())) - float(w @ mean_hat)
    quad = float(w @ cov @ w)
    scale = math.sqrt(quad)
    if abs(shortfall) <= nu * scale:
        mu_star = mean_hat + (shortfall / quad) * (cov @ w)
        return mu_star, 0.0
    mu_star = mean_hat + math.copysign(nu / scale, shortfall) * (cov @ w)
    objective = (abs(shortfall) - nu * scale) ** 2
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
