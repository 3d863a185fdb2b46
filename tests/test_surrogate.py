"""Robust surrogate solves, tau closed forms, asymptotics, certificates."""

import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvas import (
    ClassMoments,
    Divergence,
    DomainError,
    IdenticalMeans,
    NonFiniteInput,
    SingularCovariance,
    SolverDidNotConverge,
    Surrogate,
    ZeroSlope,
    coverage_validity,
    halfspace_distance,
    lambert_w_minus1,
    optimal_mean,
    solve_cvas,
    tau,
    worst_case_misclassification,
)
from cvas import surrogate
from cvas.moments import ridge

from helpers import random_instance, random_pd
from oracles import (
    fr_worst_case_covariance,
    lambert_oracle,
    optimal_mean_oracle,
    phi_divergence,
    tau_oracle,
)

KINDS = ("quadratic", "bures", "fisher-rao", "logdet")

COUNTER_COV = np.array([[5.0, 2.0], [2.0, 1.0]])


def counter_moments():
    pos = ClassMoments(mean=np.array([-10.0, 0.0]), covariance=COUNTER_COV)
    neg = ClassMoments(mean=np.array([0.0, 0.0]), covariance=COUNTER_COV)
    return pos, neg


def in_plane_basis(a):
    """Orthonormal basis of {z : a^T z = 0}, shape (d, d - 1)."""
    return np.linalg.svd(a.reshape(1, -1))[2][1:].T


def random_moments(rng, d=3):
    mu_pos, cov_pos, mu_neg, cov_neg = random_instance(rng, d)
    return (ClassMoments(mean=mu_pos, covariance=cov_pos),
            ClassMoments(mean=mu_neg, covariance=cov_neg))


# ---------------------------------------------------------------- lambert

def test_lambert_branch_point():
    assert lambert_w_minus1(-math.exp(-1.0)) == -1.0


def test_lambert_constructed_values():
    assert_allclose(lambert_w_minus1(-2.0 * math.exp(-2.0)), -2.0, rtol=1e-12)
    assert_allclose(lambert_w_minus1(-5.0 * math.exp(-5.0)), -5.0, rtol=1e-12)


def test_lambert_subnormal_arguments_solve_the_log_form():
    # For subnormal x, exp(w) is subnormal as well, so w * exp(w) - x
    # loses its bits: Halley's polish returned -742.97 at x = -2.5e-323,
    # where the root is -749.45. The log form w + log(-w) = log(-x) holds
    # to about 1.6e-16 relative, monotone in x, up to the smallest normal.
    xs = -np.geomspace(5e-324, sys.float_info.min, 2000)
    ws = np.array([lambert_w_minus1(float(x)) for x in xs])
    for x, w in zip(xs, ws):
        log_neg_x = math.log(-x)
        assert abs(w + math.log(-w) - log_neg_x) <= 1e-12 * abs(log_neg_x)
    assert np.all(np.diff(ws) >= 0.0)


def test_lambert_against_bisection_oracle():
    x = -math.exp(-2.0)
    got = lambert_w_minus1(x)
    assert_allclose(got, -3.146193, rtol=1e-6)
    assert_allclose(got, lambert_oracle(x), rtol=1e-9)


def test_lambert_residual_contract():
    for x in np.geomspace(1e-300, math.exp(-1.0) - 1e-17, 200):
        r = lambert_w_minus1(-x)
        assert r <= -1.0
        assert abs(r * math.exp(r) + x) <= 1e-12 * x


def test_lambert_domain():
    with pytest.raises(DomainError):
        lambert_w_minus1(0.0)
    with pytest.raises(DomainError):
        lambert_w_minus1(-1.0)


# ---------------------------------------------------------------- tau

def test_tau_rho_zero_collapses():
    w = np.array([3.0, 4.0])
    for kind in ("nominal",) + KINDS:
        assert_allclose(tau(kind, 0.0, np.eye(2), w), 5.0, rtol=1e-12)


def test_tau_closed_form_examples():
    w = np.array([1.0, 0.0])
    assert_allclose(tau("bures", 1.0, np.eye(2), w), 2.0, rtol=1e-12)
    assert_allclose(tau("fisher-rao", 2.0, np.eye(2), w), math.e, rtol=1e-12)
    assert_allclose(tau("logdet", 1.0, np.eye(2), w), 1.773752, rtol=1e-6)


def test_tau_positive_homogeneity():
    rng = np.random.default_rng(1)
    cov = random_pd(rng, 3)
    w = rng.normal(size=3)
    for kind in KINDS:
        base = tau(kind, 0.8, cov, w)
        for t in (2.0, -3.0, 0.25):
            assert_allclose(tau(kind, 0.8, cov, t * w), abs(t) * base,
                            rtol=1e-10)


def test_tau_matches_numeric_oracle_spot():
    # three instances per divergence; the 50-instance suite is criterion 5
    rng = np.random.default_rng(2)
    for kind in KINDS:
        for _ in range(3):
            cov = random_pd(rng, 3)
            w = rng.normal(size=3)
            rho = rng.uniform(0.1, 2.0)
            closed = tau(kind, rho, cov, w)
            numeric = tau_oracle(kind, rho, cov, w)
            assert abs(closed - numeric) / numeric <= 1e-3
            assert closed >= numeric * (1.0 - 1e-3)


def test_tau_validation():
    with pytest.raises(DomainError):
        tau("bures", -0.1, np.eye(2), [1.0, 0.0])
    with pytest.raises(ZeroSlope):
        tau("nominal", 0.0, np.eye(2), [0.0, 0.0])
    with pytest.raises(DomainError):
        tau("fisher-rao", 701.0, np.eye(2), [1.0, 0.0])
    for kind in ("nominal",) + KINDS:
        for rho in (math.nan, math.inf):
            with pytest.raises(DomainError):
                tau(kind, rho, np.eye(2), [1.0, 0.0])


def test_divergence_validation():
    with pytest.raises(DomainError):
        Divergence(kind="bures", rho_pos=-1.0)
    with pytest.raises(ValueError):
        Divergence(kind="nominal", rho_neg=1.0)
    with pytest.raises(ValueError):
        Divergence(kind="frobenius")
    with pytest.raises(DomainError):
        Divergence(kind="bures", rho_neg=math.nan)
    with pytest.raises(DomainError):
        Divergence(kind="logdet", rho_pos=math.nan)
    # +inf is how solve_cvas takes the inflated class's radius;
    # two of them name no class.
    assert Divergence(kind="bures", rho_neg=math.inf).rho_neg == math.inf
    with pytest.raises(DomainError, match="at most one radius"):
        Divergence(kind="bures", rho_pos=math.inf, rho_neg=math.inf)


def test_divergence_refuses_a_finite_partner_of_an_infinite_radius():
    # The limit at a +inf radius does not read the other radius, so a
    # sweep over it used to print one equal row per radius.
    for kind in KINDS:
        for radii in ((math.inf, 2.5), (2.5, math.inf)):
            with pytest.raises(ValueError, match="needs 0 as the other class's radius"):
                Divergence(kind, *radii)


def test_divergence_rejects_fisher_rao_radius_above_the_cap():
    # A finite radius above 700 would overflow exp(rho / 2) in the solve;
    # the divergence rejects it when built. +inf stays, as the asymptote's.
    for radii in ({"rho_neg": 700.5}, {"rho_pos": 701.0}, {"rho_neg": 1e300}):
        with pytest.raises(DomainError, match="overflow cap"):
            Divergence(kind="fisher-rao", **radii)
    assert Divergence(kind="fisher-rao", rho_neg=700.0).rho_neg == 700.0
    assert Divergence(kind="fisher-rao", rho_pos=math.inf).rho_pos == math.inf
    assert Divergence(kind="bures", rho_neg=701.0).rho_neg == 701.0


def test_divergence_rejects_logdet_radius_above_the_cap():
    # exp(-rho - 1) underflows to 0 from rho = 745 on, where every solve
    # failed in lambert_w_minus1; the cap is fisher-rao's 700.
    pos, neg = counter_moments()
    assert solve_cvas(pos, neg, Divergence(kind="logdet", rho_neg=700.0)).kappa > 0.0
    for rho in (701.0, 800.0):
        for radii in ({"rho_neg": rho}, {"rho_pos": rho}):
            with pytest.raises(DomainError, match="logdet radius .* overflow cap"):
                Divergence(kind="logdet", **radii)
        with pytest.raises(DomainError, match="overflow cap"):
            tau("logdet", rho, np.eye(2), [1.0, 0.0])


# ---------------------------------------------------------------- solve

def test_nominal_counterexample():
    pos, neg = counter_moments()
    sur = solve_cvas(pos, neg, Divergence(kind="nominal"))
    assert_allclose(sur.w, [-0.1, 0.2], atol=1e-6)
    assert_allclose(sur.b, 0.5, atol=1e-6)
    assert_allclose(sur.kappa, 5.0, rtol=1e-8)
    coverage, validity = coverage_validity(sur, pos, neg)
    assert_allclose(coverage, 5.0, rtol=1e-8)
    assert_allclose(validity, 5.0, rtol=1e-8)
    assert_allclose(coverage, sur.kappa, rtol=1e-9)


def test_fisher_rao_counterexample():
    pos, neg = counter_moments()
    sur = solve_cvas(pos, neg, Divergence(kind="fisher-rao", rho_neg=10.0))
    expected_b = math.exp(5.0) / (1.0 + math.exp(5.0))
    assert_allclose(sur.w, [-0.1, 0.2], atol=1e-6)
    assert_allclose(sur.b, expected_b, atol=1e-6)
    _, validity = coverage_validity(sur, pos, neg)
    assert_allclose(validity, 10.0 * expected_b, rtol=1e-6)


def test_identical_means():
    m = ClassMoments(mean=np.zeros(2), covariance=np.eye(2))
    with pytest.raises(IdenticalMeans):
        solve_cvas(m, m, Divergence(kind="nominal"))


def _tau_gradient(kind, rho, cov, w):
    # Gradient in w of each tau closed form, written out independently.
    q = math.sqrt(float(w @ cov @ w))
    if kind == "quadratic":
        m = cov + math.sqrt(rho) * np.eye(w.shape[0])
        return m @ w / math.sqrt(float(w @ m @ w))
    if kind == "bures":
        return cov @ w / q + rho * w / float(np.linalg.norm(w))
    return (tau(kind, rho, cov, w) / q) * (cov @ w) / q  # tau = c(rho) q


def _assert_stationary(pos, neg, div):
    sur = solve_cvas(pos, neg, div)
    a = pos.mean - neg.mean
    assert abs(float(sur.w @ a) - 1.0) <= 1e-12
    grad = np.zeros_like(a)
    objective = 0.0
    for moments, rho in ((pos, div.rho_pos), (neg, div.rho_neg)):
        cov = ridge(moments.covariance)
        grad += _tau_gradient(div.kind, rho, cov, sur.w)
        t = tau(div.kind, rho, cov, sur.w)
        objective += t
        margin = abs(float(sur.w @ moments.mean) - sur.b)
        assert abs(margin - sur.kappa * t) <= 1e-12
    projected = grad - a * float(a @ grad) / float(a @ a)
    assert float(np.linalg.norm(projected)) <= 1e-8 * (1.0 + objective)
    # w^T grad F = F, so this one holds at every scale of the moments.
    assert (float(np.linalg.norm(projected)) * float(np.linalg.norm(sur.w))
            <= 1e-8 * objective)
    return objective


@pytest.mark.parametrize("d", (2, 5, 20))
@pytest.mark.parametrize("kind", ("nominal",) + KINDS)
def test_solve_stationary(kind, d):
    rng = np.random.default_rng(100 + d)
    for _ in range(10):
        pos, neg = random_moments(rng, d)
        if kind == "nominal":
            div = Divergence(kind=kind)
        else:
            div = Divergence(kind=kind, rho_pos=rng.uniform(0.0, 10.0),
                             rho_neg=rng.uniform(0.0, 10.0))
        _assert_stationary(pos, neg, div)


def test_solve_stationary_bures_fixed():
    # Newton with Armijo backtracking on F once stalled above the
    # gradient tolerance on this instance.
    pos, neg = random_moments(np.random.default_rng(4), 5)
    _assert_stationary(pos, neg, Divergence(kind="bures", rho_pos=1.82,
                                            rho_neg=7.47))


def _anisotropic_moments(seed, d, cond):
    # Unit mean gap; both covariances have eigenvalues 1 to cond.
    rng = np.random.default_rng(seed)

    def cov():
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        return (q * np.logspace(0, np.log10(cond), d)) @ q.T

    a = rng.normal(size=d)
    a /= np.linalg.norm(a)
    return (ClassMoments(a, cov()), ClassMoments(np.zeros(d), cov()))


@pytest.mark.parametrize("d, cond", [(3, 1e3), (5, 1e3), (10, 1e3), (5, 1e4)])
def test_solve_stationary_anisotropic(d, cond):
    # A solver whose iterates run away from w^T a = 1, or whose step
    # meets a near-singular system, fails here.
    divergences = [Divergence(kind="nominal")] + [
        Divergence(kind=kind, rho_neg=1.0) for kind in KINDS]
    for seed in range(20):
        pos, neg = _anisotropic_moments(seed, d, cond)
        a = pos.mean - neg.mean
        w0 = a / float(a @ a)
        for div in divergences:
            objective = _assert_stationary(pos, neg, div)
            start = sum(tau(div.kind, rho, ridge(m.covariance), w0)
                        for m, rho in ((pos, div.rho_pos), (neg, div.rho_neg)))
            assert objective <= start


@pytest.mark.parametrize("cap, value, message", [
    ("_MAX_STEPS", 0, "after 0 steps"),
    ("_MAX_STEPS", 1, "after 1 steps"),
])
def test_solve_raises_when_it_does_not_converge(monkeypatch, cap, value, message):
    # The instance needs more than one step, so with the cap at 0 or 1
    # no tested iterate passes the stop test.
    pos, neg = random_moments(np.random.default_rng(4), 5)
    divergence = Divergence(kind="bures", rho_pos=1.82, rho_neg=7.47)
    monkeypatch.setattr(surrogate, cap, value)
    with pytest.raises(SolverDidNotConverge, match=message):
        solve_cvas(pos, neg, divergence)


def test_solve_tests_its_last_iterate(monkeypatch):
    # With no step allowed, a w0 that passes the stop test is returned:
    # equal isotropic classes have their optimum at a/||a||^2.
    monkeypatch.setattr(surrogate, "_MAX_STEPS", 0)
    pos = ClassMoments(mean=np.array([2.0, 1.0]), covariance=np.eye(2))
    neg = ClassMoments(mean=np.zeros(2), covariance=np.eye(2))
    sur = solve_cvas(pos, neg, Divergence(kind="bures", rho_neg=1.0))
    assert_allclose(sur.w, [0.4, 0.2], rtol=1e-15)


def test_solve_normalization_and_equalization():
    rng = np.random.default_rng(5)
    for kind in ("nominal",) + KINDS:
        for _ in range(4):
            pos, neg = random_moments(rng)
            if kind == "nominal":
                div = Divergence(kind=kind)
            else:
                div = Divergence(kind=kind, rho_pos=rng.uniform(0.0, 1.0),
                                 rho_neg=rng.uniform(0.0, 2.0))
            sur = solve_cvas(pos, neg, div)
            a = pos.mean - neg.mean
            assert abs(float(sur.w @ a) - 1.0) <= 1e-8
            for moments, rho in ((pos, div.rho_pos), (neg, div.rho_neg)):
                margin = abs(float(sur.w @ moments.mean) - sur.b)
                t = tau(kind, rho, moments.covariance, sur.w)
                assert abs(margin - sur.kappa * t) <= 1e-6


def test_rho_zero_reduces_to_nominal():
    rng = np.random.default_rng(6)
    for _ in range(5):
        pos, neg = random_moments(rng)
        base = solve_cvas(pos, neg, Divergence(kind="nominal"))
        for kind in KINDS:
            sur = solve_cvas(pos, neg, Divergence(kind=kind))
            assert_allclose(sur.w, base.w, atol=1e-6)
            assert_allclose(sur.b, base.b, atol=1e-6)


def test_tradeoff_monotonicity_small():
    # validity rises and coverage falls as the negative-class radius
    # grows with rho_pos = 0; the 20-instance version is criterion 7
    rng = np.random.default_rng(7)
    grid = (0.0, 0.5, 1.0, 2.0, 5.0)
    for kind in ("fisher-rao", "logdet"):
        for _ in range(3):
            pos, neg = random_moments(rng)
            coverages, validities = [], []
            for rho in grid:
                sur = solve_cvas(pos, neg, Divergence(kind=kind, rho_neg=rho))
                c, v = coverage_validity(sur, pos, neg)
                coverages.append(c)
                validities.append(v)
            assert all(a > b for a, b in zip(validities[1:], validities))
            assert all(a < b for a, b in zip(coverages[1:], coverages))


def test_tradeoff_monotonicity_swapped_roles():
    rng = np.random.default_rng(8)
    grid = (0.0, 0.5, 1.0, 2.0, 5.0)
    for kind in ("fisher-rao", "logdet"):
        pos, neg = random_moments(rng)
        coverages, validities = [], []
        for rho in grid:
            sur = solve_cvas(pos, neg, Divergence(kind=kind, rho_pos=rho))
            c, v = coverage_validity(sur, pos, neg)
            coverages.append(c)
            validities.append(v)
        assert all(a > b for a, b in zip(coverages[1:], coverages))
        assert all(a < b for a, b in zip(validities[1:], validities))


def test_scale_consistency():
    rng = np.random.default_rng(9)
    pos, neg = random_moments(rng)
    base = solve_cvas(pos, neg, Divergence(kind="nominal"))
    s = 3.0
    scaled = solve_cvas(
        ClassMoments(pos.mean, s**2 * pos.covariance),
        ClassMoments(neg.mean, s**2 * neg.covariance),
        Divergence(kind="nominal"))
    assert_allclose(scaled.w, base.w, atol=1e-9)
    assert_allclose(scaled.b, base.b, atol=1e-9)
    assert_allclose(scaled.kappa, base.kappa / s, rtol=1e-9)


def test_one_dimensional_solve():
    pos = ClassMoments(mean=np.array([2.0]), covariance=np.array([[1.0]]))
    neg = ClassMoments(mean=np.array([0.0]), covariance=np.array([[4.0]]))
    sur = solve_cvas(pos, neg, Divergence(kind="nominal"))
    assert_allclose(sur.w, [0.5], rtol=1e-12)
    # margins: tau_pos = 0.5, tau_neg = 1.0, kappa = 1/1.5
    assert_allclose(sur.kappa, 1.0 / 1.5, rtol=1e-8)
    assert_allclose(sur.b, 1.0 - (1.0 / 1.5) * 0.5, rtol=1e-8)


# ------------------------------------------------------- MPM identities
#
# Choosing the covariance robustness recovers classical minimax
# probability machines: fisher-rao and logdet are class-reweighted MPM
# (the nominal solve on covariances scaled by c(rho)^2), quadratic is MPM
# on Sigma + sqrt(rho) I, and bures adds an l2 penalty (rho_pos + rho_neg)
# ||w|| whose slope depends on the radii only through their sum.

MPM_SCALES = {
    "fisher-rao": math.exp,
    "logdet": lambda rho: -lambert_oracle(-math.exp(-rho - 1.0)),
}


def _mpm_instances(d, count=20):
    """count random (moments_pos, moments_neg, rho_pos, rho_neg) at width d."""
    rng = np.random.default_rng(d)
    for _ in range(count):
        mu_pos, cov_pos, mu_neg, cov_neg = random_instance(rng, d)
        rho_pos, rho_neg = (float(r) for r in rng.uniform(0.0, 5.0, size=2))
        yield (ClassMoments(mean=mu_pos, covariance=cov_pos),
               ClassMoments(mean=mu_neg, covariance=cov_neg),
               rho_pos, rho_neg)


def _scaled(moments, covariance):
    return ClassMoments(mean=moments.mean, covariance=covariance)


def _assert_same_plane(got, want, rtol=1e-13):
    assert np.linalg.norm(got.w - want.w) <= rtol * np.linalg.norm(want.w)
    assert abs(got.b - want.b) <= rtol * (1.0 + abs(want.b))


def _assert_same_surrogate(got, want, rtol):
    _assert_same_plane(got, want, rtol)
    assert abs(got.kappa - want.kappa) <= rtol * want.kappa


@pytest.mark.parametrize("d", [2, 5, 20])
@pytest.mark.parametrize("kind", sorted(MPM_SCALES))
def test_reweighted_mpm_identity(kind, d):
    # The ridge scales with the covariance on one side only; 1e-8 covers it.
    scale = MPM_SCALES[kind]
    for pos, neg, rho_pos, rho_neg in _mpm_instances(d):
        robust = solve_cvas(pos, neg, Divergence(kind, rho_pos, rho_neg))
        nominal = solve_cvas(_scaled(pos, scale(rho_pos) * pos.covariance),
                             _scaled(neg, scale(rho_neg) * neg.covariance),
                             Divergence(kind="nominal"))
        _assert_same_surrogate(robust, nominal, 1e-8)


@pytest.mark.parametrize("d", [2, 5, 20])
def test_quadratic_mpm_identity(d):
    eye = np.eye(d)
    for pos, neg, rho_pos, rho_neg in _mpm_instances(d):
        robust = solve_cvas(pos, neg, Divergence("quadratic", rho_pos, rho_neg))
        nominal = solve_cvas(
            _scaled(pos, pos.covariance + math.sqrt(rho_pos) * eye),
            _scaled(neg, neg.covariance + math.sqrt(rho_neg) * eye),
            Divergence(kind="nominal"))
        _assert_same_surrogate(robust, nominal, 1e-13)


@pytest.mark.parametrize("d", [2, 5, 20])
def test_bures_slope_depends_on_radius_sum(d):
    for pos, neg, rho_pos, rho_neg in _mpm_instances(d):
        w = solve_cvas(pos, neg, Divergence("bures", rho_pos, rho_neg)).w
        total = rho_pos + rho_neg
        for split in ((total, 0.0), (0.0, total), (total / 2.0, total / 2.0)):
            other = solve_cvas(pos, neg, Divergence("bures", *split)).w
            assert np.linalg.norm(other - w) <= 1e-12 * np.linalg.norm(w)


# ------------------------------------------ finite-radius regularization
#
# Fisher-rao and logdet scale each class's nominal term by a weight
# c(rho), so w and b depend only on c(rho_neg) / c(rho_pos) (kappa = 1/F
# scales with the weights): on rho_neg - rho_pos for fisher-rao
# (c = exp(rho / 2)), and logdet is fisher-rao at
# 2 ln(c(rho_neg) / c(rho_pos)). Swapping the classes (means, covariances
# and radii) negates w and b; w exactly where F sums two terms, since
# IEEE negation and a sum of two are exact in any order.

def _regularization_instances(count=200):
    """count random (moments_pos, moments_neg, rho_pos, rho_neg), d in
    2..7 and radii from U(0, 10)."""
    rng = np.random.default_rng(31)
    for _ in range(count):
        mu_pos, cov_pos, mu_neg, cov_neg = random_instance(rng, int(rng.integers(2, 8)))
        rho_pos, rho_neg = (float(r) for r in rng.uniform(0.0, 10.0, size=2))
        yield (ClassMoments(mean=mu_pos, covariance=cov_pos),
               ClassMoments(mean=mu_neg, covariance=cov_neg),
               rho_pos, rho_neg)


def _fisher_rao_at(difference):
    """Fisher-rao with rho_neg - rho_pos = difference and one radius 0."""
    return Divergence("fisher-rao", max(-difference, 0.0), max(difference, 0.0))


@pytest.mark.parametrize("kind", ("nominal",) + KINDS)
def test_class_swap_negates_the_surrogate(kind):
    for pos, neg, rho_pos, rho_neg in _regularization_instances():
        radii = (0.0, 0.0) if kind == "nominal" else (rho_pos, rho_neg)
        sur = solve_cvas(pos, neg, Divergence(kind, *radii))
        swapped = solve_cvas(neg, pos, Divergence(kind, *radii[::-1]))
        if kind == "bures":  # four terms, summed in another order
            assert_allclose(swapped.w, -sur.w, rtol=1e-13)
        else:
            assert np.array_equal(swapped.w, -sur.w)
        assert abs(swapped.b + sur.b) <= 1e-13 * (1.0 + abs(sur.b))


def test_fisher_rao_depends_on_the_radius_difference():
    for pos, neg, rho_pos, rho_neg in _regularization_instances():
        sur = solve_cvas(pos, neg, Divergence("fisher-rao", rho_pos, rho_neg))
        _assert_same_plane(solve_cvas(pos, neg, _fisher_rao_at(rho_neg - rho_pos)), sur)


def test_logdet_is_a_reweighted_fisher_rao():
    # MPM_SCALES["logdet"] is c(rho)^2, so 2 ln(c- / c+) is its log ratio.
    scale = MPM_SCALES["logdet"]
    for pos, neg, rho_pos, rho_neg in _regularization_instances():
        sur = solve_cvas(pos, neg, Divergence("logdet", rho_pos, rho_neg))
        difference = math.log(scale(rho_neg) / scale(rho_pos))
        _assert_same_plane(solve_cvas(pos, neg, _fisher_rao_at(difference)), sur)


# ---------------------------------------------------------------- bounds

def test_worst_case_misclassification_examples():
    pos, neg = counter_moments()
    sur = solve_cvas(pos, neg, Divergence(kind="nominal"))
    assert_allclose(worst_case_misclassification(sur, pos, neg), [1.0 / 26.0] * 2,
                    rtol=1e-6)


def test_worst_case_misclassification_boundary_mean():
    sur = Surrogate(w=np.array([1.0, 0.0]), b=0.0, kappa=1.0)
    origin = ClassMoments(mean=np.zeros(2), covariance=np.eye(2))
    assert worst_case_misclassification(sur, origin, origin) == (1.0, 1.0)


def _unsigned_bound(sur, moments):
    """1/(1 + nu^2) with nu = |b - w^T mean| over the ridged nominal tau:
    the per-class certificate before it took coverage_validity's signed
    margins, computed as it was."""
    w = sur.w
    nu = abs(sur.b - float(w @ moments.mean)) / math.sqrt(
        float(w @ (ridge(moments.covariance) @ w)))
    return 1.0 / (1.0 + nu * nu)


def test_certificates_are_the_bounds_of_the_two_margins():
    # A mean on its own side keeps the unsigned bound bit for bit. A
    # mean on the wrong side has margin 0 and certifies 1.0; the
    # unsigned bound certified it below 1.
    for pos, neg, rho_pos, rho_neg in _regularization_instances(40):
        for div in [Divergence("nominal")] + [Divergence(kind, rho_pos, rho_neg)
                                              for kind in KINDS]:
            sur = solve_cvas(pos, neg, div)
            assert worst_case_misclassification(sur, pos, neg) == (
                _unsigned_bound(sur, pos), _unsigned_bound(sur, neg))
            flipped = Surrogate(w=-sur.w, b=-sur.b, kappa=sur.kappa)
            assert worst_case_misclassification(flipped, pos, neg) == (1.0, 1.0)
            assert max(_unsigned_bound(flipped, pos), _unsigned_bound(flipped, neg)) < 1.0


def _inflated_covariance(kind, rho, cov, w):
    d = cov.shape[0]
    if kind == "quadratic":
        return cov + math.sqrt(rho) * np.eye(d)
    if kind == "fisher-rao":
        return math.exp(rho) * cov
    if kind == "logdet":
        return -lambert_w_minus1(-math.exp(-rho - 1.0)) * cov
    if kind == "bures":
        core = math.sqrt(float(w @ cov @ w))
        c = 2.0 * rho * core / float(np.linalg.norm(w)) + rho * rho
        return cov + c * np.eye(d)
    return cov


@pytest.mark.parametrize("kind", ["fisher-rao", "bures"])
def test_moment_bound_minimal_at_optimum(kind):
    # The worse class's moment bound 1/(1 + nu^2) under its worst-case
    # covariance falls as that class's nu rises, so the surrogate that
    # maximizes the smaller margin minimizes it.
    rng = np.random.default_rng(12)
    pos, neg = random_moments(rng)
    div = Divergence(kind=kind, rho_pos=0.3, rho_neg=1.0)
    sur = solve_cvas(pos, neg, div)

    def max_bound(w, b):
        probe = Surrogate(w=w, b=b, kappa=1.0)
        inflated = [ClassMoments(mean=moments.mean, covariance=_inflated_covariance(
                        kind, rho, moments.covariance, w))
                    for moments, rho in ((pos, div.rho_pos), (neg, div.rho_neg))]
        return max(worst_case_misclassification(probe, *inflated))

    optimum = max_bound(sur.w, sur.b)
    basis = in_plane_basis(pos.mean - neg.mean)
    for _ in range(100):
        w = sur.w + basis @ rng.normal(scale=1e-2, size=basis.shape[1])
        b = sur.b + rng.normal(scale=1e-2)
        assert max_bound(w, b) >= optimum - 1e-9


# ---------------------------------------------------------------- limits

def _inflated(kind, y):
    """kind with class y's radius +inf and the other class's 0."""
    if y == 1:
        return Divergence(kind=kind, rho_pos=math.inf)
    return Divergence(kind=kind, rho_neg=math.inf)


def test_asymptotic_quadratic_or_bures():
    pos, neg = counter_moments()
    for kind in ("quadratic", "bures"):
        sur = solve_cvas(pos, neg, _inflated(kind, -1))
        assert_allclose(sur.w, [-0.1, 0.0], atol=1e-12)
        assert_allclose(sur.b, 1.0, atol=1e-12)
        assert sur.kappa == 0.0
        assert abs(float(sur.w @ pos.mean) - sur.b) <= 1e-10
        _, validity = coverage_validity(sur, pos, neg)
        assert_allclose(validity, 10.0 / math.sqrt(5.0), rtol=1e-6)


def test_asymptotic_fisher_rao_or_logdet():
    pos, neg = counter_moments()
    for kind in ("fisher-rao", "logdet"):
        sur = solve_cvas(pos, neg, _inflated(kind, -1))
        assert_allclose(sur.w, [-0.1, 0.2], atol=1e-10)
        assert_allclose(sur.b, 1.0, atol=1e-10)
        assert sur.kappa == 0.0
        _, validity = coverage_validity(sur, pos, neg)
        assert_allclose(validity, 10.0, rtol=1e-6)


def test_asymptotic_families_coincide_isotropic():
    pos = ClassMoments(mean=np.array([1.0, 1.0]), covariance=np.eye(2))
    neg = ClassMoments(mean=np.array([-1.0, 0.0]), covariance=np.eye(2))
    a = solve_cvas(pos, neg, _inflated("bures", 1))
    b = solve_cvas(pos, neg, _inflated("fisher-rao", 1))
    assert_allclose(a.w, b.w, atol=1e-12)
    assert_allclose(a.b, b.b, atol=1e-12)


def test_asymptote_is_its_familys_step_bit_for_bit():
    # Quadratic and bures take M = I, fisher-rao and logdet the ridged
    # covariance of the inflated class y; b puts the plane through the
    # other class mean.
    rng = np.random.default_rng(22)
    for _ in range(20):
        pos, neg = random_moments(rng, 4)
        a = pos.mean - neg.mean
        for y, inflated in ((1, pos), (-1, neg)):
            for kind in KINDS:
                m = np.eye(4) if kind in ("quadratic", "bures") else ridge(
                    inflated.covariance)
                solved = np.linalg.solve(m, a)
                w = solved / float(a @ solved)
                sur = solve_cvas(pos, neg, _inflated(kind, y))
                assert np.array_equal(sur.w, w)
                assert sur.b == float(w @ inflated.mean) - y
                assert sur.kappa == 0.0


def test_solve_takes_infinite_radius():
    # solve_cvas used to raise DomainError on a +inf radius; it returns
    # the limit whose closed form the test above pins. Swapping the
    # classes and their radii negates w and b bit for bit: a negated
    # right-hand side solves to the exact negation.
    rng = np.random.default_rng(23)
    for _ in range(20):
        pos, neg = random_moments(rng, 4)
        for y in (1, -1):
            for kind in KINDS:
                limit = solve_cvas(pos, neg, _inflated(kind, y))
                assert limit.kappa == 0.0
                swapped = solve_cvas(neg, pos, _inflated(kind, -y))
                assert np.array_equal(swapped.w, -limit.w)
                assert swapped.b == -limit.b
                assert swapped.kappa == 0.0


def test_asymptotic_validation():
    for kind in KINDS:
        with pytest.raises(DomainError, match="at most one radius"):
            Divergence(kind=kind, rho_pos=math.inf, rho_neg=math.inf)
    m = ClassMoments(mean=np.zeros(2), covariance=np.eye(2))
    with pytest.raises(IdenticalMeans):
        solve_cvas(m, m, _inflated("bures", 1))


def test_asymptotic_singular_inflated_covariance():
    # The ridge of 1e-10 lifts the -1e-10 eigenvalue to exactly 0.
    pos, _ = counter_moments()
    neg = ClassMoments(mean=np.zeros(2), covariance=np.diag([-1e-10, 1.0]))
    for kind in ("fisher-rao", "logdet"):
        with pytest.raises(SingularCovariance, match="singular after ridge"):
            solve_cvas(pos, neg, _inflated(kind, -1))


def test_large_radius_approaches_asymptote():
    # Criterion 04's check, for either class. Logdet approaches too slowly
    # to test below its cap: at rho = 700 its b is still 0.036 off.
    pos, neg = counter_moments()
    for kind, rho in (("fisher-rao", 40.0), ("bures", 1e6), ("quadratic", 1e16)):
        for y in (1, -1):
            limit = solve_cvas(pos, neg, _inflated(kind, y))
            radii = {"rho_pos": rho} if y == 1 else {"rho_neg": rho}
            sur = solve_cvas(pos, neg, Divergence(kind=kind, **radii))
            assert_allclose(sur.w, limit.w, atol=1e-3)
            assert_allclose(sur.b, limit.b, atol=1e-3)


def test_quadratic_asymptote_is_the_mean_gap_over_its_norm_bit_for_bit():
    rng = np.random.default_rng(21)
    for _ in range(20):
        mu_pos, cov_pos, mu_neg, cov_neg = random_instance(rng, 4)
        pos = ClassMoments(mean=mu_pos, covariance=cov_pos)
        neg = ClassMoments(mean=mu_neg, covariance=cov_neg)
        a = pos.mean - neg.mean
        for kind in ("quadratic", "bures"):
            for y in (1, -1):
                sur = solve_cvas(pos, neg, _inflated(kind, y))
                assert np.array_equal(sur.w, a / float(a @ a))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_asymptote_and_certificates_raise_what_the_solver_raises():
    # -I is no covariance. The asymptote used to solve with it and return
    # w = [1, 0], and the certificates leaked math's ValueError. The
    # margins, and so the certificates, take a tau only for a mean
    # outside the halfspace.
    pos = ClassMoments(mean=[1.0, 0.0], covariance=-np.eye(2))
    neg = ClassMoments(mean=np.zeros(2), covariance=np.eye(2))
    nominal = Surrogate(w=[1.0, 0.0], b=0.5, kappa=1.0)
    with pytest.raises(SingularCovariance, match="< 0"):
        solve_cvas(pos, neg, Divergence(kind="nominal"))
    for kind in ("fisher-rao", "logdet"):
        with pytest.raises(SingularCovariance, match="< 0"):
            solve_cvas(pos, neg, _inflated(kind, 1))
    with pytest.raises(SingularCovariance, match="< 0"):
        worst_case_misclassification(nominal, pos, neg)
    with pytest.raises(SingularCovariance, match="< 0"):
        optimal_mean(nominal.w, nominal.b, pos.mean, pos.covariance, 1.0)
    with pytest.raises(SingularCovariance, match="< 0"):
        halfspace_distance(pos.mean, pos.covariance, -nominal.w, -nominal.b)
    with pytest.raises(SingularCovariance, match="< 0"):
        coverage_validity(nominal, pos, neg)
    assert halfspace_distance(pos.mean, pos.covariance, nominal.w, nominal.b) == 0.0
    flipped = Surrogate(w=[-1.0, 0.0], b=-0.5, kappa=1.0)
    assert worst_case_misclassification(flipped, pos, neg) == (1.0, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_function_takes_a_covariance_positive_along_w():
    # diag(1, -1) has no Cholesky factor, yet w' Sigma w = 1 > 0 along
    # w = [1, 0]. The solver, the certificates and the margins all read
    # a covariance along w only, so all of them take it.
    pos = ClassMoments(mean=[2.0, 0.0], covariance=np.diag([1.0, -1.0]))
    neg = ClassMoments(mean=np.zeros(2), covariance=np.eye(2))
    nominal = Surrogate(w=[1.0, 0.0], b=1.0, kappa=1.0)
    assert_allclose(solve_cvas(pos, neg, Divergence(kind="nominal")).w, [0.5, 0.0],
                    rtol=1e-12)
    assert_allclose(worst_case_misclassification(nominal, pos, neg), [0.5 + 2.5e-11] * 2,
                    rtol=1e-12)
    mu_star, objective = optimal_mean(nominal.w, nominal.b, pos.mean, pos.covariance, 0.5)
    assert_allclose(mu_star, [1.5, 0.0], atol=1e-9)
    assert_allclose(objective, 0.25, atol=1e-9)
    # Both means sit at distance 1 / sqrt(1 + 1e-10), the ridged tau.
    margin = 1.0 / math.sqrt(1.0 + 1e-10)
    assert_allclose(halfspace_distance(pos.mean, pos.covariance, -nominal.w, -nominal.b),
                    margin, rtol=1e-15)
    assert_allclose(coverage_validity(nominal, pos, neg), [margin, margin], rtol=1e-15)


# ---------------------------------------------------------------- fr cov
#
# The oracle's Fisher-Rao maximizer witnesses that the closed-form tau is
# attained inside the ball.

def test_fr_worst_case_covariance_identity_cases():
    cov = random_pd(np.random.default_rng(13), 3)
    assert_allclose(fr_worst_case_covariance(cov, 0.0, [1.0, 0.0, 0.0]), cov,
                    atol=1e-9)
    got = fr_worst_case_covariance(np.eye(2), 1.0, [1.0, 0.0])
    assert_allclose(got, np.diag([math.e, 1.0]), atol=1e-9)


def test_fr_worst_case_covariance_attains_tau():
    rng = np.random.default_rng(14)
    cov = random_pd(rng, 3)
    w = rng.normal(size=3)
    star = fr_worst_case_covariance(cov, 0.7, w)
    assert_allclose(float(w @ star @ w), tau("fisher-rao", 0.7, cov, w) ** 2,
                    rtol=1e-8)
    # the maximizer sits exactly on the ball boundary
    assert_allclose(phi_divergence("fisher-rao", star, cov), 0.7, atol=1e-6)


# ---------------------------------------------------------------- mean

def test_optimal_mean_reaches_hyperplane():
    mu, obj = optimal_mean([1.0, 0.0], 0.5, np.zeros(2), np.eye(2), 2.0)
    assert obj == 0.0
    assert_allclose(float(np.array([1.0, 0.0]) @ mu), 0.5, atol=1e-9)


def test_optimal_mean_zero_radius():
    mean_hat = np.array([0.5, -1.0])
    mu, obj = optimal_mean([1.0, 2.0], 3.0, mean_hat, np.eye(2), 0.0)
    assert_allclose(mu, mean_hat, atol=1e-12)
    assert_allclose(obj, (3.0 - float(np.array([1.0, 2.0]) @ mean_hat)) ** 2,
                    rtol=1e-12)


def test_optimal_mean_example():
    mu, obj = optimal_mean([1.0, 0.0], 3.0, np.zeros(2), np.eye(2), 1.0)
    assert_allclose(mu, [1.0, 0.0], atol=1e-8)
    assert_allclose(obj, 4.0, atol=1e-6)


def test_optimal_mean_matches_oracle_spot():
    rng = np.random.default_rng(15)
    for _ in range(10):
        mean_hat = rng.normal(size=3)
        cov = random_pd(rng, 3)
        w = rng.normal(size=3)
        b = rng.normal()
        nu = rng.uniform(0.0, 2.0)
        mu, obj = optimal_mean(w, b, mean_hat, cov, nu)
        assert abs(obj - optimal_mean_oracle(mean_hat, cov, w, b, nu)) <= 1e-6
        # returned mean respects the Mahalanobis ball
        shift = mu - mean_hat
        radius_sq = float(shift @ np.linalg.solve(cov, shift))
        assert radius_sq <= nu * nu + 1e-10


def test_optimal_mean_validation():
    with pytest.raises(ZeroSlope):
        optimal_mean([0.0, 0.0], 1.0, np.zeros(2), np.eye(2), 1.0)
    with pytest.raises(DomainError):
        optimal_mean([1.0, 0.0], 1.0, np.zeros(2), np.eye(2), -1.0)


# ---------------------------------------------------------------- misc

def test_surrogate_label_ties_positive():
    sur = Surrogate(w=np.array([1.0, 0.0]), b=1.0, kappa=1.0)
    labels = sur.label(np.array([[1.0, 5.0], [0.9, 0.0], [1.1, 0.0]]))
    assert list(labels) == [1, -1, 1]


def test_surrogate_zero_slope_rejected():
    with pytest.raises(ZeroSlope):
        Surrogate(w=np.zeros(2), b=0.0, kappa=1.0)
