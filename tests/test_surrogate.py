"""Robust surrogate solves, tau closed forms, asymptotics, certificates."""

import json
import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvas import (
    ClassMoments,
    CvasError,
    Divergence,
    DomainError,
    IdenticalMeans,
    NegativeRadius,
    NonFiniteInput,
    SingularCovariance,
    SolverDidNotConverge,
    Surrogate,
    ZeroSlope,
    asymptotic_surrogate,
    coverage_validity,
    fr_worst_case_covariance,
    halfspace_distance,
    lambert_w_minus1,
    load_surrogate,
    optimal_mean,
    save_surrogate,
    solve_cvas,
    tau,
    worst_case_misclassification,
)
from cvas import surrogate
from cvas.moments import ridge

from helpers import random_instance, random_pd
from oracles import (
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
    with pytest.raises(NegativeRadius):
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
    with pytest.raises(NegativeRadius):
        Divergence(kind="bures", rho_pos=-1.0)
    with pytest.raises(ValueError):
        Divergence(kind="nominal", rho_neg=1.0)
    with pytest.raises(ValueError):
        Divergence(kind="frobenius")
    with pytest.raises(DomainError):
        Divergence(kind="bures", rho_neg=math.nan)
    with pytest.raises(DomainError):
        Divergence(kind="logdet", rho_pos=math.nan)
    # +inf is how asymptotic_surrogate takes the inflated class's radius;
    # two of them name no class.
    assert Divergence(kind="bures", rho_neg=math.inf).rho_neg == math.inf
    with pytest.raises(DomainError, match="at most one radius"):
        Divergence(kind="bures", rho_pos=math.inf, rho_neg=math.inf)


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


def test_divergence_check_finite():
    Divergence(kind="fisher-rao", rho_pos=1.0, rho_neg=700.0).check_finite()
    for radii in ({"rho_neg": math.inf}, {"rho_pos": math.inf}):
        with pytest.raises(DomainError, match="asymptotic_surrogate"):
            Divergence(kind="bures", **radii).check_finite()


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


def test_solve_rejects_infinite_radius():
    pos, neg = counter_moments()
    for kind in KINDS:
        with pytest.raises(DomainError, match="asymptotic_surrogate"):
            solve_cvas(pos, neg, Divergence(kind=kind, rho_neg=math.inf))


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
        grad += _tau_gradient(div.kind.value, rho, cov, sur.w)
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


def _assert_same_surrogate(got, want, rtol):
    assert np.linalg.norm(got.w - want.w) <= rtol * np.linalg.norm(want.w)
    assert abs(got.b - want.b) <= rtol * (1.0 + abs(want.b))
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
        _assert_same_surrogate(robust, nominal, 1e-12)


@pytest.mark.parametrize("d", [2, 5, 20])
def test_bures_slope_depends_on_radius_sum(d):
    for pos, neg, rho_pos, rho_neg in _mpm_instances(d):
        w = solve_cvas(pos, neg, Divergence("bures", rho_pos, rho_neg)).w
        total = rho_pos + rho_neg
        for split in ((total, 0.0), (0.0, total), (total / 2.0, total / 2.0)):
            other = solve_cvas(pos, neg, Divergence("bures", *split)).w
            assert np.linalg.norm(other - w) <= 1e-12 * np.linalg.norm(w)


# ---------------------------------------------------------------- bounds

def test_worst_case_misclassification_examples():
    pos, neg = counter_moments()
    sur = solve_cvas(pos, neg, Divergence(kind="nominal"))
    for m in (pos, neg):
        bound = worst_case_misclassification(sur, m.mean, m.covariance)
        assert_allclose(bound, 1.0 / 26.0, rtol=1e-6)


def test_worst_case_misclassification_boundary_mean():
    sur = Surrogate(w=np.array([1.0, 0.0]), b=0.0, kappa=1.0,
                    divergence=Divergence(kind="nominal"))
    assert worst_case_misclassification(sur, np.zeros(2), np.eye(2)) == 1.0


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
        probe = Surrogate(w=w, b=b, kappa=1.0, divergence=div)
        worst = 0.0
        for moments, rho in ((pos, div.rho_pos), (neg, div.rho_neg)):
            inflated = _inflated_covariance(kind, rho, moments.covariance, w)
            worst = max(worst, worst_case_misclassification(
                probe, moments.mean, inflated))
        return worst

    optimum = max_bound(sur.w, sur.b)
    basis = in_plane_basis(pos.mean - neg.mean)
    for _ in range(100):
        w = sur.w + basis @ rng.normal(scale=1e-2, size=basis.shape[1])
        b = sur.b + rng.normal(scale=1e-2)
        assert max_bound(w, b) >= optimum - 1e-9


# ---------------------------------------------------------------- limits

def _inflated(kind, y, other=0.0):
    """kind with class y's radius +inf and the other class's `other`."""
    if y == 1:
        return Divergence(kind=kind, rho_pos=math.inf, rho_neg=other)
    return Divergence(kind=kind, rho_pos=other, rho_neg=math.inf)


def test_asymptotic_quadratic_or_bures():
    pos, neg = counter_moments()
    for kind in ("quadratic", "bures"):
        sur = asymptotic_surrogate(pos, neg, _inflated(kind, -1))
        assert_allclose(sur.w, [-0.1, 0.0], atol=1e-12)
        assert_allclose(sur.b, 1.0, atol=1e-12)
        assert sur.kappa == 0.0
        assert abs(float(sur.w @ pos.mean) - sur.b) <= 1e-10
        _, validity = coverage_validity(sur, pos, neg)
        assert_allclose(validity, 10.0 / math.sqrt(5.0), rtol=1e-6)


def test_asymptotic_fisher_rao_or_logdet():
    pos, neg = counter_moments()
    for kind in ("fisher-rao", "logdet"):
        sur = asymptotic_surrogate(pos, neg, _inflated(kind, -1))
        assert_allclose(sur.w, [-0.1, 0.2], atol=1e-10)
        assert_allclose(sur.b, 1.0, atol=1e-10)
        assert sur.kappa == 0.0
        _, validity = coverage_validity(sur, pos, neg)
        assert_allclose(validity, 10.0, rtol=1e-6)


def test_asymptotic_families_coincide_isotropic():
    pos = ClassMoments(mean=np.array([1.0, 1.0]), covariance=np.eye(2))
    neg = ClassMoments(mean=np.array([-1.0, 0.0]), covariance=np.eye(2))
    a = asymptotic_surrogate(pos, neg, _inflated("bures", 1))
    b = asymptotic_surrogate(pos, neg, _inflated("fisher-rao", 1))
    assert_allclose(a.w, b.w, atol=1e-12)
    assert_allclose(a.b, b.b, atol=1e-12)


def test_asymptote_is_its_familys_step_bit_for_bit():
    # Quadratic and bures take M = I, fisher-rao and logdet the ridged
    # covariance of the inflated class y, whatever the other radius;
    # b puts the plane through the other class mean.
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
                sur = asymptotic_surrogate(pos, neg, _inflated(kind, y, 2.5))
                assert np.array_equal(sur.w, w)
                assert sur.b == float(w @ inflated.mean) - y
                assert sur.kappa == 0.0


def test_asymptote_records_the_divergence_it_was_given():
    # A logdet limit used to be recorded as fisher-rao, and the other
    # radius as 0.
    pos, neg = counter_moments()
    for kind in KINDS:
        for y in (1, -1):
            divergence = _inflated(kind, y, 3.0)
            assert asymptotic_surrogate(pos, neg, divergence).divergence == divergence


def test_asymptotic_validation():
    pos, neg = counter_moments()
    for kind in KINDS:
        with pytest.raises(ValueError, match=r"one \+inf radius"):
            asymptotic_surrogate(pos, neg, Divergence(kind=kind, rho_neg=1.0))
        with pytest.raises(DomainError, match="at most one radius"):
            Divergence(kind=kind, rho_pos=math.inf, rho_neg=math.inf)
    with pytest.raises(ValueError, match=r"one \+inf radius"):
        asymptotic_surrogate(pos, neg, Divergence(kind="nominal"))
    m = ClassMoments(mean=np.zeros(2), covariance=np.eye(2))
    with pytest.raises(IdenticalMeans):
        asymptotic_surrogate(m, m, _inflated("bures", 1))


def test_asymptotic_singular_inflated_covariance():
    # The ridge of 1e-10 lifts the -1e-10 eigenvalue to exactly 0.
    pos, _ = counter_moments()
    neg = ClassMoments(mean=np.zeros(2), covariance=np.diag([-1e-10, 1.0]))
    for kind in ("fisher-rao", "logdet"):
        with pytest.raises(SingularCovariance, match="singular after ridge"):
            asymptotic_surrogate(pos, neg, _inflated(kind, -1))


def test_large_radius_approaches_asymptote():
    # Criterion 04's check, for either class. Logdet approaches too slowly
    # to test below its cap: at rho = 700 its b is still 0.036 off.
    pos, neg = counter_moments()
    for kind, rho in (("fisher-rao", 40.0), ("bures", 1e6), ("quadratic", 1e16)):
        for y in (1, -1):
            limit = asymptotic_surrogate(pos, neg, _inflated(kind, y))
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
                sur = asymptotic_surrogate(pos, neg, _inflated(kind, y))
                assert np.array_equal(sur.w, a / float(a @ a))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_asymptote_and_certificates_raise_what_the_solver_raises():
    # -I is no covariance. The asymptote used to solve with it and return
    # w = [1, 0], and the certificates leaked math's ValueError.
    pos = ClassMoments(mean=[1.0, 0.0], covariance=-np.eye(2))
    neg = ClassMoments(mean=np.zeros(2), covariance=np.eye(2))
    nominal = Surrogate(w=[1.0, 0.0], b=0.5, kappa=1.0,
                        divergence=Divergence(kind="nominal"))
    with pytest.raises(SingularCovariance, match="< 0"):
        solve_cvas(pos, neg, Divergence(kind="nominal"))
    for kind in ("fisher-rao", "logdet"):
        with pytest.raises(SingularCovariance, match="< 0"):
            asymptotic_surrogate(pos, neg, _inflated(kind, 1))
    with pytest.raises(SingularCovariance, match="< 0"):
        worst_case_misclassification(nominal, pos.mean, pos.covariance)
    with pytest.raises(SingularCovariance, match="< 0"):
        optimal_mean(nominal.w, nominal.b, pos.mean, pos.covariance, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_only_halfspace_distance_asks_for_a_cholesky_factor():
    # diag(1, -1) has no Cholesky factor, yet w' Sigma w = 1 > 0 along
    # w = [1, 0]. The solver and the certificates that divide by tau take
    # it; halfspace_distance, and so coverage_validity, rejects it.
    pos = ClassMoments(mean=[2.0, 0.0], covariance=np.diag([1.0, -1.0]))
    neg = ClassMoments(mean=np.zeros(2), covariance=np.eye(2))
    nominal = Surrogate(w=[1.0, 0.0], b=1.0, kappa=1.0,
                        divergence=Divergence(kind="nominal"))
    assert_allclose(solve_cvas(pos, neg, Divergence(kind="nominal")).w, [0.5, 0.0],
                    rtol=1e-12)
    assert_allclose(worst_case_misclassification(nominal, pos.mean, pos.covariance),
                    0.5 + 2.5e-11, rtol=1e-12)
    mu_star, objective = optimal_mean(nominal.w, nominal.b, pos.mean, pos.covariance, 0.5)
    assert_allclose(mu_star, [1.5, 0.0], atol=1e-9)
    assert_allclose(objective, 0.25, atol=1e-9)
    with pytest.raises(SingularCovariance, match="after ridge"):
        halfspace_distance(pos.mean, pos.covariance, nominal.w, nominal.b)
    with pytest.raises(SingularCovariance, match="after ridge"):
        coverage_validity(nominal, pos, neg)


# ---------------------------------------------------------------- fr cov

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


def test_fr_worst_case_covariance_validation():
    with pytest.raises(NegativeRadius):
        fr_worst_case_covariance(np.eye(2), -1.0, [1.0, 0.0])
    with pytest.raises(ZeroSlope):
        fr_worst_case_covariance(np.eye(2), 1.0, [0.0, 0.0])


@pytest.mark.parametrize("smallest", [-1e-10, -1.0])
def test_fr_worst_case_covariance_rejects_singular(smallest):
    # After the ridge the smallest eigenvalue is 0 or negative.
    with pytest.raises(SingularCovariance, match="not positive definite"):
        fr_worst_case_covariance(np.diag([smallest, 1.0]), 1.0, [1.0, 0.0])


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
    with pytest.raises(NegativeRadius):
        optimal_mean([1.0, 0.0], 1.0, np.zeros(2), np.eye(2), -1.0)


# ---------------------------------------------------------------- misc

def test_surrogate_label_ties_positive():
    sur = Surrogate(w=np.array([1.0, 0.0]), b=1.0, kappa=1.0,
                    divergence=Divergence(kind="nominal"))
    labels = sur.label(np.array([[1.0, 5.0], [0.9, 0.0], [1.1, 0.0]]))
    assert list(labels) == [1, -1, 1]


def test_surrogate_zero_slope_rejected():
    with pytest.raises(ZeroSlope):
        Surrogate(w=np.zeros(2), b=0.0, kappa=1.0,
                  divergence=Divergence(kind="nominal"))


def test_surrogate_serialization_round_trip(tmp_path):
    pos, neg = counter_moments()
    sur = solve_cvas(pos, neg, Divergence(kind="logdet", rho_neg=1.5))
    path = tmp_path / "surrogate.json"
    save_surrogate(sur, path)
    loaded = load_surrogate(path)
    assert np.array_equal(loaded.w, sur.w)
    assert loaded.b == sur.b
    assert loaded.kappa == sur.kappa
    assert loaded.divergence == sur.divergence


def test_surrogate_serialization_asymptotic(tmp_path):
    pos, neg = counter_moments()
    sur = asymptotic_surrogate(pos, neg, _inflated("logdet", -1, 2.0))
    path = tmp_path / "asymptotic.json"
    save_surrogate(sur, path)
    loaded = load_surrogate(path)
    assert loaded.kappa == 0.0
    assert loaded.divergence == sur.divergence
    assert np.array_equal(loaded.w, sur.w)


def _truncated(text):
    return text[:len(text) // 2]


def _edited(**changes):
    def edit(text):
        record = json.loads(text)
        for key, value in changes.items():
            if value is None:
                del record[key]
            else:
                record[key] = value
        return json.dumps(record)
    return edit


@pytest.mark.parametrize("edit, error", [
    (_truncated, CvasError),
    (lambda text: "[1, 2]", CvasError),
    (_edited(kappa=None), CvasError),
    (_edited(kappa="x"), CvasError),
    (_edited(kappa=-1), CvasError),
    (_edited(w="abc"), CvasError),
    (_edited(divergence="foo"), CvasError),
    # The checks of Divergence and Surrogate keep their own classes.
    (_edited(rho_neg=-1.0), NegativeRadius),
    (_edited(w=[0.0, 0.0]), ZeroSlope),
    (_edited(b=math.inf), NonFiniteInput),
], ids=["truncated", "not-an-object", "no-kappa", "kappa-string", "kappa-negative",
        "w-string", "unknown-divergence", "negative-radius", "zero-slope", "b-inf"])
def test_load_surrogate_rejects_malformed_files(tmp_path, edit, error):
    path = tmp_path / "surrogate.json"
    save_surrogate(Surrogate(w=[1.0, -1.0], b=0.5, kappa=1.0,
                             divergence=Divergence(kind="bures", rho_neg=1.0)), path)
    path.write_text(edit(path.read_text()))
    with pytest.raises(error) as raised:
        load_surrogate(path)
    if error is CvasError:
        assert type(raised.value) is CvasError
        assert "surrogate.json" in str(raised.value)
