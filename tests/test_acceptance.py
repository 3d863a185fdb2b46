"""Acceptance gate: fourteen pinned criteria, one PASS/FAIL line each.

Criteria 1-4 replay the closed-form counterexample instance, 5-12 check
implementation-vs-oracle agreement at fixed tolerances, 13-14 run the
frozen synthetic end-to-end fixture. Every test records a
`criterion NN: PASS|FAIL <summary>` line; conftest replays the whole
scorecard in the terminal summary so it shows in any run log.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvas import (
    ClassMoments,
    Divergence,
    EvalConfig,
    SamplerConfig,
    Surrogate,
    TrainConfig,
    generate_synthetic,
    predict,
    sweep,
    train_mlp,
)
from cvas.errors import NoActionableRecourse
from cvas.recourse import ActionSpec, actionable_recourse, l1_projection
from cvas.surrogate import (
    asymptotic_surrogate,
    coverage_validity,
    lambert_w_minus1,
    optimal_mean,
    solve_cvas,
    tau,
)

from helpers import random_instance, random_pd
from oracles import (
    exhaustive_actionable_cost,
    fd_gradient,
    lp_projection_cost,
    optimal_mean_oracle,
    tau_oracle,
)

KINDS = ("quadratic", "bures", "fisher-rao", "logdet")


# One line per criterion; conftest echoes these in the terminal summary
# so the scorecard survives output capture.
SCORECARD = []


def _score(line):
    SCORECARD.append(line)
    print(line)


@contextmanager
def scored(number, summary, elapsed=None):
    """Record PASS/FAIL; elapsed overrides the block's own wall time."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _score(f"criterion {number:02d}: FAIL  {summary}")
        raise
    if elapsed is None:
        elapsed = time.perf_counter() - start
    _score(f"criterion {number:02d}: PASS  {summary} ({elapsed:.2f} s)")


def counter_moments():
    cov = np.array([[5.0, 2.0], [2.0, 1.0]])
    pos = ClassMoments(mean=np.array([-10.0, 0.0]), covariance=cov, count=100)
    neg = ClassMoments(mean=np.array([0.0, 0.0]), covariance=cov, count=100)
    return pos, neg


def test_criterion_01_nominal_counterexample():
    with scored(1, "nominal solve recovers x1 - 2 x2 + 5 = 0 with validity 5"):
        t0 = time.perf_counter()
        pos, neg = counter_moments()
        sur = solve_cvas(pos, neg, Divergence(kind="nominal"))
        assert_allclose(sur.w, [-0.1, 0.2], atol=1e-4)
        assert abs(sur.b - 0.5) <= 1e-4
        _, validity = coverage_validity(sur, pos, neg)
        assert abs(validity - 5.0) <= 1e-4
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_asymptote_quadratic_bures():
    with scored(2, "quadratic/bures asymptote is x1 + 10 = 0, "
                   "validity 10/sqrt(5)"):
        t0 = time.perf_counter()
        pos, neg = counter_moments()
        for kind in ("quadratic", "bures"):
            sur = asymptotic_surrogate(pos, neg,
                                       Divergence(kind=kind, rho_neg=math.inf))
            assert_allclose(sur.w, [-0.1, 0.0], atol=1e-4)
            assert abs(sur.b - 1.0) <= 1e-4
            _, validity = coverage_validity(sur, pos, neg)
            assert abs(validity - 10.0 / math.sqrt(5.0)) <= 1e-4
        assert time.perf_counter() - t0 < 1.0


def test_criterion_03_asymptote_fisher_rao_logdet():
    with scored(3, "fisher-rao/logdet asymptote is x1 - 2 x2 + 10 = 0, "
                   "validity 10"):
        t0 = time.perf_counter()
        pos, neg = counter_moments()
        for kind in ("fisher-rao", "logdet"):
            sur = asymptotic_surrogate(pos, neg,
                                       Divergence(kind=kind, rho_neg=math.inf))
            assert_allclose(sur.w, [-0.1, 0.2], atol=1e-4)
            assert abs(sur.b - 1.0) <= 1e-4
            _, validity = coverage_validity(sur, pos, neg)
            assert abs(validity - 10.0) <= 1e-4
        assert time.perf_counter() - t0 < 1.0


def test_criterion_04_large_radius_approaches_asymptote():
    with scored(4, "fisher-rao solve at rho_neg = 40 matches the asymptote "
                   "to 1e-3"):
        t0 = time.perf_counter()
        pos, neg = counter_moments()
        sur = solve_cvas(pos, neg, Divergence(kind="fisher-rao", rho_neg=40.0))
        assert_allclose(sur.w, [-0.1, 0.2], atol=1e-3)
        assert abs(sur.b - 1.0) <= 1e-3
        assert time.perf_counter() - t0 < 1.0


def test_criterion_05_tau_oracle_equivalence():
    with scored(5, "tau closed forms match the SLSQP ball maximizer on "
                   "50 instances per divergence"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        for kind in KINDS:
            for _ in range(50):
                d = int(rng.integers(2, 5))
                cov = random_pd(rng, d)
                w = rng.normal(size=d)
                rho = float(rng.uniform(0.05, 3.0))
                got = tau(kind, rho, cov, w)
                want = tau_oracle(kind, rho, cov, w)
                assert abs(got - want) <= 1e-3 * abs(want)
        assert time.perf_counter() - t0 < 60.0


def _moment_pairs(seed, count):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        d = int(rng.integers(2, 5))
        mu_pos, cov_pos, mu_neg, cov_neg = random_instance(rng, d)
        pairs.append((ClassMoments(mu_pos, cov_pos, 200),
                      ClassMoments(mu_neg, cov_neg, 200)))
    return pairs


TRADEOFF_GRID = (0.0, 0.5, 1.0, 2.0, 5.0)


def _suite_solves():
    """Every solve criteria 6 and 7 perform, with its divergence data."""
    for pos, neg in _moment_pairs(6, 20):
        yield pos, neg, Divergence(kind="nominal")
        for kind in KINDS:
            yield pos, neg, Divergence(kind=kind)
    for pos, neg in _moment_pairs(7, 20):
        for kind in ("fisher-rao", "logdet"):
            for rho in TRADEOFF_GRID:
                yield pos, neg, Divergence(kind=kind, rho_neg=rho)


def test_criterion_06_zero_radius_reduction():
    with scored(6, "every divergence at rho = 0 reproduces the nominal "
                   "solve on 20 instances"):
        for pos, neg in _moment_pairs(6, 20):
            base = solve_cvas(pos, neg, Divergence(kind="nominal"))
            for kind in KINDS:
                sur = solve_cvas(pos, neg, Divergence(kind=kind))
                assert_allclose(sur.w, base.w, atol=1e-6)
                assert abs(sur.b - base.b) <= 1e-6


def test_criterion_07_tradeoff_monotonicity():
    with scored(7, "growing rho_neg strictly raises validity and lowers "
                   "coverage on 20 instances"):
        for pos, neg in _moment_pairs(7, 20):
            for kind in ("fisher-rao", "logdet"):
                coverages, validities = [], []
                for rho in TRADEOFF_GRID:
                    sur = solve_cvas(pos, neg,
                                     Divergence(kind=kind, rho_neg=rho))
                    coverage, validity = coverage_validity(sur, pos, neg)
                    coverages.append(coverage)
                    validities.append(validity)
                assert all(b > a for a, b in zip(validities, validities[1:]))
                assert all(b < a for a, b in zip(coverages, coverages[1:]))


def test_criterion_08_equalization_at_every_solve():
    with scored(8, "margin equalization |w'mu_y - b| = kappa tau_y holds "
                   "at every suite solve"):
        for pos, neg, divergence in _suite_solves():
            sur = solve_cvas(pos, neg, divergence)
            kind = divergence.kind.value
            for moments, rho in ((pos, divergence.rho_pos),
                                 (neg, divergence.rho_neg)):
                margin = abs(float(sur.w @ moments.mean) - sur.b)
                target = sur.kappa * tau(kind, rho, moments.covariance, sur.w)
                assert abs(margin - target) <= 1e-6


def test_criterion_09_lambert_residuals():
    with scored(9, "lambert W(-1 branch) residual <= 1e-12 |x| on 1000 "
                   "log-spaced arguments"):
        for x in -np.geomspace(1e-300, math.exp(-1.0) - 1e-17, 1000):
            r = lambert_w_minus1(float(x))
            assert abs(r * math.exp(r) - x) <= 1e-12 * abs(x)


def test_criterion_10_recourse_matches_oracles():
    with scored(10, "l1 projection == LP on 200 instances; actionable == "
                    "exhaustive on 100 instances"):
        rng = np.random.default_rng(10)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            w = rng.normal(size=d)
            b = float(rng.normal())
            x0 = 2.0 * rng.normal(size=d)
            sur = Surrogate(w=w, b=b, kappa=1.0,
                            divergence=Divergence(kind="nominal"))
            result = l1_projection(x0, sur)
            assert abs(result.cost - lp_projection_cost(x0, w, b)) <= 1e-9
        for _ in range(100):
            d = int(rng.integers(2, 9))
            w = rng.normal(size=d)
            b = float(rng.normal())
            x0 = 2.0 * rng.normal(size=d)
            sur = Surrogate(w=w, b=b, kappa=1.0,
                            divergence=Divergence(kind="nominal"))
            grids = [np.concatenate([[0.0], rng.normal(scale=2.0, size=3)])
                     for _ in range(d)]
            actions = ActionSpec(kinds=("free",) * d, grids=tuple(grids))
            want = exhaustive_actionable_cost(x0, w, b, actions.grids)
            try:
                result = actionable_recourse(x0, sur, actions)
            except NoActionableRecourse:
                assert want == math.inf
            else:
                assert result.cost == want


def test_criterion_11_gradients_match_finite_differences():
    with scored(11, "MLP input gradients match central differences on "
                    "100 probes"):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(200, 2))
        labels = np.where(x[:, 0] + x[:, 1] >= 0.0, 1, -1)
        x += 0.15 * labels[:, None] / math.sqrt(2.0)
        for seed in (0, 1):
            model = train_mlp(x, labels, TrainConfig(epochs=40, seed=seed))
            for _ in range(50):
                probe = rng.normal(size=2)
                _, _, grad = predict(model, probe)
                fd = fd_gradient(model, probe)
                denom = max(float(np.linalg.norm(fd)), 1e-12)
                assert float(np.linalg.norm(grad - fd)) / denom <= 1e-4


def test_criterion_12_optimal_mean_matches_oracle():
    with scored(12, "optimal mean objective matches projected gradient on "
                    "100 instances"):
        rng = np.random.default_rng(12)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            cov = random_pd(rng, d)
            mean = rng.normal(size=d)
            w = rng.normal(size=d)
            b = float(rng.normal())
            nu = float(rng.uniform(0.0, 3.0))
            _, objective = optimal_mean(w, b, mean, cov, nu)
            want = optimal_mean_oracle(mean, cov, w, b, nu)
            assert abs(objective - want) <= 1e-6


@pytest.fixture(scope="module")
def synthetic_fixture_report():
    """Frozen end-to-end fixture shared by criteria 13 and 14.

    n = 1000 rows split 800/200, shifted copy with unit label noise,
    300-epoch current model, 60-model future ensemble, first 24
    unfavorably classified test rows, n_p = 1000 ball samples,
    fisher-rao grid {0, 10}, projection recourse.
    """
    start = time.perf_counter()
    d1 = generate_synthetic(1000, seed=0)
    d2 = generate_synthetic(1000, noise_std=1.0, seed=1)
    present = (d1[0][:800], d1[1][:800])
    test_features = d1[0][800:]
    model = train_mlp(present[0], present[1], TrainConfig(epochs=300, seed=0))
    unfavorable = test_features[model.label(test_features) == -1]
    config = EvalConfig(seed=0, sampler=SamplerConfig(n_p=1000),
                        train=TrainConfig(epochs=300, seed=0), n_models=60,
                        fid_n=1000)
    report = sweep(present, d2, unfavorable[:24], "fisher-rao", [0.0, 10.0],
                   "projection", config)
    return report, time.perf_counter() - start


def test_criterion_13_end_to_end_trend(synthetic_fixture_report):
    report, elapsed = synthetic_fixture_report
    with scored(13, "robust recourses cost more and survive future models "
                    "better on the frozen fixture", elapsed=elapsed):
        plain, robust = report.rows
        assert plain.rho_neg == 0.0 and robust.rho_neg == 10.0
        assert robust.future_validity >= plain.future_validity
        assert robust.mean_cost >= plain.mean_cost
        assert elapsed < 600.0


def test_criterion_14_fidelity_floor(synthetic_fixture_report):
    with scored(14, "fisher-rao surrogate fidelity on the frozen fixture "
                    ">= 0.85 at n_p = 1000"):
        report, _ = synthetic_fixture_report
        fidelities = [row.local_fidelity for row in report.rows]
        assert float(np.mean(fidelities)) >= 0.85
