"""Moment estimation and Mahalanobis halfspace geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvas import (
    ClassMoments,
    DomainError,
    NonFiniteInput,
    SingularCovariance,
    TooFewSamples,
    ZeroSlope,
    estimate_moments,
    halfspace_distance,
)
from cvas.moments import ridge

from helpers import random_pd


def test_two_point_moments():
    m = estimate_moments(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert_allclose(m.mean, [1.0, 0.0])
    assert_allclose(m.covariance, [[2.0, 0.0], [0.0, 0.0]])
    assert m.count == 2


def test_identical_rows_zero_covariance():
    rows = np.tile([3.0, -1.0, 2.5], (7, 1))
    m = estimate_moments(rows)
    assert_allclose(m.mean, [3.0, -1.0, 2.5])
    assert_allclose(m.covariance, np.zeros((3, 3)))


def test_monte_carlo_covariance():
    # Unbiased estimate from 1e5 Gaussian draws lands within 0.05 entrywise.
    rng = np.random.default_rng(7)
    draws = rng.multivariate_normal([0.0, 0.0], np.diag([1.0, 4.0]), size=100_000)
    m = estimate_moments(draws)
    assert np.max(np.abs(m.covariance - np.diag([1.0, 4.0]))) < 0.05


def test_too_few_samples():
    with pytest.raises(TooFewSamples):
        estimate_moments(np.array([[1.0, 2.0]]))


def test_covariance_symmetric_psd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rows = rng.normal(size=(rng.integers(2, 30), 4))
        cov = estimate_moments(rows).covariance
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-10


def test_class_moments_symmetrizes():
    lopsided = np.array([[1.0, 1.0], [0.0, 1.0]])
    m = ClassMoments(mean=np.zeros(2), covariance=lopsided, count=5)
    assert np.array_equal(m.covariance, m.covariance.T)


def test_halfspace_distance_examples():
    assert_allclose(halfspace_distance([0.0, 0.0], np.eye(2), [1.0, 0.0], 2.0),
                    2.0, rtol=1e-9)
    assert halfspace_distance([0.0, 0.0], np.eye(2), [1.0, 0.0], -1.0) == 0.0


def test_halfspace_distance_correlated():
    # Validity of the nominal surrogate x1 - 2*x2 + 5 = 0 at the
    # negative-class moments used throughout the worked example.
    cov = np.array([[5.0, 2.0], [2.0, 1.0]])
    got = halfspace_distance([0.0, 0.0], cov, [-0.1, 0.2], 0.5)
    assert_allclose(got, 5.0, rtol=1e-6)


def test_halfspace_distance_zero_iff_inside():
    cov = random_pd(np.random.default_rng(1), 3)
    w = np.array([1.0, -2.0, 0.5])
    mu = np.array([0.3, -0.1, 0.2])
    on_boundary = float(w @ mu)
    assert halfspace_distance(mu, cov, w, on_boundary) == 0.0
    assert halfspace_distance(mu, cov, w, on_boundary - 0.5) == 0.0
    assert halfspace_distance(mu, cov, w, on_boundary + 0.5) > 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_halfspace_distance_inside_takes_no_root():
    # w^T Sigma w overflows here, but a mean inside the halfspace is at
    # distance 0 without it; outside, the distance raises DomainError.
    w = [1e200, 1e200]
    assert halfspace_distance([1.0, 0.0], np.eye(2), w, 0.0) == 0.0
    with pytest.raises(DomainError, match="w\\^T Sigma w"):
        halfspace_distance([-1.0, 0.0], np.eye(2), w, 0.0)


@settings(max_examples=30, deadline=None)
@given(value=st.sampled_from([math.nan, math.inf, -math.inf]),
       rows=st.integers(2, 6), row=st.integers(0, 5), col=st.integers(0, 2))
def test_estimate_moments_rejects_non_finite_rows(value, rows, row, col):
    sample = np.random.default_rng(rows).normal(size=(rows, 3))
    sample[row % rows, col] = value
    with pytest.raises(NonFiniteInput):
        estimate_moments(sample)


@settings(max_examples=50, deadline=None)
@given(t=st.floats(min_value=1e-6, max_value=1e6))
def test_halfspace_distance_scaling_invariance(t):
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    w = np.array([0.7, -1.1])
    base = halfspace_distance([0.5, -0.2], cov, w, 3.0)
    scaled = halfspace_distance([0.5, -0.2], cov, t * w, t * 3.0)
    assert math.isclose(scaled, base, rel_tol=1e-12)


def test_halfspace_distance_errors():
    with pytest.raises(ZeroSlope):
        halfspace_distance([0.0], np.eye(1), [0.0], 1.0)
    indefinite = np.array([[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularCovariance):
        halfspace_distance([0.0, 0.0], indefinite, [1.0, 0.0], 1.0)


def test_halfspace_distance_ridges_singular():
    # Rank-deficient covariance is usable after the internal ridge.
    singular = np.array([[1.0, 0.0], [0.0, 0.0]])
    got = halfspace_distance([0.0, 0.0], singular, [1.0, 0.0], 2.0)
    assert_allclose(got, 2.0, rtol=1e-9)


def test_ridge_floor_and_trace_scaling():
    d = 2
    assert_allclose(ridge(np.zeros((d, d))), 1e-10 * np.eye(d), rtol=0, atol=0)
    big = 1e14 * np.eye(d)
    # trace-scaled branch: eps = 1e-12 * trace / d = 100
    assert_allclose(ridge(big) - big, 100.0 * np.eye(d), rtol=1e-9)


def test_ridge_does_not_mutate():
    cov = np.eye(2)
    ridge(cov)
    assert np.array_equal(cov, np.eye(2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e308, 9e307])
def test_ridge_rejects_an_overflowing_trace(scale):
    # The trace used to overflow with a warning, and the ridge of inf
    # made every later quadratic form NaN.
    with pytest.raises(DomainError, match="trace"):
        ridge(scale * np.eye(2))


def test_estimated_covariance_is_stored_as_computed():
    # centered^T centered is exactly symmetric, so symmetrizing it is a
    # no-op, bit for bit.
    rng = np.random.default_rng(5)
    for d in (2, 5, 22):
        rows = rng.normal(size=(50, d)) * rng.uniform(0.1, 10.0, size=d)
        centered = rows - rows.mean(axis=0)
        cov = centered.T @ centered / 49
        assert np.array_equal(estimate_moments(rows).covariance, cov)
