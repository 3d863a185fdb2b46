"""MLP training, prediction, gradients, synthetic data, future ensembles."""

import math
import os
import signal
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import cvas
from cvas import (
    BadLabelValue,
    CvasError,
    DimensionMismatch,
    NonFiniteInput,
    SingleClassData,
    TrainConfig,
    generate_synthetic,
    load_model,
    predict,
    save_model,
    simulate_future_models,
    train_mlp,
)

from helpers import linear_mlp
from oracles import fd_gradient

USABLE_CPUS = len(os.sched_getaffinity(0))

needs_workers = pytest.mark.skipif(
    USABLE_CPUS < 2, reason="one usable CPU trains the ensemble in-process")


@pytest.fixture
def spawned(monkeypatch):
    """Every training worker started during the test, in start order."""
    started = []
    real_popen = subprocess.Popen

    def popen(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", popen)
    return started


def _separable_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    labels = np.where(x[:, 0] + x[:, 1] >= 0.0, 1, -1)
    # push both classes 0.15 away from the separator for a clean margin
    x += 0.15 * labels[:, None] / math.sqrt(2.0)
    return x, labels


def test_train_separable_accuracy():
    x, labels = _separable_data()
    model = train_mlp(x, labels, TrainConfig(epochs=500, seed=0))
    accuracy = float(np.mean(model.label(x) == labels))
    assert accuracy >= 0.95


def test_train_determinism_bit_identical():
    x, labels = _separable_data()
    cfg = TrainConfig(epochs=50, seed=3)
    a = train_mlp(x, labels, cfg)
    b = train_mlp(x, labels, cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


def test_train_seed_changes_weights():
    x, labels = _separable_data()
    a = train_mlp(x, labels, TrainConfig(epochs=20, seed=0))
    b = train_mlp(x, labels, TrainConfig(epochs=20, seed=1))
    assert not np.array_equal(a.weights[0], b.weights[0])


def test_train_single_class():
    x = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(SingleClassData):
        train_mlp(x, np.ones(10), TrainConfig(epochs=5))


def test_train_non_finite():
    x = np.array([[0.0, 1.0], [np.nan, 0.0]])
    with pytest.raises(NonFiniteInput):
        train_mlp(x, np.array([1, -1]), TrainConfig(epochs=5))


@settings(max_examples=30, deadline=None)
@given(bad=st.floats(allow_nan=False).filter(lambda v: v not in (-1.0, 1.0)),
       position=st.integers(0, 9))
@example(bad=0.0, position=0)
@example(bad=2.0, position=9)
def test_train_rejects_labels_outside_plus_minus_one(bad, position):
    x = np.random.default_rng(0).normal(size=(10, 2))
    labels = np.array([1.0, -1.0] * 5)
    labels[position] = bad
    with pytest.raises(BadLabelValue if math.isfinite(bad) else NonFiniteInput):
        train_mlp(x, labels, TrainConfig(epochs=1))


def test_train_loss_decreases():
    features, labels = generate_synthetic(200, seed=5)
    model = train_mlp(features, labels, TrainConfig(epochs=1000, seed=0))
    assert model.loss_history[-1] < model.loss_history[0]


def test_train_loss_history_per_epoch():
    # Entry t is the loss after t updates, whatever the epoch budget, and
    # the last entry is the loss of the returned model.
    features, labels = generate_synthetic(200, seed=5)
    short = train_mlp(features, labels, TrainConfig(epochs=5, seed=0))
    long = train_mlp(features, labels, TrainConfig(epochs=10, seed=0))
    assert len(short.loss_history) == 6
    assert short.loss_history == long.loss_history[:6]
    p = np.clip(short.predict_proba(features), 1e-12, 1.0 - 1e-12)
    target = (labels + 1.0) / 2.0
    bce = float(-np.mean(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)))
    assert short.loss_history[-1] == bce


def test_architecture_pinned():
    x, labels = _separable_data(n=20)
    model = train_mlp(x, labels, TrainConfig(epochs=1, seed=0))
    assert model.layer_dims == (2, 20, 50, 20, 1)
    assert [w.shape for w in model.weights] == [(2, 20), (20, 50), (50, 20), (20, 1)]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


def test_linear_embedding_exact():
    alpha = np.array([0.8, -1.3, 0.4])
    model = linear_mlp(alpha, 0.25)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(scale=3.0, size=3)
        proba, label, grad = predict(model, x)
        z = float(alpha @ x) + 0.25
        expected = 1.0 / (1.0 + math.exp(-z))
        assert_allclose(proba, expected, rtol=1e-12)
        assert label == (1 if expected >= 0.5 else -1)
        assert_allclose(grad, expected * (1.0 - expected) * alpha, rtol=1e-10)


def test_predict_tie_goes_positive():
    # alpha^T x + c = 0 at x = 0 gives probability exactly 0.5
    model = linear_mlp(np.array([1.0]), 0.0)
    proba, label, _ = predict(model, np.zeros(1))
    assert proba == 0.5
    assert label == 1


def test_predict_strictly_inside_unit_interval():
    model = linear_mlp(np.array([1.0]), 0.0, big=1e9)
    for x in (np.array([1e8]), np.array([-1e8])):
        proba, _, _ = predict(model, x)
        assert 0.0 < proba < 1.0
    batch = model.predict_proba(np.array([[1e8], [-1e8], [0.0]]))
    assert np.all((batch > 0.0) & (batch < 1.0))


def test_predict_gradient_matches_finite_differences():
    x, labels = _separable_data()
    rng = np.random.default_rng(9)
    for seed in (0, 1):
        model = train_mlp(x, labels, TrainConfig(epochs=40, seed=seed))
        for _ in range(10):
            probe = rng.normal(size=2)
            _, _, grad = predict(model, probe)
            fd = fd_gradient(model, probe)
            denom = max(float(np.linalg.norm(fd)), 1e-12)
            assert float(np.linalg.norm(grad - fd)) / denom <= 1e-4


def test_predict_errors():
    model = linear_mlp(np.array([1.0, 1.0]), 0.0)
    with pytest.raises(DimensionMismatch):
        predict(model, np.zeros(3))
    with pytest.raises(NonFiniteInput):
        predict(model, np.array([np.nan, 0.0]))


@settings(max_examples=30, deadline=None)
@given(value=st.sampled_from([math.nan, math.inf, -math.inf]),
       row=st.integers(0, 4), col=st.integers(0, 2))
def test_predict_proba_rejects_non_finite_rows(value, row, col):
    model = linear_mlp(np.array([0.8, -1.3, 0.4]), 0.25)
    batch = np.random.default_rng(row).normal(size=(5, 3))
    batch[row, col] = value
    with pytest.raises(NonFiniteInput):
        model.predict_proba(batch)
    with pytest.raises(NonFiniteInput):
        model.label(batch)
    with pytest.raises(NonFiniteInput):
        model.predict_proba(batch[row])


def test_synthetic_label_rule():
    features, labels = generate_synthetic(500, seed=1)
    assert features.shape == (500, 2)
    assert np.all(features[:, 0] >= -2.0) and np.all(features[:, 0] <= 4.0)
    assert np.all(features[:, 1] >= -2.0) and np.all(features[:, 1] <= 7.0)
    x1 = features[:, 0]
    frontier = 1.0 + x1 + 2.0 * x1**2 + x1**3 - x1**4
    assert np.array_equal(labels, np.where(features[:, 1] >= frontier, 1, -1))


def test_synthetic_known_points():
    # the frontier polynomial evaluates to 1 at x1 = 0
    x1 = 0.0
    frontier = 1.0 + x1 + 2.0 * x1**2 + x1**3 - x1**4
    assert (1 if 2.0 >= frontier else -1) == 1
    assert (1 if 0.0 >= frontier else -1) == -1


def test_synthetic_determinism_and_noise():
    a = generate_synthetic(300, seed=4)
    b = generate_synthetic(300, seed=4)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    noisy_x, noisy_labels = generate_synthetic(300, noise_std=1.0, seed=4)
    assert np.array_equal(a[0], noisy_x)  # noise only perturbs the labels
    assert not np.array_equal(a[1], noisy_labels)


def test_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic(0)
    with pytest.raises(ValueError):
        generate_synthetic(10, noise_std=-1.0)


def test_future_models_deterministic():
    features, labels = generate_synthetic(60, noise_std=1.0, seed=6)
    cfg = TrainConfig(epochs=10, seed=5)
    a = simulate_future_models(features, labels, n_models=2, config=cfg)
    b = simulate_future_models(features, labels, n_models=2, config=cfg)
    for ma, mb in zip(a, b):
        for wa, wb in zip(ma.weights, mb.weights):
            assert np.array_equal(wa, wb)


def test_future_models_subsample_is_reproducible(spawned):
    # model i trains on the 80-row subsample drawn with seed master+i; the
    # five models are dealt unevenly over min(usable CPUs, 5) workers (3 + 2
    # on two CPUs) and must equal sequential in-process training bit for bit
    features, labels = generate_synthetic(100, noise_std=1.0, seed=8)
    cfg = TrainConfig(epochs=5, seed=11)
    models = simulate_future_models(features, labels, n_models=5, fraction=0.8,
                                    config=cfg)
    assert len(spawned) == (min(USABLE_CPUS, 5) if USABLE_CPUS > 1 else 0)
    assert len(models) == 5
    for i, model in enumerate(models):
        rng = np.random.default_rng(cfg.seed + i)
        idx = rng.choice(100, size=80, replace=False)
        assert len(np.unique(labels[idx])) > 1  # first draw is two-class here
        expected = train_mlp(features[idx], labels[idx],
                             replace(cfg, seed=cfg.seed + i))
        for wa, wb in zip(model.weights + model.biases,
                          expected.weights + expected.biases):
            assert np.array_equal(wa, wb)
        assert model.threshold == expected.threshold
        assert model.loss_history == expected.loss_history


def test_future_models_full_fraction():
    features, labels = generate_synthetic(50, noise_std=1.0, seed=2)
    cfg = TrainConfig(epochs=5, seed=0)
    models = simulate_future_models(features, labels, n_models=3, fraction=1.0,
                                    config=cfg)
    assert len(models) == 3
    assert not np.array_equal(models[0].weights[0], models[1].weights[0])
    for i in range(3):
        idx = np.random.default_rng(cfg.seed + i).choice(50, size=50, replace=False)
        assert np.array_equal(np.sort(idx), np.arange(50))  # full data, reordered


def test_future_models_validation():
    features, labels = generate_synthetic(20, seed=0)
    with pytest.raises(ValueError):
        simulate_future_models(features, labels, n_models=0)
    with pytest.raises(ValueError):
        simulate_future_models(features, labels, fraction=1.5)


def test_future_models_validate_before_any_worker(spawned):
    features, labels = generate_synthetic(60, noise_std=1.0, seed=6)
    with pytest.raises(BadLabelValue):
        simulate_future_models(features, np.where(labels > 0, 2, 0), n_models=2)
    holed = features.copy()
    holed[3, 1] = np.nan
    with pytest.raises(NonFiniteInput):
        simulate_future_models(holed, labels, n_models=2)
    assert spawned == []


def test_future_models_never_rerun_the_callers_main(tmp_path):
    # spawn and forkserver pools re-import the caller's __main__; the
    # workers must not, so a script with no __main__ guard runs once
    log = tmp_path / "runs.log"
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent(f"""\
        from cvas import TrainConfig, generate_synthetic, simulate_future_models

        with open({str(log)!r}, "a") as fh:
            fh.write("run\\n")
        features, labels = generate_synthetic(60, noise_std=1.0, seed=6)
        models = simulate_future_models(features, labels, n_models=3,
                                        config=TrainConfig(epochs=5))
        assert len(models) == 3
    """))
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(cvas.__file__)))
    env = dict(os.environ, PYTHONPATH=source_root)
    done = subprocess.run([sys.executable, str(script)], env=env, timeout=120)
    assert done.returncode == 0
    assert log.read_text() == "run\n"


@needs_workers
def test_future_models_worker_exit_status_raises(tmp_path, monkeypatch, spawned):
    fake = tmp_path / "python"
    fake.write_text("#!/bin/sh\nexit 3\n")
    fake.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(fake))
    features, labels = generate_synthetic(60, noise_std=1.0, seed=6)
    with pytest.raises(CvasError, match="status 3"):
        simulate_future_models(features, labels, n_models=2,
                               config=TrainConfig(epochs=5))
    assert spawned[0].returncode == 3
    assert all(worker.returncode is not None for worker in spawned)  # reaped


@needs_workers
def test_future_models_interrupt_kills_and_reaps_workers(monkeypatch, spawned):
    # the interrupt lands while the second worker starts; the first,
    # still waiting for its jobs, must be killed and reaped
    recording_popen = subprocess.Popen

    def popen(*args, **kwargs):
        if spawned:
            raise KeyboardInterrupt
        return recording_popen(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", popen)
    features, labels = generate_synthetic(60, noise_std=1.0, seed=6)
    with pytest.raises(KeyboardInterrupt):
        simulate_future_models(features, labels, n_models=2,
                               config=TrainConfig(epochs=5))
    assert [worker.returncode for worker in spawned] == [-signal.SIGKILL]


def test_model_serialization_round_trip(tmp_path):
    x, labels = _separable_data(n=40)
    model = train_mlp(x, labels, TrainConfig(epochs=15, seed=1))
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.layer_dims == tuple(model.layer_dims)
    assert loaded.threshold == model.threshold
    for wa, wb in zip(model.weights, loaded.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(model.biases, loaded.biases):
        assert np.array_equal(ba, bb)


def test_load_model_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
    with pytest.raises(CvasError):
        load_model(path)
