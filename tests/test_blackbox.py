"""MLP training, prediction, gradients, synthetic data, future ensembles."""

import hashlib
import io
import math
import os
import pickle
import signal
import struct
import subprocess
import sys
import textwrap
import time
import types
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
    DomainError,
    EmptyInput,
    EvalConfig,
    NonFiniteInput,
    SamplerConfig,
    SingleClassData,
    TrainConfig,
    generate_synthetic,
    load_model,
    predict,
    save_model,
    simulate_future_models,
    sweep,
    train_mlp,
)
from cvas import blackbox, evalharness

from helpers import linear_mlp, unfavorable_rows
from oracles import (
    _mlp_sigmoid,
    fd_gradient,
    predict_oracle,
    predict_proba_oracle,
    train_mlp_oracle,
)

USABLE_CPUS = len(os.sched_getaffinity(0))

# Finite rows whose training overflows float64 in its first epoch.
OVERFLOW_ROWS = np.array([[1e300, 0.0], [-1e300, 1.0], [2.0, 3.0], [1.0, 1.0]])
OVERFLOW_LABELS = np.array([1, -1, 1, -1])


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


def _digest(weights, biases):
    """sha256 over every parameter byte."""
    h = hashlib.sha256()
    for a in list(weights) + list(biases):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _kernel_data(n, d, seed):
    """n rows in d dimensions with a nonlinear rule; both classes present."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    labels = np.where(x[:, 0] + np.sin(3.0 * x[:, -1]) >= 0.0, 1, -1)
    labels[:2] = (1, -1)
    return x, labels


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [2, 63, 800])
@pytest.mark.parametrize("d", [1, 2, 22])
def test_train_matches_oracle_bit_for_bit(d, n, seed):
    # the in-place, flat-Adam kernel must train exactly the plain loop's model
    x, labels = _kernel_data(n, d, seed)
    epochs = 40 if n == 800 else 120
    model = train_mlp(x, labels, TrainConfig(epochs=epochs, seed=seed))
    expected = train_mlp_oracle(x, labels, epochs, seed)
    assert _digest(model.weights, model.biases) == _digest(*expected)


def test_train_matches_oracle_at_the_recourse_queries_shape():
    # 2080 rows of 22 encoded columns, the training set of recourse queries
    x, labels = _kernel_data(2080, 22, 3)
    model = train_mlp(x, labels, TrainConfig(epochs=15, seed=3))
    assert _digest(model.weights, model.biases) == \
        _digest(*train_mlp_oracle(x, labels, 15, 3))


def test_train_matches_oracle_when_the_head_saturates():
    # Rows this far out pin the sigmoid at its 5e-324 floor, where
    # (p - y) / n underflows to zero, and the head's backward product
    # carries signed zeros: the outer product must give the oracle's
    # matrix product's, bit for bit.
    x, labels = _kernel_data(50, 3, 1)
    x *= 1e4
    proba = predict_proba_oracle(*train_mlp_oracle(x, labels, 0, 1), x)
    assert ((proba == 5e-324) & (labels == -1)).any()
    model = train_mlp(x, labels, TrainConfig(epochs=100, seed=1))
    assert _digest(model.weights, model.biases) == \
        _digest(*train_mlp_oracle(x, labels, 100, 1))


def test_train_overflowing_bias_gradient_raises_naming_its_epoch(monkeypatch):
    # Hand-set weights give three rows first-layer bias-gradient entries
    # of a finite 1e308, whose sum overflows, while every other gradient
    # stays below 1e152. That sum ignores np.errstate, so the inf it
    # leaves must still stop the epoch, in Adam's update.
    init = blackbox._init_parameters

    def hand_set(layer_dims, seed):
        flat, weights, biases = init(layer_dims, seed)
        flat[:] = 0.0
        weights[0][...] = 1e60
        weights[1][:, 0] = 2e157
        weights[2][0, :] = 1e75
        weights[3][...] = -1e75
        return flat, weights, biases

    monkeypatch.setattr(blackbox, "_init_parameters", hand_set)
    with pytest.raises(DomainError, match="training overflows float64 in epoch 1 "):
        train_mlp(np.full((4, 1), 1e-160), np.array([1, 1, 1, -1]),
                  TrainConfig(epochs=3))


def _probe_points(d, rng):
    # random rows, the origin, and rows far enough out to saturate the head
    return np.vstack([rng.normal(scale=2.0, size=(40, d)), np.zeros((1, d)),
                      rng.normal(scale=1e3, size=(3, d))])


@pytest.mark.parametrize("d", [1, 2, 22])
def test_predict_matches_oracle_bit_for_bit(d):
    x, labels = _kernel_data(63, d, d)
    model = train_mlp(x, labels, TrainConfig(epochs=60, seed=d))
    hand_built = linear_mlp(np.linspace(-1.0, 1.0, min(d, 10)), 0.25)
    assert model.predict_proba(x).tobytes() == \
        predict_proba_oracle(model.weights, model.biases, x).tobytes()
    rng = np.random.default_rng(d)
    for net in (model, hand_built):
        points = _probe_points(net.layer_dims[0], rng)
        assert net.predict_proba(points).tobytes() == \
            predict_proba_oracle(net.weights, net.biases, points).tobytes()
        for point in points:
            proba, label, grad = predict(net, point)
            want_proba, want_label, want_grad = predict_oracle(
                net.weights, net.biases, net.threshold, point)
            assert (proba, label) == (want_proba, want_label)
            assert grad.tobytes() == want_grad.tobytes()


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


def _label_shapes_other_than(n):
    """Label arrays that are not 1-d with n entries."""
    labels = np.array([1.0, -1.0] * n)
    return [labels[:n - 1], labels[:n + 1], labels[:n].reshape(n, 1),
            labels[:n].reshape(1, n), np.array(1.0)]


def test_train_rejects_label_count_mismatch():
    x = np.random.default_rng(0).normal(size=(10, 2))
    for labels in _label_shapes_other_than(10):
        with pytest.raises(DimensionMismatch):
            train_mlp(x, labels, TrainConfig(epochs=1))


def test_future_models_reject_label_count_mismatch(spawned):
    features, labels = generate_synthetic(60, noise_std=1.0, seed=6)
    with pytest.raises(DimensionMismatch):
        simulate_future_models(features, labels[:50], n_models=2,
                               config=TrainConfig(epochs=1))
    for bad in _label_shapes_other_than(60):
        with pytest.raises(DimensionMismatch):
            simulate_future_models(features, bad, n_models=2,
                                   config=TrainConfig(epochs=1))
    assert spawned == []


def _bce(model, features, labels):
    p = np.clip(model.predict_proba(features), 1e-12, 1.0 - 1e-12)
    target = (labels + 1.0) / 2.0
    return float(-np.mean(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)))


def test_train_loss_decreases():
    # The training loss, from the trained model's own predictions, falls
    # from a short run to a long one from the same initialization.
    features, labels = generate_synthetic(200, seed=5)
    short = train_mlp(features, labels, TrainConfig(epochs=5, seed=0))
    long = train_mlp(features, labels, TrainConfig(epochs=1000, seed=0))
    assert _bce(long, features, labels) < 0.5 * _bce(short, features, labels)


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


def test_integer_settings_take_numpy_integers():
    # The integer check takes numpy's integers, as a derived seed or a
    # count read from an array is one.
    one, two = np.int64(1), np.uint32(2)
    assert TrainConfig(epochs=two, seed=one).epochs == 2
    assert SamplerConfig(k=one, n_p=two, seed=one).n_p == 2
    assert EvalConfig(seed=one, n_models=two, fid_n=two).fid_n == 2
    assert generate_synthetic(two)[0].shape == (2, 2)
    with pytest.raises(ValueError, match="epochs must be an integer, got 2.0"):
        TrainConfig(epochs=2.0)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_mlp_model_rejects_non_finite_threshold(threshold):
    model = linear_mlp(np.array([1.0, -1.0]), 0.0)
    with pytest.raises(NonFiniteInput):
        cvas.MlpModel(layer_dims=model.layer_dims, weights=model.weights,
                      biases=model.biases, threshold=threshold)


def test_mlp_model_rejects_shapes_other_than_its_layer_dims():
    model = linear_mlp(np.array([1.0, -1.0]), 0.0)
    dims, weights, biases = model.layer_dims, model.weights, model.biases
    for bad_dims, bad_weights, bad_biases in [
            ((3,) + dims[1:], weights, biases),  # input width
            (dims[:-1] + (2,), weights, biases),  # two output units
            (dims, weights[:-1], biases),  # a layer missing
            (dims, weights, biases[:-1] + [np.zeros(2)]),  # a bias too wide
            (dims, [w.T for w in weights], biases)]:  # transposed weights
        with pytest.raises(DimensionMismatch):
            cvas.MlpModel(layer_dims=bad_dims, weights=bad_weights,
                          biases=bad_biases)


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


def test_sigmoid_matches_the_masked_form_bit_for_bit():
    # One exp(-|z|) and a masked numerator against the form that gathers
    # each sign's entries: both zeros, subnormals, exp's underflow edge,
    # +-700, +-1e308 and values over every scale, on batches of 1, 10
    # and all rows, under predict_proba's error settings.
    tiny, normal = np.nextafter(0.0, 1.0), np.finfo(float).tiny
    edges = [0.0, tiny, 1e-310, normal, 1e-300, 0.5, 1.0, 36.7, 37.0, 700.0,
             709.8, 745.1, 746.0, 1e300, 1e308, np.finfo(float).max]
    rng = np.random.default_rng(0)
    magnitudes = np.concatenate([edges, 10.0 ** rng.uniform(-323, 308, 2000),
                                 np.abs(rng.normal(0.0, 20.0, 2000))])
    z = np.concatenate([magnitudes, -magnitudes])
    z = z[rng.permutation(z.size)][:, None]
    with np.errstate(over="raise", invalid="raise"):
        for batch in (z[:1], z[:10], z, np.array([[0.0], [-0.0]])):
            assert blackbox._sigmoid(batch).tobytes() == _mlp_sigmoid(batch).tobytes()


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
    # five models are dealt over min(usable CPUs, 5) workers (3 + 2 on two
    # CPUs, all five to one worker on one) and must equal sequential
    # in-process training, and the plain training loop, bit for bit
    features, labels = generate_synthetic(100, noise_std=1.0, seed=8)
    cfg = TrainConfig(epochs=5, seed=11)
    models = simulate_future_models(features, labels, n_models=5, fraction=0.8,
                                    config=cfg)
    assert len(spawned) == min(USABLE_CPUS, 5)
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
        assert _digest(model.weights, model.biases) == \
            _digest(*train_mlp_oracle(features[idx], labels[idx], cfg.epochs,
                                      cfg.seed + i))


def test_one_model_ensemble_trains_in_one_worker(spawned):
    features, labels = generate_synthetic(60, noise_std=1.0, seed=6)
    cfg = TrainConfig(epochs=5, seed=4)
    (model,) = simulate_future_models(features, labels, n_models=1, fraction=1.0,
                                      config=cfg)
    assert len(spawned) == 1
    idx = np.random.default_rng(cfg.seed).choice(60, size=60, replace=False)
    expected = train_mlp(features[idx], labels[idx], cfg)
    for wa, wb in zip(model.weights + model.biases,
                      expected.weights + expected.biases):
        assert np.array_equal(wa, wb)


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


def test_future_models_single_class_subsamples_raise_before_any_worker(spawned):
    # fraction 0.1 of 10 rows draws one row, one class, in every draw.
    features = np.random.default_rng(0).normal(size=(10, 2))
    labels = np.where(np.arange(10) == 0, 1, -1)
    with pytest.raises(SingleClassData, match="model 0 was single-class in 10"):
        simulate_future_models(features, labels, n_models=2, fraction=0.1,
                               config=TrainConfig(epochs=2))
    assert spawned == []


def test_training_data_gate_refuses_no_rows_then_one_class(spawned):
    # train_mlp, simulate_future_models and sweep share one gate, which
    # refuses no rows before one class, and a one-class shifted set with
    # train_mlp's message, before any subsample is drawn.
    features = np.random.default_rng(0).normal(size=(10, 2))
    for call in (train_mlp, simulate_future_models):
        with pytest.raises(EmptyInput, match="no rows"):
            call(features[:0], np.ones(0))
        with pytest.raises(SingleClassData,
                           match=r"training labels contain a single class \[1\.\]"):
            call(features, np.ones(10))
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


def test_future_models_reject_zero_width_data_before_any_worker(spawned):
    # Zero columns used to leak ZeroDivisionError from train_mlp, and the
    # ensemble's workers to fail with a bare exit status.
    labels = np.array([1, -1, 1, -1, 1, -1])
    with pytest.raises(DimensionMismatch, match="no columns"):
        train_mlp(np.zeros((6, 0)), labels)
    with pytest.raises(DimensionMismatch, match="no columns"):
        simulate_future_models(np.zeros((6, 0)), labels, n_models=2)
    assert spawned == []


def test_future_models_ignore_a_cvas_package_in_the_callers_directory(tmp_path,
                                                                      monkeypatch):
    # The workers import this package from its source root, never a cvas
    # in the caller's working directory, and take no module from there.
    (tmp_path / "cvas").mkdir()
    (tmp_path / "cvas" / "__init__.py").write_text("raise ImportError('decoy')\n")
    (tmp_path / "numpy.py").write_text("raise ImportError('decoy')\n")
    monkeypatch.chdir(tmp_path)
    features, labels = generate_synthetic(60, noise_std=1.0, seed=6)
    cfg = TrainConfig(epochs=5, seed=2)
    models = simulate_future_models(features, labels, n_models=2, config=cfg)
    assert len(models) == 2
    for i, model in enumerate(models):
        idx = np.random.default_rng(cfg.seed + i).choice(60, size=48, replace=False)
        expected = train_mlp(features[idx], labels[idx], replace(cfg, seed=cfg.seed + i))
        assert _digest(model.weights, model.biases) == \
            _digest(expected.weights, expected.biases)


def test_future_models_worker_exit_status_raises(tmp_path, monkeypatch, spawned):
    _fake_python(tmp_path, monkeypatch, "exit 3")
    features, labels = generate_synthetic(60, noise_std=1.0, seed=6)
    with pytest.raises(CvasError, match="status 3"):
        simulate_future_models(features, labels, n_models=2,
                               config=TrainConfig(epochs=5))
    assert spawned[0].returncode == 3
    assert all(worker.returncode is not None for worker in spawned)  # reaped


def test_future_models_interrupt_kills_and_reaps_workers(monkeypatch, spawned):
    # the interrupt lands while the second worker starts (two, on any
    # machine); the first, still waiting for its jobs, must be killed
    # and reaped
    monkeypatch.setattr(blackbox, "_usable_cpus", lambda: 2)
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


def _running(pid):
    """Whether process pid exists and is not a zombie (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_workers_stop_before_their_next_model_once_the_caller_is_killed():
    # SIGTERM's default action ends the caller without running the
    # finally that kills its workers. Each worker has 60 models to
    # train; it must stop after the model it is training, not run on
    # through its share.
    features, labels = generate_synthetic(300, noise_std=1.0, seed=6)
    config = TrainConfig(epochs=400)
    start = time.monotonic()
    train_mlp(features, labels, config)
    one_model = time.monotonic() - start
    caller_script = textwrap.dedent("""\
        import subprocess, sys, time
        from cvas import TrainConfig, blackbox, generate_synthetic

        real_popen = subprocess.Popen

        def popen(*args, **kwargs):
            worker = real_popen(*args, **kwargs)
            print(worker.pid, flush=True)
            return worker

        subprocess.Popen = popen
        n_workers = min(blackbox._usable_cpus(), 2)
        features, labels = generate_synthetic(300, noise_std=1.0, seed=6)
        with blackbox._future_models(features, labels, 60 * n_workers, 1.0,
                                     TrainConfig(epochs=400)):
            print("training", flush=True)
            time.sleep(600)
    """)
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(cvas.__file__)))
    caller = subprocess.Popen([sys.executable, "-c", caller_script],
                              stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=source_root))
    workers = []
    try:
        for line in caller.stdout:
            if line == "training\n":
                break
            workers.append(int(line))
        assert workers
        time.sleep(1.0)  # the workers load their jobs and start training
        assert all(_running(pid) for pid in workers)
        caller.send_signal(signal.SIGTERM)
        assert caller.wait(timeout=60) == -signal.SIGTERM
        deadline = time.monotonic() + 2.0 + 3.0 * one_model
        while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _running(pid)]
    finally:
        caller.kill()
        caller.wait()
        caller.stdout.close()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def _fake_python(tmp_path, monkeypatch, body):
    """Make the training workers run the shell script `body` instead."""
    fake = tmp_path / "python"
    fake.write_text(f"#!/bin/sh\n{body}\n")
    fake.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(fake))


def _sweep_inputs():
    """A small two-model projection sweep's arguments; three instances,
    the first present rows that the current model labels unfavorable."""
    present = generate_synthetic(200, seed=0)
    shifted = generate_synthetic(200, noise_std=1.0, seed=1)
    config = EvalConfig(seed=3, sampler=SamplerConfig(n_p=200),
                        train=TrainConfig(epochs=150, seed=0), n_models=2,
                        fid_n=100)
    return (present, shifted, unfavorable_rows(present, config.train, 3), "nominal",
            [0.0], "projection", config)


# sweep's moments calls per instance: the instance's own, then its
# sensitivity neighbors'
CALLS_PER_INSTANCE = 1 + evalharness._SENS_NEIGHBORS


def _counted_boundary_moments(monkeypatch, interrupt_at=None):
    """Count sweep's moments calls; raise KeyboardInterrupt at call
    number interrupt_at."""
    calls = []
    real = evalharness._boundary_moments

    def counted(*args):
        calls.append(args)
        if len(calls) == interrupt_at:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(evalharness, "_boundary_moments", counted)
    return calls


def test_sweep_interrupt_kills_and_reaps_training_workers(tmp_path, monkeypatch,
                                                          spawned):
    # The workers sleep instead of training, so they are still running
    # when the interrupt lands in the second instance; leaving the sweep
    # must kill and reap every one of them.
    _fake_python(tmp_path, monkeypatch, "exec sleep 60")
    second_instance = CALLS_PER_INSTANCE + 1
    calls = _counted_boundary_moments(monkeypatch, interrupt_at=second_instance)
    with pytest.raises(KeyboardInterrupt):
        sweep(*_sweep_inputs())
    assert len(calls) == second_instance
    assert len(spawned) == min(USABLE_CPUS, 2)
    assert all(worker.returncode == -signal.SIGKILL for worker in spawned)


def test_sweep_refuses_a_favorable_instance_and_kills_its_workers(tmp_path, monkeypatch,
                                                                  spawned):
    # sweep trains its current model while the ensemble's workers run, so
    # it labels the instances only then; refusing a favorable one must
    # kill and reap every worker, before any instance is prepared.
    def no_instance(*args):
        raise AssertionError("sweep prepared an instance before labelling them")

    _fake_python(tmp_path, monkeypatch, "exec sleep 60")
    monkeypatch.setattr(evalharness, "_boundary_moments", no_instance)
    present, shifted, instances, *grid, config = _sweep_inputs()
    model = train_mlp(present[0], present[1], config.train)
    favorable = present[0][model.label(present[0]) == 1][:2]
    with pytest.raises(DomainError, match="labels 2 of 5 instances favorable, "
                                          "the first at index 3"):
        sweep(present, shifted, np.vstack([instances, favorable]), *grid, config)
    assert len(spawned) == min(USABLE_CPUS, 2)
    assert all(worker.returncode == -signal.SIGKILL for worker in spawned)


def test_sweep_raises_a_worker_exit_status_after_its_instances(tmp_path,
                                                               monkeypatch,
                                                               spawned):
    # The workers fail at once; sweep still runs every instance and
    # raises the failure only when it collects the ensemble.
    _fake_python(tmp_path, monkeypatch, "exit 3")
    calls = _counted_boundary_moments(monkeypatch)
    with pytest.raises(CvasError, match="status 3"):
        sweep(*_sweep_inputs())
    assert len(calls) == 3 * CALLS_PER_INSTANCE
    assert len(spawned) == min(USABLE_CPUS, 2)
    assert spawned[0].returncode == 3
    assert all(worker.returncode is not None for worker in spawned)  # reaped


@pytest.mark.parametrize("cpus", [1, None], ids=["one-cpu", "usable-cpus"])
def test_future_models_raise_the_training_error_of_a_worker(monkeypatch, spawned,
                                                            cpus):
    # The worker's DomainError comes back with its class and message,
    # the one train_mlp raises here, on one CPU as on several.
    if cpus:
        monkeypatch.setattr(blackbox, "_usable_cpus", lambda: cpus)
    config = TrainConfig(epochs=50)
    with pytest.raises(DomainError) as in_process:
        train_mlp(OVERFLOW_ROWS, OVERFLOW_LABELS, config)
    assert "epoch 1 " in str(in_process.value)
    with pytest.raises(DomainError) as from_worker:
        simulate_future_models(OVERFLOW_ROWS, OVERFLOW_LABELS, n_models=2,
                               fraction=1.0, config=config)
    assert str(from_worker.value) == str(in_process.value)
    assert len(spawned) == min(cpus or USABLE_CPUS, 2)
    assert [worker.returncode for worker in spawned] == [0] * len(spawned)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_future_models_raise_the_lowest_numbered_models_error(monkeypatch, cpus):
    # A row of 1e170 makes model 1 (seed 4) overflow in epoch 1 and model 2
    # (seed 5) near epoch 200, while model 0 (seed 3) trains. Two workers
    # train models 0, 1 and model 2; three train one model each, and both
    # models 1 and 2 fail. Model 1's error is raised, as on one worker
    # that trains 0, 1, 2 in order.
    features, labels = generate_synthetic(20, seed=0)
    features = np.vstack([features, [[1e170, -1e170]]])
    labels = np.append(labels, 1)
    config = TrainConfig(epochs=200, seed=3)
    errors = []
    for i in range(3):
        idx = np.random.default_rng(config.seed + i).choice(21, size=21, replace=False)
        try:
            train_mlp(features[idx], labels[idx], replace(config, seed=config.seed + i))
            errors.append(None)
        except DomainError as exc:
            errors.append(str(exc))
    assert errors[0] is None and None not in errors[1:] and errors[1] != errors[2]
    monkeypatch.setattr(blackbox, "_usable_cpus", lambda: cpus)
    with pytest.raises(DomainError) as raised:
        simulate_future_models(features, labels, n_models=3, fraction=1.0,
                               config=config)
    assert str(raised.value) == errors[1]


@pytest.mark.parametrize("cpus", [1, None], ids=["one-cpu", "usable-cpus"])
def test_sweep_raises_a_workers_training_error_after_its_instances(monkeypatch,
                                                                   spawned, cpus):
    # The ensemble's training overflows; sweep still runs every instance
    # and raises the worker's DomainError when it collects the ensemble.
    if cpus:
        monkeypatch.setattr(blackbox, "_usable_cpus", lambda: cpus)
    calls = _counted_boundary_moments(monkeypatch)
    present, _, instances, *grid, config = _sweep_inputs()
    with pytest.raises(DomainError, match="training overflows float64 in epoch 1 "):
        sweep(present, (OVERFLOW_ROWS, OVERFLOW_LABELS), instances, *grid, config)
    assert len(calls) == 3 * CALLS_PER_INSTANCE
    assert len(spawned) == min(cpus or USABLE_CPUS, 2)
    assert [worker.returncode for worker in spawned] == [0] * len(spawned)


def test_sweep_checks_its_integer_settings_before_any_worker(spawned):
    # fid_n = 10.5 used to build, and sweep started both training
    # workers before sample_ball raised TypeError in the instance loop.
    present, shifted, instances, *grid, config = _sweep_inputs()
    with pytest.raises(ValueError, match="fid_n must be an integer"):
        sweep(present, shifted, instances, *grid, replace(config, fid_n=10.5))
    assert spawned == []


def test_train_worker_main_in_process(monkeypatch):
    # The worker's own loop, on byte buffers, with this process's parent
    # as its caller: its models are train_mlp's bit for bit, and a
    # failing job's error stops the loop and comes back beside the
    # models trained before it.
    features, labels = generate_synthetic(40, noise_std=1.0, seed=2)
    features = np.vstack([features, OVERFLOW_ROWS])
    labels = np.append(labels, OVERFLOW_LABELS)
    good = np.arange(40)
    overflow = np.arange(40, 44)
    jobs = [(good, TrainConfig(epochs=5, seed=1)), (good[::2], TrainConfig(epochs=5)),
            (overflow, TrainConfig(epochs=50)), (good, TrainConfig(epochs=5))]
    stdin = types.SimpleNamespace(buffer=io.BytesIO(pickle.dumps(
        (os.getppid(), features, labels, jobs))))
    stdout = types.SimpleNamespace(buffer=io.BytesIO())
    monkeypatch.setattr(sys, "stdin", stdin)
    monkeypatch.setattr(sys, "stdout", stdout)
    blackbox._train_worker()
    models, error = pickle.loads(stdout.buffer.getvalue())
    assert len(models) == 2
    for model, (idx, config) in zip(models, jobs):
        expected = train_mlp(features[idx], labels[idx], config)
        assert _digest(model.weights, model.biases) == \
            _digest(expected.weights, expected.biases)
    with pytest.raises(DomainError) as in_process:
        train_mlp(features[overflow], labels[overflow], TrainConfig(epochs=50))
    assert type(error) is DomainError and str(error) == str(in_process.value)


@pytest.mark.parametrize("count, usable", [(7, 7), (None, 1)])
def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch, count, usable):
    # Platforms without sched_getaffinity: the CPU count, or 1 when the
    # count is unknown.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert blackbox._usable_cpus() == usable


def test_sweep_report_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    sweep(*_sweep_inputs()).to_csv(tmp_path / "usable.csv")
    monkeypatch.setattr(blackbox, "_usable_cpus", lambda: 1)
    sweep(*_sweep_inputs()).to_csv(tmp_path / "one.csv")
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "usable.csv").read_bytes()


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


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """A saved 3-epoch 2-d model: its path and its bytes."""
    x, labels = _separable_data(n=40)
    path = tmp_path_factory.mktemp("model") / "model.bin"
    save_model(train_mlp(x, labels, TrainConfig(epochs=3, seed=1)), path)
    return path, path.read_bytes()


# 8 magic + 4 layer count + 5 * 4 dims + 8 threshold + 8 * 2151 parameters
MODEL_BYTES = 17248


@settings(max_examples=60, deadline=None)
@given(cut=st.integers(0, MODEL_BYTES - 1))
@example(cut=10)  # inside the layer count
@example(cut=20)  # inside the dims
@example(cut=60)  # inside the first weight matrix
@example(cut=MODEL_BYTES - 3)  # inside the last bias
def test_load_model_rejects_truncated_files(model_file, cut):
    # every proper prefix is a CvasError naming the path, never
    # struct.error or numpy's ValueError
    path, blob = model_file
    assert len(blob) == MODEL_BYTES
    cut_path = path.with_name("cut.bin")
    cut_path.write_bytes(blob[:cut])
    with pytest.raises(CvasError, match="cut.bin"):
        load_model(cut_path)


def test_load_model_rejects_trailing_bytes(model_file):
    path, blob = model_file
    long_path = path.with_name("long.bin")
    long_path.write_bytes(blob + b"\0")
    with pytest.raises(CvasError, match="long.bin has 1 trailing bytes"):
        load_model(long_path)


@pytest.mark.parametrize("dims", [(), (2,), (2, 0, 1)])
def test_load_model_rejects_degenerate_layer_dims(tmp_path, dims):
    # each file holds exactly the parameters its header declares
    header = b"CVASMLP1" + struct.pack(f"<I{len(dims)}I", len(dims), *dims)
    n_params = sum((a + 1) * b for a, b in zip(dims[:-1], dims[1:]))
    path = tmp_path / "degenerate.bin"
    path.write_bytes(header + struct.pack("<d", 0.5) + b"\0" * 8 * n_params)
    with pytest.raises(CvasError, match="degenerate.bin"):
        load_model(path)


def test_load_model_rejects_an_oversized_layer_count(tmp_path):
    path = tmp_path / "huge.bin"
    path.write_bytes(b"CVASMLP1" + struct.pack("<I", 2**32 - 1) + b"\0" * 64)
    with pytest.raises(CvasError, match="truncated"):
        load_model(path)


# threshold offset, then the offsets of a first-layer weight and of the
# last bias, in a saved 2-d model
_THRESHOLD_AT = 8 + 4 + 5 * 4


@pytest.mark.parametrize("at", [_THRESHOLD_AT, _THRESHOLD_AT + 8,
                                MODEL_BYTES - 8])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_load_model_rejects_non_finite_values(model_file, at, value):
    path, blob = model_file
    bad_path = path.with_name("non_finite.bin")
    bad_path.write_bytes(blob[:at] + struct.pack("<d", value) + blob[at + 8:])
    with pytest.raises(CvasError, match="non_finite.bin"):
        load_model(bad_path)


@pytest.mark.parametrize("part", ["threshold", "weights", "biases"])
def test_save_model_refuses_non_finite_values(tmp_path, part):
    x, labels = _separable_data(n=40)
    model = train_mlp(x, labels, TrainConfig(epochs=3, seed=1))
    if part == "threshold":
        model.threshold = math.nan
    else:
        getattr(model, part)[0][0] = math.inf
    path = tmp_path / "model.bin"
    with pytest.raises(NonFiniteInput, match="model.bin"):
        save_model(model, path)
    assert not path.exists()
