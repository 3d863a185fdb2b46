"""Black-box classifier: a small MLP trained from scratch in numpy.

Architecture is pinned to d -> 20 -> 50 -> 20 -> 1 with ReLU hidden
units and a sigmoid head. Training is full-batch Adam on binary
cross-entropy. Everything is seeded so the same data and seed reproduce
bit-identical weights, whether a model trains in this process or in a
training worker (see simulate_future_models).
"""

import contextlib
import math
import os
import pickle
import struct
import subprocess
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from ._io import atomic_write_bytes
from .errors import (
    BadLabelValue,
    CvasError,
    DimensionMismatch,
    NonFiniteInput,
    SingleClassData,
)

HIDDEN_DIMS = (20, 50, 20)

_MAGIC = b"CVASMLP1"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for train_mlp. Defaults match the reference setup."""

    epochs: int = 1000
    learning_rate: float = 1e-3
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")


@dataclass
class MlpModel:
    """Weights and threshold of a trained (or hand-built) MLP.

    weights[i] has shape (layer_dims[i], layer_dims[i+1]); biases[i] has
    shape (layer_dims[i+1],). The decision threshold applies to the
    sigmoid output: label +1 iff probability >= threshold.
    loss_history is training metadata and is not serialized.
    """

    layer_dims: tuple
    weights: list
    biases: list
    threshold: float = 0.5
    loss_history: list = field(default=None, repr=False)

    def predict_proba(self, features):
        """Sigmoid outputs for a batch of rows, shape (n,).

        Raises DimensionMismatch for rows of the wrong width and
        NonFiniteInput for rows holding NaN or infinity.
        """
        features = np.asarray(features, dtype=float)
        if features.shape[-1] != self.layer_dims[0]:
            raise DimensionMismatch(
                f"model expects {self.layer_dims[0]} features, got {features.shape[-1]}"
            )
        if not np.isfinite(features).all():
            raise NonFiniteInput("prediction input must be finite")
        for _, output in _forward(np.atleast_2d(features), self.weights,
                                  self.biases):
            pass
        return output[:, 0]

    def label(self, features):
        """Hard labels in {-1, +1}; ties at the threshold go to +1."""
        proba = self.predict_proba(features)
        return np.where(proba >= self.threshold, 1, -1)


def _sigmoid(z):
    # Piecewise form avoids overflow in exp for large |z|; the clamp keeps
    # the output strictly inside (0,1) even where exp underflows.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, 5e-324, np.nextafter(1.0, 0.0))


def _forward(features, weights, biases):
    """Yield (pre-activation, activation) for each layer of a 2-d batch.

    The last activation is the sigmoid output, shape (n, 1). Yielding
    lets inference drop each layer as soon as the next one is built.
    """
    activation = features
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = activation @ w + b
        activation = _sigmoid(z) if i == last else np.maximum(z, 0.0)
        yield z, activation


def _bce(proba, target01):
    p = np.clip(proba, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(target01 * np.log(p) + (1.0 - target01) * np.log(1.0 - p)))


def _init_parameters(layer_dims, seed):
    # He-uniform: U(-limit, limit) with limit = sqrt(6 / fan_in), zero biases.
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _check_training_data(features, labels):
    """Float copies of 2-d finite features and finite {-1, +1} labels."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if not np.all(np.isfinite(features)) or not np.all(np.isfinite(labels)):
        raise NonFiniteInput("features and labels must be finite")
    if features.ndim != 2:
        raise DimensionMismatch(f"features must be 2-d, got shape {features.shape}")
    bad = (labels != 1.0) & (labels != -1.0)
    if bad.any():
        raise BadLabelValue(
            f"training labels must be -1 or +1, got {np.unique(labels[bad])[:5]}"
        )
    return features, labels


def train_mlp(features, labels, config=TrainConfig()):
    """Train the pinned-architecture MLP with full-batch Adam.

    Parameters
    ----------
    features : ndarray, shape (n, d)
    labels : ndarray, shape (n,)
        Values in {-1, +1}.
    config : TrainConfig

    Returns
    -------
    MlpModel
        Trained model with per-epoch BCE in loss_history (entry 0 is the
        loss of the initialization, before any update).

    Raises
    ------
    SingleClassData
        If labels contain only one class.
    NonFiniteInput
        If features or labels contain NaN or infinity.
    BadLabelValue
        If a label is neither -1 nor +1.
    """
    features, labels = _check_training_data(features, labels)
    classes = np.unique(labels)
    if len(classes) < 2:
        raise SingleClassData(f"training labels contain a single class {classes}")

    n, d = features.shape
    layer_dims = (d,) + HIDDEN_DIMS + (1,)
    weights, biases = _init_parameters(layer_dims, config.seed)
    target = ((labels + 1.0) / 2.0).reshape(n, 1)

    params = weights + biases
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    history = []

    for step in range(1, config.epochs + 1):
        zs, hs = zip(*_forward(features, weights, biases))
        hs = (features,) + hs
        proba = hs[-1]
        # The loss after step - 1 updates; the last one is taken below.
        history.append(_bce(proba[:, 0], target[:, 0]))

        # Backward pass. Sigmoid + BCE collapse to (p - y) / n at the head.
        delta = (proba - target) / n
        grads_w, grads_b = [], []
        for i in range(len(weights) - 1, -1, -1):
            grads_w.append(hs[i].T @ delta)
            grads_b.append(delta.sum(axis=0))
            if i > 0:
                delta = (delta @ weights[i].T) * (zs[i - 1] > 0.0)
        grads = grads_w[::-1] + grads_b[::-1]
        del zs, hs  # release the activations before the next forward pass

        lr_t = config.learning_rate
        bc1 = 1.0 - beta1**step
        bc2 = 1.0 - beta2**step
        for p, g, m, v in zip(params, grads, m_state, v_state):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p -= lr_t * (m / bc1) / (np.sqrt(v / bc2) + eps)

    for _, output in _forward(features, weights, biases):
        pass
    history.append(_bce(output[:, 0], target[:, 0]))

    return MlpModel(
        layer_dims=layer_dims,
        weights=weights,
        biases=biases,
        threshold=0.5,
        loss_history=history,
    )


def predict(model, x):
    """Probability, hard label, and input gradient at a single point.

    Returns
    -------
    (probability, label, gradient)
        probability in [0, 1], label in {-1, +1} (ties to +1), and the
        gradient of the probability with respect to x, shape (d,).

    Raises
    ------
    DimensionMismatch
        If x does not have the model's input width.
    NonFiniteInput
        If x contains NaN or infinity.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != model.layer_dims[0]:
        raise DimensionMismatch(
            f"model expects {model.layer_dims[0]} features, got {x.shape[0]}"
        )
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("prediction input must be finite")

    zs, hs = [], [x]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = hs[-1] @ w + b
        zs.append(z)
        hs.append(_sigmoid(z) if i == last else np.maximum(z, 0.0))
    proba = float(hs[-1][0])
    label = 1 if proba >= model.threshold else -1

    # Chain rule back to the input; ReLU passes gradient only where z > 0.
    grad = np.array([proba * (1.0 - proba)])
    for i in range(last, 0, -1):
        grad = (model.weights[i] @ grad) * (zs[i - 1] > 0.0)
    grad = model.weights[0] @ grad
    return proba, label, grad


def generate_synthetic(n, noise_std=0.0, seed=0):
    """Sample the 2-d synthetic benchmark.

    Features are uniform on [-2, 4] x [-2, 7]. The label is +1 iff
    x2 >= 1 + x1 + 2*x1^2 + x1^3 - x1^4 + eps with eps ~ N(0, noise_std^2),
    so noise_std = 0 gives the clean generation and noise_std = 1 the
    shifted one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if noise_std < 0.0:
        raise ValueError("noise_std must be nonnegative")
    rng = np.random.default_rng(seed)
    features = rng.uniform(low=[-2.0, -2.0], high=[4.0, 7.0], size=(n, 2))
    eps = rng.normal(0.0, noise_std, size=n) if noise_std > 0.0 else np.zeros(n)
    x1 = features[:, 0]
    frontier = 1.0 + x1 + 2.0 * x1**2 + x1**3 - x1**4
    labels = np.where(features[:, 1] >= frontier + eps, 1, -1)
    return features, labels


def simulate_future_models(shifted_features, shifted_labels, n_models=100,
                           fraction=0.8, config=TrainConfig()):
    """Train an ensemble on subsampled data to stand in for model shift.

    Model i subsamples ceil(fraction * n) rows without replacement and
    trains with seed config.seed + i, so the ensemble is deterministic
    in the master seed. A subsample that lands on a single class is
    redrawn up to 10 times before SingleClassData propagates.

    The subsamples are drawn here; the models train in up to one worker
    process per usable CPU (never more than n_models), each with one
    BLAS thread, and come back in index order, bit-identical to
    training them one after another in this process. With one usable
    CPU or one model they train in this process. Features and labels
    are validated before any worker starts.

    Raises
    ------
    NonFiniteInput, DimensionMismatch, BadLabelValue
        As train_mlp, for the full shifted data.
    SingleClassData
        If a model's subsample is single-class in 10 draws.
    CvasError
        If a training worker exits with a non-zero status.
    """
    if n_models < 1:
        raise ValueError("n_models must be >= 1")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    features, labels = _check_training_data(shifted_features, shifted_labels)
    n = features.shape[0]
    size = math.ceil(fraction * n)
    jobs = []
    for i in range(n_models):
        seed_i = config.seed + i
        rng = np.random.default_rng(seed_i)
        for attempt in range(10):
            idx = rng.choice(n, size=size, replace=False)
            if len(np.unique(labels[idx])) > 1:
                break
        else:
            raise SingleClassData(
                f"subsample for model {i} was single-class in 10 draws"
            )
        jobs.append((idx, replace(config, seed=seed_i)))
    n_workers = min(_usable_cpus(), n_models)
    if n_workers == 1:
        return _train_jobs(features, labels, jobs)
    return _train_in_workers(features, labels, jobs, n_workers)


def _train_jobs(features, labels, jobs):
    """Train one model per (row indices, config) job, in order."""
    return [train_mlp(features[idx], labels[idx], config) for idx, config in jobs]


def _usable_cpus():
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _train_in_workers(features, labels, jobs, n_workers):
    """Run _train_jobs over jobs dealt round-robin to n_workers subprocesses.

    Each worker is ``python -m cvas._trainworker``: it gets the data and
    its share of the jobs pickled on stdin and returns its models
    pickled on stdout. Subprocesses, unlike multiprocessing, never
    re-run the caller's __main__. On any exception, KeyboardInterrupt
    included, every worker is killed and reaped before it propagates.
    """
    # This package's own source root goes first on the worker's path (and
    # is its working directory, which -m puts ahead of PYTHONPATH), so a
    # source checkout never trains with an installed copy.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    workers = []
    try:
        for _ in range(n_workers):
            workers.append(subprocess.Popen(
                [sys.executable, "-m", "cvas._trainworker"], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, env=env, cwd=root))
        for w, worker in enumerate(workers):
            try:
                with worker.stdin:
                    pickle.dump((features, labels, jobs[w::n_workers]), worker.stdin,
                                protocol=pickle.HIGHEST_PROTOCOL)
            except BrokenPipeError:
                pass  # the worker has exited; its status is checked below
        models = [None] * len(jobs)
        for w, worker in enumerate(workers):
            output = worker.stdout.read()
            if worker.wait() != 0:
                raise CvasError(
                    f"training worker exited with status {worker.returncode}"
                )
            models[w::n_workers] = pickle.loads(output)
        return models
    finally:
        for worker in workers:
            worker.kill()  # a no-op once the worker has been reaped
            worker.wait()
            worker.stdout.close()
            with contextlib.suppress(BrokenPipeError):
                worker.stdin.close()


def save_model(model, path):
    """Write a model to the flat binary layout described in the README.

    Layout, all little-endian: 8-byte magic "CVASMLP1", uint32 count of
    layer dims, that many uint32 dims, float64 threshold, then for each
    layer the row-major float64 weight matrix followed by the bias
    vector. The write is atomic (temp file + rename).
    """
    parts = [_MAGIC, struct.pack("<I", len(model.layer_dims))]
    parts.append(struct.pack(f"<{len(model.layer_dims)}I", *model.layer_dims))
    parts.append(struct.pack("<d", model.threshold))
    for w, b in zip(model.weights, model.biases):
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    atomic_write_bytes(path, b"".join(parts))


def load_model(path):
    """Read a model written by save_model; round-trips bit-identically."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _MAGIC:
        raise CvasError(f"{path} is not a model file (bad magic)")
    offset = 8
    (n_dims,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    dims = struct.unpack_from(f"<{n_dims}I", blob, offset)
    offset += 4 * n_dims
    (threshold,) = struct.unpack_from("<d", blob, offset)
    offset += 8
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = np.frombuffer(blob, dtype="<f8", count=fan_in * fan_out, offset=offset)
        offset += 8 * fan_in * fan_out
        b = np.frombuffer(blob, dtype="<f8", count=fan_out, offset=offset)
        offset += 8 * fan_out
        weights.append(w.reshape(fan_in, fan_out).copy())
        biases.append(b.copy())
    if offset != len(blob):
        raise CvasError(f"{path} has {len(blob) - offset} trailing bytes")
    return MlpModel(layer_dims=tuple(dims), weights=weights, biases=biases,
                    threshold=threshold)
