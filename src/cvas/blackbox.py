"""Black-box classifier: a small MLP trained from scratch in numpy.

Architecture is pinned to d -> 20 -> 50 -> 20 -> 1 with ReLU hidden
units and a sigmoid head. Training is full-batch Adam on binary
cross-entropy. Everything is seeded so the same data and seed reproduce
bit-identical weights, whether a model trains in this process or in a
training worker. _future_models and _train_worker hold both ends of
the workers' pickled wire format. train_mlp describes the
allocation-light kernel.
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
    DomainError,
    NonFiniteInput,
    SingleClassData,
    check_integer,
    finite_array,
)

HIDDEN_DIMS = (20, 50, 20)

_MAGIC = b"CVASMLP1"

# Adam's moment decays and denominator guard, the reference values.
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for train_mlp. Defaults match the reference setup.

    Raises ValueError unless epochs is an integer >= 1, seed an integer
    >= 0 (numpy integers pass) and learning_rate positive and finite.
    """

    epochs: int = 1000
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        check_integer(self.epochs, "epochs", 1)
        check_integer(self.seed, "seed", 0)
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")


@dataclass
class MlpModel:
    """Weights and threshold of a trained (or hand-built) MLP.

    weights[i] has shape (layer_dims[i], layer_dims[i+1]); biases[i] has
    shape (layer_dims[i+1],). The decision threshold applies to the
    sigmoid output: label +1 iff probability >= threshold.
    loss_history is training metadata and is not serialized. Building
    one raises NonFiniteInput for a non-finite threshold, and
    DimensionMismatch for shapes other than layer_dims gives or an
    output layer wider than one unit.
    """

    layer_dims: tuple
    weights: list
    biases: list
    threshold: float = 0.5
    loss_history: list = field(default=None, repr=False)

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise NonFiniteInput(f"threshold must be finite, got {self.threshold}")
        dims = tuple(self.layer_dims)
        shapes = [np.shape(a) for a in (*self.weights, *self.biases)]
        if len(dims) < 2 or dims[-1] != 1 or shapes != (
                [*zip(dims[:-1], dims[1:])] + [(fan_out,) for fan_out in dims[1:]]):
            raise DimensionMismatch(f"shapes {shapes} disagree with layer_dims {dims}")

    def _rows(self, features):
        """features as a 2-d float batch, checked as predict_proba says."""
        return finite_array(np.atleast_2d(features), "prediction input",
                            shape=(None, self.layer_dims[0]))

    def predict_proba(self, features):
        """Sigmoid outputs for a batch of rows, shape (n,).

        Raises DimensionMismatch for rows of the wrong width,
        NonFiniteInput for rows holding NaN or infinity, and DomainError
        for finite rows whose activations overflow float64.
        """
        rows = self._rows(features)
        try:
            with np.errstate(over="raise", invalid="raise"):
                for output in _forward(rows, self.weights, self.biases):
                    pass
        except FloatingPointError as exc:
            raise DomainError(f"prediction overflows float64 ({exc})") from None
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
    """Yield the activation of each layer of a 2-d batch.

    The last activation is the sigmoid output, shape (n, 1). Each layer
    is one fresh product that takes its bias and ReLU in place; the
    pre-activations are not kept, since a backward pass can take its
    mask from the activation. Yielding lets inference drop each layer
    as soon as the next one is built. Callers that set np.errstate do
    so around the whole loop: a suspended generator would leave the
    setting on in its caller.
    """
    activation = features
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = activation @ w
        z += b
        activation = _sigmoid(z) if i == last else np.maximum(z, 0.0, out=z)
        yield activation


def _bce(proba, target01):
    p = np.clip(proba, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(target01 * np.log(p) + (1.0 - target01) * np.log(1.0 - p)))


def _layer_views(flat, layer_dims):
    """Per-layer (weights, biases) views into one flat parameter-sized vector.

    Layer i's weight matrix, then its bias vector, in layer order.
    """
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(flat[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(flat[offset:offset + fan_out])
        offset += fan_out
    return weights, biases


def _n_parameters(layer_dims):
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]))


def _init_parameters(layer_dims, seed):
    """One flat parameter vector and its per-layer (weights, biases) views.

    He-uniform: U(-limit, limit) with limit = sqrt(6 / fan_in), zero biases.
    """
    rng = np.random.default_rng(seed)
    flat = np.zeros(_n_parameters(layer_dims))
    weights, biases = _layer_views(flat, layer_dims)
    for w in weights:
        limit = math.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return flat, weights, biases


def _check_training_data(features, labels):
    """Float copies of 2-d finite features with at least one column and
    finite {-1, +1} labels, one label per feature row."""
    features = finite_array(features, "training features", shape=(None, None))
    if features.shape[1] == 0:
        raise DimensionMismatch("training features have no columns")
    labels = finite_array(labels, "training labels", shape=features.shape[:1])
    bad = (labels != 1.0) & (labels != -1.0)
    if bad.any():
        raise BadLabelValue(
            f"training labels must be -1 or +1, got {np.unique(labels[bad])[:5]}"
        )
    return features, labels


def train_mlp(features, labels, config=TrainConfig()):
    """Train the pinned-architecture MLP with full-batch Adam.

    Parameters, gradients and the Adam moments live in one flat vector
    each, with per-layer views. An epoch runs the in-place forward pass
    (see _forward), writes each gradient into its view, masks the
    backward pass with the activations' sign, and applies one Adam
    update to the whole flat vector. The returned weights and biases
    are views into the trained parameter vector.

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
    DimensionMismatch
        If features are not 2-d with at least one column, or labels are
        not 1-d with one entry per feature row.
    BadLabelValue
        If a label is neither -1 nor +1.
    DomainError
        If finite data overflow float64 in training, naming the epoch.
    """
    features, labels = _check_training_data(features, labels)
    classes = np.unique(labels)
    if len(classes) < 2:
        raise SingleClassData(f"training labels contain a single class {classes}")

    n, d = features.shape
    layer_dims = (d,) + HIDDEN_DIMS + (1,)
    params, weights, biases = _init_parameters(layer_dims, config.seed)
    target = ((labels + 1.0) / 2.0).reshape(n, 1)

    grads = np.empty_like(params)
    grads_w, grads_b = _layer_views(grads, layer_dims)
    m_state = np.zeros_like(params)
    v_state = np.zeros_like(params)
    beta1, beta2, eps = _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS
    history = []

    # An overflow or NaN anywhere in an epoch raises, rather than
    # leaving inf in Adam's second moment, which freezes a parameter.
    try:
        with np.errstate(over="raise", invalid="raise"):
            for step in range(1, config.epochs + 1):
                hs = (features, *_forward(features, weights, biases))
                proba = hs[-1]
                # The loss after step - 1 updates; the last one is taken below.
                history.append(_bce(proba[:, 0], target[:, 0]))

                # Backward pass. Sigmoid + BCE collapse to (p - y) / n at the head;
                # ReLU passes gradient only where its activation is positive.
                delta = (proba - target) / n
                for i in range(len(weights) - 1, -1, -1):
                    np.matmul(hs[i].T, delta, out=grads_w[i])
                    np.sum(delta, axis=0, out=grads_b[i])
                    if i > 0:
                        delta = delta @ weights[i].T
                        delta *= hs[i] > 0.0
                del hs  # release the activations before the next forward pass

                lr_t = config.learning_rate
                bc1 = 1.0 - beta1**step
                bc2 = 1.0 - beta2**step
                m_state *= beta1
                m_state += (1.0 - beta1) * grads
                v_state *= beta2
                v_state += (1.0 - beta2) * grads * grads
                params -= lr_t * (m_state / bc1) / (np.sqrt(v_state / bc2) + eps)

            for output in _forward(features, weights, biases):
                pass
            history.append(_bce(output[:, 0], target[:, 0]))
    except FloatingPointError as exc:
        raise DomainError(f"training overflows float64 in epoch {step} ({exc})") \
            from None

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
    DomainError
        If a finite x overflows float64 in the forward or backward pass.
    """
    rows = model._rows(np.ravel(x))
    try:
        with np.errstate(over="raise", invalid="raise"):
            hs = tuple(_forward(rows, model.weights, model.biases))
            proba = float(hs[-1][0, 0])
            # Chain rule back to the input; ReLU passes gradient only where
            # its activation is positive.
            grad = np.array([proba * (1.0 - proba)])
            for i in range(len(hs) - 1, 0, -1):
                grad = (model.weights[i] @ grad) * (hs[i - 1][0] > 0.0)
            grad = model.weights[0] @ grad
    except FloatingPointError as exc:
        raise DomainError(f"prediction overflows float64 ({exc})") from None
    label = 1 if proba >= model.threshold else -1
    return proba, label, grad


def generate_synthetic(n, noise_std=0.0, seed=0):
    """Sample the 2-d synthetic benchmark.

    Features are uniform on [-2, 4] x [-2, 7]. The label is +1 iff
    x2 >= 1 + x1 + 2*x1^2 + x1^3 - x1^4 + eps with eps ~ N(0, noise_std^2),
    so noise_std = 0 gives the clean generation and noise_std = 1 the
    shifted one. Raises ValueError unless n is an integer >= 1 and
    noise_std is nonnegative.
    """
    check_integer(n, "n", 1)
    if not noise_std >= 0.0:
        raise ValueError(f"noise_std must be nonnegative, got {noise_std}")
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

    The subsamples are drawn here, and every check runs before any
    worker starts. The models train in one worker process per usable
    CPU (never more than n_models, one included), each with one BLAS
    thread and a contiguous share of the models, and come back in index
    order, bit-identical to training them one after another in this
    process. sweep() trains its ensemble the same way, while it works
    through its instances.

    Raises
    ------
    ValueError
        Unless n_models is an integer >= 1 and fraction is in (0, 1].
    NonFiniteInput, DimensionMismatch, BadLabelValue
        As train_mlp, for the full shifted data.
    SingleClassData
        If a model's subsample is single-class in 10 draws.
    DomainError
        As train_mlp, if a model's training overflows float64; the
        lowest-numbered such model's error, raised from its worker.
    CvasError
        If a training worker exits with a non-zero status.
    """
    with _future_models(shifted_features, shifted_labels, n_models, fraction,
                        config) as collect:
        return collect()


def _usable_cpus():
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


@contextlib.contextmanager
def _future_models(shifted_features, shifted_labels, n_models, fraction, config):
    """Train simulate_future_models's ensemble while the caller works.

    On entry, every check runs and every subsample is drawn, raising as
    simulate_future_models says, before any worker starts. Each of
    min(usable CPUs, n_models) workers trains a contiguous share of the
    jobs while the body of the with statement runs; the first workers,
    fed first, take the larger shares. The yielded collect()
    reads every worker's (models, error) reply (see _train_worker) and
    raises CvasError for a non-zero exit status, then the first error
    in worker order, the lowest-numbered failed model's, class and
    message kept, or returns the models in index order.

    A worker is ``python -c "from cvas.blackbox import _train_worker;
    _train_worker()"`` with one BLAS thread (not ``-m cvas.blackbox``,
    whose models would pickle as __main__.MlpModel); its models are
    bit-identical to train_mlp's here. Subprocesses, unlike
    multiprocessing, never re-run the caller's __main__. On leaving the
    with statement by any exit, KeyboardInterrupt included, every
    worker is killed (a no-op once collected) and reaped.
    """
    check_integer(n_models, "n_models", 1)
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
    # This package's source root leads the worker's path (and is its working
    # directory, which -c puts first unless PYTHONSAFEPATH is set), so a
    # source checkout never trains with an installed copy.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    workers = []

    def collect():
        replies = []
        for worker in workers:
            output = worker.stdout.read()
            if worker.wait():
                raise CvasError(
                    f"training worker exited with status {worker.returncode}")
            replies.append(pickle.loads(output))
        for _, error in replies:
            if error is not None:
                raise error
        return [model for models, _ in replies for model in models]

    try:
        for _ in range(n_workers):
            workers.append(subprocess.Popen(
                [sys.executable, "-c",
                 "from cvas.blackbox import _train_worker; _train_worker()"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=root))
        size, extra = divmod(n_models, n_workers)
        for w, worker in enumerate(workers):
            share = jobs[w * size + min(w, extra):(w + 1) * size + min(w + 1, extra)]
            try:
                with worker.stdin:
                    pickle.dump((features, labels, share), worker.stdin,
                                protocol=pickle.HIGHEST_PROTOCOL)
            except BrokenPipeError:
                pass  # the worker has exited; collect() checks its status
        yield collect
    finally:
        for worker in workers:
            worker.kill()  # a no-op once the worker has been reaped
            worker.wait()
            worker.stdout.close()
            with contextlib.suppress(BrokenPipeError):
                worker.stdin.close()


def _train_worker():
    """One training worker of _future_models: read the pickled
    (features, labels, jobs) from stdin, train one model per (row
    indices, config) job in order, and write the pickled reply
    (models, error) to stdout. error is None, or the CvasError that
    stopped the loop after the models before it. Only _future_models
    writes stdin, so the bytes unpickled come from this package.
    """
    features, labels, jobs = pickle.load(sys.stdin.buffer)
    models, error = [], None
    try:
        for idx, config in jobs:
            models.append(train_mlp(features[idx], labels[idx], config))
    except CvasError as exc:
        error = exc
    pickle.dump((models, error), sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)


def save_model(model, path):
    """Write a model to the flat binary layout described in the README.

    Layout, all little-endian: 8-byte magic "CVASMLP1", uint32 count of
    layer dims, that many uint32 dims, float64 threshold, then for each
    layer the row-major float64 weight matrix followed by the bias
    vector. The write is atomic (temp file + rename).

    Raises NonFiniteInput, writing nothing, for a NaN or infinite
    threshold, weight or bias.
    """
    if not all(np.isfinite(a).all() for a in (model.threshold, *model.weights,
                                              *model.biases)):
        raise NonFiniteInput(f"not writing {path}: non-finite model parameters")
    parts = [_MAGIC, struct.pack("<I", len(model.layer_dims))]
    parts.append(struct.pack(f"<{len(model.layer_dims)}I", *model.layer_dims))
    parts.append(struct.pack("<d", model.threshold))
    for w, b in zip(model.weights, model.biases):
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    atomic_write_bytes(path, b"".join(parts))


def load_model(path):
    """Read a model written by save_model; round-trips bit-identically.

    Raises CvasError, naming the path, for a file that is not a whole
    model: bad magic, fewer than two layer dims, a zero dim, a size
    other than its header declares (truncated, or trailing bytes), or a
    non-finite threshold, weight or bias.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _MAGIC:
        raise CvasError(f"{path} is not a model file (bad magic)")
    if len(blob) < 12:
        raise CvasError(f"{path} is truncated: {len(blob)} bytes, no layer count")
    (n_dims,) = struct.unpack_from("<I", blob, 8)
    if n_dims < 2:
        raise CvasError(f"{path} declares {n_dims} layer dims; a model needs 2 or more")
    offset = 12 + 4 * n_dims + 8
    if len(blob) < offset:
        raise CvasError(f"{path} is truncated: {len(blob)} bytes, "
                        f"{n_dims} layer dims and a threshold need {offset}")
    dims = struct.unpack_from(f"<{n_dims}I", blob, 12)
    if 0 in dims:
        raise CvasError(f"{path} declares a zero layer dim in {dims}")
    (threshold,) = struct.unpack_from("<d", blob, offset - 8)
    size = offset + 8 * _n_parameters(dims)
    if len(blob) < size:
        raise CvasError(f"{path} is truncated: {len(blob)} bytes, "
                        f"layer dims {dims} need {size}")
    if len(blob) > size:
        raise CvasError(f"{path} has {len(blob) - size} trailing bytes")
    params = np.frombuffer(blob, dtype="<f8", offset=offset).astype(float)
    if not (math.isfinite(threshold) and np.isfinite(params).all()):
        raise CvasError(f"{path} holds a non-finite threshold, weight or bias")
    weights, biases = _layer_views(params, dims)
    return MlpModel(layer_dims=dims, weights=weights, biases=biases,
                    threshold=threshold)
