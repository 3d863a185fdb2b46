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
from dataclasses import dataclass, replace

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
_ENSEMBLE_FRACTION = 0.8  # share of the shifted rows each future model trains on


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
    sigmoid output: label +1 iff probability >= threshold. The fields
    are the whole model; save_model writes every one. Building one
    raises NonFiniteInput for a non-finite threshold, weight or bias,
    and DimensionMismatch for shapes other than layer_dims gives or an
    output layer wider than one unit.
    """

    layer_dims: tuple
    weights: list
    biases: list
    threshold: float = 0.5

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise NonFiniteInput(f"threshold must be finite, got {self.threshold}")
        dims = tuple(self.layer_dims)
        shapes = [np.shape(a) for a in (*self.weights, *self.biases)]
        if len(dims) < 2 or dims[-1] != 1 or shapes != (
                [*zip(dims[:-1], dims[1:])] + [(fan_out,) for fan_out in dims[1:]]):
            raise DimensionMismatch(f"shapes {shapes} disagree with layer_dims {dims}")
        if not all(np.isfinite(a).all() for a in (*self.weights, *self.biases)):
            raise NonFiniteInput("weights and biases must be finite")

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


_BELOW_ONE = np.nextafter(1.0, 0.0)


def _sigmoid(z):
    """1 / (1 + e) where z >= 0, else e / (1 + e), with e = exp(-|z|) <= 1.

    Entry for entry, the operations of the piecewise form that gathers
    each sign's entries, so bit for bit its result, in whole-array
    calls: on a boundary search's small batches the gathers and np.clip
    cost more than the arithmetic. The clamp keeps the output strictly
    inside (0, 1) where e underflows.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denominator = e + 1.0
    np.copyto(e, 1.0, where=z >= 0)
    e /= denominator
    np.maximum(e, 5e-324, out=e)
    return np.minimum(e, _BELOW_ONE, out=e)


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

    Parameters, gradients, the Adam moments and Adam's two scratch
    vectors live in one flat vector each, with per-layer views for the
    first two. An epoch computes only its update: the in-place forward
    pass (see _forward), each gradient written into its view (the
    head's backward product an outer product, the backward pass masked
    with the activations' sign), and one in-place Adam update of the
    whole flat vector, in the order of numpy's whole-array expression.
    No loss is computed. The returned weights and biases are views into
    the trained parameter vector.

    Parameters
    ----------
    features : ndarray, shape (n, d)
    labels : ndarray, shape (n,)
        Values in {-1, +1}.
    config : TrainConfig

    Returns
    -------
    MlpModel
        The trained model, threshold 0.5, with finite weights and biases
        (an epoch whose update is not finite raises). Training does not
        run the trained model: its forward pass on rows, the training
        rows included, can still overflow, which predict_proba reports
        as DomainError.

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
    step_size = np.empty_like(params)
    denominator = np.empty_like(params)
    beta1, beta2, eps = _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS
    last = len(weights) - 1

    # An overflow or NaN anywhere in an epoch raises, rather than
    # leaving inf in Adam's second moment, which freezes a parameter.
    try:
        with np.errstate(over="raise", invalid="raise"):
            for step in range(1, config.epochs + 1):
                hs = (features, *_forward(features, weights, biases))

                # Backward pass. Sigmoid + BCE collapse to (p - y) / n at the head;
                # ReLU passes gradient only where its activation is positive.
                delta = (hs[-1] - target) / n
                np.matmul(hs[last].T, delta, out=grads_w[last])
                np.sum(delta, axis=0, out=grads_b[last])
                # (n, 1) @ (1, 20) is an outer product: one multiply per entry.
                delta = delta * weights[last][:, 0]
                for i in range(last - 1, -1, -1):
                    delta *= hs[i + 1] > 0.0
                    np.matmul(hs[i].T, delta, out=grads_w[i])
                    # Bit for bit np.sum's row-by-row order at widths >= 2, not
                    # at the head's one column. It ignores np.errstate: an
                    # overflowing sum turns inf, and Adam's inf / inf raises.
                    np.einsum("ij->j", delta, out=grads_b[i])
                    if i > 0:
                        delta = delta @ weights[i].T
                del hs  # release the activations before the next forward pass

                # Adam, in place, in numpy's order of the whole-array form
                # params -= lr * (m / bc1) / (sqrt(v / bc2) + eps).
                m_state *= beta1
                m_state += np.multiply(grads, 1.0 - beta1, out=step_size)
                v_state *= beta2
                np.multiply(grads, 1.0 - beta2, out=step_size)
                v_state += np.multiply(step_size, grads, out=step_size)
                np.divide(v_state, 1.0 - beta2**step, out=denominator)
                np.sqrt(denominator, out=denominator)
                denominator += eps
                np.divide(m_state, 1.0 - beta1**step, out=step_size)
                step_size *= config.learning_rate
                step_size /= denominator
                params -= step_size
    except FloatingPointError as exc:
        raise DomainError(f"training overflows float64 in epoch {step} ({exc})") \
            from None

    return MlpModel(layer_dims=layer_dims, weights=weights, biases=biases)


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
                           fraction=_ENSEMBLE_FRACTION, config=TrainConfig()):
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
    _train_worker()"``, run with this package's source root in place of
    the working directory on its path and with one BLAS thread (not
    ``-m cvas.blackbox``, whose models would pickle as
    __main__.MlpModel); its models are bit-identical to train_mlp's
    here. Subprocesses, unlike
    multiprocessing, never re-run the caller's __main__. On leaving the
    with statement by any exit, KeyboardInterrupt included, every
    worker is killed (a no-op once collected) and reaped. A caller
    killed without leaving it (SIGTERM's default action) leaves each
    worker to stop before its next model (see _train_worker).
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
    # Before any import the worker puts this package's source root first
    # on its path and drops the working directory that -c puts there (''),
    # so it trains with this copy of the package, never an installed one,
    # and takes no module from the caller's working directory.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    command = (f"import sys; sys.path[:] = [{root!r}, *filter(None, sys.path)]; "
               "from cvas.blackbox import _train_worker; _train_worker()")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
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
                [sys.executable, "-c", command],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env))
        size, extra = divmod(n_models, n_workers)
        for w, worker in enumerate(workers):
            share = jobs[w * size + min(w, extra):(w + 1) * size + min(w + 1, extra)]
            try:
                with worker.stdin:
                    pickle.dump((os.getpid(), features, labels, share),
                                worker.stdin, protocol=pickle.HIGHEST_PROTOCOL)
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
    (caller's pid, features, labels, jobs) from stdin, train one model
    per (row indices, config) job in order, and write the pickled reply
    (models, error) to stdout. error is None, or the CvasError that
    stopped the loop after the models before it. Only _future_models
    writes stdin, so the bytes unpickled come from this package.

    A caller killed without unwinding (SIGTERM's default action) never
    kills its workers, which are then re-parented: a worker whose
    parent is no longer the caller exits before its next model,
    writing nothing.
    """
    caller, features, labels, jobs = pickle.load(sys.stdin.buffer)
    models, error = [], None
    try:
        for idx, config in jobs:
            if os.getppid() != caller:
                return
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
