"""Shared test fixtures: hand-built models and random problem instances."""

import numpy as np

from cvas import MlpModel, train_mlp

HIDDEN = (20, 50, 20)


def linear_mlp(alpha, c, big=1e4, threshold=0.5):
    """Embed an exact linear-logistic model in the pinned architecture.

    Returns an MlpModel computing sigma(alpha^T x + c) exactly for all x
    with |alpha^T x| < big. Layer 1 splits each coordinate into a
    (ReLU(x_j), ReLU(-x_j)) pair, layer 2 reassembles alpha^T x plus a
    large offset that keeps its ReLU active, and the head removes the
    offset. Requires len(alpha) <= 10.
    """
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    d = alpha.shape[0]
    if 2 * d > HIDDEN[0]:
        raise ValueError("linear_mlp supports at most 10 inputs")
    dims = (d,) + HIDDEN + (1,)
    w0 = np.zeros((d, HIDDEN[0]))
    for j in range(d):
        w0[j, 2 * j] = 1.0
        w0[j, 2 * j + 1] = -1.0
    w1 = np.zeros((HIDDEN[0], HIDDEN[1]))
    for j in range(d):
        w1[2 * j, 0] = alpha[j]
        w1[2 * j + 1, 0] = -alpha[j]
    b1 = np.zeros(HIDDEN[1])
    b1[0] = big
    w2 = np.zeros((HIDDEN[1], HIDDEN[2]))
    w2[0, 0] = 1.0
    w3 = np.zeros((HIDDEN[2], 1))
    w3[0, 0] = 1.0
    b3 = np.array([c - big])
    return MlpModel(layer_dims=dims,
                    weights=[w0, w1, w2, w3],
                    biases=[np.zeros(HIDDEN[0]), b1, np.zeros(HIDDEN[2]), b3],
                    threshold=threshold)


_UNFAVORABLE = {}


def unfavorable_rows(present, train, count):
    """The first `count` present rows that the model trained on them with
    `train` labels -1: instances sweep() takes with that current model.
    The model trains once per (present, train)."""
    features, labels = present
    key = (features.shape, features.tobytes(), labels.tobytes(), train)
    if key not in _UNFAVORABLE:
        model = train_mlp(features, labels, train)
        _UNFAVORABLE[key] = model.label(features) == -1
    return features[_UNFAVORABLE[key]][:count]


def random_pd(rng, d, scale=1.0):
    """Random symmetric positive definite matrix with eigenvalues >= 0.1."""
    a = rng.normal(size=(d, d))
    q, _ = np.linalg.qr(a)
    eigenvalues = rng.uniform(0.1, 2.0, size=d) * scale
    m = q @ np.diag(eigenvalues) @ q.T
    return (m + m.T) / 2.0


def random_instance(rng, d):
    """Random (moments_pos, moments_neg)-style raw arrays with distinct means."""
    mu_pos = rng.normal(size=d)
    mu_neg = mu_pos + rng.normal(size=d) * 2.0 + 0.5
    return mu_pos, random_pd(rng, d), mu_neg, random_pd(rng, d)
