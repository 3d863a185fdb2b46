"""Independent numeric oracles the implementation is checked against.

Everything here is written from the problem definitions only: divergence
balls are maximized directly with SLSQP over a Cholesky parameterization,
the Fisher-Rao maximizer is built from matrix square roots, the L1
projection is restated as a linear program, actionable recourse is
enumerated exhaustively, the default action grids come from
np.percentile, Lambert W is bisected, gradients come from central
differences, the boundary search labels every row and steps by ITP on
one segment at a time with one single-row model evaluation per step,
the maximum pairwise distance scans every block, and the MLP trains,
predicts and differentiates by the plain loop: a fresh array per
operation, kept pre-activations for the ReLU masks, and one Adam update
per parameter array. None of it shares code with the package.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linprog, minimize


def lambert_oracle(x):
    """Bisection for the -1 branch: r * exp(r) = x with r <= -1."""
    lo, hi = -746.0, -1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid * math.exp(mid) - x > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _sqrtm(m):
    values, vectors = np.linalg.eigh((m + m.T) / 2.0)
    values = np.clip(values, 0.0, None)
    return vectors @ np.diag(np.sqrt(values)) @ vectors.T


def _logm(m):
    values, vectors = np.linalg.eigh((m + m.T) / 2.0)
    if values[0] <= 0.0:
        return None
    return vectors @ np.diag(np.log(values)) @ vectors.T


def phi_divergence(kind, candidate, reference):
    """Divergence of a candidate covariance from the reference.

    Returns inf when the candidate leaves the divergence's domain, so a
    constrained maximizer steers back inside.
    """
    a = (candidate + candidate.T) / 2.0
    b = (reference + reference.T) / 2.0
    if kind == "quadratic":
        return float(np.sum((a - b) ** 2))
    if kind == "bures":
        rb = _sqrtm(b)
        inner = _sqrtm(rb @ a @ rb)
        value = float(np.trace(a) + np.trace(b) - 2.0 * np.trace(inner))
        return math.sqrt(max(value, 0.0))
    eigs = np.linalg.eigvalsh(a)
    if eigs[0] <= 1e-14:
        return math.inf
    if kind == "fisher-rao":
        rb_inv = np.linalg.inv(_sqrtm(b))
        middle = _logm(rb_inv @ a @ rb_inv)
        if middle is None:
            return math.inf
        return float(np.linalg.norm(middle, "fro"))
    if kind == "logdet":
        b_inv = np.linalg.inv(b)
        sign, logdet = np.linalg.slogdet(b_inv @ a)
        if sign <= 0:
            return math.inf
        return float(np.trace(b_inv @ a)) - logdet - a.shape[0]
    raise ValueError(kind)


def _scale_to_boundary(kind, reference, direction, rho):
    """Bisect t >= 0 so that phi(reference + t*direction) = rho."""
    hi = 1.0
    for _ in range(200):
        if phi_divergence(kind, reference + hi * direction, reference) >= rho:
            break
        hi *= 2.0
    else:
        return None
    lo = 0.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if phi_divergence(kind, reference + mid * direction, reference) < rho:
            lo = mid
        else:
            hi = mid
    return reference + lo * direction


def tau_oracle(kind, rho, covariance, w):
    """Numeric max of sqrt(w' S w) over the divergence ball of radius rho.

    SLSQP on a Cholesky parameterization from several structured starts:
    the center, a scaled inflation c*Sigma pushed to the boundary, and a
    rank-one inflation along Sigma w pushed to the boundary. The start
    values themselves also count as feasible certificates.
    """
    covariance = np.asarray(covariance, dtype=float)
    w = np.asarray(w, dtype=float)
    d = covariance.shape[0]
    tril = np.tril_indices(d)

    def unpack(params):
        ell = np.zeros((d, d))
        ell[tril] = params
        return ell @ ell.T

    def objective(params):
        return -float(w @ unpack(params) @ w)

    def constraint(params):
        return rho - phi_divergence(kind, unpack(params), covariance)

    starts = [covariance]
    eye_dir = np.eye(d) * float(np.trace(covariance)) / d
    boundary = _scale_to_boundary(kind, covariance, eye_dir, rho)
    if boundary is not None:
        starts.append(boundary)
    # Rank-one inflations along Sigma w and along w itself; the latter is
    # the ascent direction of the objective (its gradient in S is w w').
    for v in (covariance @ w, w):
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            v = v / norm
            boundary = _scale_to_boundary(kind, covariance, np.outer(v, v),
                                          rho)
            if boundary is not None:
                starts.append(boundary)

    best = 0.0
    for start in starts:
        value = float(w @ start @ w)
        if phi_divergence(kind, start, covariance) <= rho * (1.0 + 1e-9):
            best = max(best, value)
        params = np.linalg.cholesky(start + 1e-12 * np.eye(d))[tril]
        result = minimize(objective, params, method="SLSQP",
                          constraints=[{"type": "ineq", "fun": constraint}],
                          options={"maxiter": 400, "ftol": 1e-14})
        candidate = unpack(result.x)
        if phi_divergence(kind, candidate, covariance) <= rho * (1.0 + 1e-6):
            best = max(best, float(w @ candidate @ w))
    return math.sqrt(best)


def fr_worst_case_covariance(covariance, rho, w):
    """The covariance at Fisher-Rao distance rho from S that maximizes
    w' S' w: S^(1/2) (I + (e^rho - 1) v v' / ||v||^2) S^(1/2) with
    v = S^(1/2) w. It scales w' S w by exactly e^rho, the witness that
    the closed-form fisher-rao tau is attained. S must be positive
    definite."""
    root = _sqrtm(np.asarray(covariance, dtype=float))
    v = root @ np.asarray(w, dtype=float)
    inner = np.eye(v.size) + (math.exp(rho) - 1.0) * np.outer(v, v) / float(v @ v)
    return root @ inner @ root


def lp_projection_cost(x0, w, b):
    """Min-cost L1 projection onto w' x >= b as a linear program."""
    x0 = np.asarray(x0, dtype=float)
    w = np.asarray(w, dtype=float)
    d = x0.shape[0]
    deficit = b - float(w @ x0)
    if deficit <= 0.0:
        return 0.0
    c = np.ones(2 * d)
    a_ub = -np.concatenate([w, -w]).reshape(1, -1)
    result = linprog(c, A_ub=a_ub, b_ub=[-deficit], bounds=[(0, None)] * 2 * d,
                     method="highs")
    assert result.success
    return float(result.fun)


def exhaustive_actionable_cost(x0, w, b, grids):
    """Minimum canonical L1 cost over the full grid product, inf if none.

    Costs are computed as |(x0 + delta) - x0| summed per row, the same
    float sequence the implementation under test uses, so on a unique
    optimum the two costs are bit-identical.
    """
    x0 = np.asarray(x0, dtype=float)
    w = np.asarray(w, dtype=float)
    combos = np.array(list(itertools.product(*grids)))
    points = x0[None, :] + combos
    feasible = points @ w - b >= -1e-9
    if not np.any(feasible):
        return math.inf
    costs = np.abs(points[feasible] - x0[None, :]).sum(axis=1)
    return float(costs.min())


def default_action_grids_oracle(x0, training_features, kinds):
    """Per-feature grids of deltas to np.percentile's 10..90 percentiles
    of each training column, each grid made by np.unique."""
    quantiles = np.percentile(training_features, np.arange(10, 100, 10), axis=0)
    grids = []
    for j, kind in enumerate(kinds):
        if kind == "immutable":
            grids.append(np.array([0.0]))
            continue
        deltas = quantiles[:, j] - x0[j]
        if kind == "non_decreasing":
            deltas = deltas[deltas >= 0.0]
        grids.append(np.unique(np.append(deltas, 0.0)))
    return grids


def optimal_mean_oracle(mean, covariance, w, b, nu, iters=2000):
    """Projected gradient for min (w'm - b)^2 over the Mahalanobis ball.

    Parameterizes m = mean + sqrtm(covariance) @ u with ||u|| <= nu, where
    the objective is an exactly solvable 1-d quadratic along sqrtm(cov) w;
    gradient descent plus ball projection converges fast regardless.
    """
    root = _sqrtm(np.asarray(covariance, dtype=float))
    g = root @ np.asarray(w, dtype=float)
    offset = float(np.asarray(w) @ np.asarray(mean)) - b
    u = np.zeros_like(g)
    lip = 2.0 * float(g @ g) + 1e-12
    for _ in range(iters):
        grad = 2.0 * (offset + float(g @ u)) * g
        u = u - grad / lip
        norm = float(np.linalg.norm(u))
        if norm > nu:
            u = u * (nu / norm)
    return (offset + float(g @ u)) ** 2


def fd_gradient(model, x, h=1e-5):
    """Central-difference gradient of the model probability at x."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.shape[0]):
        step = np.zeros_like(x)
        step[j] = h
        up = model.predict_proba((x + step)[None, :])[0]
        down = model.predict_proba((x - step)[None, :])[0]
        grad[j] = (up - down) / (2.0 * h)
    return grad


def itp_lockstep_oracle(model, x0, prototypes, f_lo, f_hi, tol, cap=60):
    """The lockstep ITP search as whole-array numpy: each step gathers
    the open segments' brackets with an index array, and writes them
    back by masked fancy assignment. The package's search does the same
    arithmetic on Python floats, so the points must match bit for bit.
    """
    directions = prototypes - x0
    k = directions.shape[0]
    if abs(f_lo) <= tol:
        return np.tile(x0, (k, 1))
    seg_len = np.array([np.linalg.norm(direction) for direction in directions])
    a, b = np.zeros(k), np.ones(k)
    f_a, f_b = np.full(k, f_lo), np.array(f_hi, dtype=float)
    halvings = np.ceil(np.log2(np.maximum(seg_len / tol, 1.0)))
    budget = tol / (2.0 * seg_len) * 2.0 ** (halvings + 1)
    found = np.abs(f_b) <= tol
    t = np.ones(k)
    a_positive = f_lo >= 0.0
    for step in range(cap):
        i = np.flatnonzero(~found & ((b - a) * seg_len > tol))
        if i.size == 0:
            break
        width, mid = b[i] - a[i], (a[i] + b[i]) / 2.0
        falsi = (b[i] * f_a[i] - a[i] * f_b[i]) / (f_a[i] - f_b[i])
        toward_mid = np.sign(mid - falsi)
        push = 0.2 * width ** 2
        x = np.where(push <= np.abs(mid - falsi), falsi + toward_mid * push, mid)
        reach = budget[i] / 2.0 ** step - width / 2.0
        x = np.where(np.abs(x - mid) <= reach, x, mid - toward_mid * reach)
        f_x = model.predict_proba(x0 + x[:, None] * directions[i]) - model.threshold
        found[i] = np.abs(f_x) <= tol
        t[i] = x
        on_a = (f_x >= 0.0) == a_positive
        a[i[on_a]], f_a[i[on_a]] = x[on_a], f_x[on_a]
        b[i[~on_a]], f_b[i[~on_a]] = x[~on_a], f_x[~on_a]
    t = np.where(found, t, (a + b) / 2.0)
    return x0 + t[:, None] * directions


def itp_segment_oracle(model, x0, proto, tol, cap=60):
    """Boundary point on [x0, proto] by ITP, one segment and one row at a
    time, with the number of steps it took.

    The ITP method (Oliveira and Takahashi, ACM TOMS 47(1), 2020) on
    f(t) = g(x0 + t*(proto - x0)) - threshold over [a, b] = [0, 1], with
    kappa1 = 0.2, kappa2 = 2, n0 = 1 and eps = tol / (2 |proto - x0|),
    so that b - a <= 2 eps is a bracket no longer than tol. Each step
    evaluates one single-row point; it stops at a point with
    |f| <= tol, or returns the bracket's midpoint once b - a <= 2 eps or
    after `cap` steps. The endpoint signs must differ.
    """
    direction = proto - x0
    length = float(np.linalg.norm(direction))

    def f(t):
        point = x0 + t * direction
        return float(model.predict_proba(point[None, :])[0]) - model.threshold

    a, b = 0.0, 1.0
    f_a, f_b = f(a), f(b)
    if abs(f_a) <= tol:
        return x0.copy(), 0
    if abs(f_b) <= tol:
        return x0 + direction, 0
    assert (f_a >= 0.0) != (f_b >= 0.0), "segment ends on the same side"
    eps = tol / (2.0 * length)
    n_max = max(math.ceil(math.log2((b - a) / (2.0 * eps))), 0) + 1
    for j in range(cap):
        if b - a <= 2.0 * eps:
            return x0 + ((a + b) / 2.0) * direction, j
        mid = (a + b) / 2.0
        r = eps * 2.0 ** (n_max - j) - (b - a) / 2.0
        delta = 0.2 * (b - a) ** 2
        x_f = (b * f_a - a * f_b) / (f_a - f_b)
        sigma = 0.0 if x_f == mid else math.copysign(1.0, mid - x_f)
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        x = x_t if abs(x_t - mid) <= r else mid - sigma * r
        y = f(x)
        if abs(y) <= tol:
            return x0 + x * direction, j + 1
        if (y >= 0.0) == (f_a >= 0.0):
            a, f_a = x, y
        else:
            b, f_b = x, y
    return x0 + ((a + b) / 2.0) * direction, cap


def prototypes_oracle(x0, dataset, model, k):
    """Indices of the k L1-nearest rows whose label differs from x0's,
    ties in row order, every row labelled by a single-row pass."""
    label0 = model.predict_proba(x0[None, :])[0] >= model.threshold
    opposite = [i for i, row in enumerate(dataset)
                if (model.predict_proba(row[None, :])[0] >= model.threshold)
                != label0]
    opposite.sort(key=lambda i: (float(np.sum(np.abs(dataset[i] - x0))), i))
    return opposite[:k]


def boundary_point_oracle(x0, dataset, model, k, tol):
    """Nearest boundary point over the segments to prototypes_oracle's
    rows, each found by itp_segment_oracle."""
    points = [itp_segment_oracle(model, x0, dataset[i], tol)[0]
              for i in prototypes_oracle(x0, dataset, model, k)]
    return min(points, key=lambda p: float(np.linalg.norm(p - x0)))


def max_pairwise_distance_oracle(features, seed=0, guard=2000, block=64):
    """Largest row distance by the full blocked scan, every block.

    Squared distances sq_i + sq_j - 2 x_i.x_j over blocks of `block`
    rows against the rows from the block's first one on, after the same
    seeded `guard`-row subsample; the scan the pruned implementation
    must reproduce bit for bit.
    """
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    if n > guard:
        idx = np.random.default_rng(seed).choice(n, size=guard, replace=False)
        features = features[idx]
        n = guard
    sq = np.einsum("ij,ij->i", features, features)
    block_max = []
    for s in range(0, n, block):
        rows = features[s:s + block]
        d2 = (sq[s:s + block, None] + sq[None, s:]
              - 2.0 * (rows @ features[s:].T))
        block_max.append(d2.max())
    return float(np.sqrt(max(np.max(block_max), 0.0)))


def ks_statistic(samples, cdf):
    """Kolmogorov-Smirnov sup distance of a sample against a CDF."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.shape[0]
    theory = cdf(samples)
    upper = np.max(np.arange(1, n + 1) / n - theory)
    lower = np.max(theory - np.arange(0, n) / n)
    return float(max(upper, lower))


# ------------------------------------------------------------------ MLP kernel
# The straightforward MLP: d -> 20 -> 50 -> 20 -> 1, ReLU hidden units,
# sigmoid head, full-batch Adam on binary cross-entropy. The arithmetic of
# every element is the package's, operation for operation, so the trained
# parameters, the loss history and the predictions must match bit for bit.

MLP_HIDDEN = (20, 50, 20)


def _mlp_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, 5e-324, np.nextafter(1.0, 0.0))


def _mlp_forward(features, weights, biases):
    """Yield (pre-activation, activation) for each layer of a 2-d batch."""
    activation = features
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = activation @ w + b
        activation = _mlp_sigmoid(z) if i == last else np.maximum(z, 0.0)
        yield z, activation


def train_mlp_oracle(features, labels, epochs, seed, learning_rate=1e-3,
                     beta1=0.9, beta2=0.999, eps=1e-8):
    """(weights, biases) of the plain training loop.

    He-uniform initialisation from default_rng(seed), zero biases.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    n, d = features.shape
    layer_dims = (d,) + MLP_HIDDEN + (1,)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    target = ((labels + 1.0) / 2.0).reshape(n, 1)

    params = weights + biases
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]

    for step in range(1, epochs + 1):
        zs, hs = zip(*_mlp_forward(features, weights, biases))
        hs = (features,) + hs
        delta = (hs[-1] - target) / n
        grads_w, grads_b = [], []
        for i in range(len(weights) - 1, -1, -1):
            grads_w.append(hs[i].T @ delta)
            grads_b.append(delta.sum(axis=0))
            if i > 0:
                delta = (delta @ weights[i].T) * (zs[i - 1] > 0.0)
        grads = grads_w[::-1] + grads_b[::-1]

        bc1 = 1.0 - beta1**step
        bc2 = 1.0 - beta2**step
        for p, g, m, v in zip(params, grads, m_state, v_state):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return weights, biases


def predict_proba_oracle(weights, biases, features):
    """Sigmoid outputs of the plain forward pass, shape (n,)."""
    for _, output in _mlp_forward(np.atleast_2d(np.asarray(features, dtype=float)),
                                  weights, biases):
        pass
    return output[:, 0]


def predict_oracle(weights, biases, threshold, x):
    """(probability, label, input gradient) at one point, masking the
    backward pass with the kept pre-activations."""
    zs, hs = zip(*_mlp_forward(np.atleast_2d(np.asarray(x, dtype=float)),
                               weights, biases))
    proba = float(hs[-1][0, 0])
    label = 1 if proba >= threshold else -1
    grad = np.array([proba * (1.0 - proba)])
    for i in range(len(zs) - 1, 0, -1):
        grad = (weights[i] @ grad) * (zs[i - 1][0] > 0.0)
    grad = weights[0] @ grad
    return proba, label, grad
