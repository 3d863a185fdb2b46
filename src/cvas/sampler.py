"""Local boundary sampler.

Given an input x0, walk to the model's decision boundary (bisection
along segments toward nearby opposite-class prototypes), then draw a
uniform ball of synthetic points around the boundary point and
pseudo-label them with the model. The two labeled point clouds are what
the surrogate's moment estimates are built from.

The boundary search is batched: all k segments are bisected in
lockstep, so each bisection step is one forward pass over the segments
still open rather than one single-row pass per segment. The default
ball radius comes from a maximum pairwise distance taken block by
block, without building an n x n distance matrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSample,
    EmptyInput,
    NoOppositeClassPrototypes,
    NonFiniteInput,
)

_BISECT_CAP = 60
_SCAN_POINTS = 100
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for boundary search and ball sampling.

    r_p = None means "5% of the maximum pairwise distance in the
    dataset", resolved per call; the max is exact for n <= 2000 and
    computed on a seeded 2000-row subsample above that.
    """

    k: int = 10
    r_p: float = None
    n_p: int = 1000
    line_search_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.r_p is not None and self.r_p <= 0.0:
            raise ValueError("r_p must be positive")
        if self.n_p < 2:
            raise ValueError("n_p must be >= 2")
        if self.line_search_tol <= 0.0:
            raise ValueError("line_search_tol must be positive")


@dataclass(frozen=True)
class BoundarySample:
    """Boundary point plus the pseudo-labeled ball around it."""

    x_b: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray
    radius: float


def max_pairwise_distance(features, seed=0, guard=2000):
    """Largest L2 distance between rows, subsampled above `guard` rows.

    Squared distances are sq_i + sq_j - 2 x_i.x_j, evaluated over blocks
    of _BLOCK_ROWS rows against the rows from the block's first one on,
    which covers every pair of the upper triangle; a running max keeps
    the memory at one block, and no n x n matrix is built.

    Raises
    ------
    EmptyInput
        If `features` has no rows.
    NonFiniteInput
        If any row contains NaN or infinity.
    """
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    if n == 0:
        raise EmptyInput("max pairwise distance of no rows")
    if not np.all(np.isfinite(features)):
        raise NonFiniteInput("features must be finite")
    if n > guard:
        idx = np.random.default_rng(seed).choice(n, size=guard, replace=False)
        features = features[idx]
        n = guard
    sq = np.einsum("ij,ij->i", features, features)
    block_max = []
    for s in range(0, n, _BLOCK_ROWS):
        rows = features[s:s + _BLOCK_ROWS]
        d2 = (sq[s:s + _BLOCK_ROWS, None] + sq[None, s:]
              - 2.0 * (rows @ features[s:].T))
        block_max.append(d2.max())
    return float(np.sqrt(max(np.max(block_max), 0.0)))


def resolve_radius(config, features):
    """The configured ball radius, or the 5%-of-max-distance default."""
    if config.r_p is not None:
        return config.r_p
    return 0.05 * max_pairwise_distance(features, seed=config.seed)


def _bisect_to_boundary(model, x0, prototypes, tol):
    """Boundary point on each segment [x0, prototypes[i]], or None where
    no crossing is found.

    Works on f_i(t) = g(x0 + t*(prototypes[i] - x0)) - threshold and
    bisects all segments in lockstep: one forward pass evaluates x0 and
    every segment end, and each bisection step evaluates the midpoints
    of the segments still open in one pass. Segments whose endpoint
    signs match (the model is not monotone along them) are first
    scanned at 100 equispaced points, all in one pass, for a sign
    change; a segment without one gives None. A segment stops when
    |f(mid)| <= tol or its bracket is shorter than tol, after at most
    _BISECT_CAP steps.
    """
    directions = prototypes - x0
    k, d = directions.shape
    # Row by row, so each length rounds as np.linalg.norm of one vector.
    seg_len = np.array([np.linalg.norm(direction) for direction in directions])
    f_ends = model.predict_proba(np.vstack([x0, x0 + directions])) - model.threshold
    f_lo, f_hi = f_ends[0], f_ends[1:]
    if abs(f_lo) <= tol:
        return [x0.copy() for _ in range(k)]

    lo, hi = np.zeros(k), np.ones(k)
    t = np.where(np.abs(f_hi) <= tol, 1.0, np.nan)  # NaN: not found yet
    active = np.isnan(t)
    # f(lo) only enters through its sign, which every lo update keeps.
    lo_positive = np.full(k, f_lo >= 0.0)

    scan = np.flatnonzero(active & ((f_hi >= 0.0) == lo_positive))
    if scan.size:
        grid = np.linspace(0.0, 1.0, _SCAN_POINTS)
        rows = x0 + grid[None, :, None] * directions[scan, None, :]
        values = model.predict_proba(rows.reshape(-1, d)).reshape(scan.size, -1)
        signs = values - model.threshold >= 0.0
        flips = signs[:, 1:] != signs[:, :-1]
        crossed = flips.any(axis=1)
        first = np.argmax(flips, axis=1)[crossed]
        active[scan[~crossed]] = False
        scan = scan[crossed]
        lo[scan], hi[scan] = grid[first], grid[first + 1]
        lo_positive[scan] = signs[crossed, first]

    for _ in range(_BISECT_CAP):
        i = np.flatnonzero(active)
        if i.size == 0:
            break
        mid = (lo[i] + hi[i]) / 2.0
        f_mid = (model.predict_proba(x0 + mid[:, None] * directions[i])
                 - model.threshold)
        stop = (np.abs(f_mid) <= tol) | ((hi[i] - lo[i]) * seg_len[i] <= tol)
        t[i[stop]] = mid[stop]
        active[i[stop]] = False
        same = (f_mid >= 0.0) == lo_positive[i]
        lo[i[same]] = mid[same]
        hi[i[~same]] = mid[~same]
    t[active] = (lo[active] + hi[active]) / 2.0
    return [None if np.isnan(ti) else x0 + ti * direction
            for ti, direction in zip(t, directions)]


def find_boundary_point(x0, dataset, model, config=SamplerConfig()):
    """Closest decision-boundary point reachable from x0.

    Selects the k L1-nearest dataset rows whose model label differs
    from x0's, bisects along the k segments in lockstep (one k-row
    forward pass per bisection step, see _bisect_to_boundary), and
    returns the boundary point nearest to x0 in L2.

    Raises
    ------
    NonFiniteInput
        If x0 contains NaN or infinity.
    NoOppositeClassPrototypes
        If no opposite-class row exists, or no segment crosses the
        boundary within the scan fallback.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if not np.all(np.isfinite(x0)):
        raise NonFiniteInput("query point must be finite")
    dataset = np.asarray(dataset, dtype=float)
    label0 = int(model.label(x0[None, :])[0])
    labels = model.label(dataset)
    opposite = dataset[labels != label0]
    if opposite.shape[0] == 0:
        raise NoOppositeClassPrototypes("dataset has no row with the opposite label")

    k = min(config.k, opposite.shape[0])
    order = np.argsort(np.abs(opposite - x0).sum(axis=1), kind="stable")
    prototypes = opposite[order[:k]]

    candidates = [point for point in _bisect_to_boundary(
        model, x0, prototypes, config.line_search_tol) if point is not None]
    if not candidates:
        raise NoOppositeClassPrototypes(
            f"none of {k} prototype segments crossed the boundary"
        )
    candidates = np.asarray(candidates)
    best = np.argmin(np.linalg.norm(candidates - x0, axis=1))
    return candidates[best]


def sample_ball(center, radius, n, seed):
    """n points uniform on the L2 ball: normalized Gaussian direction
    scaled by U^(1/d) * radius."""
    center = np.asarray(center, dtype=float)
    d = center.shape[0]
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n, d))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / d)
    return center + directions / norms * radii[:, None]


def synthesize(x0, dataset, model, config=SamplerConfig()):
    """Boundary point plus a pseudo-labeled uniform ball around it.

    Raises
    ------
    DegenerateSample
        If either pseudo-label class ends up with fewer than 2 points.
    """
    x_b = find_boundary_point(x0, dataset, model, config)
    radius = resolve_radius(config, dataset)
    points = sample_ball(x_b, radius, config.n_p, config.seed)
    labels = model.label(points)
    positives = points[labels == 1]
    negatives = points[labels == -1]
    if positives.shape[0] < 2 or negatives.shape[0] < 2:
        raise DegenerateSample(
            f"ball split {positives.shape[0]}/{negatives.shape[0]} positives/negatives; "
            "need >= 2 each for covariance estimates"
        )
    return BoundarySample(x_b=x_b, positives=positives, negatives=negatives,
                          radius=radius)
