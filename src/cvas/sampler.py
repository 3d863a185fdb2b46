"""Local boundary sampler.

Given an input x0, walk to the model's decision boundary (a bracketed
secant search, ITP, along segments toward nearby opposite-class
prototypes), then draw a uniform ball of synthetic points around the
boundary point and pseudo-label them with the model. The two labeled
point clouds are what the surrogate's moment estimates are built from.

The boundary search evaluates x0 once and the dataset's rows nearest to
x0 in L1, in growing chunks, until k rows of the other label are found.
Those values pick the prototypes and are the segment ends the search
starts from, so every segment crosses the boundary. All k segments then
step in lockstep: each step is one forward pass over the segments still
open rather than one single-row pass per segment.

The default ball radius comes from the exact maximum pairwise
distance, found without evaluating the pairs the triangle inequality
rules out; see max_pairwise_distance.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSample,
    DomainError,
    NoOppositeClassPrototypes,
    check_integer,
    finite_array,
)

_BISECT_CAP = 60
_LINE_SEARCH_TOL = 1e-8
_BLOCK_ROWS = 64
_GUARD = 2000  # max_pairwise_distance subsamples to this many rows
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for boundary search and ball sampling.

    Searches toward k prototypes to within 1e-8 of the boundary, then
    draws n_p points with `seed` from the ball of radius r_p. r_p = None
    means "5% of the maximum pairwise distance in the dataset", resolved
    per call by resolve_radius; the max is exact for n <= 2000 and
    computed on a seeded 2000-row subsample above that.

    Raises ValueError unless k is an integer >= 1, n_p one >= 2 and seed
    one >= 0 (numpy integers pass), and r_p None or positive and finite.
    """

    k: int = 10
    r_p: float = None
    n_p: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_integer(self.k, "k", 1)
        if self.r_p is not None and not 0.0 < self.r_p < np.inf:
            raise ValueError("r_p must be positive and finite")
        check_integer(self.n_p, "n_p", 2)
        check_integer(self.seed, "seed", 0)


@dataclass(frozen=True)
class BoundarySample:
    """Boundary point plus the pseudo-labeled ball around it."""

    x_b: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray
    radius: float


def max_pairwise_distance(features, seed=0):
    """Largest L2 distance between rows, of 2000 drawn with `seed` if more.

    The value is that of the full blocked scan: squared distances
    sq_i + sq_j - 2 x_i.x_j, with x_i.x_j taken from the block product
    features[s:s+64] @ features[s:].T, maximized over every block s
    (every pair of the upper triangle, plus the diagonal and both
    orientations of the pairs inside a block). Only the pairs that can
    hold that maximum are evaluated, though:

    - Margin. Any evaluation of sq_i + sq_j - 2 x_i.x_j, in any block
      layout and summation order, is within (4d + 6) eps max_i sq_i of
      the exact squared distance, to first order: the rounding scales
      with the squared norms, not with the distance. margin =
      16 (d + 2) eps max_i sq_i is more than twice that, so two
      evaluations of one pair differ by less than margin.
    - Bound. With r_i the distance of row i to the centroid, the
      triangle inequality gives |x_i - x_j| <= r_i + r_j. The squared
      distance L from the farthest row from the centroid to the row
      farthest from it bounds the maximum from below, so the pair that
      holds the full scan's maximum has (r_i + r_j)^2 >= L - 1.5 margin.
      Only that band is scanned, in blocks of at most 64 rows over the
      rows sorted by r_i, largest first; each block stops at the row
      where r_j falls below the bound.
    - Equality. The pair that holds the full scan's maximum comes
      within 2 margin of the band's best value. Every band pair that
      close is evaluated again exactly as the full scan evaluates it,
      from the product of its own block in the original row order, and
      the largest of those values is the full scan's maximum, bit for
      bit.

    When the band holds over half of the pairs (points near a sphere
    around their centroid, one-hot rows) or when the rows lie within a
    few margins of each other, the full scan runs instead. Memory stays
    at one block either way.

    Raises
    ------
    DomainError
        If 4 max_i ||x_i||^2 over the scanned rows overflows float64.
        Below that bound no squared distance in the scan can overflow,
        as |x_i.x_j| <= max_i ||x_i||^2.
    DimensionMismatch
        If `features` is not 2-d.
    EmptyInput
        If `features` has no rows.
    NonFiniteInput
        If any row contains NaN or infinity.
    """
    features = finite_array(features, "features", shape=(None, None), nonempty=True)
    n = features.shape[0]
    if n > _GUARD:
        idx = np.random.default_rng(seed).choice(n, size=_GUARD, replace=False)
        features = features[idx]
        n = _GUARD
    with np.errstate(over="ignore"):
        sq = np.einsum("ij,ij->i", features, features)
        overflows = not np.isfinite(4.0 * sq.max())
    if overflows:
        raise DomainError("rows too large: their squared distances overflow float64")
    pairs = _candidate_pairs(features, sq)
    if pairs is None:
        best = np.max([_block_max(features, sq, s) for s in range(0, n, _BLOCK_ROWS)])
    else:
        best = _blocked_values(features, sq, *pairs).max()
    return float(np.sqrt(max(best, 0.0)))


def _squared_distances(left, sq_left, right, sq_right):
    """sq_i + sq_j - 2.0 * (left @ right.T), bit for bit, computed in
    place from two temporaries instead of four."""
    product = left @ right.T
    product *= 2.0
    d2 = sq_left[:, None] + sq_right[None, :]
    d2 -= product
    return d2


def _block_max(features, sq, s):
    """Largest squared distance of block s of the full blocked scan."""
    end = s + _BLOCK_ROWS
    return _squared_distances(features[s:end], sq[s:end], features[s:], sq[s:]).max()


def _candidate_pairs(features, sq):
    """Pairs (first <= second) that may hold the full scan's maximum, or
    None where the full scan is as cheap or the band bound is void.
    See max_pairwise_distance for the bound and the margin."""
    n, d = features.shape
    top = sq.max()
    margin = 16.0 * (d + 2) * _EPS * top
    centred = features - features.mean(axis=0)
    radius = np.sqrt(np.einsum("ij,ij->i", centred, centred))
    order = np.argsort(radius)[::-1]
    radius = radius[order]
    far = order[0]
    lower = (sq + sq[far] - 2.0 * (features @ features[far])).max()
    if not lower > 3.0 * margin:
        return None
    # The slack covers the rounding of the radii, their sum and the root.
    reach = np.sqrt(lower - 1.5 * margin) * (1.0 - 4.0 * (d + 4) * _EPS)
    # Sorted row i pairs only with the sorted rows before stops[i].
    stops = np.searchsorted(-radius, radius - reach, side="right")
    if 4 * np.maximum(stops - np.arange(n), 0).sum() > n * (n + 1):
        return None

    rows, sq_rows = features[order], sq[order]
    best, found = -np.inf, []
    t = 0
    while t < n and stops[t] > t:
        stop = stops[t]
        # A block keeps the rows whose band reaches halfway to `stop`;
        # the later rows' bands end sooner, and computing them out to
        # `stop` made the scan 2.5 times slower on 2080x22 tabular rows.
        half = np.searchsorted(-stops, -(t + stop) / 2.0, side="right")
        end = min(t + _BLOCK_ROWS, stop, half)
        d2 = _squared_distances(rows[t:end], sq_rows[t:end],
                                rows[t:stop], sq_rows[t:stop])
        best = max(best, d2.max())
        i, j = np.nonzero(d2 >= best - 2.0 * margin)
        found.append((d2[i, j], order[t + i], order[t + j]))
        t = end
    values, i, j = (np.concatenate(parts) for parts in zip(*found))
    near = values >= best - 2.0 * margin
    return np.minimum(i[near], j[near]), np.maximum(i[near], j[near])


def _blocked_values(features, sq, first, second):
    """The full scan's squared distance of each pair first <= second,
    from the product of the block holding row `first`, in both
    orientations where both rows lie in that block."""
    starts = first // _BLOCK_ROWS * _BLOCK_ROWS
    values = []
    for s in np.unique(starts):
        i, j = first[starts == s], second[starts == s]
        inside = j < s + _BLOCK_ROWS
        i, j = np.concatenate([i, j[inside]]), np.concatenate([j, i[inside]])
        product = features[s:s + _BLOCK_ROWS] @ features[s:].T
        values.append(sq[i] + sq[j] - 2.0 * product[i - s, j - s])
    return np.concatenate(values)


def resolve_radius(config, features, max_distance=None):
    """The configured ball radius, or 5% of max_distance, which is
    max_pairwise_distance(features, seed=config.seed) unless given.
    DegenerateSample for a default of 0: such a ball has one label."""
    if config.r_p is not None:
        return config.r_p
    if max_distance is None:
        max_distance = max_pairwise_distance(features, seed=config.seed)
    radius = 0.05 * max_distance
    if radius == 0.0:
        raise DegenerateSample("the rows are one point: the default ball radius is 0")
    return radius


def _bracket_to_boundary(model, x0, prototypes, f_lo, f_hi, tol):
    """Boundary point on each segment [x0, prototypes[i]], shape (k, d).

    Works on f_i(t) = g(x0 + t*(prototypes[i] - x0)) - threshold, with
    f_lo = f(0) and f_hi[i] = f_i(1) as the caller computed them; their
    signs must differ (f >= 0 is the positive side), so every segment
    crosses the boundary. Each segment keeps a bracket [a, b] of t, a on
    x0's side, and steps by ITP (Oliveira and Takahashi, ACM TOMS 47(1),
    2020): the regula falsi point of the bracket, pushed toward its
    midpoint by 0.2 (b - a)^2 and kept within the distance of the
    midpoint that still lets the bracket reach tol / length in one step
    more than bisection would take (n0 = 1). A segment therefore takes
    at most ceil(log2(length / tol)) + 1 steps, what bisection took,
    and far fewer where f is smooth. All segments step in lockstep: each
    step evaluates the new points of the segments still open in one
    forward pass. A segment stops at a point with |f| <= tol, or at the
    midpoint of a bracket no longer than tol, or after _BISECT_CAP
    steps at its bracket's midpoint.
    """
    directions = prototypes - x0
    k = directions.shape[0]
    if abs(f_lo) <= tol:
        return np.tile(x0, (k, 1))
    # Row by row, so each length rounds as np.linalg.norm of one vector.
    seg_len = np.array([np.linalg.norm(direction) for direction in directions])
    # tol / (2 length) * 2^n_max: after `step` steps the point may lie
    # budget / 2^step - (b - a) / 2 from the midpoint.
    halvings = np.ceil(np.log2(np.maximum(seg_len / tol, 1.0)))
    budget = (tol / (2.0 * seg_len) * 2.0 ** (halvings + 1)).tolist()
    seg_len = seg_len.tolist()
    # Each segment's bracket [a, b, f(a), f(b)] and point t, as Python
    # floats: a step over ten segments made some 50 numpy calls on
    # arrays of ten entries, which cost more than the arithmetic. Each
    # operation is the one numpy applied (np.sign(gap) is
    # (gap > 0) - (gap < 0), width ** 2 is width * width), so each bit is.
    f_lo = float(f_lo)
    brackets = [[0.0, 1.0, f_lo, f_b] for f_b in np.asarray(f_hi, dtype=float).tolist()]
    found = [abs(f_b) <= tol for *_, f_b in brackets]
    t = [1.0 if hit else 0.5 for hit in found]  # 0.5: the midpoint of [0, 1]
    active = [j for j in range(k) if not found[j] and seg_len[j] > tol]
    # f(a) keeps the sign of f(0) through every update of a.
    a_positive = f_lo >= 0.0
    for step in range(_BISECT_CAP):
        if not active:
            break
        points = []
        for j in active:
            a, b, f_a, f_b = brackets[j]
            width, mid = b - a, (a + b) / 2.0
            falsi = (b * f_a - a * f_b) / (f_a - f_b)
            gap = mid - falsi
            toward_mid = (gap > 0.0) - (gap < 0.0)
            push = 0.2 * (width * width)
            x = falsi + toward_mid * push if push <= abs(gap) else mid
            reach = budget[j] / 2.0 ** step - width / 2.0
            points.append(x if abs(x - mid) <= reach else mid - toward_mid * reach)
        f_points = model.predict_proba(
            x0 + np.array(points)[:, None] * directions[active]) - model.threshold
        still_active = []
        for j, x, f_x in zip(active, points, f_points.tolist()):
            bracket = brackets[j]
            if (f_x >= 0.0) == a_positive:
                bracket[0], bracket[2] = x, f_x
            else:
                bracket[1], bracket[3] = x, f_x
            if abs(f_x) <= tol:
                t[j] = x
                continue
            t[j] = (bracket[0] + bracket[1]) / 2.0
            if (bracket[1] - bracket[0]) * seg_len[j] > tol:
                still_active.append(j)
        active = still_active
    return x0 + np.array(t)[:, None] * directions


def _nearest_rows(distances, m):
    """The first m entries of np.argsort(distances, kind="stable").

    With m clamped to n, np.partition finds the m-th smallest distance,
    and only the rows at or below it, taken in index order, are
    stable-sorted.
    """
    m = min(m, distances.size)
    cut = np.partition(distances, m - 1)[m - 1]
    rows = np.flatnonzero(distances <= cut)
    return rows[np.argsort(distances[rows], kind="stable")[:m]]


def find_boundary_point(x0, dataset, model, config=SamplerConfig()):
    """Closest decision-boundary point reachable from x0.

    Selects the k L1-nearest rows on the other side of the threshold
    from x0, steps along the k segments in lockstep with the rows'
    values as the segment ends (one k-row forward pass per step, see
    _bracket_to_boundary), and returns the boundary point nearest to x0
    in L2. Only the nearest rows are evaluated: the rows are ranked by
    L1 distance (ties in row order) and labelled in that order, in
    chunks of 4k, 8k, 16k, ... rows, until k opposite rows are found;
    each chunk ranks only the rows it reaches (_nearest_rows).

    Raises
    ------
    NonFiniteInput
        If x0 or any dataset row contains NaN or infinity.
    DimensionMismatch, EmptyInput
        If the dataset is not 2-d with x0's width, or has no rows.
    NoOppositeClassPrototypes
        If no dataset row has the opposite label from x0.
    """
    x0 = finite_array(np.ravel(x0), "query point")
    dataset = finite_array(dataset, "dataset", shape=(None, len(x0)), nonempty=True)
    f0 = model.predict_proba(x0[None, :])[0] - model.threshold
    with np.errstate(over="ignore"):  # an overflowing distance ranks last
        distances = np.abs(dataset - x0).sum(axis=1)
    near, f_near = [], []
    n_opposite, start, size = 0, 0, 4 * config.k
    while n_opposite < config.k and start < distances.size:
        rows = _nearest_rows(distances, start + size)[start:]
        f = model.predict_proba(dataset[rows]) - model.threshold
        opposite = (f >= 0.0) != (f0 >= 0.0)
        near.append(rows[opposite])
        f_near.append(f[opposite])
        n_opposite += np.count_nonzero(opposite)
        start, size = start + size, 2 * size
    if n_opposite == 0:
        raise NoOppositeClassPrototypes("dataset has no row with the opposite label")

    near = np.concatenate(near)[:config.k]
    candidates = _bracket_to_boundary(model, x0, dataset[near], f0,
                                      np.concatenate(f_near)[:config.k],
                                      _LINE_SEARCH_TOL)
    best = np.argmin(np.linalg.norm(candidates - x0, axis=1))
    return candidates[best]


def sample_ball(center, radius, n, seed):
    """n points uniform on the L2 ball: normalized Gaussian direction
    scaled by U^(1/d) * radius.

    Raises
    ------
    DomainError
        If `radius` is negative, NaN or infinite.
    DimensionMismatch, EmptyInput, NonFiniteInput
        If `center` is not a vector, is empty, or is not finite.
    """
    if not 0.0 <= radius < np.inf:
        raise DomainError(f"ball radius must be finite and >= 0, got {radius}")
    center = finite_array(center, "ball centre", shape=(None,), nonempty=True)
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
