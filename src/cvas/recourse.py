"""Recourse generation on top of a linear surrogate.

Two searches are provided: an exact 1-norm projection onto the
surrogate's favorable halfspace, and an exact branch-and-bound search
over discrete per-feature action grids. The generate_recourse pipeline
ties sampling, moment estimation, the surrogate solve, and the chosen
search together. generate_recourse, sweep and sensitivity share one
moments step (_boundary_moments) and one recourse step
(_recourse_against).
"""

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, DomainError, NoActionableRecourse, finite_array
from .moments import estimate_moments
from .sampler import synthesize
from .surrogate import _deficit, solve_cvas

ACTION_KINDS = ("free", "immutable", "non_decreasing")
MODES = ("projection", "actionable")


@dataclass(frozen=True)
class ActionSpec:
    """Per-feature grids of allowed deltas.

    Each grid is a finite sorted deduplicated array containing 0 (stored
    as +0.0), kept as a read-only copy. Actionability kinds live where
    grids are built from them (default_action_grids).
    """

    grids: tuple

    def __post_init__(self):
        grids = []
        for grid in self.grids:
            grid = _unique_grid(grid)
            if 0.0 not in grid:
                raise ValueError("every action grid must contain 0")
            grid = np.array(grid)
            grid.flags.writeable = False
            grids.append(grid)
        object.__setattr__(self, "grids", tuple(grids))


def _unique_grid(grid):
    """The values of np.unique(np.asarray(grid, dtype=float) + 0.0) as a
    list: sorted, deduplicated, and every zero +0.0.

    ValueError if one is not finite. Grids are a few floats, so they are
    sorted and deduplicated in Python, which costs less than np.unique's
    calls. Adding 0.0 turns -0.0 into +0.0 and leaves every other float
    as it is, so equal values have equal bits and the set keeps one.
    """
    values = np.asarray(grid, dtype=float).ravel().tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("action grids must be finite")
    return sorted({v + 0.0 for v in values})


@dataclass(frozen=True)
class RecourseResult:
    """A recourse point with its L1 cost and validity flags.

    blackbox_valid is None when no black-box was consulted (bare
    projection or actionable searches).
    """

    x_r: np.ndarray
    cost: float
    surrogate_valid: bool
    blackbox_valid: bool = None

    def __post_init__(self):
        object.__setattr__(self, "x_r", np.asarray(self.x_r, dtype=float).reshape(-1))


_DECILES = np.arange(10, 100, 10)


def _deciles(rows):
    """np.percentile(rows, _DECILES, axis=0) from one sort per column.

    numpy's default linear method: the virtual index (n - 1) q / 100 lies
    between the sorted rows at its floor and floor + 1 (clipped to n - 1),
    and with gamma its fractional part numpy's _lerp gives a + (b - a)
    gamma, or b - (b - a)(1 - gamma) where gamma >= 0.5, so every value
    equals np.percentile's bit for bit. Can overflow: call it under
    np.errstate.
    """
    ordered = np.sort(rows, axis=0)
    n = ordered.shape[0]
    virtual = (n - 1) * (_DECILES / 100)
    below = np.floor(virtual).astype(np.intp)
    gamma = (virtual - below)[:, None]
    a, b = ordered[below], ordered[np.minimum(below + 1, n - 1)]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma)


def default_action_grids(x0, training_features, kinds):
    """Grids of deltas to the 10..90 percentiles of each training marginal.

    The percentiles are np.percentile's default linear method, from one
    sort per column. Every grid keeps 0; by `kinds`, immutable features
    collapse to {0} and non_decreasing features drop negative deltas.

    Raises
    ------
    DimensionMismatch
        If the training rows are not 2-d, or x0 or `kinds` does not have
        their width.
    EmptyInput
        If there are no training rows.
    NonFiniteInput
        If x0 or a training row contains NaN or infinity.
    DomainError
        If a percentile or its delta from x0 overflows float64.
    ValueError
        If a kind is not one of ACTION_KINDS.
    """
    x0 = np.ravel(x0)
    d = x0.shape[0]
    if len(kinds) != d:
        raise DimensionMismatch(f"{len(kinds)} action kinds for {d} features")
    training_features = finite_array(training_features, "training rows",
                                     shape=(None, d), nonempty=True)
    x0 = finite_array(x0, "x0")
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = _deciles(training_features) - x0
    if not np.isfinite(deltas).all():
        raise DomainError("a training percentile or its delta from x0 overflows")
    grids = []
    for kind, column in zip(kinds, deltas.T.tolist()):
        if kind == "immutable":
            column = []
        elif kind == "non_decreasing":
            column = [delta for delta in column if delta >= 0.0]
        elif kind != "free":
            raise ValueError(f"unknown actionability kind {kind!r}")
        grids.append(column + [0.0])
    return ActionSpec(grids=tuple(grids))


def _search_start(x0, surrogate):
    """(w, b, x0, b - w^T x0) of a search, checked.

    Finite inputs can still overflow: DomainError unless the deficit
    b - w^T x0 is finite.
    """
    w, b = finite_array(surrogate.w, "surrogate slope", nonzero=True), surrogate.b
    x0 = finite_array(np.ravel(x0), "x0", shape=w.shape)
    return w, b, x0, _deficit(w, x0, b)


def _search_result(x0, moves, w, b):
    """x0 moved by the (index, delta) pairs, with its L1 cost and validity.

    DomainError unless the cost is finite; as x0 is finite, so is then
    the point.
    """
    x_r = x0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for index, delta in moves:
            x_r[index] += delta
        cost = float(np.abs(x_r - x0).sum())
        valid = float(w @ x_r) - b >= -1e-9
    if not math.isfinite(cost):
        raise DomainError(f"the recourse point overflows: its L1 cost is {cost}")
    return RecourseResult(x_r=x_r, cost=cost, surrogate_valid=valid)


def l1_projection(x0, surrogate):
    """Exact L1-minimal point satisfying w^T x >= b.

    A feasible x0 maps to itself. Otherwise the whole correction goes
    into the single coordinate with the largest |w_j| (lowest index on
    ties), the closed-form minimizer of the L1 projection onto a
    halfspace. x0 must be a finite vector of the surrogate's width.

    Raises
    ------
    DimensionMismatch, NonFiniteInput
        If x0 is not a finite vector of the surrogate's width.
    ZeroSlope
        If the surrogate's slope is the zero vector.
    DomainError
        If b - w^T x0 or the recourse point overflows float64.
    """
    w, b, x0, deficit = _search_start(x0, surrogate)
    if deficit <= 0.0:
        return RecourseResult(x_r=x0.copy(), cost=0.0, surrogate_valid=True)
    j = int(np.argmax(np.abs(w)))
    with np.errstate(over="ignore"):
        step = deficit / w[j]
    return _search_result(x0, ((j, step),), w, b)


def _branch_features(w, actions):
    """(index, rate |w_j|, helpful deltas) per feature, best rate first.

    Under L1 cost every move on feature j buys |w_j| of margin per unit
    of cost. A delta helps when it is non-zero and has w_j's sign,
    tested by sign so that no product is formed; a move that does not
    help can be replaced by 0 at no extra cost. The sort is stable:
    equal rates keep index order.
    """
    features = []
    for j, (w_j, grid) in enumerate(zip(w.tolist(), actions.grids)):
        deltas = [d for d in grid.tolist() if d and w_j and (d > 0.0) == (w_j > 0.0)]
        if deltas:
            features.append((j, abs(w_j), deltas))
    features.sort(key=lambda feature: -feature[1])
    return features


def _relaxation_bound(features, start, deficit):
    """Cost lower bound: fill the deficit at the best rates from `start`
    on, in steps of each feature's largest |delta|; inf if they cannot.

    A feature's helpful deltas share a sign and keep the grid's order,
    so the largest |delta| is at one end.
    """
    if deficit <= 0.0:
        return 0.0
    bound = 0.0
    for _, rate, deltas in features[start:]:
        step = max(abs(deltas[0]), abs(deltas[-1]))
        if rate * step >= deficit:
            return bound + deficit / rate
        bound += step
        deficit -= rate * step
    return math.inf


def actionable_recourse(x0, surrogate, actions):
    """Exact minimum-L1 recourse over discrete per-feature action grids.

    Best-first branch-and-bound over the features in decreasing rate
    |w_j| (the margin a unit of L1 cost buys on feature j; equal rates
    keep index order). Each node branches on skipping its feature, then
    on its helpful deltas in grid order, and the heap orders nodes by
    cost so far plus the fractional fill of the remaining deficit at
    the best remaining rates, then by push order. That bound is
    admissible, so the first goal popped is optimal, and ties go to
    the first pushed; a feasible x0 is the root, a goal of cost 0.

    Raises
    ------
    NoActionableRecourse
        If no grid combination reaches the constraint.
    DimensionMismatch
        If x0, the surrogate and `actions` differ in width.
    NonFiniteInput, ZeroSlope
        If x0 is not finite, or the surrogate's slope is the zero vector.
    DomainError
        If b - w^T x0 or the recourse point overflows float64.
    """
    w, b, x0, deficit = _search_start(x0, surrogate)
    if len(actions.grids) != x0.shape[0]:
        raise DimensionMismatch(f"{len(actions.grids)} grids for {len(x0)} features")

    features = _branch_features(w, actions)
    # Heap entries: (bound, push order, feature position, remaining
    # deficit, cost so far, chosen (index, delta) pairs). Every pop that
    # is not a goal pushes its skip child, so the heap never empties; an
    # infinite top bound means no node left can reach the constraint.
    heap = [(_relaxation_bound(features, 0, deficit), 0, 0, deficit, 0.0, ())]
    pushes = 0
    while heap[0][0] < math.inf:
        _, _, pos, remaining, cost, chosen = heapq.heappop(heap)
        if remaining <= 0.0:
            return _search_result(x0, chosen, w, b)
        index, rate, deltas = features[pos]
        for delta in [0.0] + deltas:  # 0.0 skips the feature
            left, spent = remaining - rate * abs(delta), cost + abs(delta)
            pushes += 1
            heapq.heappush(heap, (
                spent + _relaxation_bound(features, pos + 1, left),
                pushes, pos + 1, left, spent,
                chosen + ((index, delta),) if delta else chosen))
    raise NoActionableRecourse(f"no grid combination covers the deficit {deficit:.6g}")


def _boundary_moments(model, x0, dataset, sampler_config):
    """(positive, negative) class moments of the boundary sample at x0."""
    sample = synthesize(x0, dataset, model, sampler_config)
    return estimate_moments(sample.positives), estimate_moments(sample.negatives)


def fit_surrogate(model, x0, dataset, sampler_config, divergence):
    """Sampler -> moments -> solve pipeline; returns the surrogate."""
    return solve_cvas(*_boundary_moments(model, x0, dataset, sampler_config),
                      divergence)


def _recourse_against(model, x0, surrogate, mode, actions):
    """The mode's search against the surrogate, blackbox_valid from the model."""
    if mode == "projection":
        result = l1_projection(x0, surrogate)
    else:
        result = actionable_recourse(x0, surrogate, actions)
    return replace(result,
                   blackbox_valid=bool(model.label(result.x_r[None, :])[0] == 1))


def generate_recourse(model, x0, dataset, sampler_config, divergence, mode,
                      actions=None):
    """Full pipeline from an input to a recourse against the surrogate.

    mode "projection" runs l1_projection, mode "actionable" runs
    actionable_recourse (with all-free percentile grids built from the
    dataset when no ActionSpec is supplied). blackbox_valid is filled by
    querying the model at the recourse point.

    Raises
    ------
    ValueError
        If `mode` is not one of MODES, before any sampling.
    CvasError
        The subclass the sampler, moments, solve or search raised.
    """
    if mode not in MODES:
        raise ValueError(f"unknown recourse mode {mode!r}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    surrogate = fit_surrogate(model, x0, dataset, sampler_config, divergence)
    if mode == "actionable" and actions is None:
        actions = default_action_grids(x0, dataset, ("free",) * x0.shape[0])
    return _recourse_against(model, x0, surrogate, mode, actions)
