"""Recourse generation: projection and actionable search."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvas import (
    ActionSpec,
    DimensionMismatch,
    Divergence,
    NoActionableRecourse,
    NonFiniteInput,
    SamplerConfig,
    Surrogate,
    TrainConfig,
    ZeroSlope,
    actionable_recourse,
    default_action_grids,
    generate_recourse,
    generate_synthetic,
    l1_projection,
    train_mlp,
)
from cvas import recourse

from oracles import (
    default_action_grids_oracle,
    exhaustive_actionable_cost,
    lp_projection_cost,
)


def lin_sur(w, b):
    return Surrogate(w=np.asarray(w, dtype=float), b=float(b), kappa=1.0)


# ---------------------------------------------------------------- projection

def test_projection_feasible_point():
    result = l1_projection(np.array([3.0, 0.0]), lin_sur([1.0, 0.0], 2.0))
    assert result.cost == 0.0
    assert np.array_equal(result.x_r, [3.0, 0.0])
    assert result.surrogate_valid
    assert result.blackbox_valid is None


def test_projection_example():
    result = l1_projection(np.zeros(2), lin_sur([1.0, 2.0], 2.0))
    assert_allclose(result.x_r, [0.0, 1.0], atol=1e-12)
    assert_allclose(result.cost, 1.0, atol=1e-12)
    assert result.surrogate_valid


def test_projection_tie_breaks_low_index():
    result = l1_projection(np.zeros(2), lin_sur([1.0, -1.0], 2.0))
    assert_allclose(result.x_r, [2.0, 0.0], atol=1e-12)
    assert_allclose(result.cost, 2.0, atol=1e-12)


def test_projection_matches_lp_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        x0 = rng.normal(size=d)
        w = rng.normal(size=d)
        b = rng.normal()
        result = l1_projection(x0, lin_sur(w, b))
        assert abs(result.cost - lp_projection_cost(x0, w, b)) <= 1e-9


def test_projection_cost_monotone_in_b():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=4)
    w = rng.normal(size=4)
    costs = [l1_projection(x0, lin_sur(w, b)).cost
             for b in np.linspace(-3.0, 3.0, 13)]
    assert all(later >= earlier for earlier, later in zip(costs, costs[1:]))


def test_projection_zero_slope():
    # Surrogate construction itself rejects w = 0, so sneak one past it
    sur = lin_sur([1.0, 0.0], 0.0)
    object.__setattr__(sur, "w", np.zeros(2))
    with pytest.raises(ZeroSlope):
        l1_projection(np.zeros(2), sur)


@pytest.mark.parametrize("x0, error", [
    ([0.0, 0.0, 0.0], DimensionMismatch),
    ([0.0], DimensionMismatch),
    ([math.nan, 0.0], NonFiniteInput),
    ([0.0, -math.inf], NonFiniteInput),
])
@pytest.mark.parametrize("search", ["projection", "actionable"])
def test_searches_check_x0(search, x0, error):
    sur = lin_sur([1.0, -1.0], 1.0)
    with pytest.raises(error):
        if search == "projection":
            l1_projection(x0, sur)
        else:
            spec = ActionSpec(grids=(np.array([0.0, 1.0]),) * len(x0))
            actionable_recourse(x0, sur, spec)


def test_actionable_rejects_spec_of_other_width():
    spec = ActionSpec(grids=(np.array([0.0, 1.0]),))
    with pytest.raises(DimensionMismatch):
        actionable_recourse(np.zeros(2), lin_sur([1.0, -1.0], 1.0), spec)


# ---------------------------------------------------------------- actionable

def test_actionable_feasible_point():
    spec = ActionSpec(grids=(np.array([-1.0, 0.0, 1.0]),))
    result = actionable_recourse(np.array([5.0]), lin_sur([1.0], 2.0), spec)
    assert result.cost == 0.0


def test_actionable_unit_grid_example():
    spec = ActionSpec(grids=(np.array([0.0, 1.0]), np.array([0.0, 1.0])))
    result = actionable_recourse(np.zeros(2), lin_sur([1.0, 1.0], 1.0), spec)
    assert_allclose(result.cost, 1.0, atol=1e-12)
    assert result.surrogate_valid


def test_actionable_matches_exhaustive():
    rng = np.random.default_rng(2)
    for _ in range(12):
        d = int(rng.integers(3, 7))
        x0 = rng.normal(size=d)
        w = rng.normal(size=d)
        b = float(w @ x0) + rng.uniform(0.1, 2.0)
        grids = tuple(np.unique(np.append(rng.normal(scale=1.5, size=3), 0.0))
                      for _ in range(d))
        spec = ActionSpec(grids=grids)
        expected = exhaustive_actionable_cost(x0, w, b, spec.grids)
        if math.isinf(expected):
            with pytest.raises(NoActionableRecourse):
                actionable_recourse(x0, lin_sur(w, b), spec)
        else:
            result = actionable_recourse(x0, lin_sur(w, b), spec)
            assert result.cost == expected


def test_actionable_respects_kinds():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x0 = rng.normal(size=3)
        w = rng.normal(size=3)
        b = float(w @ x0) + rng.uniform(0.1, 1.0)
        spec = ActionSpec(grids=(
            np.array([0.0]),
            np.array([0.0, 0.5, 1.5]),
            np.unique(np.append(rng.normal(scale=2.0, size=3), 0.0)),
        ))
        try:
            result = actionable_recourse(x0, lin_sur(w, b), spec)
        except NoActionableRecourse:
            assert math.isinf(exhaustive_actionable_cost(x0, w, b, spec.grids))
            continue
        delta = result.x_r - x0
        assert delta[0] == 0.0
        assert delta[1] >= 0.0


def test_actionable_infeasible():
    spec = ActionSpec(grids=(np.array([0.0]), np.array([0.0])))
    with pytest.raises(NoActionableRecourse):
        actionable_recourse(np.zeros(2), lin_sur([1.0, 1.0], 1.0), spec)


def test_actionable_overflowing_cost_exhausts_the_search():
    # Each move costs 1e308 and covers 1e8 of the 1.5e8 deficit. The
    # relaxation bound is finite, but the two moves together cost inf,
    # so the node that takes both has an infinite bound and the search
    # gives up when that node tops the heap.
    spec = ActionSpec(grids=(np.array([0.0, 1e308]), np.array([0.0, 1e308])))
    with pytest.raises(NoActionableRecourse, match="no grid combination"):
        actionable_recourse(np.zeros(2), lin_sur([1e-300, 1e-300], 1.5e8), spec)


def test_actionable_overflowing_gain_does_not_warn():
    # w_0 * delta overflows to inf: the move covers any deficit. The
    # search forms no such product when it picks helpful deltas.
    spec = ActionSpec(grids=(np.array([0.0, 1e200]), np.array([0.0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = actionable_recourse(np.zeros(2), lin_sur([1e200, 1.0], 1.0), spec)
    assert np.array_equal(result.x_r, [1e200, 0.0])
    assert result.cost == 1e200


def test_actionable_equal_rates_keep_index_order():
    # Both features buy 0.1 of margin per unit of cost, and either
    # delta 2 covers the deficit at cost 2: the lower index wins, though
    # 0.1 * 3 / 3 rounds one ulp above 0.1 on feature 1's grid.
    spec = ActionSpec(grids=(np.array([0.0, 2.0]), np.array([0.0, 2.0, 3.0])))
    result = actionable_recourse(np.zeros(2), lin_sur([0.1, 0.1], 0.2), spec)
    assert np.array_equal(result.x_r, [2.0, 0.0])
    assert result.cost == 2.0


_ONE_HOT_GRIDS = ([0.0, 1.0], [-1.0, 0.0], [-1.0, 0.0, 1.0], [0.0])
_TIE_TABLE_SHA256 = "29a92e0f68f7f50e5611e6730b4f9fd1f4fd325a40a4f7bb0b3a08547c91025a"


def _tie_heavy_outcomes():
    """x_r and cost bytes, or b"none", of 300 seeded searches built for ties.

    |w_j| comes from {0, 0.5, 1, 2}, so rates repeat and some features
    have none; grids are small integer sets or +-1 one-hot-style sets;
    x0 and the deficit are integers or halves. Every product is exact,
    so the answers follow from the tie order alone.
    """
    rng = np.random.default_rng(11)
    outcomes = []
    for case in range(300):
        d = int(rng.integers(2, 7))
        w = rng.choice([-2.0, -1.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.0, 2.0], size=d)
        if not w.any():
            w[0] = 1.0
        if case % 2:
            grids = [np.append(rng.integers(-3, 4, size=4), 0).astype(float)
                     for _ in range(d)]
        else:
            grids = [np.array(_ONE_HOT_GRIDS[k]) for k in rng.integers(0, 4, size=d)]
        x0 = rng.integers(-2, 3, size=d).astype(float)
        b = float(w @ x0) + float(rng.choice([-1.0, 0.5, 1.0, 2.0, 3.0, 4.0]))
        spec = ActionSpec(grids=tuple(grids))
        try:
            result = actionable_recourse(x0, lin_sur(w, b), spec)
        except NoActionableRecourse:
            outcomes.append(b"none")
            continue
        outcomes.append(result.x_r.tobytes() + np.float64(result.cost).tobytes())
    return outcomes


def test_actionable_tie_order_is_pinned():
    # The digest pins which of several equal-cost points each search
    # returns, so any change of tie order changes it.
    outcomes = _tie_heavy_outcomes()
    assert 100 <= sum(o != b"none" for o in outcomes) < 300
    assert hashlib.sha256(b"".join(outcomes)).hexdigest() == _TIE_TABLE_SHA256


def test_action_spec_validation():
    with pytest.raises(ValueError):
        ActionSpec(grids=(np.array([1.0, 2.0]),))
    # Kinds turn into grids in default_action_grids, which checks them.
    with pytest.raises(ValueError, match="unknown actionability kind 'garden'"):
        default_action_grids(np.zeros(1), np.arange(5.0)[:, None], kinds=("garden",))


@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_action_spec_rejects_non_finite_grid(bad):
    with pytest.raises(ValueError):
        ActionSpec(grids=(np.array([0.0, 1.0, bad]),))


def _unique_spec_outcome(grid):
    """The grid ActionSpec keeps, as bytes, taken as np.unique of the
    grid with every zero +0.0, or the class and message of the error it
    raises."""
    try:
        grid = np.unique(np.asarray(grid, dtype=float) + 0.0)
        if not np.all(np.isfinite(grid)):
            raise ValueError("action grids must be finite")
        if 0.0 not in grid:
            raise ValueError("every action grid must contain 0")
    except ValueError as exc:
        return type(exc), str(exc)
    return grid.tobytes()


def _spec_outcome(grid):
    try:
        return ActionSpec(grids=(grid,)).grids[0].tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


def test_action_grids_are_np_unique_bit_for_bit():
    # Unsorted grids with duplicates and either zero or both, given as
    # float or int lists, tuples and arrays, and every error: NaN, inf
    # and a missing 0, all as np.unique gave them.
    rng = np.random.default_rng(7)
    pool = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 5e-324, -5e-324, 1e-300,
            1e300, math.nan, math.inf, -math.inf]
    seen = set()
    for trial in range(3000):
        # NaN and the infinities, the last three of the pool, in one grid of four
        top = len(pool) if trial % 4 == 0 else len(pool) - 3
        values = [pool[j] if rng.random() < 0.7 else float(rng.normal(0.0, 4.0))
                  for j in rng.integers(0, top, rng.integers(0, 12))]
        form = trial % 6
        if form == 0:
            grid = values
        elif form == 1:
            grid = tuple(values)
        elif form == 2:
            grid = np.array(values)
        elif form == 3:
            grid = np.array(values).reshape(1, -1)
        else:
            finite = [v for v in values if math.isfinite(v) and abs(v) < 1e9]
            grid = [round(v) for v in finite]
            grid = np.array(grid, dtype=np.int64) if form == 4 else grid
        want = _unique_spec_outcome(grid)
        assert _spec_outcome(grid) == want, grid
        seen.add(want[1] if isinstance(want, tuple) else "kept")
    assert seen == {"kept", "action grids must be finite",
                    "every action grid must contain 0"}


@pytest.mark.parametrize("grid", [[-0.0, 1.0, -0.0], [1.0, 0.0, -0.0], [-0.0, 0.0],
                                  np.array([2.0, -0.0, 0.0, -0.0])])
def test_action_grids_keep_np_uniques_zero(grid):
    # Which zero np.unique keeps depends on its sort, so ActionSpec keeps
    # np.unique's grid with -0.0 turned into +0.0, on every machine.
    want = np.unique(np.asarray(grid, dtype=float) + 0.0)
    kept = ActionSpec(grids=(grid,)).grids[0]
    assert kept.tobytes() == want.tobytes()
    assert [math.copysign(1.0, v) for v in kept if not v] == [1.0]


def test_action_grids_are_read_only_copies():
    grid = np.array([0.0, 1.0, 2.0])
    spec = ActionSpec(grids=(grid,))
    with pytest.raises(ValueError, match="read-only"):
        spec.grids[0][0] = math.nan
    grid[1] = 7.0  # the caller's array stays writable and apart
    assert spec.grids[0].tolist() == [0.0, 1.0, 2.0]
    defaults = default_action_grids(np.zeros(2), np.arange(20.0).reshape(10, 2),
                                    kinds=("free",) * 2)
    assert not any(g.flags.writeable for g in defaults.grids)


def test_default_action_grids():
    # column marginals 0..100 make the 10..90 percentiles exact decades
    training = np.tile(np.arange(101.0)[:, None], (1, 3))
    x0 = np.array([50.0, 50.0, 50.0])
    spec = default_action_grids(
        x0, training, kinds=("free", "non_decreasing", "immutable"))
    assert_allclose(spec.grids[0], np.arange(-40.0, 50.0, 10.0))
    assert_allclose(spec.grids[1], np.arange(0.0, 50.0, 10.0))
    assert_allclose(spec.grids[2], [0.0])
    free = default_action_grids(x0, training, kinds=("free",) * 3)
    for grid in free.grids:
        assert_allclose(grid, np.arange(-40.0, 50.0, 10.0))


def test_default_action_grids_needs_kinds():
    # No kind is assumed: all-free grids would let an immutable feature move.
    with pytest.raises(TypeError, match="kinds"):
        default_action_grids(np.zeros(2), np.arange(20.0).reshape(10, 2))


@settings(max_examples=30, deadline=None)
@given(width=st.integers(1, 6).filter(lambda w: w != 3))
def test_default_action_grids_rejects_other_widths(width):
    training = np.random.default_rng(0).normal(size=(20, 3))
    with pytest.raises(DimensionMismatch):
        default_action_grids(np.zeros(width), training, kinds=("free",) * width)
    with pytest.raises(DimensionMismatch):
        default_action_grids(np.zeros(3), training, kinds=("free",) * width)
    with pytest.raises(DimensionMismatch):
        default_action_grids(np.zeros(3), training[:, 0], kinds=("free",) * 3)


@settings(max_examples=30, deadline=None)
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       row=st.integers(0, 19), col=st.integers(0, 2),
       in_x0=st.booleans())
def test_default_action_grids_rejects_non_finite_input(bad, row, col, in_x0):
    training = np.random.default_rng(row).normal(size=(20, 3))
    x0 = np.zeros(3)
    if in_x0:
        x0[col] = bad
    else:
        training[row, col] = bad
    with pytest.raises(NonFiniteInput):
        default_action_grids(x0, training, kinds=("free",) * 3)


def _marginal_columns(n, scale, seed):
    """Constant, tied, binary, one-hot (three columns) and lognormal
    columns of n rows, times scale."""
    rng = np.random.default_rng(seed)
    one_hot = np.eye(3)[rng.integers(0, 3, size=n)]
    columns = np.column_stack([np.full(n, 0.7), rng.integers(-2, 3, size=n),
                               rng.integers(0, 2, size=n), one_hot,
                               rng.lognormal(size=n)])
    return columns * scale


@pytest.mark.parametrize("n", [1, 2, 3, 10, 11, 101, 2080])
@pytest.mark.parametrize("scale", [1e-300, -1e-7, 1.0, -3e5, 1e300])
@pytest.mark.parametrize("kind", ["free", "non_decreasing", "immutable"])
def test_default_action_grids_match_percentile_oracle(n, scale, kind):
    # np.array_equal counts -0.0 equal to 0.0; a zero delta is a no-op
    # in the search either way.
    training = _marginal_columns(n, scale, seed=n)
    kinds = (kind,) * training.shape[1]
    for x0 in (training[0], training[-1] * 0.5, np.zeros(training.shape[1])):
        spec = default_action_grids(x0, training, kinds)
        expected = default_action_grids_oracle(x0, training, kinds)
        assert all(np.array_equal(got, want) for got, want in zip(spec.grids, expected))


_FLOATS = st.one_of(st.floats(-1e300, 1e300), st.integers(-3, 3).map(float),
                    st.sampled_from([0.0, -0.0, 0.1, 1e-310]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), d=st.integers(1, 3))
def test_deciles_equal_np_percentile(data, n, d):
    rows = np.array(data.draw(st.lists(_FLOATS, min_size=n * d, max_size=n * d)),
                    dtype=float).reshape(n, d)
    assert np.array_equal(recourse._deciles(rows),
                          np.percentile(rows, np.arange(10, 100, 10), axis=0))


def test_deciles_at_half_gamma_take_the_upper_row():
    # n = 2 puts the 50th percentile at gamma = 0.5 exactly, where numpy
    # computes b - (b - a) * 0.5, which here differs from a + (b - a) * 0.5.
    rows = np.array([[0.1], [0.7]])
    assert recourse._deciles(rows)[4, 0] == 0.7 - (0.7 - 0.1) * 0.5
    assert 0.7 - (0.7 - 0.1) * 0.5 != 0.1 + (0.7 - 0.1) * 0.5


# ---------------------------------------------------------------- pipeline

@pytest.fixture(scope="module")
def synthetic_model():
    features, labels = generate_synthetic(400, seed=0)
    model = train_mlp(features, labels, TrainConfig(epochs=300, seed=0))
    return features, labels, model


def test_generate_recourse_projection(synthetic_model):
    features, labels, model = synthetic_model
    x0 = features[model.label(features) == -1][0]
    config = SamplerConfig(n_p=500, seed=4)
    result = generate_recourse(model, x0, features, config,
                               Divergence(kind="nominal"), "projection")
    assert result.surrogate_valid
    assert isinstance(result.blackbox_valid, bool)
    repeat = generate_recourse(model, x0, features, config,
                               Divergence(kind="nominal"), "projection")
    assert np.array_equal(result.x_r, repeat.x_r)


def test_generate_recourse_actionable(synthetic_model):
    features, labels, model = synthetic_model
    x0 = features[model.label(features) == -1][0]
    config = SamplerConfig(n_p=500, seed=4)
    result = generate_recourse(model, x0, features, config,
                               Divergence(kind="nominal"), "actionable")
    assert result.surrogate_valid
    delta = result.x_r - x0
    assert np.count_nonzero(delta) <= 2


def test_generate_recourse_robust_costs_more(synthetic_model):
    features, labels, model = synthetic_model
    x0 = features[model.label(features) == -1][0]
    config = SamplerConfig(n_p=500, seed=4)
    plain = generate_recourse(model, x0, features, config,
                              Divergence(kind="fisher-rao"), "projection")
    robust = generate_recourse(model, x0, features, config,
                               Divergence(kind="fisher-rao", rho_neg=10.0),
                               "projection")
    assert robust.cost >= plain.cost


def test_generate_recourse_unknown_mode(synthetic_model, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("generate_recourse sampled before checking its mode")

    monkeypatch.setattr(recourse, "fit_surrogate", no_fit)
    features, labels, model = synthetic_model
    x0 = features[model.label(features) == -1][0]
    with pytest.raises(ValueError):
        generate_recourse(model, x0, features, SamplerConfig(n_p=500, seed=4),
                          Divergence(kind="nominal"), "teleport")
