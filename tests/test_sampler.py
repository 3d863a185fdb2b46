"""Boundary search, uniform ball sampling, and pseudo-labeling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvas import (
    DegenerateSample,
    DimensionMismatch,
    Divergence,
    DomainError,
    EmptyInput,
    MlpModel,
    NoOppositeClassPrototypes,
    NonFiniteInput,
    SamplerConfig,
    TrainConfig,
    find_boundary_point,
    generate_recourse,
    generate_synthetic,
    max_pairwise_distance,
    sample_ball,
    synthesize,
    train_mlp,
)
from cvas.sampler import (
    _BISECT_CAP,
    _BLOCK_ROWS,
    _GUARD,
    _LINE_SEARCH_TOL,
    _bracket_to_boundary,
    _candidate_pairs,
    _nearest_rows,
    resolve_radius,
)

from helpers import HIDDEN, linear_mlp
from oracles import (
    boundary_point_oracle,
    itp_lockstep_oracle,
    itp_segment_oracle,
    ks_statistic,
    max_pairwise_distance_oracle,
    prototypes_oracle,
)


def _abs_model(scale=4.0, big=1e4, fold=0.0):
    # sigma(scale * (||x| - fold| - 1)): non-monotone in x. With fold = 0
    # the boundary is |x| = 1; with fold = 2 it is |x| in {1, 3}, so a
    # segment from x = -4 to 1 < x < 3 crosses it three times.
    dims = (1,) + HIDDEN + (1,)
    w0 = np.zeros((1, HIDDEN[0]))
    w0[0, 0], w0[0, 1] = 1.0, -1.0
    w1 = np.zeros((HIDDEN[0], HIDDEN[1]))
    w1[0, 0] = w1[1, 0] = 1.0
    w1[0, 1] = w1[1, 1] = -1.0
    b1 = np.zeros(HIDDEN[1])
    b1[0], b1[1] = -fold, fold
    w2 = np.zeros((HIDDEN[1], HIDDEN[2]))
    w2[0, 0] = w2[1, 0] = scale
    b2 = np.zeros(HIDDEN[2])
    b2[0] = big
    w3 = np.zeros((HIDDEN[2], 1))
    w3[0, 0] = 1.0
    b3 = np.array([-big - scale])
    return MlpModel(layer_dims=dims, weights=[w0, w1, w2, w3],
                    biases=[np.zeros(HIDDEN[0]), b1, b2, b3])


def test_boundary_point_known_crossing():
    # sigma(4x - 4) crosses 0.5 at exactly x = 1
    model = linear_mlp(np.array([4.0]), -4.0)
    dataset = np.array([[2.0]])
    point = find_boundary_point(np.zeros(1), dataset, model)
    assert abs(point[0] - 1.0) <= 1e-8


def test_boundary_point_already_on_boundary():
    model = linear_mlp(np.array([4.0]), -4.0)
    # x0 sits exactly on the boundary (tie labels +1), prototype is below
    dataset = np.array([[-1.0], [2.0]])
    point = find_boundary_point(np.array([1.0]), dataset, model)
    assert abs(point[0] - 1.0) <= 1e-8


def test_boundary_point_picks_nearest():
    # boundary is the line x1 = 1; the two prototype segments cross it
    # at (1, 0) and (1, 2.5); the first is L2-nearer to x0
    model = linear_mlp(np.array([4.0, 0.0]), -4.0)
    dataset = np.array([[2.0, 0.0], [2.0, 5.0]])
    point = find_boundary_point(np.zeros(2), dataset, model)
    assert_allclose(point, [1.0, 0.0], atol=1e-7)


def test_boundary_point_prototype_selection_is_l1():
    model = linear_mlp(np.array([4.0, 0.0]), -4.0)
    # k=1 keeps only the L1-nearest opposite row, (2, 0)
    dataset = np.array([[2.0, 0.0], [1.5, 10.0]])
    config = SamplerConfig(k=1)
    point = find_boundary_point(np.zeros(2), dataset, model, config)
    assert_allclose(point, [1.0, 0.0], atol=1e-7)


def test_boundary_point_no_opposite_class():
    model = linear_mlp(np.array([4.0]), -4.0)
    dataset = np.array([[-1.0], [0.5]])  # both on x0's side
    with pytest.raises(NoOppositeClassPrototypes):
        find_boundary_point(np.zeros(1), dataset, model)


class _CountingModel:
    """Forwards to a model and records the rows of each forward pass."""

    def __init__(self, model):
        self.model = model
        self.threshold = model.threshold
        self.batches = []

    @property
    def calls(self):
        return len(self.batches)

    def predict_proba(self, features):
        self.batches.append(len(features))
        return self.model.predict_proba(features)


@pytest.fixture(scope="module")
def trained():
    features, labels = generate_synthetic(200, seed=0)
    return features, train_mlp(features, labels, TrainConfig(epochs=150, seed=0))


def _f(model, rows):
    return model.predict_proba(rows) - model.threshold


def _lockstep(model, x0, prototypes):
    """_bracket_to_boundary's points and its number of forward passes."""
    counting = _CountingModel(model)
    points = _bracket_to_boundary(counting, x0, prototypes, _f(model, x0[None, :])[0],
                                  _f(model, prototypes), _LINE_SEARCH_TOL)
    assert points.shape == prototypes.shape
    return points, counting.calls


def _trained_segments(trained):
    # Segments toward random rows on the other side of the threshold.
    features, model = trained
    rng = np.random.default_rng(1)
    for x0 in features[:10]:
        opposite = features[(_f(model, features) >= 0.0)
                            != (_f(model, x0[None, :])[0] >= 0.0)]
        for k in (1, 3, 10):
            yield model, x0, opposite[rng.choice(len(opposite), size=k, replace=False)]


def _non_monotone_segments():
    # On sigma(4(|x|-1)) from x0 = -3 the model falls and rises along
    # the segments that pass 0, and the last prototype lies within tol
    # of the boundary; on sigma(4(||x|-2|-1)) from x0 = -4 the segments
    # that end in 1 < x < 3 cross the boundary three times.
    rng = np.random.default_rng(2)
    for model, x0, prototypes in (
            (_abs_model(), -3.0, np.append(rng.uniform(-1.0, 1.0, size=9), 1.0 - 1e-10)),
            (_abs_model(fold=2.0), -4.0,
             rng.choice([-1.0, 1.0], size=10) * rng.uniform(1.0, 3.0, size=10))):
        for k in (1, 3, 10):
            yield model, np.array([x0]), prototypes[:k, None]


def _ends_on_crossing(model, x0, proto, point, tol):
    # |f| <= tol by a single-row pass, or the sign of f changes within
    # tol of the point along the segment: a final bracket of length tol.
    if abs(_f(model, point[None, :])[0]) <= tol:
        return True
    step = tol * (proto - x0) / np.linalg.norm(proto - x0)
    return (_f(model, (point - step)[None, :])[0] >= 0.0) != (
        _f(model, (point + step)[None, :])[0] >= 0.0)


def test_lockstep_points_end_on_a_crossing(trained):
    # Monotone and non-monotone segments alike; and no segment takes more
    # steps than bisection would, ceil(log2(length / tol)) + 1.
    tol = _LINE_SEARCH_TOL
    for model, x0, prototypes in (*_trained_segments(trained), *_non_monotone_segments()):
        points, calls = _lockstep(model, x0, prototypes)
        for proto, point in zip(prototypes, points):
            assert _ends_on_crossing(model, x0, proto, point, tol)
        lengths = np.linalg.norm(prototypes - x0, axis=1)
        assert calls <= max(math.ceil(math.log2(max(n / tol, 1.0))) + 1 for n in lengths)


def test_lockstep_points_match_the_whole_array_search_bit_for_bit(trained):
    # The steps run on Python floats; the same search on numpy arrays
    # gives the same points, every bit, on segments that close at
    # different steps, cross the boundary more than once, or start or
    # end within tol of it, and on 40, 60 and 100 segments at once.
    tol = _LINE_SEARCH_TOL
    features, model = trained
    rng = np.random.default_rng(3)
    cases = [*_trained_segments(trained), *_non_monotone_segments()]
    rows = generate_synthetic(600, seed=4)[0]
    for x0, pool, sizes in [(x0, features, (40,)) for x0 in features[10:20]] + [
            (x0, rows, (60, 100)) for x0 in rows[:4]]:
        opposite = pool[(_f(model, pool) >= 0.0) != (_f(model, x0[None, :])[0] >= 0.0)]
        for size in sizes:
            size = min(size, len(opposite))
            cases.append((model, x0, opposite[rng.choice(len(opposite), size=size,
                                                         replace=False)]))
    for model, x0, prototypes in cases:
        f_lo, f_hi = _f(model, x0[None, :])[0], _f(model, prototypes)
        for cap in (_BISECT_CAP, 3):
            want = itp_lockstep_oracle(model, x0, prototypes, f_lo, f_hi, tol, cap)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("cvas.sampler._BISECT_CAP", cap)
                got = _bracket_to_boundary(model, x0, prototypes, f_lo, f_hi, tol)
            assert got.tobytes() == want.tobytes()


def test_lockstep_segments_match_per_segment_oracle(trained):
    # Batch composition moves a row's output in its last bits, so the
    # lockstep and the single-row oracle agree to the tolerance, not bit
    # for bit, where the segment crosses the boundary once.
    tol = _LINE_SEARCH_TOL
    # sigma(4(|x|-1)) from x0 = -3 crosses the boundary only at x = -1.
    once = [case for case in _non_monotone_segments() if case[1][0] == -3.0]
    for model, x0, prototypes in (*_trained_segments(trained), *once):
        points, _ = _lockstep(model, x0, prototypes)
        for proto, point in zip(prototypes, points):
            expected, _ = itp_segment_oracle(model, x0, proto, tol)
            assert np.linalg.norm(point - expected) <= 2.0 * tol


def test_boundary_point_matches_per_segment_oracle(trained, monkeypatch):
    # The prototypes are the oracle's, though only the nearest rows are
    # labelled, and the point is the oracle's to the tolerance.
    seen = []

    def recording(model, x0, prototypes, *args):
        seen.append(prototypes)
        return _bracket_to_boundary(model, x0, prototypes, *args)

    monkeypatch.setattr("cvas.sampler._bracket_to_boundary", recording)
    features, model = trained
    abs_dataset = np.array([[-0.5], [0.2], [0.9], [-4.0], [2.0]])
    rows = generate_synthetic(600, seed=4)[0]
    cases = [(x0, features, model, 10) for x0 in features[:25]]
    cases += [(np.array([x0]), abs_dataset, _abs_model(), 10) for x0 in (-3.0, 1.7, 0.1)]
    cases += [(x0, rows, model, 100) for x0 in rows[:4]]
    for x0, dataset, case_model, k in cases:
        point = find_boundary_point(x0, dataset, case_model, SamplerConfig(k=k))
        expected = prototypes_oracle(x0, dataset, case_model, k)
        assert np.array_equal(seen.pop(), dataset[expected])
        assert np.linalg.norm(point - boundary_point_oracle(
            x0, dataset, case_model, k, _LINE_SEARCH_TOL)) <= 2.0 * _LINE_SEARCH_TOL


def _one_distinct(n, at, value):
    distances = [0.5] * n
    distances[at % n] = value
    return distances


# Integer-valued, all equal, or all equal but one.
_TIED_DISTANCES = st.one_of(
    st.lists(st.integers(0, 4).map(float), min_size=1, max_size=40),
    st.builds(lambda n: [2.0] * n, st.integers(1, 40)),
    st.builds(_one_distinct, st.integers(1, 40), st.integers(0, 39), st.floats(0.0, 1.0)))


@settings(max_examples=150, deadline=None)
@given(distances=_TIED_DISTANCES)
def test_nearest_rows_is_a_prefix_of_the_stable_argsort(distances):
    distances = np.array(distances)
    order = np.argsort(distances, kind="stable")
    for m in range(1, distances.size + 4):
        assert np.array_equal(_nearest_rows(distances, m), order[:m])


def test_boundary_point_forward_calls_bounded(trained):
    # One pass over x0, at most ceil(log2(n / 4k)) + 1 chunks of the
    # nearest rows, then at most _BISECT_CAP lockstep steps.
    features, model = trained
    for k in (1, 10, 60):
        chunks = max(math.ceil(math.log2(len(features) / (4 * k))), 0) + 1
        for x0 in features[:5]:
            counting = _CountingModel(model)
            find_boundary_point(x0, features, counting, SamplerConfig(k=k))
            assert counting.calls <= 1 + chunks + _BISECT_CAP


def test_boundary_point_labels_only_the_nearest_rows(trained):
    # After x0 come chunks of 4k, 8k, ... rows in L1 order, up to the
    # one that holds the k-th opposite row, then the k-row steps.
    features, model = trained
    order = np.argsort(np.abs(features[:, None, :] - features[:25]).sum(axis=2),
                       axis=0, kind="stable")
    for q, x0 in enumerate(features[:25]):
        last = prototypes_oracle(x0, features, model, 10)[-1]
        rank = int(np.flatnonzero(order[:, q] == last)[0])
        chunks, covered = [], 0
        while covered <= rank:
            chunks.append(min(40 * 2 ** len(chunks), len(features) - covered))
            covered += chunks[-1]
        counting = _CountingModel(model)
        find_boundary_point(x0, features, counting, SamplerConfig(k=10))
        assert counting.batches[:1 + len(chunks)] == [1] + chunks
        assert max(counting.batches[1 + len(chunks):]) <= 10


def test_boundary_point_mean_passes_on_fixture(trained):
    # Bisection takes about 29 passes a boundary here; the ITP steps
    # about 12.
    features, model = trained
    counting = _CountingModel(model)
    for x0 in features[:25]:
        find_boundary_point(x0, features, counting)
    assert counting.calls / 25 < 14


def test_boundary_point_checks_rows_it_never_evaluates(trained):
    # A NaN in a row far from x0 is never labelled, and still rejected.
    features, model = trained
    far = np.vstack([features, [1e3, np.nan]])
    counting = _CountingModel(model)
    with pytest.raises(NonFiniteInput):
        find_boundary_point(features[0], far, counting)
    assert counting.calls == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_point_ranks_overflowing_distances_last():
    # A finite row whose L1 distance from x0 overflows ranks last, at
    # distance +inf with ties in row order, instead of warning.
    model = linear_mlp(np.array([1.0, -1.0]), 0.0)
    # Every distance overflows; x0 lies on the boundary x1 = x2.
    x0 = np.array([-1e308, -1e308])
    rows = np.array([[1e308, 1e308], [-1.0, 1.0], [1.0, -1.0]])
    assert np.array_equal(find_boundary_point(x0, rows, model), x0)
    # Only the far row's distance overflows; with k = 1 the first chunk
    # of 4 rows is the near rows, so the far row is never labelled.
    x0 = np.array([0.0, 1.0])
    near = np.array([[-1.0, 1.0], [1.0, -1.0], [2.0, -1.0], [-1.0, 2.0]])
    far = np.vstack([[1.7e308, -1.7e308], near])
    config = SamplerConfig(k=1)
    assert np.array_equal(find_boundary_point(x0, far, model, config),
                          find_boundary_point(x0, near, model, config))


def test_boundary_point_rejects_non_finite_query(trained):
    features, model = trained
    for bad in (np.nan, np.inf):
        x0 = features[0].copy()
        x0[1] = bad
        with pytest.raises(NonFiniteInput):
            find_boundary_point(x0, features, model)
        with pytest.raises(NonFiniteInput):
            synthesize(x0, features, model)
        with pytest.raises(NonFiniteInput):
            generate_recourse(model, x0, features, SamplerConfig(),
                              Divergence(kind="nominal"), "projection")


def test_sample_ball_support_and_mean():
    center = np.array([1.0, 2.0, 3.0])
    radius = 2.0
    points = sample_ball(center, radius, 10_000, seed=0)
    distances = np.linalg.norm(points - center, axis=1)
    assert np.all(distances <= radius + 1e-12)
    # per-coordinate variance of the uniform ball is r^2/(d+2)
    sigma_mean = radius / np.sqrt(10_000 * 5.0)
    assert np.all(np.abs(points.mean(axis=0) - center) <= 3.0 * sigma_mean)


@given(radius=st.one_of(st.floats(max_value=-1e-300),
                        st.sampled_from([math.nan, math.inf, -math.inf])))
def test_sample_ball_rejects_bad_radius(radius):
    with pytest.raises(DomainError):
        sample_ball(np.zeros(3), radius, 10, seed=0)


def test_sample_ball_zero_radius_is_the_center():
    center = np.array([1.0, -2.0])
    assert np.array_equal(sample_ball(center, 0.0, 5, seed=0),
                          np.tile(center, (5, 1)))


@pytest.mark.parametrize("d", [1, 3, 5])
def test_sample_ball_radius_distribution(d):
    radius = 1.7
    points = sample_ball(np.zeros(d), radius, 10_000, seed=3)
    norms = np.linalg.norm(points, axis=1)
    stat = ks_statistic(norms, lambda t: np.clip(t / radius, 0.0, 1.0) ** d)
    assert stat <= 1.36 / np.sqrt(10_000)


def test_synthesize_deterministic():
    features, labels = generate_synthetic(200, seed=0)
    model = train_mlp(features, labels, TrainConfig(epochs=150, seed=0))
    x0 = features[labels == -1][0]
    config = SamplerConfig(n_p=200, seed=9)
    a = synthesize(x0, features, model, config)
    b = synthesize(x0, features, model, config)
    assert np.array_equal(a.x_b, b.x_b)
    assert np.array_equal(a.positives, b.positives)
    assert np.array_equal(a.negatives, b.negatives)
    assert a.radius == b.radius


def test_synthesize_purity_and_radius():
    features, labels = generate_synthetic(200, seed=0)
    model = train_mlp(features, labels, TrainConfig(epochs=150, seed=0))
    x0 = features[labels == -1][0]
    sample = synthesize(x0, features, model, SamplerConfig(n_p=300, seed=1))
    assert np.all(model.label(sample.positives) == 1)
    assert np.all(model.label(sample.negatives) == -1)
    assert sample.positives.shape[0] + sample.negatives.shape[0] == 300
    for rows in (sample.positives, sample.negatives):
        assert np.all(np.linalg.norm(rows - sample.x_b, axis=1)
                      <= sample.radius + 1e-12)
    assert sample.radius == resolve_radius(SamplerConfig(seed=1), features)


def test_synthesize_halfspace_fraction():
    # boundary x1 = 0 cuts the sampling ball in half
    model = linear_mlp(np.array([4.0, 0.0]), 0.0)
    dataset = np.array([[-1.0, 0.0], [1.0, 0.0]])
    config = SamplerConfig(k=1, r_p=1.0, n_p=4000, seed=2)
    sample = synthesize(np.array([-0.5, 0.0]), dataset, model, config)
    fraction = sample.positives.shape[0] / 4000.0
    assert abs(fraction - 0.5) <= 0.05


def test_synthesize_degenerate_sample():
    model = linear_mlp(np.array([4.0, 0.0]), 0.0)
    dataset = np.array([[-1.0, 0.0], [1.0, 0.0]])
    # n_p = 2 cannot give both classes two points each
    config = SamplerConfig(k=1, r_p=1.0, n_p=2, seed=0)
    with pytest.raises(DegenerateSample):
        synthesize(np.array([-0.5, 0.0]), dataset, model, config)


def test_max_pairwise_distance_exact():
    rows = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    assert max_pairwise_distance(rows) == 5.0


def test_max_pairwise_distance_matches_pair_loop():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(50, 3))
    best = 0.0
    for i in range(50):
        for j in range(i + 1, 50):
            best = max(best, float(np.linalg.norm(rows[i] - rows[j])))
    assert_allclose(max_pairwise_distance(rows), best, rtol=1e-12)


def _pair_loop_max(rows):
    return max((float(np.max(np.linalg.norm(rows[i + 1:] - rows[i], axis=1)))
                for i in range(len(rows) - 1)), default=0.0)


@pytest.mark.parametrize("n", [1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                               _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3])
def test_max_pairwise_distance_blocks_match_pair_loop(n):
    rows = np.random.default_rng(n).normal(size=(n, 4))
    assert_allclose(max_pairwise_distance(rows), _pair_loop_max(rows),
                    rtol=1e-12, atol=1e-12)


def test_max_pairwise_distance_above_guard_matches_pair_loop():
    rows = np.random.default_rng(6).normal(size=(_GUARD + 100, 3))
    subsample = rows[np.random.default_rng(8).choice(_GUARD + 100, size=_GUARD,
                                                     replace=False)]
    assert_allclose(max_pairwise_distance(rows, seed=8),
                    _pair_loop_max(subsample), rtol=1e-12)


def _unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _exact_inputs():
    """(name, rows) cases where pruning must give the full scan's float."""
    rng = np.random.default_rng(11)
    normal = rng.normal(size=(400, 5))
    duplicated = np.repeat(normal[:150], 4, axis=0)[rng.permutation(600)]
    one_hot = np.eye(8)[rng.integers(0, 8, 900)]
    mixed = np.hstack([rng.lognormal(0.0, 1.0, (1200, 4)),
                       rng.integers(0, 2, (1200, 6)).astype(float)])
    return [
        ("duplicate rows", duplicated),
        ("duplicated extremes", np.vstack([normal, normal[:40] * 3.0,
                                           normal[:40] * 3.0])),
        ("unit sphere d=3", _unit_rows(rng, 1500, 3)),
        ("unit sphere d=22", _unit_rows(rng, 700, 22)),
        ("offset 1e6", rng.normal(size=(1500, 4)) + 1e6),
        ("offset 1e6 d=1", rng.normal(size=(900, 1)) + 1e6),
        ("offset 1e6 lognormal", rng.lognormal(0.0, 1.0, (1500, 3)) + 1e6),
        ("binary", rng.integers(0, 2, (800, 12)).astype(float)),
        ("one-hot", one_hot),
        ("lognormal", rng.lognormal(0.0, 1.5, (1200, 6))),
        ("lognormal and binary", mixed),
        ("one far row", np.vstack([normal, [[40.0, 0.0, 0.0, 0.0, 0.0]]])),
    ]


@pytest.mark.parametrize("name, rows", _exact_inputs(),
                         ids=[name for name, _ in _exact_inputs()])
def test_max_pairwise_distance_equals_full_scan(name, rows):
    assert max_pairwise_distance(rows) == max_pairwise_distance_oracle(rows)


@pytest.mark.parametrize("seed", range(6))
def test_max_pairwise_distance_offset_line_equals_full_scan(seed):
    # On a line far from the origin, the rounding of sq_i + sq_j - 2 x_i.x_j
    # swamps the gaps between the largest distances.
    rng = np.random.default_rng(seed)
    for offset in (1e4, 1e6):
        rows = rng.normal(size=(900, 1)) + offset
        assert max_pairwise_distance(rows) == max_pairwise_distance_oracle(rows)


def test_max_pairwise_distance_identical_rows_is_zero():
    rows = np.tile([1.5, -2.25, 3.0, 0.5], (300, 1))
    assert max_pairwise_distance(rows) == max_pairwise_distance_oracle(rows) == 0.0


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 2000, 2001])
@pytest.mark.parametrize("d", [1, 7])
def test_max_pairwise_distance_sizes_equal_full_scan(n, d):
    rng = np.random.default_rng(n * 10 + d)
    for rows in (rng.normal(size=(n, d)), rng.lognormal(0.0, 1.0, (n, d))):
        assert max_pairwise_distance(rows) == max_pairwise_distance_oracle(rows)
        # From 63 rows on these inputs take the pruned path; one or two
        # rows always take the full scan.
        sample = rows if n <= 2000 else rows[
            np.random.default_rng(0).choice(n, size=2000, replace=False)]
        pruned = _candidate_pairs(sample, np.einsum("ij,ij->i", sample, sample))
        assert (pruned is None) == (n <= 2)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_max_pairwise_distance_above_guard_equals_full_scan(seed):
    rng = np.random.default_rng(100 + seed)
    rows = np.hstack([rng.lognormal(0.0, 1.0, (2600, 6)),
                      rng.normal(size=(2600, 10)),
                      rng.integers(0, 2, (2600, 6)).astype(float)])
    for sample_seed in (seed, seed + 1000):
        assert (max_pairwise_distance(rows, seed=sample_seed)
                == max_pairwise_distance_oracle(rows, seed=sample_seed))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), d=st.integers(1, 6),
       kind=st.sampled_from(["normal", "lognormal", "binary", "sphere"]),
       offset=st.sampled_from([0.0, 1e3, 1e6]), seed=st.integers(0, 2**32 - 1))
def test_max_pairwise_distance_random_inputs_equal_full_scan(n, d, kind,
                                                             offset, seed):
    rng = np.random.default_rng(seed)
    rows = {"normal": lambda: rng.normal(size=(n, d)),
            "lognormal": lambda: rng.lognormal(0.0, 2.0, (n, d)),
            "binary": lambda: rng.integers(0, 2, (n, d)).astype(float),
            "sphere": lambda: _unit_rows(rng, n, d)}[kind]() + offset
    assert max_pairwise_distance(rows) == max_pairwise_distance_oracle(rows)


def test_max_pairwise_distance_rejects_other_shapes():
    for bad in (np.arange(5.0), np.ones((3, 2, 2)), np.float64(1.0)):
        with pytest.raises(DimensionMismatch):
            max_pairwise_distance(bad)


def test_max_pairwise_distance_rejects_bad_rows():
    rows = np.random.default_rng(2).normal(size=(300, 3))
    for bad in (np.nan, np.inf, -np.inf):
        broken = rows.copy()
        broken[250, 1] = bad
        with pytest.raises(NonFiniteInput):
            max_pairwise_distance(broken)
    with pytest.raises(EmptyInput):
        max_pairwise_distance(np.empty((0, 3)))


def test_max_pairwise_distance_guard_subsample():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(3000, 2))
    a = max_pairwise_distance(rows, seed=7)
    b = max_pairwise_distance(rows, seed=7)
    assert a == b
    exact = max_pairwise_distance_oracle(rows, guard=3000)
    assert a <= exact + 1e-12


def test_resolve_radius():
    rows = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert resolve_radius(SamplerConfig(), rows) == 0.25  # 5% of 5
    assert resolve_radius(SamplerConfig(r_p=0.7), rows) == 0.7
    assert resolve_radius(SamplerConfig(), rows, max_distance=8.0) == 0.4


def test_resolve_radius_rejects_one_point():
    # A ball of radius 0 cannot hold both labels: synthesize would raise
    # DegenerateSample after the ball, resolve_radius raises it first.
    with pytest.raises(DegenerateSample):
        resolve_radius(SamplerConfig(), np.ones((5, 3)))


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(k=0)
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            SamplerConfig(r_p=bad)
    with pytest.raises(ValueError):
        SamplerConfig(n_p=1)
