"""Tests for evaluation metrics and radius sweeps."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvas import (
    ClassMoments,
    Divergence,
    EvalConfig,
    EvalReport,
    EvalRow,
    SamplerConfig,
    Surrogate,
    TrainConfig,
    generate_synthetic,
    local_fidelity,
    sensitivity,
    solve_cvas,
    sweep,
    train_mlp,
    validity_metrics,
)
from cvas import evalharness, recourse, sampler
from cvas.errors import (
    DegenerateSample,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    IdenticalMeans,
    NegativeRadius,
    NoActionableRecourse,
    NonFiniteInput,
)
from cvas.recourse import RecourseResult

from helpers import linear_mlp


def halfspace(w, b):
    return Surrogate(w=np.asarray(w, dtype=float), b=float(b), kappa=1.0,
                     divergence=Divergence(kind="nominal"))


# ---------------------------------------------------------------- fidelity


def test_fidelity_self_agreement_is_exactly_one():
    sur = halfspace([1.0, -2.0], 0.3)
    assert local_fidelity(sur, sur, [0.5, 0.5], 1.0, n=500, seed=0) == 1.0


def test_fidelity_negated_surrogate_is_zero():
    # Flipping both w and b complements every label off the boundary, and
    # the boundary has measure zero under ball sampling.
    sur = halfspace([1.0, -2.0], 0.3)
    neg = halfspace([-1.0, 2.0], -0.3)
    value = local_fidelity(sur, neg, [0.5, 0.5], 1.0, n=1000, seed=0)
    assert value <= 1.0 / 1000


def test_fidelity_rotated_quarter_turn_is_half():
    model = halfspace([1.0, 0.0], 0.0)
    rotated = halfspace([0.0, 1.0], 0.0)
    value = local_fidelity(model, rotated, [0.0, 0.0], 1.0, n=4000, seed=1)
    assert value == pytest.approx(0.5, abs=0.05)


def test_fidelity_rejects_nonpositive_radius():
    sur = halfspace([1.0], 0.0)
    for r in (0.0, -1.0):
        with pytest.raises(ValueError):
            local_fidelity(sur, sur, [0.0], r)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(-5, 0))
def test_fidelity_rejects_empty_sample(n):
    # n < 1 points would average nothing: NaN and a RuntimeWarning
    sur = halfspace([1.0, 0.0], 0.0)
    with pytest.raises(ValueError, match="n must be"):
        local_fidelity(sur, sur, [0.0, 0.0], 1.0, n=n)
    with pytest.raises(ValueError, match="fid_n"):
        EvalConfig(fid_n=n)


def test_fidelity_deterministic_per_seed():
    model = halfspace([1.0, 1.0], 0.1)
    sur = halfspace([1.0, 0.5], 0.0)
    a = local_fidelity(model, sur, [0.2, -0.1], 2.0, n=800, seed=7)
    b = local_fidelity(model, sur, [0.2, -0.1], 2.0, n=800, seed=7)
    assert a == b


# -------------------------------------------------------------- sensitivity


@pytest.fixture(scope="module")
def linear_pipeline():
    rng = np.random.default_rng(11)
    data = rng.uniform(-2.0, 2.0, size=(400, 2))
    model = linear_mlp([4.0, 0.0], 0.0)
    config = (SamplerConfig(n_p=500, seed=3), Divergence(kind="nominal"))
    return config, model, data


def test_sensitivity_single_neighbor_nonnegative(linear_pipeline):
    # Named when the neighbour count was a parameter; sensitivity() now
    # always perturbs the query 10 times.
    config, model, data = linear_pipeline
    value = sensitivity(config, model, data, [-0.8, 0.3], seed=2)
    assert value >= 0.0
    assert math.isfinite(value)


def test_sensitivity_linear_model_is_small(linear_pipeline):
    # A linear boundary gives the same normalized slope from any nearby
    # query; measured ~5e-15 here, asserted against the coarse 0.5 bound.
    config, model, data = linear_pipeline
    value = sensitivity(config, model, data, [-0.8, 0.3], seed=2)
    assert value < 0.5


def _count_pair_scans(monkeypatch):
    """Calls of max_pairwise_distance, through either of its bindings."""
    calls = []
    real = sampler.max_pairwise_distance

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sampler, "max_pairwise_distance", counted)
    monkeypatch.setattr(evalharness, "max_pairwise_distance", counted)
    return calls


def test_sensitivity_scans_the_pairs_once(linear_pipeline, monkeypatch):
    # The base fit and the neighbors share one ball radius, resolved
    # once, as every fit resolved it alone before.
    (sampler_config, divergence), model, data = linear_pipeline
    r_p = 0.05 * sampler.max_pairwise_distance(data, seed=sampler_config.seed)
    calls = _count_pair_scans(monkeypatch)
    value = sensitivity((sampler_config, divergence), model, data, [-0.8, 0.3],
                        seed=2)
    assert len(calls) == 1
    given = sensitivity((dataclasses.replace(sampler_config, r_p=r_p), divergence),
                        model, data, [-0.8, 0.3], seed=2)
    assert len(calls) == 1
    assert value == given


def test_sensitivity_propagates_base_pipeline_failure(linear_pipeline):
    _, model, data = linear_pipeline
    bad = (SamplerConfig(n_p=2, seed=3), Divergence(kind="nominal"))
    with pytest.raises(DegenerateSample):
        sensitivity(bad, model, data, [-0.8, 0.3])


def test_neighbor_moments_store_failures_without_traceback(linear_pipeline):
    # n_p = 2 leaves a class of the ball with fewer than two points.
    (_, _), model, data = linear_pipeline
    failing = SamplerConfig(n_p=2, seed=3)
    entries = evalharness._neighbor_moments(model, data, np.array([-0.8, 0.3]),
                                            failing, 2)
    assert len(entries) == evalharness._SENS_NEIGHBORS
    for entry in entries:
        assert isinstance(entry, DegenerateSample)
        assert entry.__traceback__ is None


def test_max_slope_gap_skips_failed_neighbors():
    def moments(mean):
        return ClassMoments(mean=mean, covariance=np.eye(2), count=10)

    nominal = Divergence(kind="nominal")
    pos = moments([1.0, 0.0])
    base_w = solve_cvas(pos, moments([-1.0, 0.0]), nominal).w
    good = [(pos, moments([-1.0, y])) for y in (0.5, 2.0, -1.0)]
    gaps = [float(np.linalg.norm(base_w - solve_cvas(*m, nominal).w)) for m in good]
    assert len(set(gaps)) == 3
    stored, identical = DegenerateSample("stored"), (pos, pos)
    mixed = [stored, good[0], identical, good[1], stored, good[2], identical]
    assert evalharness._max_slope_gap(base_w, mixed, nominal) == max(gaps)
    # With no neighbor that solves, the last failure in order is raised.
    with pytest.raises(IdenticalMeans):
        evalharness._max_slope_gap(base_w, [stored, identical], nominal)
    with pytest.raises(DegenerateSample) as raised:
        evalharness._max_slope_gap(base_w, [identical, stored], nominal)
    assert raised.value is stored
    with pytest.raises(EmptyInput):
        evalharness._max_slope_gap(base_w, [], nominal)


# ---------------------------------------------------------------- validity


def _recourse(point, cost):
    return RecourseResult(x_r=np.asarray(point, dtype=float), cost=cost,
                          surrogate_valid=True)


def test_validity_all_favorable_everywhere():
    lenient = halfspace([1.0, 0.0], -100.0)
    recourses = [_recourse([1.0, 0.0], 2.0), _recourse([3.0, 1.0], 4.0)]
    current, future, mean_cost = validity_metrics(recourses, lenient,
                                                  [lenient, lenient])
    assert current == 1.0
    assert future == 1.0
    assert mean_cost == pytest.approx(3.0)


def test_validity_mixed_future_pattern():
    # Two recourses, two future models: one model accepts both, the other
    # accepts only the first, so favorable fractions average to 0.75.
    lenient = halfspace([1.0, 0.0], -100.0)
    strict = halfspace([1.0, 0.0], 0.0)
    recourses = [_recourse([1.0, 0.0], 1.0), _recourse([-1.0, 0.0], 3.0)]
    current, future, mean_cost = validity_metrics(recourses, lenient,
                                                  [lenient, strict])
    assert current == 1.0
    assert future == 0.75
    assert mean_cost == pytest.approx(2.0)


def test_validity_empty_inputs():
    model = halfspace([1.0], 0.0)
    with pytest.raises(EmptyInput):
        validity_metrics([], model, [model])
    with pytest.raises(EmptyInput):
        validity_metrics([_recourse([1.0], 0.0)], model, [])


# ------------------------------------------------------------------ report


def _row(config_id, **overrides):
    base = dict(config_id=config_id, divergence="fisher-rao", rho_pos=0.0,
                rho_neg=1.0, mode="projection", mean_cost=0.125,
                current_validity=1.0, future_validity=0.875,
                local_fidelity=0.9375, sensitivity=0.0078125, n_skipped=0)
    base.update(overrides)
    return EvalRow(**base)


def test_report_rejects_duplicate_config_ids():
    with pytest.raises(ValueError):
        EvalReport(rows=(_row("a"), _row("a")))


# The report columns as the README documents them.
README_COLUMNS = ("config_id,divergence,rho_pos,rho_neg,mode,mean_cost,"
                  "current_validity,future_validity,local_fidelity,sensitivity,"
                  "n_skipped")


def _numpy_row(config_id):
    # The metrics as numpy computes them, before any float() or int().
    return _row(config_id, rho_pos=np.float64(0.0), rho_neg=np.float64(2.5),
                mean_cost=np.float64(1.0) / 3.0, current_validity=np.float64(0.5),
                future_validity=np.float64(0.1) + 0.2,
                local_fidelity=np.float64(0.96875),
                sensitivity=np.float64(2.0) ** -30, n_skipped=np.int64(3))


def test_report_csv_round_trip(tmp_path):
    rows = (_row("a", mean_cost=1.0 / 3.0, sensitivity=0.1 + 0.2),
            _row("b", rho_neg=10.0, n_skipped=3), _numpy_row("c"))
    path = tmp_path / "report.csv"
    EvalReport(rows=rows).to_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == README_COLUMNS
    with open(path, newline="") as handle:
        records = list(csv.DictReader(handle))
    assert len(records) == 3
    # str() serialization preserves every float bit for bit.
    for row, record in zip(rows, records):
        for field in dataclasses.fields(EvalRow):
            want = getattr(row, field.name)
            got = record[field.name]
            if isinstance(want, float):
                assert float(got) == want
            elif isinstance(want, (int, np.integer)):
                assert int(got) == want
            else:
                assert got == want


def test_report_json_round_trip(tmp_path):
    rows = (_row("a"), _row("b"), _numpy_row("c"))
    path = tmp_path / "report.json"
    EvalReport(rows=rows).to_json(path)
    records = json.loads(path.read_text())
    assert [list(r) for r in records] == [README_COLUMNS.split(",")] * 3
    assert [r["config_id"] for r in records] == ["a", "b", "c"]
    assert records[0]["future_validity"] == rows[0].future_validity
    assert records[1]["n_skipped"] == 0
    # numpy metrics come back as the same numbers, bit for bit
    for field in dataclasses.fields(EvalRow):
        assert records[2][field.name] == getattr(rows[2], field.name)
    assert records[2]["n_skipped"] == 3


# ------------------------------------------------------------------- sweep


@pytest.fixture(scope="module")
def sweep_fixture():
    present = generate_synthetic(400, seed=0)
    shifted = generate_synthetic(400, noise_std=1.0, seed=1)
    model = train_mlp(present[0], present[1], TrainConfig(epochs=300, seed=0))
    unfavorable = present[0][model.label(present[0]) == -1]
    return present, shifted, unfavorable


@pytest.fixture(scope="module")
def radius_report(sweep_fixture):
    present, shifted, unfavorable = sweep_fixture
    config = EvalConfig(seed=7, sampler=SamplerConfig(n_p=500),
                        train=TrainConfig(epochs=300, seed=0), n_models=5,
                        fid_n=500)
    return sweep(present, shifted, unfavorable[:8], "fisher-rao",
                 [0.0, 10.0], "projection", config)


def test_sweep_rows_and_rates(radius_report):
    rows = radius_report.rows
    assert [r.config_id for r in rows] == [
        "fisher-rao_rpos0_rneg0_projection",
        "fisher-rao_rpos0_rneg10_projection",
    ]
    for row in rows:
        for rate in (row.current_validity, row.future_validity,
                     row.local_fidelity):
            assert 0.0 <= rate <= 1.0
        assert row.mean_cost >= 0.0
        assert row.sensitivity >= 0.0
        assert row.n_skipped == 0


def test_sweep_tradeoff_direction(radius_report):
    plain, robust = radius_report.rows
    assert robust.mean_cost >= plain.mean_cost
    assert robust.future_validity >= plain.future_validity


def test_sweep_robustification_raises_current_validity(radius_report):
    # The L1 projection lands exactly on the surrogate plane. At rho = 0
    # that plane tracks the model's own boundary, so current-model labels
    # of projected points are near chance; a positive negative-class
    # radius pushes the plane into the favorable region and current
    # validity climbs (measured 0.5 -> 1.0 on this fixture).
    plain, robust = radius_report.rows
    assert plain.current_validity <= 0.75
    assert robust.current_validity >= 0.8
    assert robust.local_fidelity >= 0.8


def test_sweep_bit_reproducible(sweep_fixture, tmp_path):
    # The second sweep reuses a current model trained with config.train,
    # which must be the model sweep() would have trained itself.
    present, shifted, unfavorable = sweep_fixture
    config = EvalConfig(seed=5, sampler=SamplerConfig(n_p=200),
                        train=TrainConfig(epochs=150, seed=0), n_models=3,
                        fid_n=400)
    trained = train_mlp(present[0], present[1], config.train)
    paths = []
    for tag, model in (("one", None), ("two", trained)):
        report = sweep(present, shifted, unfavorable[:2], "fisher-rao",
                       [0.0, 1.0], "projection", config, model=model)
        path = tmp_path / f"{tag}.csv"
        report.to_csv(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


SENS_CONFIG = EvalConfig(seed=3, sampler=SamplerConfig(n_p=200),
                         train=TrainConfig(epochs=150, seed=0), n_models=2,
                         fid_n=100)


@pytest.fixture(scope="module")
def counted_sweeps(sweep_fixture):
    """grid length -> (report, calls of recourse.synthesize, the sampler
    binding of the one moments step) for a 4-instance sweep over 3 radii
    and over 1."""
    present, shifted, unfavorable = sweep_fixture
    results = {}
    for grid in ([0.0, 1.0, 10.0], [1.0]):
        calls = []
        real = recourse.synthesize

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(recourse, "synthesize", counted)
            report = sweep(present, shifted, unfavorable[:4], "fisher-rao",
                           grid, "projection", SENS_CONFIG)
        results[len(grid)] = (report, len(calls))
    return results


def test_sweep_samples_each_neighbor_once(counted_sweeps):
    # One boundary sample per instance and one per sensitivity neighbor,
    # however many radii the grid has.
    for report, calls in counted_sweeps.values():
        assert all(row.n_skipped == 0 for row in report.rows)
        assert calls == 4 * (1 + evalharness._SENS_NEIGHBORS)


def test_sweep_scans_the_pairs_once(sweep_fixture, monkeypatch):
    # One scan gives both the ball radius and the fidelity radius.
    present, shifted, unfavorable = sweep_fixture
    calls = _count_pair_scans(monkeypatch)
    config = EvalConfig(seed=7, sampler=SamplerConfig(n_p=200),
                        train=TrainConfig(epochs=20, seed=0), n_models=1,
                        fid_n=50)
    sweep(present, shifted, unfavorable[:2], "bures", [0.0, 1.0], "projection",
          config)
    assert len(calls) == 1


def test_sweep_sensitivity_matches_public_sensitivity(sweep_fixture,
                                                      counted_sweeps):
    present, _, unfavorable = sweep_fixture
    config = SENS_CONFIG
    model = train_mlp(present[0], present[1], config.train)
    seeds = evalharness._derived_seeds(config.seed, 1 + 3 * 4)
    r_p = 0.05 * evalharness.max_pairwise_distance(present[0],
                                                   seed=config.seed)
    report, _ = counted_sweeps[3]
    for row in report.rows:
        divergence = Divergence(kind="fisher-rao", rho_neg=row.rho_neg)
        values = [
            sensitivity((dataclasses.replace(config.sampler, seed=seeds[1 + 3 * i],
                                             r_p=r_p), divergence),
                        model, present[0], x0, seed=seeds[1 + 3 * i + 2])
            for i, x0 in enumerate(unfavorable[:4])
        ]
        assert row.sensitivity == float(np.mean(values))


def test_sweep_fidelity_matches_public_local_fidelity(sweep_fixture,
                                                     counted_sweeps):
    # sweep labels each instance's fidelity ball once and scores every
    # radius's surrogate on it; the values are local_fidelity's.
    present, _, unfavorable = sweep_fixture
    config = SENS_CONFIG
    model = train_mlp(present[0], present[1], config.train)
    seeds = evalharness._derived_seeds(config.seed, 1 + 3 * 4)
    max_distance = evalharness.max_pairwise_distance(present[0], seed=config.seed)
    r_p, r_fid = 0.05 * max_distance, evalharness._FID_RADIUS_SHARE * max_distance
    report, _ = counted_sweeps[3]
    for row in report.rows:
        divergence = Divergence(kind="fisher-rao", rho_neg=row.rho_neg)
        values = []
        for i, x0 in enumerate(unfavorable[:4]):
            sampler_config = dataclasses.replace(config.sampler,
                                                 seed=seeds[1 + 3 * i], r_p=r_p)
            surrogate = recourse.fit_surrogate(model, x0, present[0],
                                               sampler_config, divergence)
            values.append(local_fidelity(model, surrogate, x0, r_fid,
                                         n=config.fid_n, seed=seeds[2 + 3 * i]))
        assert row.local_fidelity == float(np.mean(values))


def test_sweep_draws_each_fidelity_ball_once(sweep_fixture, monkeypatch):
    present, shifted, unfavorable = sweep_fixture
    draws = []
    real = evalharness.sample_ball

    def counted(*args, **kwargs):
        draws.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(evalharness, "sample_ball", counted)
    config = EvalConfig(seed=7, sampler=SamplerConfig(n_p=200),
                        train=TrainConfig(epochs=20, seed=0), n_models=1,
                        fid_n=50)
    report = sweep(present, shifted, unfavorable[:2], "bures", [0.0, 1.0, 2.0],
                   "projection", config)
    assert all(row.n_skipped == 0 for row in report.rows)
    assert len(draws) == 2


def test_sweep_row_depends_only_on_its_radius(sweep_fixture, counted_sweeps,
                                             tmp_path):
    # The 3-radius sweep writes, for each radius, the CSV row of a sweep
    # over that radius alone.
    present, shifted, unfavorable = sweep_fixture
    model = train_mlp(present[0], present[1], SENS_CONFIG.train)
    report, _ = counted_sweeps[3]
    report.to_csv(tmp_path / "grid.csv")
    header, *rows = (tmp_path / "grid.csv").read_text().splitlines()
    for rho, row in zip([0.0, 1.0, 10.0], rows):
        alone = sweep(present, shifted, unfavorable[:4], "fisher-rao", [rho],
                      "projection", SENS_CONFIG, model=model)
        alone.to_csv(tmp_path / "alone.csv")
        assert (tmp_path / "alone.csv").read_text().splitlines() == [header, row]


def test_actionable_sweep_keeps_immutable_columns(sweep_fixture, monkeypatch):
    moves = []
    real = evalharness._recourse_against

    def recorded(model, x0, surrogate, mode, actions):
        result = real(model, x0, surrogate, mode, actions)
        moves.append(result.x_r - x0)
        return result

    monkeypatch.setattr(evalharness, "_recourse_against", recorded)
    present, shifted, unfavorable = sweep_fixture
    config = dataclasses.replace(SENS_CONFIG, action_kinds=("immutable", "free"))
    report = sweep(present, shifted, unfavorable[:4], "fisher-rao", [0.0, 1.0],
                   "actionable", config)
    assert [row.config_id for row in report.rows] == [
        "fisher-rao_rpos0_rneg0_actionable", "fisher-rao_rpos0_rneg1_actionable"]
    for row in report.rows:
        assert row.mode == "actionable"
        assert all(math.isfinite(value) for value in dataclasses.astuple(row)
                   if not isinstance(value, str))
    assert len(moves) == 8
    assert all(move[0] == 0.0 for move in moves)
    assert any(move[1] != 0.0 for move in moves)


# The ids are the ones pytest generated when the table had its first
# four columns only, so each case keeps its name.
@pytest.mark.parametrize("kind, grid, instances, error, mode, changes", [
    pytest.param("walk", [0.0], None, ValueError, "projection", {},
                 id="walk-grid0-None-ValueError"),
    pytest.param("nominal", [0.0, 1.0], None, ValueError, "projection", {},
                 id="nominal-grid1-None-ValueError"),
    pytest.param("fisher-rao", [1.0, -1.0], None, NegativeRadius, "projection", {},
                 id="fisher-rao-grid2-None-NegativeRadius"),
    pytest.param("fisher-rao", [math.nan], None, DomainError, "projection", {},
                 id="fisher-rao-grid3-None-DomainError"),
    pytest.param("fisher-rao", [1.0], np.zeros((2, 3)), DimensionMismatch,
                 "projection", {}, id="fisher-rao-grid4-instances4-DimensionMismatch"),
    pytest.param("fisher-rao", [1.0], np.zeros(5), DimensionMismatch, "projection", {},
                 id="fisher-rao-grid5-instances5-DimensionMismatch"),
    pytest.param("fisher-rao", [1.0], None, DimensionMismatch, "actionable",
                 {"action_kinds": ("free",)}, id="action-kinds-of-other-width"),
    pytest.param("fisher-rao", [1.0], None, ValueError, "projection",
                 {"n_models": 0}, id="no-future-models"),
    pytest.param("fisher-rao", [1.0], [[0.5, 0.5], [math.nan, 0.5], [0.1, 0.2]],
                 NonFiniteInput, "projection", {}, id="nan-instance-row"),
    pytest.param("fisher-rao", [1.0], [], DimensionMismatch, "projection", {},
                 id="instances-empty-list"),
    pytest.param("fisher-rao", [1.0, 1.0], None, ValueError, "projection", {},
                 id="repeated-radius"),
    pytest.param("fisher-rao", [1.0, 1.0000001], None, ValueError, "projection", {},
                 id="radii-with-one-report-id"),
    pytest.param("fisher-rao", [0.0, 1000.0], None, DomainError, "projection", {},
                 id="fisher-rao-radius-above-the-cap"),
    pytest.param("fisher-rao", [1.0], None, DomainError, "projection",
                 {"rho_pos": 701.0}, id="fisher-rao-rho-pos-above-the-cap"),
    pytest.param("logdet", [1.0, math.inf], None, DomainError, "projection", {},
                 id="infinite-radius"),
])
def test_sweep_checks_inputs_before_training(sweep_fixture, monkeypatch, kind,
                                             grid, instances, error, mode, changes):
    def no_training(*args, **kwargs):
        raise AssertionError("sweep trained a model before checking its inputs")

    def no_ensemble(shifted_features, shifted_labels, n_models, fraction, config):
        raise AssertionError("sweep started its ensemble before checking its inputs")

    monkeypatch.setattr(evalharness, "train_mlp", no_training)
    monkeypatch.setattr(evalharness, "_future_models", no_ensemble)
    present, shifted, unfavorable = sweep_fixture
    if instances is None:
        instances = unfavorable[:2]
    with pytest.raises(error):
        sweep(present, shifted, instances, kind, grid, mode,
              dataclasses.replace(SENS_CONFIG, **changes))


def test_sweep_rejects_model_of_other_width(sweep_fixture):
    present, shifted, unfavorable = sweep_fixture
    wide = train_mlp(np.hstack([present[0], present[0]]), present[1],
                     TrainConfig(epochs=1, seed=0))
    with pytest.raises(DimensionMismatch):
        sweep(present, shifted, unfavorable[:2], "nominal", [0.0],
              "projection", EvalConfig(), model=wide)


def test_sweep_counts_skipped_instances(sweep_fixture):
    # n_p = 5 makes degenerate ball splits likely; failed instances must
    # be counted, not abort the sweep.
    present, shifted, unfavorable = sweep_fixture
    config = EvalConfig(seed=5, sampler=SamplerConfig(n_p=5),
                        train=TrainConfig(epochs=150, seed=0), n_models=2,
                        fid_n=100)
    report = sweep(present, shifted, unfavorable[:6], "nominal", [0.0],
                   "projection", config)
    row = report.rows[0]
    assert 1 <= row.n_skipped < 6
    assert 0.0 <= row.current_validity <= 1.0


def test_sweep_skips_an_instance_at_one_radius(sweep_fixture, counted_sweeps,
                                               monkeypatch, tmp_path):
    # The second instance's search fails at rho_neg = 1 only, after its
    # boundary moments succeeded: that row counts one skip, and the other
    # rows are those of the sweep where nothing fails.
    present, shifted, unfavorable = sweep_fixture
    real = evalharness._recourse_against
    failed = []

    def failing(model, x0, surrogate, mode, actions):
        if surrogate.divergence.rho_neg == 1.0 and np.array_equal(x0, unfavorable[1]):
            failed.append(x0)
            raise NoActionableRecourse("no recourse at this radius")
        return real(model, x0, surrogate, mode, actions)

    monkeypatch.setattr(evalharness, "_recourse_against", failing)
    report = sweep(present, shifted, unfavorable[:4], "fisher-rao",
                   [0.0, 1.0, 10.0], "projection", SENS_CONFIG)
    assert len(failed) == 1
    assert [row.n_skipped for row in report.rows] == [0, 1, 0]
    lines = {}
    for name, each in (("patched", report), ("plain", counted_sweeps[3][0])):
        each.to_csv(tmp_path / f"{name}.csv")
        lines[name] = (tmp_path / f"{name}.csv").read_text().splitlines()
    assert lines["patched"][0:2] == lines["plain"][0:2]
    assert lines["patched"][3] == lines["plain"][3]
    assert lines["patched"][2] != lines["plain"][2]


def test_sweep_row_without_sensitivity_reports_nan(sweep_fixture, tmp_path,
                                                    monkeypatch):
    # When no instance has a sensitivity the metric is undefined; 0.0
    # would read as a perfectly stable slope.
    def no_neighbor_solves(*args):
        raise DegenerateSample("no sensitivity neighbor solved")

    monkeypatch.setattr(evalharness, "_max_slope_gap", no_neighbor_solves)
    present, shifted, unfavorable = sweep_fixture
    report = sweep(present, shifted, unfavorable[:2], "fisher-rao", [0.0],
                   "projection", SENS_CONFIG)
    (row,) = report.rows
    assert math.isnan(row.sensitivity)
    assert row.n_skipped == 0
    report.to_csv(tmp_path / "report.csv")
    with open(tmp_path / "report.csv", newline="") as handle:
        (record,) = csv.DictReader(handle)
    assert record["sensitivity"] == "nan"
    report.to_json(tmp_path / "report.json")
    assert '"sensitivity": NaN' in (tmp_path / "report.json").read_text()


def test_sweep_all_instances_failing_raises(sweep_fixture):
    present, shifted, unfavorable = sweep_fixture
    config = EvalConfig(seed=5, sampler=SamplerConfig(n_p=2),
                        train=TrainConfig(epochs=150, seed=0), n_models=2)
    with pytest.raises(EmptyInput):
        sweep(present, shifted, unfavorable[:3], "nominal", [0.0],
              "projection", config)


def test_sweep_rejects_empty_inputs(sweep_fixture):
    present, shifted, unfavorable = sweep_fixture
    config = EvalConfig(seed=5, train=TrainConfig(epochs=150, seed=0))
    with pytest.raises(EmptyInput):
        sweep(present, shifted, np.empty((0, 2)), "nominal", [0.0],
              "projection", config)
    with pytest.raises(EmptyInput):
        sweep(present, shifted, unfavorable[:2], "nominal", [],
              "projection", config)


def test_sweep_rejects_unknown_mode(sweep_fixture):
    present, shifted, unfavorable = sweep_fixture
    with pytest.raises(ValueError):
        sweep(present, shifted, unfavorable[:2], "nominal", [0.0], "walk",
              EvalConfig())
