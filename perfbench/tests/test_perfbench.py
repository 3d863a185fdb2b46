"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvas
import run
import spans
import stats
import workloads
from cvas import recourse, sampler

ROOT = Path(__file__).resolve().parents[2]


def _small_problem():
    features, labels = cvas.generate_synthetic(300, seed=3)
    model = cvas.train_mlp(features, labels, cvas.TrainConfig(epochs=40, seed=3))
    x0 = features[model.label(features) == -1][0]
    return model, features, x0


def _calls(model, features, x0):
    config = cvas.SamplerConfig(n_p=200, seed=5)
    divergence = cvas.Divergence(kind="bures", rho_neg=0.5)
    sample = sampler.synthesize(x0, features, model, config)
    result = recourse.generate_recourse(model, x0, features, config, divergence,
                                        "actionable")
    return sample, result


def test_wrapped_calls_return_identical_results():
    model, features, x0 = _small_problem()
    plain_sample, plain_result = _calls(model, features, x0)
    originals = {name: getattr(recourse, name) for name in vars(recourse)}
    tracer = spans.Tracer()
    with tracer.installed():
        assert recourse.synthesize is not originals["synthesize"]
        traced_sample, traced_result = _calls(model, features, x0)
    assert np.array_equal(plain_sample.positives, traced_sample.positives)
    assert np.array_equal(plain_sample.negatives, traced_sample.negatives)
    assert np.array_equal(plain_result.x_r, traced_result.x_r)
    assert plain_result.cost == traced_result.cost
    assert plain_result.blackbox_valid == traced_result.blackbox_valid
    # Uninstalling restores every binding it replaced.
    assert all(getattr(recourse, n) is f for n, f in originals.items())
    table = spans.summarize(tracer)
    assert table["sampler.synthesize"]["calls"] == 2
    assert table["recourse.generate_recourse"]["calls"] == 1
    assert table["blackbox.predict_proba"]["calls"] > 0
    assert not tracer.missing


def test_wrapper_records_failures_and_reraises():
    tracer = spans.Tracer()

    def boom():
        raise cvas.ZeroSlope("flat")

    wrapped = tracer.wrap("recourse.fit_surrogate", boom)
    with pytest.raises(cvas.ZeroSlope):
        wrapped()
    row = spans.summarize(tracer)["recourse.fit_surrogate"]
    assert row["calls"] == 1 and row["failed"] == {"ZeroSlope": 1}


def test_missing_wrap_point_is_reported_not_zero(monkeypatch):
    points = spans.WRAP_POINTS + (
        ("sampler.synthesize", "cvas.sampler", "renamed_synthesize"),
        ("moments.estimate_moments", "cvas.moments", "gone_estimate"),
    )
    points = tuple(p for p in points
                   if p != ("moments.estimate_moments", "cvas.moments",
                            "estimate_moments"))
    monkeypatch.setattr(spans, "WRAP_POINTS", points)
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["cvas.sampler.renamed_synthesize",
                              "cvas.moments.gone_estimate"]
    # synthesize still resolves through its first point; estimate_moments
    # has none left, so its metrics are absent rather than zero.
    assert tracer.missing_layers() == ["moments.estimate_moments"]
    metrics, _ = spans.layer_metrics(tracer, 0.0)
    assert "moments.estimate_moments.calls" not in metrics
    assert "sampler.synthesize.calls" in metrics


@pytest.mark.parametrize("n", list(range(1, 400)) + [999, 1000, 1001, 5000])
def test_tail_rule_keeps_ten_samples_beyond(n):
    values = list(np.random.default_rng(n).permutation(n).astype(float))
    p = stats.tail_percentile(n)
    if n < 2 * stats.MIN_BEYOND:
        assert p is None
        return
    cut = stats.percentile(values, p)
    assert sum(v > cut for v in values) >= stats.MIN_BEYOND
    higher = [q for q in stats.TAIL_LADDER if q > p]
    for q in higher:
        assert sum(v > stats.percentile(values, q) for v in values) < stats.MIN_BEYOND


def test_tail_rule_known_points():
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(199) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(19) is None


def test_self_time_on_synthetic_span_tree():
    tracer = spans.Tracer()
    a, b, c = (tracer._name_index(n) for n in ("a", "b", "c"))
    tracer.spans.extend([
        [a, 0.0, 10.0, -1, None, None],   # 0: root
        [b, 1.0, 3.0, 0, None, None],     # 1: child
        [b, 2.0, 4.0, 0, None, None],     # 2: overlaps span 1; union 1..4
        [c, 8.0, 12.0, 0, None, None],    # 3: runs past the root's end
        [c, 1.5, 2.5, 1, None, None],     # 4: grandchild, inside span 1
        [a, 5.0, 6.0, 0, None, None],     # 5: nested call of the root's name
    ])
    selfs = spans.self_times(tracer.spans)
    # Root: 10 s minus union of [1,4], [5,6] and [8,10] = 10 - 3 - 1 - 2.
    assert selfs[0] == pytest.approx(4.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(4.0)
    table = spans.summarize(tracer)
    assert table["a"]["calls"] == 2
    assert table["a"]["s"] == pytest.approx(10.0)     # outermost calls only
    assert table["a"]["self_s"] == pytest.approx(5.0)
    assert table["b"]["self_s"] == pytest.approx(3.0)
    assert sorted(spans.split(tracer, "a")) == [("a", 1.0, 0.1), ("b", 4.0, 0.4),
                                                ("c", 4.0, 0.4)]


def test_covered_length_merges_and_clips():
    assert spans.covered_length(0.0, 10.0, []) == 0.0
    assert spans.covered_length(0.0, 10.0, [(2, 5), (3, 4), (4, 7)]) == 5.0
    assert spans.covered_length(0.0, 10.0, [(-3, 1), (9, 20)]) == 2.0


def test_benchmark_json_lists_what_the_runner_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
            == spans.per_layer_metric_units())
    assert set(spans.FEEDS) == set(spans.layer_names())
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_ledger_counts_failures_by_class():
    ledger = workloads.Ledger()

    class Owner:
        @staticmethod
        def fit(fail):
            if fail:
                raise cvas.DegenerateSample("split 1/999")
            return "ok"

    original = Owner.__dict__["fit"]
    counter = spans.Tracer()
    with counter.watch(Owner, "fit", "fit"):
        assert Owner.fit(False) == "ok"
        with pytest.raises(cvas.DegenerateSample):
            Owner.fit(True)
    assert Owner.__dict__["fit"] is original  # restored
    ledger.count_calls(counter)
    assert ledger.total_attempted == 2
    assert dict(ledger.failed) == {"fit:DegenerateSample": 1}


def test_tabular_data_loads_with_expected_columns(tmp_path):
    rng = np.random.default_rng(0)
    columns, labels = workloads.tabular_rows(400, rng)
    workloads.write_tabular(tmp_path / "d.csv", columns, labels)
    workloads.write_tabular_spec(tmp_path / "spec.txt")
    dataset = cvas.cli.load_dataset(tmp_path / "d.csv", tmp_path / "spec.txt")
    assert dataset.features.shape == (400, 22)
    assert set(dataset.action_kinds) == {"free", "immutable", "non_decreasing"}
    assert 0.3 < np.mean(labels == 1) < 0.7
    assert math.isfinite(float(dataset.features.sum()))


def test_runner_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "radius-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode != 0
    assert "correct" not in done.stdout
