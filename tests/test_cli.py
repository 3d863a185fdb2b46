"""CLI and data-ingestion tests: feature specs, encoding, subcommands."""

import csv
import dataclasses
import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvas import (
    Divergence,
    SamplerConfig,
    cli,
    generate_synthetic,
    load_model,
    recourse,
    sampler,
)
from cvas._io import atomic_write_bytes
from cvas.cli import (
    _parse_instances,
    _parse_range,
    encode_csv,
    load_dataset,
    parse_feature_spec,
    run,
)
from cvas.errors import BadLabelValue, EmptySplit, SchemaMismatch


# The byte-order mark that spreadsheet tools write at the start of a
# UTF-8 file.
BOM = "\ufeff"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ------------------------------------------------------------ feature spec


def test_feature_spec_parses_comments_and_label_shorthand(tmp_path):
    path = write(tmp_path / "cols.txt",
                 "# schema\n\nage,continuous,non_decreasing\n"
                 "color,categorical,free\nvip,binary,immutable\nlabel,label\n")
    spec = parse_feature_spec(path)
    assert [c.name for c in spec.columns] == ["age", "color", "vip", "label"]
    assert spec.label_column.name == "label"
    assert [c.actionability for c in spec.feature_columns] == [
        "non_decreasing", "free", "immutable"]


@pytest.mark.parametrize("text", [
    "age,continuous,free\nage,binary,free\nlabel,label\n",   # duplicate name
    "age,continuous,free\n",                                  # no label
    "a,label\nb,label\n",                                     # two labels
    "age,numeric,free\nlabel,label\n",                        # unknown kind
    "age,continuous,someday\nlabel,label\n",                  # bad action
    "age\nlabel,label\n",                                     # malformed line
    "age,continuous,free,extra\nlabel,label\n",               # too many fields
    "label,label\n",                                          # no feature column
])
def test_feature_spec_rejects_bad_schemas(tmp_path, text):
    path = write(tmp_path / "cols.txt", text)
    with pytest.raises(SchemaMismatch):
        parse_feature_spec(path)


def test_feature_spec_with_a_byte_order_mark(tmp_path):
    # The mark used to become part of the first column's name.
    text = "x1,continuous,free\nlabel,label\n"
    assert (parse_feature_spec(write(tmp_path / "bom.txt", BOM + text))
            == parse_feature_spec(write(tmp_path / "cols.txt", text)))


# ---------------------------------------------------------------- encoding


@pytest.fixture()
def mixed_dataset(tmp_path):
    spec = write(tmp_path / "cols.txt",
                 "color,categorical,free\nage,continuous,non_decreasing\n"
                 "vip,binary,immutable\nlabel,label\n")
    rows = ["color,age,vip,label"]
    colors = ["red", "blue", "red", "blue", "red", "blue", "red", "blue",
              "red", "blue"]
    for i, color in enumerate(colors):
        rows.append(f"{color},{10 + 3 * i},{i % 2},{1 if i % 3 else 0}")
    data = write(tmp_path / "d.csv", "\n".join(rows) + "\n")
    return data, spec


def test_one_hot_encoding_and_metadata(mixed_dataset):
    data, spec = mixed_dataset
    ds = load_dataset(data, spec, seed=0)
    # Levels come from the training split, sorted lexicographically.
    assert ds.encoder.levels["color"] == ("blue", "red")
    assert ds.action_kinds == ("free", "free", "non_decreasing", "immutable")
    one_hot = ds.features[:, :2]
    assert set(map(tuple, one_hot)) == {(1.0, 0.0), (0.0, 1.0)}
    assert np.all(one_hot.sum(axis=1) == 1.0)


def test_zscore_statistics_come_from_training_split(mixed_dataset):
    data, spec = mixed_dataset
    ds = load_dataset(data, spec, seed=0)
    age = ds.features[ds.train_idx, 2]
    assert abs(age.mean()) <= 1e-8
    assert abs(age.std() - 1.0) <= 1e-6
    assert set(np.unique(ds.features[:, 3])) <= {0.0, 1.0}


def test_labels_zero_one_map_to_signs(mixed_dataset):
    data, spec = mixed_dataset
    ds = load_dataset(data, spec, seed=0)
    assert set(np.unique(ds.labels)) == {-1.0, 1.0}
    assert ds.labels[0] == -1.0
    assert ds.labels[1] == 1.0


def test_unseen_categorical_level_encodes_to_zeros(mixed_dataset, tmp_path):
    data, spec = mixed_dataset
    ds = load_dataset(data, spec, seed=0)
    other = write(tmp_path / "other.csv",
                  "color,age,vip,label\ngreen,25,1,1\nred,30,0,-1\n")
    features, labels = encode_csv(ds.encoder, other)
    assert np.all(features[0, :2] == 0.0)
    assert list(features[1, :2]) == [0.0, 1.0]
    assert list(labels) == [1.0, -1.0]


def test_constant_continuous_column_stays_zero(tmp_path):
    spec = write(tmp_path / "cols.txt", "a,continuous,free\nlabel,label\n")
    data = write(tmp_path / "d.csv",
                 "a,label\n" + "".join(f"7.5,{i % 2}\n" for i in range(10)))
    ds = load_dataset(data, spec, seed=1)
    assert np.all(ds.features[:, 0] == 0.0)


def test_binary_column_rejects_other_values(tmp_path):
    spec = write(tmp_path / "cols.txt", "v,binary,free\nlabel,label\n")
    data = write(tmp_path / "d.csv", "v,label\n0,1\n2,0\n1,1\n0,0\n1,1\n")
    with pytest.raises(SchemaMismatch):
        load_dataset(data, spec, seed=0)


def test_bad_label_values(tmp_path):
    spec = write(tmp_path / "cols.txt", "a,continuous,free\nlabel,label\n")
    good = write(tmp_path / "good.csv",
                 "a,label\n" + "".join(f"{i},{i % 2}\n" for i in range(10)))
    encoder = load_dataset(good, spec, seed=0).encoder
    columns = [[cell if i == 3 else "1" for i in range(10)] for cell in ("2", "yes")]
    # -1, 0 and 1 in one column mix the {-1,+1} and {0,1} encodings, and
    # would read 0 and -1 both as -1.
    columns.append([str(i % 3 - 1) for i in range(10)])
    for column in columns:
        data = write(tmp_path / "d.csv",
                     "a,label\n" + "".join(f"{i},{v}\n" for i, v in enumerate(column)))
        with pytest.raises(BadLabelValue):
            load_dataset(data, spec, seed=0)
        with pytest.raises(BadLabelValue):
            encode_csv(encoder, data)


@pytest.mark.parametrize("csv_text", [
    "a\n1\n2\n3\n4\n5\n",                        # missing label column
    "a,label,extra\n1,1,9\n2,0,9\n3,1,9\n",      # unknown column
    "a,label\n1\n2,0\n3,1\n",                    # ragged row
    "a,a,label\n1,2,1\n3,4,0\n",                 # duplicate header
    "",                                          # empty file
    "a,label\nfoo,1\n2,0\n3,1\n4,0\n5,1\n",      # non-numeric continuous
    "a,label\ninf,1\n2,0\n3,1\n4,0\n5,1\n",      # non-finite continuous
    "a,label\n1,1\n,,\n2,0\n3,1\n",              # empty cells, no blank line
])
def test_schema_mismatch_variants(tmp_path, csv_text):
    spec = write(tmp_path / "cols.txt", "a,continuous,free\nlabel,label\n")
    data = write(tmp_path / "d.csv", csv_text)
    with pytest.raises(SchemaMismatch):
        load_dataset(data, spec, seed=0)


def test_csv_blank_lines_are_skipped(mixed_dataset, tmp_path):
    data, spec = mixed_dataset
    lines = open(data, encoding="utf-8").read().splitlines()
    blanks = write(tmp_path / "blanks.csv",
                   "\n".join(lines[:4] + ["", "  "] + lines[4:]) + "\n\n")
    want, got = load_dataset(data, spec, seed=0), load_dataset(blanks, spec, seed=0)
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.labels, want.labels)


def test_empty_split_raises(tmp_path):
    # A split inside (0, 1) that leaves 3 rows without a training row.
    spec = write(tmp_path / "cols.txt", "a,continuous,free\nlabel,label\n")
    data = write(tmp_path / "d.csv", "a,label\n1,1\n2,0\n3,1\n")
    for fraction in (0.2, 0.3):
        with pytest.raises(EmptySplit):
            load_dataset(data, spec, split_fraction=fraction, seed=0)


def test_load_dataset_deterministic(mixed_dataset):
    data, spec = mixed_dataset
    a = load_dataset(data, spec, seed=4)
    b = load_dataset(data, spec, seed=4)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.train_idx, b.train_idx)
    assert np.array_equal(a.test_idx, b.test_idx)
    assert not np.array_equal(a.train_idx, load_dataset(data, spec,
                                                        seed=5).train_idx)


# ------------------------------------------------------------ flag parsing


def test_parse_range_inclusive_grid():
    values = _parse_range("0:10:0.5")
    assert len(values) == 21
    assert values[0] == 0.0
    assert values[-1] == 10.0


def test_parse_range_single_value():
    assert _parse_range("3") == (3.0,)


def test_parse_range_non_dividing_step_stops_short():
    assert _parse_range("0:1:0.3") == pytest.approx((0.0, 0.3, 0.6, 0.9))


# 0:1e308:1e-300 has no finite count of radii, and 0:700:1e-9 has
# 7e11: both are refused before any value is built.
@pytest.mark.parametrize("text", ["1:2", "0:10:0", "0:10:-1", "5:1:1", "nan", "-1",
                                  "inf", "-1:1:1", "0:nan:1", "0:inf:1",
                                  "0:1e308:1e-300", "0:700:1e-9"])
def test_parse_range_rejects_bad_input(text):
    with pytest.raises(ValueError):
        _parse_range(text)


def test_parse_range_refuses_more_than_a_million_steps():
    assert len(_parse_range("0:1:1e-6")) == 10**6 + 1
    with pytest.raises(ValueError, match="too many radii"):
        _parse_range("0:1000001:1")


def test_parse_instances():
    assert _parse_instances("3,4,15") == (3, 4, 15)
    with pytest.raises(ValueError):
        _parse_instances("3,-1")
    with pytest.raises(ValueError):
        _parse_instances("3,x")


@settings(max_examples=40, deadline=None)
@given(flag=st.one_of(st.none(), st.integers(0, 99)),
       config=st.one_of(st.none(), st.integers(100, 199)),
       spelling=st.sampled_from(["n_p", "n-p"]))
def test_config_precedence_property(tmp_path_factory, flag, config, spelling):
    """flag > config file > built-in default, for every combination, with
    the config file read through the parser."""
    path = tmp_path_factory.mktemp("precedence") / "run.cfg"
    path.write_text("out = o.csv\n" + ("" if config is None
                                        else f"seed = {config}\n"
                                        f"{spelling} = {config}\n"))
    argv = ["sweep", "--data", "d.csv", "--shifted", "s.csv", "--spec", "c.txt",
            "--config", str(path)]
    if flag is not None:
        argv += ["--seed", str(flag), "--n-p", str(flag)]
    args = cli._parse(argv)
    expected = flag if flag is not None else config
    assert args.seed == (0 if expected is None else expected)
    assert args.n_p == (1000 if expected is None else expected)
    assert args.out == "o.csv"
    assert args.rho_neg == (0.0,)
    assert args.divergence == "nominal"


# ------------------------------------------------------------- subcommands


def no_tmp_leftovers(directory):
    return not [f for f in os.listdir(directory) if f.startswith(".tmp-")]


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path):
    # A file cannot be renamed over a directory.
    target = tmp_path / "report.csv"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write_bytes(str(target), b"rows\n")
    assert no_tmp_leftovers(tmp_path)
    assert target.is_dir() and not os.listdir(target)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-synthetic + train artifacts shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    p = lambda name: str(root / name)
    assert run(["gen-synthetic", "--n", "100", "--seed", "3",
                "--out", p("d1.csv"), "--spec-out", p("cols.txt")]) == 0
    assert run(["gen-synthetic", "--n", "100", "--noise", "1.0", "--seed",
                "4", "--out", p("d2.csv")]) == 0
    assert run(["train", "--data", p("d1.csv"), "--spec", p("cols.txt"),
                "--out", p("model.bin"), "--epochs", "80", "--seed", "3"]) == 0
    return root


def test_gen_synthetic_rows_follow_quartic_rule(workspace):
    with open(workspace / "d1.csv", newline="") as handle:
        records = list(csv.DictReader(handle))
    assert len(records) == 100
    for record in records:
        x1, x2 = float(record["x1"]), float(record["x2"])
        want = 1 if x2 >= 1 + x1 + 2 * x1**2 + x1**3 - x1**4 else -1
        assert int(record["label"]) == want
    assert no_tmp_leftovers(workspace)


def test_gen_synthetic_round_trips_through_load_dataset(workspace):
    ds = load_dataset(str(workspace / "d1.csv"), str(workspace / "cols.txt"),
                      seed=3)
    raw, labels = generate_synthetic(100, seed=3)
    for j, name in enumerate(("x1", "x2")):
        restored = (ds.features[:, j] * ds.encoder.stds[name]
                    + ds.encoder.means[name])
        assert np.allclose(restored, raw[:, j], atol=1e-12)
    assert np.array_equal(ds.labels, labels)


def test_gen_synthetic_deterministic(workspace, tmp_path):
    out = tmp_path / "again.csv"
    assert run(["gen-synthetic", "--n", "100", "--seed", "3",
                "--out", str(out)]) == 0
    assert out.read_bytes() == (workspace / "d1.csv").read_bytes()


def test_csv_with_a_byte_order_mark_and_a_blank_line_trains_the_same_model(
        workspace, tmp_path):
    # The mark used to hide the first column, and a trailing blank line
    # was a row of 0 cells.
    text = (workspace / "d1.csv").read_text(encoding="utf-8")
    data = write(tmp_path / "d1.csv", BOM + text + "\n")
    out = tmp_path / "model.bin"
    assert run(["train", "--data", data, "--spec", str(workspace / "cols.txt"),
                "--out", str(out), "--epochs", "80", "--seed", "3"]) == 0
    assert out.read_bytes() == (workspace / "model.bin").read_bytes()


def test_train_writes_loadable_model(workspace):
    model = load_model(str(workspace / "model.bin"))
    proba = model.predict_proba(np.zeros((2, 2)))
    assert proba.shape == (2,)
    assert set(model.label(np.zeros((2, 2)))) <= {-1.0, 1.0}


def test_recourse_command_writes_rows(workspace, tmp_path):
    out = tmp_path / "rec.csv"
    rc = run(["recourse", "--data", str(workspace / "d1.csv"),
              "--spec", str(workspace / "cols.txt"),
              "--model", str(workspace / "model.bin"),
              "--instances", "3,4,15", "--n-p", "200", "--k", "5",
              "--seed", "3", "--divergence", "fisher-rao",
              "--rho-neg", "2.0", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as handle:
        records = list(csv.DictReader(handle))
    assert [r["instance_id"] for r in records] == ["3", "4", "15"]
    for record in records:
        assert record["mode"] == "projection"
        assert record["divergence"] == "fisher-rao"
        assert float(record["rho_neg"]) == 2.0
        assert float(record["cost"]) >= 0.0
        assert record["surrogate_valid"] == "true"
        assert record["blackbox_valid"] in ("true", "false")
    assert no_tmp_leftovers(tmp_path)


def test_recourse_actionable_mode(workspace, tmp_path):
    out = tmp_path / "rec.csv"
    rc = run(["recourse", "--data", str(workspace / "d1.csv"),
              "--spec", str(workspace / "cols.txt"),
              "--model", str(workspace / "model.bin"),
              "--instances", "3", "--n-p", "200", "--k", "5", "--seed", "3",
              "--mode", "actionable", "--out", str(out)])
    assert rc == 0
    record = next(csv.DictReader(open(out, newline="")))
    assert record["mode"] == "actionable"
    assert float(record["cost"]) >= 0.0


def test_recourse_scans_the_pairs_once(workspace, tmp_path, monkeypatch):
    # The default ball radius depends only on the training rows and the
    # seed: one pair scan serves every instance, with the costs that a
    # scan per instance gives.
    calls = []
    real = sampler.max_pairwise_distance

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sampler, "max_pairwise_distance", counted)
    out = tmp_path / "rec.csv"
    ids = (3, 4, 15)
    assert run(["recourse", "--data", str(workspace / "d1.csv"),
                "--spec", str(workspace / "cols.txt"),
                "--model", str(workspace / "model.bin"),
                "--instances", ",".join(map(str, ids)), "--n-p", "200",
                "--k", "5", "--seed", "3", "--divergence", "fisher-rao",
                "--rho-neg", "2.0", "--out", str(out)]) == 0
    assert len(calls) == 1
    dataset = load_dataset(str(workspace / "d1.csv"), str(workspace / "cols.txt"),
                           seed=3)
    model = load_model(str(workspace / "model.bin"))
    train = dataset.features[dataset.train_idx]
    expected = [repr(recourse.generate_recourse(
        model, dataset.features[i], train, SamplerConfig(k=5, n_p=200, seed=3),
        Divergence(kind="fisher-rao", rho_neg=2.0), "projection").cost)
        for i in ids]
    assert len(calls) == 1 + len(ids)
    with open(out, newline="") as handle:
        assert [r["cost"] for r in csv.DictReader(handle)] == expected




def test_recourse_rejects_out_of_range_instance(workspace, tmp_path,
                                                monkeypatch, capsys):
    # Every id is checked before the model is loaded or any surrogate fitted.
    def no_call(*args, **kwargs):
        raise AssertionError("recourse went on past an out-of-range id")

    monkeypatch.setattr(cli, "load_model", no_call)
    monkeypatch.setattr(cli, "generate_recourse", no_call)
    monkeypatch.setattr(recourse, "generate_recourse", no_call)
    out = tmp_path / "rec.csv"
    rc = run(["recourse", "--data", str(workspace / "d1.csv"),
              "--spec", str(workspace / "cols.txt"),
              "--model", str(workspace / "model.bin"),
              "--instances", "0,1,2,9999", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "9999" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_sweep_command_json_report(workspace, tmp_path):
    out = tmp_path / "report.json"
    rc = run(["sweep", "--data", str(workspace / "d1.csv"),
              "--shifted", str(workspace / "d2.csv"),
              "--spec", str(workspace / "cols.txt"), "--out", str(out),
              "--divergence", "fisher-rao", "--rho-neg", "0:1:1",
              "--epochs", "80", "--n-models", "2", "--max-instances", "2",
              "--n-p", "200", "--k", "5", "--seed", "3"])
    assert rc == 0
    records = json.loads(out.read_text())
    assert [r["rho_neg"] for r in records] == [0.0, 1.0]
    for record in records:
        assert 0.0 <= record["current_validity"] <= 1.0
        assert record["mean_cost"] >= 0.0
    assert no_tmp_leftovers(tmp_path)


def test_sweep_without_unfavorable_instances_exits_two(workspace, tmp_path,
                                                       monkeypatch, capsys, spawned):
    # A threshold of 0 labels every test row favourable: the sweep has no
    # instance, so it exits before sweep() starts a training worker.
    train_mlp = cli.train_mlp
    monkeypatch.setattr(cli, "train_mlp", lambda *args: dataclasses.replace(
        train_mlp(*args), threshold=0.0))
    out = tmp_path / "report.json"
    rc = run(["sweep", "--data", str(workspace / "d1.csv"),
              "--shifted", str(workspace / "d2.csv"),
              "--spec", str(workspace / "cols.txt"), "--out", str(out),
              "--epochs", "5", "--n-models", "2", "--seed", "3"])
    assert rc == 2
    assert "no unfavorably classified test instances" in capsys.readouterr().err
    assert spawned == []
    assert not out.exists()


def test_one_radius_sweep_is_its_row_of_a_grid_sweep(workspace, tmp_path):
    reports = {}
    for rho_neg in ("1.5", "0:1.5:1.5"):
        out = tmp_path / f"report-{rho_neg.count(':')}.csv"
        rc = run(["sweep", "--data", str(workspace / "d1.csv"),
                  "--shifted", str(workspace / "d2.csv"),
                  "--spec", str(workspace / "cols.txt"), "--out", str(out),
                  "--divergence", "logdet", "--rho-neg", rho_neg, "--epochs", "80",
                  "--n-models", "2", "--max-instances", "2", "--n-p", "200",
                  "--k", "5", "--seed", "3"])
        assert rc == 0
        reports[rho_neg] = out.read_text().splitlines()
    records = list(csv.DictReader(reports["1.5"]))
    assert len(records) == 1
    assert records[0]["divergence"] == "logdet"
    assert float(records[0]["rho_neg"]) == 1.5
    header, _, row = reports["0:1.5:1.5"]
    assert reports["1.5"] == [header, row]


def test_config_file_provides_defaults_flags_override(workspace, tmp_path,
                                                      capsys):
    config = tmp_path / "gen.cfg"
    config.write_text("n = 30\nseed = 3\n# comment\n")
    out = tmp_path / "from_config.csv"
    assert run(["gen-synthetic", "--config", str(config),
                "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 31

    override = tmp_path / "override.csv"
    assert run(["gen-synthetic", "--config", str(config), "--n", "12",
                "--out", str(override)]) == 0
    assert len(override.read_text().splitlines()) == 13

    config.write_text("n = 30\nbogus = 1\n")
    rc = run(["gen-synthetic", "--config", str(config), "--out", str(out)])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


def test_config_file_with_a_byte_order_mark(tmp_path):
    # The mark used to make the first key an unrecognized argument.
    config = write(tmp_path / "gen.cfg", BOM + "n = 30\nseed = 3\n")
    from_config, from_flags = tmp_path / "from_config.csv", tmp_path / "from_flags.csv"
    assert run(["gen-synthetic", "--config", config, "--out", str(from_config)]) == 0
    assert run(["gen-synthetic", "--n", "30", "--seed", "3",
                "--out", str(from_flags)]) == 0
    assert from_config.read_bytes() == from_flags.read_bytes()


# ------------------------------------------------------------- exit codes


def test_unknown_subcommand_exits_one(capsys):
    assert run(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_missing_subcommand_exits_one(capsys):
    assert run([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_missing_required_option_exits_one(capsys):
    assert run(["gen-synthetic", "--n", "5"]) == 1
    assert "--out" in capsys.readouterr().err


def test_unrecognized_option_is_named_before_missing_ones(tmp_path, capsys):
    # A misspelt --config leaves every required option unset; the error
    # names the misspelling, not the options it would have supplied.
    config = tmp_path / "run.cfg"
    config.write_text("n = 5\n")
    assert run(["sweep", "--conf", str(config)]) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --conf" in err
    assert "required" not in err


def test_unreadable_config_file_exits_one(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["gen-synthetic", "--n", "5", "--out", str(out),
                "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "cannot read config file" in capsys.readouterr().err
    assert not out.exists()


def test_config_line_without_equals_exits_one(tmp_path, capsys):
    config = tmp_path / "gen.cfg"
    config.write_text("n = 5\n# comment\nseed 3\n")
    out = tmp_path / "x.csv"
    assert run(["gen-synthetic", "--out", str(out), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"{config}:3: expected `key = value`" in err
    assert not out.exists()


def test_invalid_option_value_exits_one(tmp_path, capsys):
    rc = run(["gen-synthetic", "--n", "oops", "--out",
              str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_instances_below_one_exits_one(tmp_path, capsys, value):
    # The data files do not exist: the option is rejected before any read.
    rc = run(["sweep", "--data", str(tmp_path / "nope.csv"),
              "--shifted", str(tmp_path / "nope.csv"),
              "--spec", str(tmp_path / "nope.txt"),
              "--out", str(tmp_path / "r.csv"), "--max-instances", value])
    assert rc == 1
    assert "--max-instances" in capsys.readouterr().err


@pytest.mark.parametrize("command, option, value", [
    ("sweep", "--rho-neg", "nan"),
    ("sweep", "--rho-neg", "-1"),
    ("sweep", "--rho-neg", "inf"),
    ("sweep", "--rho-neg", "0:inf:1"),
    ("sweep", "--rho-neg", "-1:1:1"),
    ("sweep", "--rho-neg", "0:1e308:1e-300"),
    ("sweep", "--rho-neg", "0:700:1e-9"),
    ("sweep", "--rho-pos", "nan"),
    ("recourse", "--rho-neg", "-1"),
    ("recourse", "--rho-pos", "inf"),
])
@pytest.mark.parametrize("from_config", [False, True])
def test_bad_radius_exits_one_before_any_read(tmp_path, monkeypatch, capsys,
                                              command, option, value,
                                              from_config):
    def no_call(*args, **kwargs):
        raise AssertionError("a bad radius got past option parsing")

    monkeypatch.setattr(cli, "load_dataset", no_call)
    monkeypatch.setattr(cli, "train_mlp", no_call)
    # The data files do not exist: reading one would exit 2, not 1.
    missing = str(tmp_path / "nope")
    argv = [command, "--data", missing, "--spec", missing,
            "--out", str(tmp_path / "r.csv")]
    if command == "recourse":
        argv += ["--model", missing, "--instances", "0"]
    else:
        argv += ["--shifted", missing, "--divergence", "logdet"]
    if from_config:
        config = tmp_path / "run.cfg"
        config.write_text(f"{option[2:].replace('-', '_')} = {value}\n")
        argv += ["--config", str(config)]
    else:
        argv.append(f"{option}={value}")  # argparse would take "-1:1:1" for a flag
    assert run(argv) == 1
    assert option in capsys.readouterr().err


def _run_before_any_read(tmp_path, monkeypatch, command, options, from_config):
    """run() on missing files with the options given as flags or as
    config keys, where loading, reading a model or training raises."""
    def no_call(*args, **kwargs):
        raise AssertionError("an option the configs or the solver reject got "
                             "past the option checks")

    for name in ("load_dataset", "load_model", "train_mlp"):
        monkeypatch.setattr(cli, name, no_call)
    missing = str(tmp_path / "nope")
    argv = [command, "--data", missing, "--spec", missing,
            "--out", str(tmp_path / "r.csv")]
    if command == "recourse":
        argv += ["--model", missing, "--instances", "0,1,2"]
    elif command != "train":
        argv += ["--shifted", missing]
    if from_config:
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in options.items()))
        argv += ["--config", str(config)]
    else:
        argv += [f"--{k.replace('_', '-')}={v}" for k, v in options.items()]
    return run(argv)


# The one-radius sweep rows keep the ids they had when one radius was
# the `evaluate` command, so each case keeps its name.
@pytest.mark.parametrize("command, divergence, value, code, message", [
    ("sweep", "fisher-rao", "0:1000:1000", 2, "overflow cap"),
    pytest.param("sweep", "fisher-rao", "1000", 2, "overflow cap",
                 id="evaluate-fisher-rao-1000-2-overflow cap"),
    ("recourse", "fisher-rao", "1000", 2, "overflow cap"),
    ("sweep", "nominal", "0:1:1", 1, "nominal"),
    pytest.param("sweep", "nominal", "1", 1, "nominal", id="evaluate-nominal-1-1-nominal"),
    ("recourse", "nominal", "1", 1, "nominal"),
    ("sweep", "logdet", "0:800:800", 2, "logdet radius 800.0 exceeds the overflow cap"),
    pytest.param("sweep", "logdet", "701", 2, "logdet radius 701.0 exceeds the overflow cap",
                 id="evaluate-logdet-701-2-logdet radius 701.0 exceeds the overflow cap"),
    ("recourse", "logdet", "800", 2, "logdet radius 800.0 exceeds the overflow cap"),
])
@pytest.mark.parametrize("from_config", [False, True])
def test_solver_radius_checked_before_any_read(tmp_path, monkeypatch, capsys,
                                               command, divergence, value, code,
                                               message, from_config):
    # A radius the solver rejects is reported as such (exit 2 for the
    # fisher-rao and logdet cap, 1 for nominal with a radius), never as
    # the data error that reading or training on it would give.
    options = {"divergence": divergence, "rho_neg": value}
    assert _run_before_any_read(tmp_path, monkeypatch, command, options,
                                from_config) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command, options, message", [
    ("sweep", {"k": 0}, "k must be"),
    ("sweep", {"n_p": 1}, "n_p must be"),
    ("sweep", {"n_models": 0}, "n_models must be"),
    ("sweep", {"epochs": 0}, "epochs must be"),
    ("sweep", {"lr": -1}, "learning_rate must be"),
    ("train", {"split": "inf"}, "--split"),
    ("train", {"epochs": 0}, "epochs must be"),
    ("train", {"lr": -1}, "learning_rate must be"),
    ("recourse", {"k": 0}, "k must be"),
    ("recourse", {"n_p": 1}, "n_p must be"),
    # 1 and 1.0000001 both print as 1 in the report id.
    ("sweep", {"divergence": "logdet", "rho_neg": "1:1.0000001:0.0000001"},
     "repeat a report id"),
    ("sweep", {"divergence": "nope"}, "invalid choice: 'nope'"),
    # A split outside (0, 1) is refused before any read, inf and nan included.
    ("train", {"split": "nan"}, "--split"),
    ("train", {"split": 0}, "--split"),
    ("train", {"split": 1}, "--split"),
    ("recourse", {"split": 1.5}, "--split"),
    ("sweep", {"split": -1}, "--split"),
])
@pytest.mark.parametrize("from_config", [False, True])
def test_settings_checked_before_any_read(tmp_path, monkeypatch, capsys, command,
                                          options, message, from_config):
    assert _run_before_any_read(tmp_path, monkeypatch, command, options,
                                from_config) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_config_without_value_exits_one(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["gen-synthetic", "--n", "5", "--out", str(out), "--config"]) == 1
    assert "--config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("from_config", [False, True])
@pytest.mark.parametrize("key", ["see", "spec_o", "no"])
def test_abbreviated_option_exits_one(tmp_path, capsys, key, from_config):
    # An abbreviation would silently set the option it is a prefix of
    # (--seed, --spec-out, --noise or --n).
    out = tmp_path / "x.csv"
    argv = ["gen-synthetic", "--n", "5", "--out", str(out)]
    if from_config:
        config = tmp_path / "gen.cfg"
        config.write_text(f"{key} = 3\n")
        argv += ["--config", str(config)]
    else:
        argv += [f"--{key.replace('_', '-')}", "3"]
    assert run(argv) == 1
    assert key.replace("_", "-") in capsys.readouterr().err
    assert not out.exists()


def test_config_file_cannot_name_a_config_file(tmp_path, capsys):
    config = tmp_path / "gen.cfg"
    config.write_text(f"n = 5\nout = {tmp_path / 'x.csv'}\nconfig = other.cfg\n")
    assert run(["gen-synthetic", "--config", str(config)]) == 1
    assert "gen.cfg:3" in capsys.readouterr().err


def test_config_value_is_checked_even_when_a_flag_overrides_it(tmp_path, capsys):
    config = tmp_path / "gen.cfg"
    config.write_text("n = many\n")
    assert run(["gen-synthetic", "--config", str(config), "--n", "5",
                "--out", str(tmp_path / "x.csv")]) == 1
    assert "'many'" in capsys.readouterr().err


def test_nominal_with_radius_exits_one(workspace, tmp_path, capsys):
    rc = run(["sweep", "--data", str(workspace / "d1.csv"),
              "--shifted", str(workspace / "d2.csv"),
              "--spec", str(workspace / "cols.txt"),
              "--out", str(tmp_path / "r.csv"), "--rho-neg", "1.5",
              "--epochs", "80", "--max-instances", "2"])
    assert rc == 1
    assert "nominal" in capsys.readouterr().err


def test_bad_rho_grid_exits_one(workspace, tmp_path, capsys):
    rc = run(["sweep", "--data", str(workspace / "d1.csv"),
              "--shifted", str(workspace / "d2.csv"),
              "--spec", str(workspace / "cols.txt"),
              "--out", str(tmp_path / "r.csv"), "--rho-neg", "5:1:1"])
    assert rc == 1
    capsys.readouterr()


def test_missing_data_file_exits_two(workspace, tmp_path, capsys):
    rc = run(["train", "--data", str(tmp_path / "nope.csv"),
              "--spec", str(workspace / "cols.txt"),
              "--out", str(tmp_path / "m.bin")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_data_error_exits_two(tmp_path, capsys):
    spec = write(tmp_path / "cols.txt", "a,continuous,free\nlabel,label\n")
    data = write(tmp_path / "d.csv",
                 "a,label\n" + "".join(f"{i},{2 if i == 0 else 1}\n"
                                       for i in range(10)))
    rc = run(["train", "--data", data, "--spec", spec,
              "--out", str(tmp_path / "m.bin")])
    assert rc == 2
    assert "label" in capsys.readouterr().err


def test_spec_without_feature_columns_exits_two(tmp_path, capsys):
    # A label-only spec used to encode zero-width features, on which
    # training crashed with ZeroDivisionError.
    spec = write(tmp_path / "cols.txt", "label,label\n")
    data = write(tmp_path / "d.csv",
                 "label\n" + "".join(f"{i % 2}\n" for i in range(10)))
    rc = run(["train", "--data", data, "--spec", spec,
              "--out", str(tmp_path / "m.bin")])
    assert rc == 2
    assert "no feature column" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


def test_truncated_model_exits_two(workspace, tmp_path, capsys):
    blob = (workspace / "model.bin").read_bytes()
    for cut in (10, 20, 60, len(blob) - 3):
        model = tmp_path / f"cut{cut}.bin"
        model.write_bytes(blob[:cut])
        rc = run(["recourse", "--data", str(workspace / "d1.csv"),
                  "--spec", str(workspace / "cols.txt"), "--model", str(model),
                  "--instances", "3", "--out", str(tmp_path / "rec.csv")])
        assert rc == 2
        assert f"cut{cut}.bin" in capsys.readouterr().err


def test_non_finite_model_exits_two(workspace, tmp_path, capsys):
    blob = (workspace / "model.bin").read_bytes()
    at = 8 + 4 + 5 * 4  # the threshold
    model = tmp_path / "nan_threshold.bin"
    model.write_bytes(blob[:at] + struct.pack("<d", math.nan) + blob[at + 8:])
    rc = run(["recourse", "--data", str(workspace / "d1.csv"),
              "--spec", str(workspace / "cols.txt"), "--model", str(model),
              "--instances", "3", "--out", str(tmp_path / "rec.csv")])
    assert rc == 2
    assert "nan_threshold.bin" in capsys.readouterr().err


def test_evaluate_is_not_a_subcommand(workspace, tmp_path, capsys):
    # A one-radius `sweep` is the evaluation of one radius.
    rc = run(["evaluate", "--data", str(workspace / "d1.csv"),
              "--shifted", str(workspace / "d2.csv"),
              "--spec", str(workspace / "cols.txt"),
              "--out", str(tmp_path / "r.csv"), "--rho-neg", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'evaluate'" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "r.csv").exists()
