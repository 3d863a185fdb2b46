"""The three benchmark workloads, built on cvas's public API.

Each workload has the same shape:

- ``setup(rep)`` is set-up. The sweep workloads build the inputs of
  operation ``rep`` (each operation gets a seed of its own, so a second
  sweep in a run is not an exact repeat); recourse-queries builds its
  whole query state, the same each time. The runner times several set-ups and
  reports their median as setup_s.
- ``run_op(i)`` is one timed operation: a sweep() call, one `cvas sweep`
  command run in-process, or one generate_recourse query.
- After the timed loop, ``problems(outputs)`` checks every output;
  ``quality(outputs)`` and ``report_bytes(outputs)`` read only the first
  ``min_ops`` outputs, which every run makes, so neither depends on
  speed. The digest of the report bytes shows that traced and untraced
  runs agree.

All cvas functions are looked up through their modules at call time, so
the spans of a traced run see every call.
"""

import collections
import math
from pathlib import Path

import numpy as np

from cvas import blackbox, cli, evalharness, recourse, sampler, surrogate
from cvas.errors import CvasError

import spans

# Copied from the README's description of the report CSV, so a change
# to the columns shows as a failed check rather than a silent update.
README_CSV_HEADER = ("config_id,divergence,rho_pos,rho_neg,mode,mean_cost,"
                     "current_validity,future_validity,local_fidelity,"
                     "sensitivity,n_skipped")


def derive_seed(*key):
    """A 32-bit seed derived from the workload seed and an operation index."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


class Ledger:
    """Attempted and failed operations by category and CvasError class,
    counted from outside the program."""

    def __init__(self):
        self.attempted = collections.Counter()
        self.failed = collections.Counter()

    def add(self, category, attempted=1, error=None, failed=1):
        self.attempted[category] += attempted
        if error is not None and failed:
            self.failed[f"{category}:{error}"] += failed

    @property
    def total_attempted(self):
        return sum(self.attempted.values())

    @property
    def total_failed(self):
        return sum(self.failed.values())

    def count_calls(self, tracer):
        """Each span name of `tracer` as a category: calls attempted,
        failures by exception class."""
        for name, row in spans.summarize(tracer).items():
            self.attempted[name] += row["calls"]
            for error, n in row["failed"].items():
                self.failed[f"{name}:{error}"] += n

    def count_rows(self, n_instances, n_radii, skipped):
        """Sweep rows: every (instance, radius) pair, skips from n_skipped."""
        self.add("sweep_row", attempted=n_instances * n_radii,
                 error="n_skipped", failed=skipped)


def _mean(values):
    return float(np.mean(values)) if len(values) else math.nan


def _row_quality(rows):
    return {
        "future_validity": _mean([r.future_validity for r in rows]),
        "local_fidelity": _mean([r.local_fidelity for r in rows]),
        "mean_cost": _mean([r.mean_cost for r in rows]),
        "recourse_validity": _mean([r.current_validity for r in rows]),
    }


def _finite_rows(rows):
    return all(math.isfinite(v) for r in rows for v in (
        r.rho_pos, r.rho_neg, r.mean_cost, r.current_validity,
        r.future_validity, r.local_fidelity, r.sensitivity))


class _SweepWorkload:
    """Shared plumbing of the sweep workloads: one operation per input set."""

    min_ops = 1

    def __init__(self, seed, workdir, ledger):
        self.seed, self.workdir, self.ledger = seed, Path(workdir), ledger
        self.inputs = {}

    def setup(self, rep):
        self.inputs[rep] = self.prepare(rep)

    def before_op(self, i):
        """Untimed: build the inputs of operation i if set-up did not."""
        if i not in self.inputs:
            self.inputs[i] = self.prepare(i)

    def available(self):
        return None


class FixtureSweep(_SweepWorkload):
    """sweep() on the acceptance fixture of tests/test_acceptance.py:
    1000 rows split 800/200, a unit-noise shifted copy, 300 epochs, the
    first unfavourable test rows, fisher-rao radii {0, 10}, projection.
    The data and the current model stay frozen as in the test; the
    workload seed becomes the sweep's master seed (ensemble, sampling,
    fidelity and sensitivity streams). The ensemble is halved to 30
    models so a run fits the time budget; training still dominates."""

    name = "fixture-sweep"
    n_models = 30
    n_instances = 24
    radii = (0.0, 10.0)

    def prepare(self, i):
        features, labels = blackbox.generate_synthetic(1000, seed=0)
        shifted = blackbox.generate_synthetic(1000, noise_std=1.0, seed=1)
        present = (features[:800], labels[:800])
        test = features[800:]
        train = blackbox.TrainConfig(epochs=300, seed=0)
        model = blackbox.train_mlp(present[0], present[1], train)
        instances = test[model.label(test) == -1][:self.n_instances]
        config = evalharness.EvalConfig(
            seed=derive_seed(self.seed, i),
            sampler=sampler.SamplerConfig(n_p=1000), train=train,
            n_models=self.n_models, fid_n=1000)
        return present, shifted, instances, config

    def run_op(self, i):
        present, shifted, instances, config = self.inputs[i]
        # sweep() swallows sensitivity-neighbour failures, so those are
        # counted at evalharness's fit_surrogate binding.
        counter = spans.Tracer()
        with counter.watch(evalharness, "fit_surrogate", "sensitivity_fit"):
            report = evalharness.sweep(present, shifted, instances, "fisher-rao",
                                       list(self.radii), "projection", config)
        self.ledger.count_calls(counter)
        self.ledger.count_rows(instances.shape[0], len(report.rows),
                               sum(row.n_skipped for row in report.rows))
        return report

    def problems(self, outputs):
        """Every sweep has the radii's rows and finite values. The
        conditions of acceptance criteria 13 and 14 are statistical, so
        they are checked on the first min_ops sweeps only, whose seeds
        every run uses."""
        problems = []
        for i, report in enumerate(outputs):
            rows = report.rows
            if [r.rho_neg for r in rows] != list(self.radii):
                problems.append(f"op {i}: rows {[r.rho_neg for r in rows]}")
                continue
            if not _finite_rows(rows):
                problems.append(f"op {i}: non-finite report value")
            if i >= self.min_ops:
                continue
            plain, robust = rows
            if robust.future_validity < plain.future_validity:
                problems.append(f"op {i}: robust future_validity "
                                f"{robust.future_validity} < plain "
                                f"{plain.future_validity}")
            if robust.mean_cost < plain.mean_cost:
                problems.append(f"op {i}: robust mean_cost {robust.mean_cost} "
                                f"< plain {plain.mean_cost}")
            fidelity = _mean([r.local_fidelity for r in rows])
            if fidelity < 0.85:
                problems.append(f"op {i}: mean fidelity {fidelity} < 0.85")
        return problems

    def quality(self, outputs):
        return _row_quality([r for report in outputs[:self.min_ops]
                             for r in report.rows])

    def report_bytes(self, outputs):
        blobs = []
        for i, report in enumerate(outputs[:self.min_ops]):
            path = self.workdir / f"report{i}.csv"
            report.to_csv(path)
            blobs.append(path.read_bytes())
        return b"".join(blobs)


class RadiusSweep(_SweepWorkload):
    """`cvas sweep` run in-process through cli.run on CSVs that
    `cvas gen-synthetic` writes during set-up: logdet over radii
    0:10:1, actionable mode, a 5-model ensemble, 300 epochs, 10
    instances. The present CSV and the command's --seed stay frozen
    (seed 0, so split, current model and sampling repeat); the workload
    seed draws the shifted CSV the ensemble trains on."""

    name = "radius-sweep"
    radii = tuple(float(r) for r in range(11))

    def prepare(self, i):
        folder = self.workdir / f"op{i}"
        folder.mkdir(parents=True, exist_ok=True)
        present, shifted = folder / "present.csv", folder / "shifted.csv"
        spec, out = folder / "spec.txt", folder / "report.csv"
        for argv in (
            ["gen-synthetic", "--n", "1000", "--seed", "0",
             "--out", str(present), "--spec-out", str(spec)],
            ["gen-synthetic", "--n", "1000", "--noise", "1",
             "--seed", str(derive_seed(self.seed, i)), "--out", str(shifted)],
        ):
            code = cli.run(argv)
            if code != 0:
                raise RuntimeError(f"cvas {argv[0]} exited with {code}")
        return out, [
            "sweep", "--data", str(present), "--shifted", str(shifted),
            "--spec", str(spec), "--out", str(out), "--divergence", "logdet",
            "--rho-neg", "0:10:1", "--mode", "actionable", "--n-models", "5",
            "--max-instances", "10", "--epochs", "300", "--seed", "0",
        ]

    def run_op(self, i):
        out, argv = self.inputs[i]
        counter = spans.Tracer()
        with counter.watch(evalharness, "fit_surrogate", "sensitivity_fit"), \
                counter.watch(cli, "sweep", "sweep",
                              info=lambda args, kwargs: len(args[2])):
            code = cli.run(argv)
        blob = out.read_bytes() if code == 0 else b""
        sweeps = spans.summarize(counter, ["sweep"])["sweep"]
        self.ledger.count_calls(counter)
        if code == 0:
            rows = self._rows(blob)[1]
            self.ledger.count_rows(sum(sweeps["infos"]), len(rows),
                                   sum(int(r["n_skipped"]) for r in rows))
        return code, blob

    def _rows(self, blob):
        lines = blob.decode().splitlines()
        return lines[0], [dict(zip(README_CSV_HEADER.split(","), line.split(",")))
                          for line in lines[1:]]

    def problems(self, outputs):
        problems = []
        for i, (code, blob) in enumerate(outputs):
            if code != 0:
                problems.append(f"op {i}: cvas sweep exited with {code}")
                continue
            header, rows = self._rows(blob)
            if header != README_CSV_HEADER:
                problems.append(f"op {i}: header {header!r}")
                continue
            if [float(r["rho_neg"]) for r in rows] != list(self.radii):
                problems.append(f"op {i}: radii {[r['rho_neg'] for r in rows]}")
            numeric = [float(r[k]) for r in rows for k in (
                "rho_pos", "rho_neg", "mean_cost", "current_validity",
                "future_validity", "local_fidelity", "sensitivity", "n_skipped")]
            if not all(math.isfinite(v) for v in numeric):
                problems.append(f"op {i}: non-finite report value")
        return problems

    def quality(self, outputs):
        rows = [r for code, blob in outputs[:self.min_ops] if code == 0
                for r in self._rows(blob)[1]]
        return {
            metric: _mean([float(r[column]) for r in rows])
            for metric, column in (("future_validity", "future_validity"),
                                   ("local_fidelity", "local_fidelity"),
                                   ("mean_cost", "mean_cost"),
                                   ("recourse_validity", "current_validity"))
        }

    def report_bytes(self, outputs):
        return b"".join(blob for _, blob in outputs[:self.min_ops])


# Tabular data for recourse-queries: (name, kind, actionability, levels).
TABULAR_COLUMNS = (
    ("age", "continuous", "non_decreasing", None),
    ("income", "continuous", "free", None),
    ("debt", "continuous", "free", None),
    ("savings", "continuous", "free", None),
    ("hours", "continuous", "free", None),
    ("tenure", "continuous", "non_decreasing", None),
    ("credit_lines", "continuous", "free", None),
    ("region", "categorical", "immutable", ("north", "south", "east", "west")),
    ("education", "categorical", "non_decreasing",
     ("school", "college", "bachelor", "master")),
    ("job", "categorical", "free", ("clerk", "trade", "service", "technical")),
    ("married", "binary", "immutable", None),
    ("owns_home", "binary", "free", None),
    ("has_guarantor", "binary", "free", None),
)


def tabular_rows(n, rng, shift=0.0):
    """n rows of a credit-style table and their {-1, +1} labels.

    `shift` moves the label rule's weights and adds label noise, giving
    the shifted copy that future models train on.
    """
    age = rng.uniform(18.0, 70.0, n)
    income = rng.lognormal(10.5, 0.5, n)
    debt = rng.gamma(2.0, 6000.0, n)
    savings = rng.exponential(8000.0, n)
    hours = rng.normal(38.0, 8.0, n)
    tenure = rng.uniform(0.0, 1.0, n) * (age - 18.0)
    credit_lines = rng.poisson(3.0, n).astype(float)
    region = rng.integers(0, 4, n)
    education = rng.integers(0, 4, n)
    job = rng.integers(0, 4, n)
    married = rng.integers(0, 2, n)
    owns_home = rng.integers(0, 2, n)
    guarantor = rng.integers(0, 2, n)

    def z(v):
        return (v - v.mean()) / v.std()

    score = ((0.9 - shift) * z(np.log(income)) - (0.8 + shift) * z(debt)
             + 0.5 * z(np.sqrt(savings)) + 0.3 * z(tenure) + 0.2 * z(age)
             - 0.4 * z(hours) ** 2 + 0.35 * education
             + np.array([0.2, -0.2, 0.1, -0.1])[region]
             + np.array([-0.3, 0.0, 0.1, 0.3])[job]
             + 0.3 * owns_home + 0.25 * guarantor - 0.1 * credit_lines
             + rng.normal(0.0, 0.3 + shift, n))
    labels = np.where(score > np.median(score) - 0.1, 1, -1)
    levels = {name: lv for name, _, _, lv in TABULAR_COLUMNS if lv}
    columns = {
        "age": age, "income": income, "debt": debt, "savings": savings,
        "hours": hours, "tenure": tenure, "credit_lines": credit_lines,
        "region": np.array(levels["region"])[region],
        "education": np.array(levels["education"])[education],
        "job": np.array(levels["job"])[job],
        "married": married, "owns_home": owns_home,
        "has_guarantor": guarantor,
    }
    return columns, labels


def write_tabular(path, columns, labels):
    names = [name for name, _, _, _ in TABULAR_COLUMNS]
    lines = [",".join(names + ["label"])]
    for i in range(len(labels)):
        cells = []
        for name, kind, _, _ in TABULAR_COLUMNS:
            value = columns[name][i]
            if kind == "continuous":
                cells.append(f"{float(value):.4f}")
            elif kind == "binary":
                cells.append(str(int(value)))
            else:
                cells.append(str(value))
        lines.append(",".join(cells + [str(int(labels[i]))]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_tabular_spec(path):
    lines = [f"{name},{kind},{act}" for name, kind, act, _ in TABULAR_COLUMNS]
    Path(path).write_text("\n".join(lines + ["label,label"]) + "\n",
                          encoding="utf-8")


QueryState = collections.namedtuple(
    "QueryState", "train model pool shifted kinds rhos seeds")


class RecourseQueries:
    """A closed loop of one client, no think time: each operation is one
    generate_recourse call on a distinct unfavourable row of a 2600-row
    tabular dataset (22 encoded columns, a 2080-row training split). The
    mix rotates over the five divergences and both modes, with radii
    drawn from the seed. Data, split, model and the order of query points
    are frozen (seed 0): one deployed model and one population of users.
    The workload seed draws each query's radius and sampler seed."""

    name = "recourse-queries"
    min_ops = 150
    n_rows = 2600
    n_shifted = 1000
    n_future = 3
    n_fidelity = 20
    kinds = ("nominal", "quadratic", "bures", "fisher-rao", "logdet")
    modes = ("projection", "actionable")

    def __init__(self, seed, workdir, ledger):
        self.seed, self.workdir, self.ledger = seed, Path(workdir), ledger
        self.state = None

    def setup(self, rep):
        self.workdir.mkdir(parents=True, exist_ok=True)
        data, shifted = self.workdir / "present.csv", self.workdir / "shifted.csv"
        spec = self.workdir / "spec.txt"
        rng = np.random.default_rng(0)
        write_tabular(data, *tabular_rows(self.n_rows, rng))
        write_tabular(shifted, *tabular_rows(self.n_shifted, rng, shift=0.3))
        write_tabular_spec(spec)
        dataset = cli.load_dataset(data, spec, split_fraction=0.8, seed=0)
        shifted_xy = cli.encode_csv(dataset.encoder, shifted)
        train = dataset.features[dataset.train_idx]
        model = blackbox.train_mlp(train, dataset.labels[dataset.train_idx],
                                   blackbox.TrainConfig(epochs=300, seed=0))
        unfavourable = np.flatnonzero(model.label(dataset.features) == -1)
        pool = dataset.features[np.random.default_rng(0).permutation(unfavourable)]
        rng = np.random.default_rng(derive_seed(self.seed))
        # The radii the repo documents: the 0:10 sweep grid, whose top is
        # the radius of the acceptance fixture and the README's example.
        rhos = rng.uniform(0.0, 10.0, pool.shape[0])
        seeds = rng.integers(0, 2**31, pool.shape[0])
        self.state = QueryState(train, model, pool, shifted_xy,
                                dataset.action_kinds, rhos, seeds)

    def before_op(self, i):
        pass

    def query(self, i):
        """(x0, divergence, mode, sampler config) of query i."""
        state = self.state
        kind = self.kinds[i % len(self.kinds)]
        mode = self.modes[(i // len(self.kinds)) % len(self.modes)]
        rho = 0.0 if kind == "nominal" else float(state.rhos[i])
        return (state.pool[i], surrogate.Divergence(kind=kind, rho_neg=rho), mode,
                sampler.SamplerConfig(k=10, n_p=1000, seed=int(state.seeds[i])))

    def available(self):
        return self.state.pool.shape[0]

    def run_op(self, i):
        state = self.state
        x0, divergence, mode, sampler_config = self.query(i)
        try:
            actions = None
            if mode == "actionable":
                actions = recourse.default_action_grids(x0, state.train,
                                                        kinds=state.kinds)
            result = recourse.generate_recourse(state.model, x0, state.train,
                                                sampler_config, divergence, mode,
                                                actions=actions)
        except CvasError as exc:
            self.ledger.add("query", error=type(exc).__name__)
            return type(exc).__name__
        self.ledger.add("query")
        return result

    def check(self, i, result):
        x0, _, mode, _ = self.query(i)
        kinds = self.state.kinds
        problems = []
        if not result.surrogate_valid:
            problems.append("surrogate_valid is false")
        if not np.all(np.isfinite(result.x_r)):
            problems.append("non-finite recourse")
        l1 = float(np.abs(result.x_r - x0).sum())
        if abs(result.cost - l1) > 1e-9 * max(1.0, l1):
            problems.append(f"cost {result.cost} != L1 distance {l1}")
        if mode == "actionable":
            delta = result.x_r - x0
            for j, kind in enumerate(kinds):
                if kind == "immutable" and delta[j] != 0.0:
                    problems.append(f"immutable column {j} moved by {delta[j]}")
                if kind == "non_decreasing" and delta[j] < 0.0:
                    problems.append(f"non_decreasing column {j} fell by {delta[j]}")
        return [f"query {i}: {p}" for p in problems]

    def problems(self, outputs):
        problems = []
        for i, result in enumerate(outputs):
            if not isinstance(result, str):
                problems.extend(self.check(i, result))
        return problems

    def quality(self, outputs):
        """Quality of the first min_ops queries: validity under the model
        and under a small future ensemble trained here, mean cost, and the
        local fidelity of the first n_fidelity surrogates, refitted."""
        state = self.state
        done = [(i, r) for i, r in enumerate(outputs[:self.min_ops])
                if not isinstance(r, str)]
        if not done:
            return dict.fromkeys(("future_validity", "local_fidelity",
                                  "mean_cost", "recourse_validity"), math.nan)
        points = np.vstack([r.x_r for _, r in done])
        future = blackbox.simulate_future_models(
            *state.shifted, n_models=self.n_future, fraction=0.8,
            config=blackbox.TrainConfig(epochs=300, seed=0))
        r_fid = 0.1 * sampler.max_pairwise_distance(state.train, seed=0)
        fidelities = []
        for i, _ in done[:self.n_fidelity]:
            x0, divergence, _, sampler_config = self.query(i)
            fitted = recourse.fit_surrogate(state.model, x0, state.train,
                                            sampler_config, divergence)
            fidelities.append(evalharness.local_fidelity(
                state.model, fitted, x0, r_fid, n=1000, seed=sampler_config.seed))
        return {
            "future_validity": _mean([np.mean(m.label(points) == 1) for m in future]),
            "local_fidelity": _mean(fidelities),
            "mean_cost": _mean([r.cost for _, r in done]),
            "recourse_validity": _mean([bool(r.blackbox_valid) for _, r in done]),
        }

    def report_bytes(self, outputs):
        return b"".join(
            r.encode() + b"\n" if isinstance(r, str) else
            r.x_r.tobytes() + repr((r.cost, r.surrogate_valid,
                                    r.blackbox_valid)).encode() + b"\n"
            for r in outputs[:self.min_ops])


WORKLOADS = {w.name: w for w in (FixtureSweep, RadiusSweep, RecourseQueries)}

# How a traced run splits each workload's operation time: the span of
# one operation, pass-through pipeline spans to list through, and the
# layer the workload was chosen to be dominated by. The runner reports
# whether the split bears that out; a mismatch is a finding, not an error.
SPLIT = {
    "fixture-sweep": ("evalharness.sweep", (), "blackbox.simulate_future_models"),
    "radius-sweep": ("evalharness.sweep", (), "evalharness.sensitivity"),
    "recourse-queries": ("recourse.generate_recourse",
                         ("recourse.fit_surrogate",), "sampler.synthesize"),
}
