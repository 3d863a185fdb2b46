"""Command-line front end and data ingestion.

Subcommands: gen-synthetic, train, recourse, sweep (one radius or a
grid). Datasets are CSV files described by a feature-spec file (one
`name,kind,actionability` line per column); categorical columns are
one-hot expanded and continuous columns z-scored with training-split
statistics. One argparse parser reads every option; a `--config` file's
`key = value` lines become `--key=value` flags ahead of the command
line's own, so the last value wins: flag > config file > default. Every
command checks every option, radii and report ids included, before it
reads data or trains. Exit codes: 0 success, 1 usage error, 2 data/model
error.
"""

import argparse
import csv
import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from ._io import atomic_write_text
from .blackbox import (
    TrainConfig,
    generate_synthetic,
    load_model,
    save_model,
    train_mlp,
)
from .errors import (
    BadLabelValue,
    CvasError,
    EmptyInput,
    EmptySplit,
    SchemaMismatch,
)
from .evalharness import EvalConfig, _check_grid, sweep
from .recourse import ACTION_KINDS, MODES, default_action_grids, generate_recourse
from .sampler import SamplerConfig, resolve_radius
from .surrogate import Divergence, DivergenceKind

FEATURE_KINDS = ("continuous", "categorical", "binary", "label")
RECOURSE_HEADER = ("instance_id,mode,divergence,rho_pos,rho_neg,cost,"
                   "surrogate_valid,blackbox_valid,error")
_MAX_RANGE_STEPS = 10**6
# Every text file is read as UTF-8; "-sig" drops the byte-order mark
# that spreadsheet tools write at the start of one.
_ENCODING = "utf-8-sig"


class _Parser(argparse.ArgumentParser):
    # raise instead of sys.exit so run() can map usage errors to code 1
    def error(self, message):
        raise ValueError(message)


@dataclass(frozen=True)
class FeatureColumn:
    name: str
    kind: str
    actionability: str = None


@dataclass(frozen=True)
class FeatureSpec:
    """Per-column schema: exactly one label column, at least one feature
    column, unique names."""

    columns: tuple

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaMismatch("duplicate column names in feature spec")
        labels = [c for c in self.columns if c.kind == "label"]
        if len(labels) != 1:
            raise SchemaMismatch("feature spec must have exactly one label column")
        if len(self.columns) < 2:
            raise SchemaMismatch("feature spec has no feature column")
        for c in self.columns:
            if c.kind not in FEATURE_KINDS:
                raise SchemaMismatch(f"unknown column kind {c.kind!r}")
            if c.kind != "label" and c.actionability not in ACTION_KINDS:
                raise SchemaMismatch(
                    f"column {c.name!r} needs an actionability in "
                    f"{ACTION_KINDS}")

    @property
    def label_column(self):
        return next(c for c in self.columns if c.kind == "label")

    @property
    def feature_columns(self):
        return tuple(c for c in self.columns if c.kind != "label")


def _content_lines(text):
    """(line number, line) for each stripped line not blank or a # comment."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_feature_spec(path):
    """Read a feature-spec file: `name,kind,actionability`, # comments."""
    with open(path, encoding=_ENCODING) as handle:
        text = handle.read()
    columns = []
    for lineno, line in _content_lines(text):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) == 2 and fields[1] == "label":
            columns.append(FeatureColumn(fields[0], "label"))
        elif len(fields) == 3:
            act = fields[2] if fields[1] != "label" else None
            columns.append(FeatureColumn(fields[0], fields[1], act))
        else:
            raise SchemaMismatch(
                f"{path}:{lineno}: expected `name,kind,actionability`")
    return FeatureSpec(columns=tuple(columns))


@dataclass(frozen=True)
class _Table:
    """A dataset CSV as read in one pass.

    A continuous or binary column is a float array with NaN where a cell
    is not a number; `bad_cells` holds the line and text of a column's
    first such cell. A categorical or label column is an array of codes
    into `distinct`, its stripped cells in the order they first appear.
    `lines` holds the file line of each kept row.
    """

    path: str
    lines: np.ndarray
    columns: dict
    distinct: dict
    bad_cells: dict

    def line_of_first(self, flags):
        """The file line of the first row whose flag is true."""
        return self.lines[np.argmax(flags)]


@dataclass(frozen=True)
class Encoder:
    """Fitted encoding state: categorical levels and z-score statistics.

    Levels and statistics come from the training split of the dataset
    the encoder was fitted on; apply() reuses them verbatim, so shifted
    CSVs land in the same feature space (unseen categorical levels
    encode to all-zero blocks, constant continuous columns stay
    centered but unscaled).
    """

    spec: FeatureSpec
    levels: dict
    means: dict
    stds: dict

    def apply(self, table):
        """The encoded features, and the actionability of each column.

        Every block is written into one preallocated matrix."""
        columns = self.spec.feature_columns
        widths = [len(self.levels[col.name]) if col.kind == "categorical" else 1
                  for col in columns]
        features = np.zeros((len(table.lines), sum(widths)))
        action_kinds, start = [], 0
        for col, width in zip(columns, widths):
            block = features[:, start:start + width]
            start += width
            action_kinds += [col.actionability] * width
            if col.kind == "categorical":
                # A cell that is no fitted level maps to -1: an all-zero row.
                position = {level: k
                            for k, level in enumerate(self.levels[col.name])}
                level_of_code = np.array([position.get(cell, -1)
                                          for cell in table.distinct[col.name]],
                                         dtype=np.intp)
                level = level_of_code[table.columns[col.name]]
                rows = np.flatnonzero(level >= 0)
                block[rows, level[rows]] = 1.0
            elif col.kind == "binary":
                block[:, 0] = _parse_numeric(table, col)
            else:
                np.subtract(_parse_numeric(table, col), self.means[col.name],
                            out=block[:, 0])
                std = self.stds[col.name]
                if std > 0.0:
                    block[:, 0] /= std
        return features, tuple(action_kinds)


@dataclass(frozen=True)
class EncodedDataset:
    features: np.ndarray
    labels: np.ndarray
    action_kinds: tuple
    train_idx: np.ndarray
    test_idx: np.ndarray
    encoder: Encoder


def _read_csv(path, spec):
    """The CSV at path as a _Table, read row by row: each row's length is
    checked as it arrives, a numeric cell goes straight into its column's
    float buffer, and a text cell is kept once per distinct value."""
    with open(path, newline="", encoding=_ENCODING) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaMismatch(f"{path}: empty CSV")
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise SchemaMismatch(f"{path}: duplicate column in header")
        kinds = {c.name: c.kind for c in spec.columns}
        missing = kinds.keys() - set(header)
        if missing:
            raise SchemaMismatch(f"{path}: missing column {sorted(missing)[0]!r}")
        unknown = set(header) - kinds.keys()
        if unknown:
            raise SchemaMismatch(f"{path}: unknown column {sorted(unknown)[0]!r}")
        numeric = [(j, array("d")) for j, name in enumerate(header)
                   if kinds[name] in ("continuous", "binary")]
        text = [(j, array("q"), {}) for j, name in enumerate(header)
                if kinds[name] in ("categorical", "label")]
        lines, bad_cells = array("q"), {}
        for row in reader:
            if len(row) != len(header):
                # A blank line reads as [] or [""] and is skipped, as
                # _content_lines skips one; a row of empty cells ("," between
                # them) is kept. A header has at least two columns.
                if len(row) <= 1 and not "".join(row).strip():
                    continue
                raise SchemaMismatch(f"{path}:{reader.line_num}: row has "
                                     f"{len(row)} cells, expected {len(header)}")
            lines.append(reader.line_num)
            for j, values in numeric:
                try:
                    values.append(float(row[j]))
                except ValueError:
                    values.append(math.nan)
                    bad_cells.setdefault(header[j],
                                         (reader.line_num, row[j].strip()))
            for j, codes, index in text:
                codes.append(index.setdefault(row[j].strip(), len(index)))
    return _Table(path=path, lines=np.asarray(lines),
                  columns={header[j]: np.asarray(buffer)
                           for j, buffer, *_ in numeric + text},
                  distinct={header[j]: tuple(index) for j, _, index in text},
                  bad_cells=bad_cells)


def _parse_numeric(table, col):
    """A continuous or binary column's floats. SchemaMismatch names the
    line of its first cell that is not a number, else of its first
    non-finite value, else, for a binary column, of its first value
    outside {0,1}."""
    if col.name in table.bad_cells:
        line, cell = table.bad_cells[col.name]
        raise SchemaMismatch(f"{table.path}:{line}: column {col.name!r}: "
                             f"{cell!r} is not a number")
    values = table.columns[col.name]
    finite = np.isfinite(values)
    if not finite.all():
        raise SchemaMismatch(f"{table.path}:{table.line_of_first(~finite)}: "
                             f"column {col.name!r} has non-finite values")
    if col.kind == "binary":
        binary = (values == 0.0) | (values == 1.0)
        if not binary.all():
            raise SchemaMismatch(f"{table.path}:{table.line_of_first(~binary)}: "
                                 f"binary column {col.name!r} has values "
                                 f"outside {{0,1}}")
    return values


def _parse_labels(table, name):
    """One file's label column, in {-1,+1} or in {0,1}, as -1/+1. Each
    distinct cell is converted once, in the order cells first appear, so
    an error names the first bad cell's line."""
    codes, signs, first_code = table.columns[name], [], {}

    def bad(code, message):
        line = table.line_of_first(codes == code)
        return BadLabelValue(f"{table.path}:{line}: {message}")

    for code, cell in enumerate(table.distinct[name]):
        try:
            value = float(cell)
        except ValueError:
            raise bad(code, f"label {cell!r} is not numeric")
        if value not in (-1.0, 0.0, 1.0):
            raise bad(code, f"label {cell!r} not in {{-1,+1}} or {{0,1}}")
        signs.append(1.0 if value == 1.0 else -1.0)
        first_code.setdefault(value, code)
    if {-1.0, 0.0} <= first_code.keys():
        # Codes number cells as they first appear: the later of the two
        # first codes is the line where the encodings mix.
        raise bad(max(first_code[-1.0], first_code[0.0]),
                  "labels mix the {-1,+1} and {0,1} encodings: "
                  "one column holds both -1 and 0")
    return np.array(signs)[codes]


def _split(value):
    """value as a train fraction, which must lie strictly between 0 and 1."""
    fraction = float(value)
    if not 0.0 < fraction < 1.0:
        raise ValueError("a split must be > 0 and < 1")
    return fraction


def load_dataset(csv_path, spec_path, split_fraction=0.8, seed=0):
    """Load a CSV + feature spec into an encoded train/test dataset.

    The split is a seeded permutation; categorical levels and z-score
    statistics are fitted on the training split only and applied to all
    rows. Raises ValueError unless 0 < split_fraction < 1, before any
    file is opened, and EmptySplit when the split leaves no training row.
    """
    split_fraction = _split(split_fraction)
    spec = parse_feature_spec(spec_path)
    table = _read_csv(csv_path, spec)
    labels = _parse_labels(table, spec.label_column.name)
    n = len(labels)
    # Below 1, split_fraction * n rounds below n: the test side has a row.
    n_train = int(split_fraction * n)
    if n_train < 1:
        raise EmptySplit(f"split {split_fraction} of {n} rows leaves no training row")
    perm = np.random.default_rng(seed).permutation(n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])

    levels, means, stds = {}, {}, {}
    for col in spec.feature_columns:
        if col.kind == "categorical":
            distinct = table.distinct[col.name]
            in_train = np.zeros(len(distinct), dtype=bool)
            in_train[table.columns[col.name][train_idx]] = True
            levels[col.name] = tuple(sorted(distinct[c]
                                            for c in np.flatnonzero(in_train)))
        elif col.kind == "continuous":
            values = _parse_numeric(table, col)[train_idx]
            means[col.name] = float(values.mean())
            stds[col.name] = float(values.std())
    encoder = Encoder(spec=spec, levels=levels, means=means, stds=stds)
    features, action_kinds = encoder.apply(table)
    return EncodedDataset(features=features, labels=labels,
                          action_kinds=action_kinds, train_idx=train_idx,
                          test_idx=test_idx, encoder=encoder)


def encode_csv(encoder, csv_path):
    """Apply a fitted encoder to another CSV with the same schema."""
    table = _read_csv(csv_path, encoder.spec)
    labels = _parse_labels(table, encoder.spec.label_column.name)
    features, _ = encoder.apply(table)
    return features, labels


def _parse_instances(text):
    ids = tuple(int(p) for p in str(text).split(","))
    if not ids or any(i < 0 for i in ids):
        raise ValueError("instance ids must be nonnegative integers")
    return ids


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _radius(text):
    value = float(text)
    if not value >= 0.0:
        raise ValueError("a radius must be a number >= 0")
    return value


def _parse_range(text):
    """One radius, a number >= 0, or `start:stop:step` inclusive of both
    ends when step divides the span.

    start must be a number >= 0, stop a finite one >= start (inf is a
    radius of its own) and step a finite one > 0, and the span must hold
    at most 10^6 steps, which is checked before any value is built. A
    sweep pays one solve per instance and radius, and six-significant-digit
    report ids stop telling radii apart long before that count.
    """
    parts = str(text).split(":")
    if len(parts) == 1:
        return (_radius(parts[0]),)
    if len(parts) != 3:
        raise ValueError("expected start:stop:step")
    start, stop, step = (_radius(p) for p in parts)
    if stop == math.inf:
        raise ValueError("a grid needs a finite stop; give inf as a radius of its own")
    if not 0.0 < step < math.inf or stop < start:
        raise ValueError("need a finite step > 0 and stop >= start")
    span = (stop - start) / step
    if not span <= _MAX_RANGE_STEPS:  # an infinite span included
        raise ValueError("too many radii in start:stop:step")
    nearest = round(span)
    if abs(span - nearest) <= 1e-9 * max(1.0, abs(span)):
        values = [start + i * step for i in range(int(nearest) + 1)]
        values[-1] = stop
    else:
        values = [start + i * step for i in range(int(math.floor(span)) + 1)]
    return tuple(values)


def _opt(name, convert=str, **kwargs):
    """Option --name (dashes for underscores) as (name, add_argument
    keywords); convert's ValueError text is kept in argparse's message."""
    def checked(text):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}")
    return name, dict(type=checked, **kwargs)


_COMMON = (
    _opt("seed", int, default=0, help="master random seed"),
)
_DATA = (
    _opt("data", required=True, help="dataset CSV"),
    _opt("spec", required=True, help="feature-spec file"),
    _opt("split", _split, default=0.8, help="train fraction"),
)
_TRAIN = (
    _opt("epochs", int, default=1000, help="training epochs"),
    _opt("lr", float, default=1e-3, help="learning rate"),
)
_FIT = (
    _opt("divergence", default="nominal",
         choices=tuple(kind.value for kind in DivergenceKind),
         help="covariance divergence"),
    _opt("rho_pos", _radius, default=0.0, help="positive-class radius"),
    _opt("mode", default="projection", choices=MODES, help="recourse mode"),
    _opt("k", int, default=10, help="opposite-class prototypes to scan"),
    _opt("n_p", int, default=1000, help="boundary ball sample count"),
)


def _build_parser():
    """The cvas parser and the actions of its required options."""
    parser = _Parser(prog="cvas", description=__doc__.splitlines()[0],
                     allow_abbrev=False)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    required = []
    for command, (handler, opts) in _COMMANDS.items():
        sub = subparsers.add_parser(command, allow_abbrev=False)
        sub.set_defaults(handler=handler)
        sub.add_argument("--config", help="flat key = value config file")
        for name, kwargs in opts:
            action = sub.add_argument("--" + name.replace("_", "-"), dest=name,
                                      **kwargs)
            if action.required:
                required.append(action)
    return parser, required


def _config_flags(path):
    """A config file's `key = value` lines as `--key=value` flags."""
    try:
        with open(path, encoding=_ENCODING) as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}")
    flags = []
    for lineno, line in _content_lines(text):
        key, sep, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected `key = value`")
        if key == "config":
            raise ValueError(f"{path}:{lineno}: a config file cannot set --config")
        flags.append(f"--{key}={value.strip()}")
    return flags


def _parse(argv):
    """argv with its --config file's flags placed right after the
    subcommand, where argv's own flags override them."""
    finder = _Parser(add_help=False, allow_abbrev=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv[1:])[0].config
    flags = [] if path is None else _config_flags(path)
    args = [*argv[:1], *flags, *argv[1:]]
    parser, required = _build_parser()
    # argparse reports missing options before unrecognized ones, so a
    # misspelt option (--conf for --config) would hide behind the options
    # it failed to supply; a first pass with none required names it.
    for action in required:
        action.required = False
    parser.parse_args(args)
    for action in required:
        action.required = True
    return parser.parse_args(args)


def _cmd_gen_synthetic(ns):
    features, labels = generate_synthetic(ns.n, noise_std=ns.noise,
                                          seed=ns.seed)
    lines = ["x1,x2,label"]
    for row, label in zip(features, labels):
        lines.append(f"{float(row[0])!r},{float(row[1])!r},{int(label)}")
    atomic_write_text(ns.out, "\n".join(lines) + "\n")
    if ns.spec_out is not None:
        atomic_write_text(ns.spec_out,
                          "x1,continuous,free\nx2,continuous,free\n"
                          "label,label\n")


def _cmd_train(ns):
    config = TrainConfig(epochs=ns.epochs, learning_rate=ns.lr, seed=ns.seed)
    dataset = load_dataset(ns.data, ns.spec, ns.split, ns.seed)
    model = train_mlp(dataset.features[dataset.train_idx],
                      dataset.labels[dataset.train_idx], config)
    save_model(model, ns.out)


def _cmd_recourse(ns):
    divergence = Divergence(kind=ns.divergence, rho_pos=ns.rho_pos,
                            rho_neg=ns.rho_neg)
    sampler_config = SamplerConfig(k=ns.k, n_p=ns.n_p, seed=ns.seed)
    dataset = load_dataset(ns.data, ns.spec, ns.split, ns.seed)
    n_rows = dataset.features.shape[0]
    for instance_id in ns.instances:
        if instance_id >= n_rows:
            raise ValueError(f"instance id {instance_id} out of range "
                             f"(dataset has {n_rows} rows)")
    model = load_model(ns.model)
    train_features = dataset.features[dataset.train_idx]
    # One ball radius for every instance.
    sampler_config = replace(sampler_config,
                             r_p=resolve_radius(sampler_config, train_features))
    lines, causes = [RECOURSE_HEADER], Counter()
    for instance_id in ns.instances:
        x0 = dataset.features[instance_id]
        cells = [str(instance_id), ns.mode, divergence.kind.value,
                 repr(ns.rho_pos), repr(ns.rho_neg)]
        try:
            actions = None
            if ns.mode == "actionable":
                actions = default_action_grids(x0, train_features,
                                               kinds=dataset.action_kinds)
            result = generate_recourse(model, x0, train_features, sampler_config,
                                       divergence, ns.mode, actions=actions)
        except CvasError as exc:
            causes[type(exc).__name__] += 1
            cells += ["", "", "", type(exc).__name__]
        else:
            cells += [repr(result.cost), str(result.surrogate_valid).lower(),
                      str(result.blackbox_valid).lower(), ""]
        lines.append(",".join(cells))
    if sum(causes.values()) == len(ns.instances):
        counts = ", ".join(f"{n} {name}" for name, n in sorted(causes.items()))
        raise EmptyInput(f"every instance failed: {counts}")
    atomic_write_text(ns.out, "\n".join(lines) + "\n")


def _cmd_sweep(ns):
    config = EvalConfig(seed=ns.seed, rho_pos=ns.rho_pos,
                        sampler=SamplerConfig(k=ns.k, n_p=ns.n_p),
                        train=TrainConfig(epochs=ns.epochs, learning_rate=ns.lr,
                                          seed=ns.seed),
                        n_models=ns.n_models)
    _check_grid(ns.divergence, ns.rho_pos, ns.rho_neg, ns.mode)
    dataset = load_dataset(ns.data, ns.spec, ns.split, ns.seed)
    config = replace(config, action_kinds=dataset.action_kinds)
    shifted = encode_csv(dataset.encoder, ns.shifted)
    train_features = dataset.features[dataset.train_idx]
    train_labels = dataset.labels[dataset.train_idx]
    # The current model: it selects the instances here, and sweep() uses
    # it instead of training it again.
    model = train_mlp(train_features, train_labels, config.train)
    test_features = dataset.features[dataset.test_idx]
    unfavorable = test_features[model.label(test_features) == -1]
    if unfavorable.shape[0] == 0:
        raise EmptyInput("no unfavorably classified test instances")
    instances = unfavorable[:ns.max_instances]
    report = sweep((train_features, train_labels), shifted, instances,
                   ns.divergence, ns.rho_neg, ns.mode, config, model=model)
    write = report.to_json if str(ns.out).endswith(".json") else report.to_csv
    write(ns.out)


_COMMANDS = {
    "gen-synthetic": (_cmd_gen_synthetic, _COMMON + (
        _opt("n", int, required=True, help="number of rows"),
        _opt("noise", float, default=0.0, help="label noise std"),
        _opt("out", required=True, help="output CSV path"),
        _opt("spec_out", help="also write a matching feature spec"),
    )),
    "train": (_cmd_train, _COMMON + _DATA + _TRAIN + (
        _opt("out", required=True, help="model output path"),
    )),
    "recourse": (_cmd_recourse, _COMMON + _DATA + _FIT + (
        _opt("model", required=True, help="trained model file"),
        _opt("instances", _parse_instances, required=True,
             help="comma-separated row ids"),
        _opt("rho_neg", _radius, default=0.0, help="negative-class radius"),
        _opt("out", required=True, help="output CSV path"),
    )),
    "sweep": (_cmd_sweep, _COMMON + _DATA + _TRAIN + _FIT + (
        _opt("shifted", required=True, help="shifted-distribution CSV"),
        _opt("out", required=True, help="report path (.csv or .json)"),
        _opt("n_models", int, default=100, help="future-model ensemble size"),
        _opt("max_instances", _positive_int, default=25,
             help="cap on evaluated test instances"),
        _opt("rho_neg", _parse_range, default=(0.0,),
             help="one radius, or a grid start:stop:step"),
    )),
}


def run(argv):
    """Parse argv, dispatch, and map errors to exit codes."""
    try:
        args = _parse(argv)
        args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CvasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
