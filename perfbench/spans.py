"""Spans recorded from outside the program, at the calls between layers.

A Tracer replaces the module attributes through which cvas's modules
call one another (and the package-level re-exports) with wrappers that
record one span per call: name, start, end, parent span, and the class
of the exception if the call raised. Spans stay in memory until the run
ends. The wrappers call the original function with the same arguments
and return its result unchanged, so a traced run must produce the same
report bytes as an untraced one.
"""

import collections
import contextlib
import functools
import hashlib
import importlib
import json
import sys
import time

import numpy as np

import stats

# (metric name, defining module, attribute path). Every binding of the
# attribute's object in a loaded cvas module is wrapped, so calls made
# through `from .sampler import synthesize` copies are seen too. A point
# that no longer resolves is reported as missing, never as zero calls.
WRAP_POINTS = (
    ("blackbox.train_mlp", "cvas.blackbox", "train_mlp"),
    ("blackbox.simulate_future_models", "cvas.blackbox", "simulate_future_models"),
    ("blackbox.predict_proba", "cvas.blackbox", "MlpModel.predict_proba"),
    ("sampler.find_boundary_point", "cvas.sampler", "find_boundary_point"),
    ("sampler.resolve_radius", "cvas.sampler", "resolve_radius"),
    ("sampler.max_pairwise_distance", "cvas.sampler", "max_pairwise_distance"),
    ("sampler.sample_ball", "cvas.sampler", "sample_ball"),
    ("sampler.synthesize", "cvas.sampler", "synthesize"),
    ("moments.estimate_moments", "cvas.moments", "estimate_moments"),
    ("surrogate.solve_cvas", "cvas.surrogate", "solve_cvas"),
    ("recourse.generate_recourse", "cvas.recourse", "generate_recourse"),
    ("recourse.fit_surrogate", "cvas.recourse", "fit_surrogate"),
    ("recourse.l1_projection", "cvas.recourse", "l1_projection"),
    ("recourse.actionable_recourse", "cvas.recourse", "actionable_recourse"),
    ("recourse.default_action_grids", "cvas.recourse", "default_action_grids"),
    ("evalharness.sweep", "cvas.evalharness", "sweep"),
    ("evalharness.sensitivity", "cvas.evalharness", "sensitivity"),
    ("evalharness.local_fidelity", "cvas.evalharness", "local_fidelity"),
    ("evalharness.validity_metrics", "cvas.evalharness", "validity_metrics"),
    ("cli.run", "cvas.cli", "run"),
    ("cli.load_dataset", "cvas.cli", "load_dataset"),
    ("cli.encode_csv", "cvas.cli", "encode_csv"),
    ("cli.report_write", "cvas.evalharness", "EvalReport.to_csv"),
    ("cli.report_write", "cvas.evalharness", "EvalReport.to_json"),
)

# Names whose wrapped calls contain other wrapped calls; these also get
# a self time (span time minus the time covered by child spans).
WITH_CHILDREN = (
    "blackbox.simulate_future_models",
    "sampler.find_boundary_point",
    "sampler.resolve_radius",
    "sampler.synthesize",
    "recourse.generate_recourse",
    "recourse.fit_surrogate",
    "evalharness.sweep",
    "evalharness.sensitivity",
    "evalharness.local_fidelity",
    "evalharness.validity_metrics",
    "cli.run",
)

# The end-to-end metric (and workloads) each layer's time and counts
# should move. The traced run prints this beside every per-layer metric.
FEEDS = {
    "blackbox.train_mlp": "op_ms_p50 on the sweeps; setup_s on all",
    "blackbox.simulate_future_models": "op_ms_p50 on fixture-sweep (most), radius-sweep",
    "blackbox.predict_proba": "op_ms_p50 on recourse-queries, radius-sweep",
    "sampler.find_boundary_point": "op_ms_p50 on recourse-queries, radius-sweep",
    "sampler.resolve_radius": "op_ms_p50 on recourse-queries; ~0 on the sweeps",
    "sampler.max_pairwise_distance": "op_ms_p50 on recourse-queries",
    "sampler.sample_ball": "op_ms_p50 (small share everywhere)",
    "sampler.synthesize": "op_ms_p50 on radius-sweep, recourse-queries",
    "moments.estimate_moments": "none expected (<1%)",
    "surrogate.solve_cvas": "op_ms_tail on recourse-queries; op_ms_p50 on fixture-sweep",
    "recourse.generate_recourse": "op_ms_p50, op_ms_tail, success_frac on recourse-queries",
    "recourse.fit_surrogate": "success_frac, op_ms_p50 on the sweeps",
    "recourse.l1_projection": "op_ms_p50 (small share)",
    "recourse.actionable_recourse": "op_ms_p50 on recourse-queries, radius-sweep; 0 on fixture-sweep",
    "recourse.default_action_grids": "op_ms_p50 on recourse-queries, radius-sweep; 0 on fixture-sweep",
    "evalharness.sweep": "op_ms_p50 on the sweeps; 0 on recourse-queries",
    "evalharness.sensitivity": "op_ms_p50 on radius-sweep (most), fixture-sweep",
    "evalharness.local_fidelity": "op_ms_p50 on the sweeps",
    "evalharness.validity_metrics": "op_ms_p50 on the sweeps",
    "cli.run": "op_ms_p50 on radius-sweep",
    "cli.load_dataset": "setup_s on recourse-queries; op_ms_p50 on radius-sweep",
    "cli.encode_csv": "setup_s on recourse-queries; op_ms_p50 on radius-sweep",
    "cli.report_write": "op_ms_p50 on radius-sweep",
}


def feeds(metric):
    """The FEEDS entry of the layer a per-layer metric belongs to."""
    if metric == "sampler.forward_calls_per_boundary":
        return FEEDS["sampler.find_boundary_point"]
    return FEEDS.get(metric.rsplit(".", 1)[0], "none (overhead of tracing)")


# Names whose failures are counted by exception class.
COUNT_FAILED = (
    "surrogate.solve_cvas",
    "recourse.fit_surrogate",
    "recourse.generate_recourse",
)

# Names whose calls are keyed by argument content to count repeated work.
KEYED = ("blackbox.train_mlp", "sampler.synthesize")


def layer_names():
    return tuple(dict.fromkeys(name for name, _, _ in WRAP_POINTS))


def per_layer_metric_units():
    """Every per-layer metric the traced run reports, name -> unit."""
    units = {}
    for name in layer_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        if name in WITH_CHILDREN:
            units[f"{name}.self_s"] = "s"
        if name in COUNT_FAILED:
            units[f"{name}.failed"] = "count"
        if name in KEYED:
            units[f"{name}.distinct_frac"] = "fraction"
    units["blackbox.predict_proba.rows"] = "count"
    units["sampler.forward_calls_per_boundary"] = "count"
    units["surrogate.solve_cvas.ms_p50"] = "ms"
    units["surrogate.solve_cvas.ms_tail"] = "ms"
    units["trace_overhead_frac"] = "fraction"
    return units


def content_key(args, kwargs):
    """Digest of a call's arguments: array bytes, model weights, reprs."""
    h = hashlib.blake2b(digest_size=16)
    for value in list(args) + sorted(kwargs.items()):
        if isinstance(value, np.ndarray):
            h.update(str(value.shape).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif hasattr(value, "weights") and hasattr(value, "biases"):
            for array in list(value.weights) + list(value.biases):
                h.update(np.ascontiguousarray(array).tobytes())
        else:
            h.update(repr(value).encode())
        h.update(b"|")
    return h.digest()


def _rows(args, kwargs):
    features = args[1] if len(args) > 1 else kwargs["features"]
    shape = np.shape(features)
    return 1 if len(shape) < 2 else int(shape[0])


_INFO = {
    "blackbox.predict_proba": _rows,
    "blackbox.train_mlp": content_key,
    "sampler.synthesize": content_key,
}


class Tracer:
    """Span recorder plus the wrap-point inventory it installs.

    A span is the list [name index, start, end, parent index, error
    class or None, info], where info is the per-call detail _INFO
    extracts (rows for predict_proba, an argument digest for keyed
    names).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._index = {}
        self.spans = []
        self._stack = []
        self.missing = []

    def _name_index(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, idx, info=None):
        span = [idx, 0.0, 0.0, self._stack[-1] if self._stack else -1, None, info]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        return span

    def _close(self, span):
        span[2] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, info=None):
        """A function that records a span around each call of fn. `info`,
        if given, replaces the _INFO extractor of the name."""
        idx = self._name_index(name)
        info_of = info or _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(idx, info_of(args, kwargs) if info_of else None)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                self._close(span)

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        span = self._open(self._name_index(name))
        try:
            yield
        except BaseException as exc:
            span[4] = type(exc).__name__
            raise
        finally:
            self._close(span)

    def watch(self, owner, attr, name, info=None):
        """Within the block, record a span for each call of owner.attr."""
        return patched(owner, attr, lambda fn: self.wrap(name, fn, info))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every point of WRAP_POINTS that resolves, list the rest as
        missing, and restore every binding when the block ends."""
        with contextlib.ExitStack() as stack:
            for name, module_name, path in WRAP_POINTS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                if owner is None or attr not in vars(owner):
                    self.missing.append(f"{module_name}.{path}")
                    continue
                if owner_name:
                    stack.enter_context(self.watch(owner, attr, name))
                    continue
                original = vars(owner)[attr]
                wrapper = self.wrap(name, original)
                for module_name_, loaded in list(sys.modules.items()):
                    if module_name_ != "cvas" and not module_name_.startswith("cvas."):
                        continue
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            stack.enter_context(
                                patched(loaded, key, lambda _, w=wrapper: w))
            yield self

    def missing_layers(self):
        """Metric names whose every wrap point failed to resolve."""
        resolved = set()
        for name, module_name, path in WRAP_POINTS:
            if f"{module_name}.{path}" not in self.missing:
                resolved.add(name)
        return [name for name in layer_names() if name not in resolved]

    def dump(self, path):
        """Write the spans as JSON: names plus [name, start, end, parent,
        error] rows."""
        rows = [[s[0], s[1], s[2], s[3], s[4]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": rows}, handle)


@contextlib.contextmanager
def patched(owner, attr, make):
    """Within the block, owner.attr is make(original); the original is
    restored when the block ends, also on an exception."""
    original = vars(owner)[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def wrapper_cost(calls=20000):
    """Seconds one span adds to a call, measured on a no-op function."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(calls):
        wrapped()
    return max(clock() - start - bare, 0.0) / calls


def covered_length(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans):
    """Per-span self time: duration minus what its child spans cover."""
    children = collections.defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [s[2] - s[1] - covered_length(s[1], s[2], children.get(i, ()))
            for i, s in enumerate(spans)]


def _has_ancestor(spans, i, name_idx):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name_idx:
            return True
        parent = spans[parent][3]
    return False


def summarize(tracer, names=None):
    """Per-name calls, inclusive seconds (outermost calls only), self
    seconds, durations, failures by class and infos."""
    spans = tracer.spans
    selfs = self_times(spans)
    table = {}
    for name in names or tracer.names:
        table[name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [],
                       "failed": collections.Counter(), "infos": []}
    for i, span in enumerate(spans):
        name = tracer.names[span[0]]
        row = table.get(name)
        if row is None:
            continue
        duration = span[2] - span[1]
        row["calls"] += 1
        row["durations"].append(duration)
        row["self_s"] += selfs[i]
        if not _has_ancestor(spans, i, span[0]):
            row["s"] += duration
        if span[4] is not None:
            row["failed"][span[4]] += 1
        if span[5] is not None:
            row["infos"].append(span[5])
    return table


def calls_within(tracer, name, ancestor):
    """Calls of `name` made (at any depth) inside a call of `ancestor`."""
    if name not in tracer._index or ancestor not in tracer._index:
        return 0
    idx, anc = tracer._index[name], tracer._index[ancestor]
    return sum(1 for i, s in enumerate(tracer.spans)
               if s[0] == idx and _has_ancestor(tracer.spans, i, anc))


def layer_metrics(tracer, overhead_frac):
    """The per-layer metrics of per_layer_metric_units(), minus those of
    layers whose wrap points are missing."""
    names = layer_names()
    table = summarize(tracer, names)
    metrics = {}
    for name in names:
        row = table[name]
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.s"] = row["s"]
        if name in WITH_CHILDREN:
            metrics[f"{name}.self_s"] = row["self_s"]
        if name in COUNT_FAILED:
            metrics[f"{name}.failed"] = sum(row["failed"].values())
        if name in KEYED:
            calls = row["calls"]
            metrics[f"{name}.distinct_frac"] = (
                len(set(row["infos"])) / calls if calls else 0.0)
    metrics["blackbox.predict_proba.rows"] = sum(
        table["blackbox.predict_proba"]["infos"])
    boundaries = table["sampler.find_boundary_point"]["calls"]
    forward = calls_within(tracer, "blackbox.predict_proba",
                           "sampler.find_boundary_point")
    metrics["sampler.forward_calls_per_boundary"] = (
        forward / boundaries if boundaries else 0.0)
    solve_ms = [d * 1000.0 for d in table["surrogate.solve_cvas"]["durations"]]
    tail_p = stats.tail_percentile(len(solve_ms))
    metrics["surrogate.solve_cvas.ms_p50"] = (
        stats.median(solve_ms) if solve_ms else 0.0)
    metrics["surrogate.solve_cvas.ms_tail"] = (
        stats.percentile(solve_ms, tail_p) if tail_p is not None
        else max(solve_ms, default=0.0))
    metrics["trace_overhead_frac"] = overhead_frac
    missing = set(tracer.missing_layers())
    if missing & {"blackbox.predict_proba", "sampler.find_boundary_point"}:
        del metrics["sampler.forward_calls_per_boundary"]
    return {key: value for key, value in metrics.items()
            if key.rsplit(".", 1)[0] not in missing}, tail_p


def split(tracer, root, flatten=()):
    """Where the time of `root` calls went: (name, seconds, share) for the
    spans directly under them, largest first. Spans named in `flatten`
    are replaced by their own children. The share's base is the total
    time of the root calls; the remainder is the root's self time."""
    if root not in tracer._index:
        return []
    spans = tracer.spans
    children = collections.defaultdict(list)
    for i, span in enumerate(spans):
        children[span[3]].append(i)
    flat = {tracer._index[name] for name in flatten if name in tracer._index}
    root_idx = tracer._index[root]
    totals = collections.Counter()
    base = 0.0
    for i, span in enumerate(spans):
        if span[0] != root_idx or _has_ancestor(spans, i, root_idx):
            continue
        base += span[2] - span[1]
        stack = list(children[i])
        while stack:
            j = stack.pop()
            if spans[j][0] in flat:
                stack.extend(children[j])
            else:
                totals[tracer.names[spans[j][0]]] += spans[j][2] - spans[j][1]
    return [(name, seconds, seconds / base if base else 0.0)
            for name, seconds in totals.most_common()]
