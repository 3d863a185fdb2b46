"""Benchmark runner for cvas.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the runner imports cvas from
./src and refuses to run without it. It times set-up several times,
then runs the workload's operations until the next one would overrun
--seconds (always at least the workload's minimum), checks every output,
and prints one line per metric followed, as the last line, by a JSON
object {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
runner instead runs the workload's minimum batch once untraced and once
with spans recorded at every layer boundary (plus one traced set-up),
requires both batches to give the same report digest, and reports the
per-layer metrics and the tracing overhead.
"""

import os

# One BLAS thread: the MLP's small matmuls run faster and steadier on one
# core than split across threads. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX = 25
WORKLOAD_NAMES = ("fixture-sweep", "radius-sweep", "recourse-queries")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "success_frac": "fraction",
    "future_validity": "fraction",
    "local_fidelity": "fraction",
    "mean_cost": "L1",
    "recourse_validity": "fraction",
}


def import_checkout_cvas():
    """Import cvas from ROOT/src, never from an installed copy."""
    source = ROOT / "src"
    if not (source / "cvas" / "__init__.py").is_file():
        sys.exit(f"error: {source}/cvas not found; run from a cvas checkout")
    sys.path.insert(0, str(source))
    import cvas
    if Path(cvas.__file__).resolve().parent != (source / "cvas").resolve():
        sys.exit(f"error: imported cvas from {cvas.__file__}, not {source}")


def environment():
    import numpy as np
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        pass
    return {"nproc": os.cpu_count(), "blas": blas,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "numpy": np.__version__, "python": sys.version.split()[0]}


def timed_setups(workload, clock):
    """Set up at least SETUP_REPS times, and more (up to SETUP_MAX) while
    the set-ups together take under SETUP_MIN_S, so that a set-up of a
    few milliseconds still gets a steady median."""
    times = []
    while len(times) < SETUP_REPS or (sum(times) < SETUP_MIN_S
                                      and len(times) < SETUP_MAX):
        start = clock()
        workload.setup(len(times))
        times.append(clock() - start)
    return times


def timed_loop(workload, seconds, clock, count=None):
    """Run operations 0, 1, ...; return (outputs, durations).

    With count, run exactly that many. Otherwise run at least min_ops and
    stop before an operation that, at the median duration so far, would
    end past `seconds` (or when the workload's inputs run out).
    """
    import stats
    outputs, durations = [], []
    available = workload.available()
    start = clock()
    i = 0
    while available is None or i < available:
        if count is not None and i >= count:
            break
        if count is None and i >= workload.min_ops:
            if clock() - start + stats.median(durations) > seconds:
                break
        workload.before_op(i)
        t0 = clock()
        outputs.append(workload.run_op(i))
        durations.append(clock() - t0)
        i += 1
    return outputs, durations


def digest(blob):
    return hashlib.sha256(blob).hexdigest()


def measured_run(workload, setups, seconds, ledger, clock):
    """Untraced: the end-to-end metrics of a --seconds run."""
    import stats
    outputs, durations = timed_loop(workload, seconds, clock)
    ms = [d * 1000.0 for d in durations]
    # The tail percentile follows from the operation count every run is
    # guaranteed, so it stays the same percentile when a faster program
    # fits more operations into a run. Sweep runs hold too few operations
    # for any; their tail is the slowest operation.
    tail_p = stats.tail_percentile(workload.min_ops)
    failed_frac = ledger.total_failed / ledger.total_attempted
    metrics = {
        "setup_s": stats.median(setups),
        "op_ms_p50": stats.median(ms),
        "op_ms_tail": stats.percentile(ms, tail_p) if tail_p else max(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": 1.0 - failed_frac,
    }
    metrics.update(workload.quality(outputs))
    lines = [f"ops {len(ms)} setups {len(setups)} tail "
             f"{f'p{tail_p:g}' if tail_p else 'max'} failed_frac {failed_frac:.6g}"]
    return (workload.problems(outputs), workload.report_bytes(outputs), metrics,
            END_TO_END_UNITS, lines)


def traced_run(workload, setups, name, seed, clock):
    """The minimum batch untraced, then one set-up and the same batch
    traced: per-layer metrics, and a check that both batches agree."""
    import spans
    from workloads import SPLIT
    batch = workload.min_ops
    plain, plain_durations = timed_loop(workload, 0, clock, count=batch)
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.span("bench.setup"):
            workload.setup(len(setups))
        with tracer.span("bench.batch"):
            traced, traced_durations = timed_loop(workload, 0, clock, count=batch)
    problems = workload.problems(plain) + workload.problems(traced)
    blob = workload.report_bytes(plain)
    if digest(workload.report_bytes(traced)) != digest(blob):
        problems.append("traced report digest differs from untraced")
    overhead = sum(traced_durations) / sum(plain_durations) - 1.0
    metrics, tail_p = spans.layer_metrics(tracer, overhead)
    # The measured overhead compares two runs and carries their noise;
    # the estimate counts spans at the cost of a span around a no-op.
    estimate = len(tracer.spans) * spans.wrapper_cost() / sum(traced_durations)
    lines = [f"missing wrap points {tracer.missing or 'none'}",
             f"trace overhead measured {overhead:.4f}, estimated {estimate:.4f} "
             f"from {len(tracer.spans)} spans",
             f"solve_cvas tail {f'p{tail_p:g}' if tail_p else 'max'}"]
    root, flatten, expected = SPLIT[name]
    parts = spans.split(tracer, root, flatten)
    lines += [f"split {root} > {part} {seconds:.4f} s {share:.1%}"
              for part, seconds, share in parts]
    largest = parts[0][0] if parts else "none"
    lines.append(f"largest layer {largest}; expected {expected}: "
                 f"{'confirmed' if largest == expected else 'NOT confirmed'}")
    units = spans.per_layer_metric_units()
    lines += [f"feeds {metric} -> {spans.feeds(metric)}" for metric in units]
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"trace-{name}-seed{seed}.json")
    return problems, blob, metrics, units, lines


def run(args):
    import_checkout_cvas()
    from workloads import WORKLOADS, Ledger

    clock = time.perf_counter
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    workload = WORKLOADS[args.workload](args.seed, workdir, ledger)
    lines = [f"env {json.dumps(environment(), sort_keys=True)}",
             f"workload {args.workload} seed {args.seed} trace {args.trace}"]
    try:
        setups = timed_setups(workload, clock)
        if args.trace:
            problems, blob, metrics, units, more = traced_run(
                workload, setups, args.workload, args.seed, clock)
        else:
            problems, blob, metrics, units, more = measured_run(
                workload, setups, args.seconds, ledger, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    lines += more
    problems += [f"metric {name} is {value}" for name, value in metrics.items()
                 if not math.isfinite(value)]
    lines.append(f"report_sha256 {digest(blob)}")
    lines.append(f"attempted {dict(ledger.attempted)} failed {dict(ledger.failed)}")
    lines += [f"metric {name} {metrics[name]:.6g} {unit}" if name in metrics
              else f"metric {name} missing" for name, unit in units.items()]
    lines += [f"check failed: {problem}" for problem in problems]
    print("\n".join(lines))
    result = {
        "correct": not problems,
        "attempted": ledger.total_attempted,
        "failed": ledger.total_failed,
        # A non-finite value fails the run above and is written as null.
        "metrics": {name: {"value": float(metrics[name])
                           if math.isfinite(metrics[name]) else None, "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
