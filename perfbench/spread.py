"""Run one workload over several seeds and report each end-to-end
metric's median and quartile spread against its bound.

    python3 perfbench/spread.py WORKLOAD [--seeds 1,2,3,4,5] [--trace 0]

Runs are sequential, one process at a time, from the checkout root.
The spread is (Q3 - Q1) / median with statistics.quantiles(n=4).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in args.seeds.split(","):
        command = bench["command"] + [
            "--workload", args.workload, "--seed", seed,
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=600, check=False)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed} exit {done.returncode} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, series in values.items():
        spread = stats.quartile_spread(series) if len(series) > 1 else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound {bound} {'ok' if spread <= bound / 3 else 'WIDE'}"
        print(f"{name}: median {stats.median(series):.6g} spread {spread:.4f}{flag} "
              f"values {[round(v, 6) for v in series]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
