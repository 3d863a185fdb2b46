"""Peak memory of the child processes of one benchmark run.

    python3 scripts/children_rss.py --workload fixture-sweep --seed 1 --seconds 20 --trace 0

perfbench/run.py reports peak_rss_mb from RUSAGE_SELF, which leaves out
the future-model ensemble's training workers. This script runs that
runner, with the arguments given, inside its own process, and then
prints one JSON line: the runner's exit status, the largest
resident set of any child process it reaped (RUSAGE_CHILDREN, 0 when
it started none) and its own peak (RUSAGE_SELF), in MB. Run it from the
root of a source checkout, as the runner requires.
"""

import json
import resource
import runpy
import sys
from pathlib import Path


def main():
    runner = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    sys.argv = [str(runner)] + sys.argv[1:]
    sys.path.insert(0, str(runner.parent))  # the runner imports its siblings
    try:
        runpy.run_path(str(runner), run_name="__main__")
        status = 0
    except SystemExit as stop:
        status = stop.code if isinstance(stop.code, int) else 1
    print(json.dumps({
        "exit": status,
        "children_max_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "self_max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return status


if __name__ == "__main__":
    sys.exit(main())
