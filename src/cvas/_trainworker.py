"""Training worker of blackbox._future_models.

``python -m cvas._trainworker`` reads one pickled ``(features, labels,
jobs)`` triple from stdin, trains one model per ``(row indices,
config)`` job in order, and writes the pickled list of models to
stdout. Only _future_models writes its stdin, so the bytes it
unpickles come from this package.
"""

import pickle
import sys

from .blackbox import _train_jobs


def main():
    models = _train_jobs(*pickle.load(sys.stdin.buffer))
    pickle.dump(models, sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    main()
