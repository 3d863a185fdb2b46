"""Training worker of blackbox._future_models.

``python -m cvas._trainworker`` reads one pickled ``(features, labels,
jobs)`` triple from stdin, trains one model per ``(row indices,
config)`` job in order, and writes the pickled list of models to
stdout. If train_mlp raises a CvasError, the worker stops there and
the error takes the failed model's place, last in the list. Only
_future_models writes its stdin, so the bytes it unpickles come from
this package.
"""

import pickle
import sys

from .blackbox import train_mlp
from .errors import CvasError


def main():
    features, labels, jobs = pickle.load(sys.stdin.buffer)
    trained = []
    try:
        for idx, config in jobs:
            trained.append(train_mlp(features[idx], labels[idx], config))
    except CvasError as exc:
        trained.append(exc)
    pickle.dump(trained, sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    main()
