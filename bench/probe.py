"""Host-speed probe: times a fixed computation that does not touch copa.

Started by ``worker.py`` as a child on the worker's CPU.  Each line read
from standard input runs the computation once and writes its wall time
in seconds as one line; end of input ends the process.  A process of its
own keeps the probe's memory out of the worker's peak RSS and keeps the
program's heap and collector out of the probe's time.
"""

from __future__ import annotations

import gc
import sys
import time

import numpy as np


def probe() -> float:
    """A dict built and read with float arithmetic in Python, then
    logistic regression steps in numpy: the two kinds of work copa's
    commands do."""
    start = time.perf_counter()
    table = {f"k{i}": (i % 97) / 97.0 for i in range(40_000)}
    keys = list(table)
    total = 0.0
    for i in range(len(keys) - 40):
        a = table[keys[i]]
        total += max(a * table[keys[i + 7]], a - table[keys[i + 31]])
    X = np.random.default_rng(0).normal(size=(1500, 50))
    y = (X[:, 0] > 0).astype(float)
    w = np.zeros(50)
    for _ in range(150):
        p = 1.0 / (1.0 + np.exp(-(X @ w)))
        w -= 0.1 * (X.T @ (p - y) / len(y) + 0.001 * w)
    return time.perf_counter() - start


def main():
    gc.disable()
    for _ in sys.stdin:
        print(repr(probe()), flush=True)


if __name__ == "__main__":
    main()
