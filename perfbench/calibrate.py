"""Time two fixed tasks that contain no bnmia code and print the seconds as
JSON: importing numpy in a fresh process, and a compute kernel (a
dict-and-tuple loop in the interpreter plus a numpy sort of 10^6 keys).

On a shared host the same code runs up to 1.5x faster or slower for minutes
at a time; `run.py` runs this between passes to measure that speed.  It runs
in its own process so that its numpy arrays do not raise the peak RSS that
the experiment processes inherit from `run.py` when they start.
"""
import json
import time

start = time.perf_counter()
import numpy as np  # noqa: E402

IMPORT_S = time.perf_counter() - start


def compute() -> float:
    start = time.perf_counter()
    acc: dict = {}
    for i in range(300_000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i
    keys = np.random.default_rng(0).integers(0, 1 << 40, size=1_000_000)
    np.argsort(keys, kind="stable")
    return time.perf_counter() - start


if __name__ == "__main__":
    print(json.dumps({"import_s": IMPORT_S, "compute_s": compute()}))
