"""One experiment of a workload in a fresh process: import bnmia from ./src,
resolve the experiment's network, run it, and print one JSON line.

Run from the repository root:

    python3 perfbench/child.py --workload proxy-sweep --seed 0 --index 0 [--trace]

A fresh process per experiment keeps the law, engine and `load_benchmark`
caches cold and gives each experiment its own peak RSS, as each
`bnmia eval` invocation has.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads


def import_bnmia(root: str):
    """Import bnmia from <root>/src and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bnmia", "__init__.py")):
        raise SystemExit(f"no bnmia sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import bnmia

    if os.path.dirname(os.path.dirname(os.path.abspath(bnmia.__file__))) != os.path.abspath(src):
        raise SystemExit(f"bnmia was imported from {bnmia.__file__}, not from {src}")
    return bnmia


def run_child(workload: str, seed: int, index: int, trace: bool) -> dict:
    start = time.perf_counter()
    import_bnmia(os.getcwd())
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    config = workloads.configs(workload, seed)[index]
    workloads.resolve_network(config)
    setup_s = time.perf_counter() - start
    out = workloads.run_one(config)
    if tracer is not None:
        tracer.uninstall()
    import numpy

    out.update(
        setup_s=setup_s,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        layers=tracer.snapshot() if tracer is not None else None,
        numpy=numpy.__version__,
    )
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run_child(args.workload, args.seed, args.index, args.trace)))


if __name__ == "__main__":
    main()
