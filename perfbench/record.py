"""Record the reference output digests that `run.py` checks against.

Run from the repository root, only at a commit whose eval CSVs are known to
be right (they must stay byte-identical afterwards):

    python3 perfbench/record.py

Writes perfbench/reference.json: for each workload and each workload seed in
range(REFERENCE_SEEDS), the digest of every experiment's rows and summary CSV.
"""
from __future__ import annotations

import json
import multiprocessing
import os

import workloads
from child import import_bnmia

HERE = os.path.dirname(os.path.abspath(__file__))
JOBS = 2


def _record(task: tuple[str, str, int]) -> tuple[str, int, dict]:
    root, workload, seed = task
    import_bnmia(root)
    results = [workloads.run_one(c) for c in workloads.configs(workload, seed)]
    failed = [r for r in results if r["error"] is not None]
    if failed:
        raise RuntimeError(f"{workload} seed {seed}: {failed[0]['error']}")
    return workload, seed, {r["label"]: r["digest"] for r in results}


def main() -> None:
    root = os.getcwd()
    tasks = [(root, w, s) for s in range(workloads.REFERENCE_SEEDS) for w in workloads.WORKLOADS]
    reference: dict = {w: {} for w in workloads.WORKLOADS}
    with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
        for workload, seed, digests in pool.imap_unordered(_record, tasks):
            reference[workload][str(seed)] = digests
            print(workload, seed, flush=True)
    for w in reference:
        reference[w] = dict(sorted(reference[w].items(), key=lambda kv: int(kv[0])))
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"seeds": workloads.REFERENCE_SEEDS, "digests": reference}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
