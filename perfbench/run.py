"""The bnmia benchmark: end-to-end time, memory and exactness of `bnmia eval`
workloads, or, with --trace 1, per-layer self times and exact counts.

Run from the repository root:

    python3 perfbench/run.py --workload bundled-strong --seed 0 --seconds 40 --trace 0

A pass runs every experiment of the workload, each in a fresh process
(perfbench/child.py), so caches start cold as for a `bnmia eval` invocation.
Passes repeat while the next one is expected to end within --seconds, with a
host-speed calibration (perfbench/calibrate.py) between them.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The line before it records the environment.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# Every run must end within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170.0

END_TO_END = ("setup_s", "eval_s", "peak_rss_mb", "exact_frac")

# setup_s and eval_s are reported at the host speed at which calibrate.py
# imports numpy and runs its compute kernel in these times (seconds).
REFERENCE_SPEED = {"import_s": 0.15, "compute_s": 0.25}

# Per-layer metrics: traced function -> fields reported as
# "<function>.<field>".  "count" is the function's extra exact counter
# (tracing.Tracer), reported under the name given here.
LAYERS = {
    "model.output_marginal_law": ("self_s", "calls", "support"),
    "model.sample": ("self_s", "calls"),
    "model.encode": ("self_s", "calls"),
    "inference.sum_log_table": ("self_s", "calls", "entries", "minflt"),
    "inference.PosteriorEngine.init": ("self_s", "calls"),
    "inference.PosteriorEngine.result": ("self_s", "calls"),
    "inference.posterior_engine": ("calls",),
    "attacks.lrt_score": ("self_s", "calls"),
    "attacks.inner_product_score": ("self_s", "calls"),
    "learning.ProxyDataset.from_network_samples": ("self_s",),
    "learning.mle_fit": ("self_s",),
    "learning.chow_liu_fit": ("self_s",),
    "learning.empirical_marginals": ("self_s",),
    "formats.parse_bif_subset": ("self_s",),
    "populations.load_benchmark": ("self_s", "calls"),
    "harness.run_trial": ("self_s",),
    "harness.run_experiment": ("self_s",),
    "harness.roc_and_auc": ("self_s", "calls"),
}
STAT_FIELD = {"self_s": "self_s", "calls": "calls", "support": "count",
              "entries": "count", "minflt": "minflt"}


def per_layer_names() -> list[str]:
    names = [f"{fn}.{field}" for fn, fields in LAYERS.items() for field in fields]
    return names + ["inference.engine_reuse", "trace.overhead_s"]


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "peak_rss_mb":
        return "MiB"
    if name in ("exact_frac", "inference.engine_reuse"):
        return "ratio"
    return "count"


def run_child(workload: str, seed: int, index: int, trace: bool, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--index", str(index)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrate() -> dict[str, float]:
    """Seconds calibrate.py takes now to import numpy and to run its kernel."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "calibrate.py")],
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def scale(one_pass: list[dict], before: dict, after: dict) -> None:
    """Add each experiment's set-up and eval times at the reference host
    speed, from the calibrations taken just before and just after the pass:
    set-up (mostly importing numpy) by the import time, eval by the kernel."""
    def factor(key: str) -> float:
        return REFERENCE_SPEED[key] / ((before[key] + after[key]) / 2)

    setup, compute = factor("import_s"), factor("compute_s")
    for e in one_pass:
        e["scaled_setup_s"] = e["setup_s"] * setup
        e["scaled_s"] = e["seconds"] * compute


def run_passes(workload: str, seed: int, seconds: int, trace: bool) -> dict[bool, list[list[dict]]]:
    """Passes over every experiment of the workload, each experiment in its
    own process, with a calibration between passes.  Untraced passes, or
    alternating untraced and traced ones: at least one of each kind, then
    more while the next is expected to end within `seconds`."""
    seconds = min(seconds, RUN_LIMIT_S / 2)  # leaves room for the last pass
    kinds = (False, True) if trace else (False,)
    passes: dict[bool, list[list[dict]]] = {kind: [] for kind in kinds}
    took: dict[bool, float] = {kind: 0.0 for kind in kinds}
    count = len(workloads.SPECS[workload])
    start = time.perf_counter()
    before = calibrate()
    for i in itertools.count():
        kind = kinds[i % len(kinds)]
        elapsed = time.perf_counter() - start
        if i >= len(kinds) and elapsed + took[kind] > seconds:
            break
        t0 = time.perf_counter()
        one_pass = [
            run_child(workload, seed, index, kind, RUN_LIMIT_S - (time.perf_counter() - start))
            for index in range(count)
        ]
        after = calibrate()
        scale(one_pass, before, after)
        passes[kind].append(one_pass)
        before = after
        took[kind] = max(took[kind], time.perf_counter() - t0)
    return passes


def medians(passes: list[list[dict]], key: str) -> dict[str, float]:
    """Each experiment's median of `key` over the passes."""
    return {
        e["label"]: statistics.median(p[i][key] for p in passes)
        for i, e in enumerate(passes[0])
    }


def check(passes: list[list[dict]], reference: dict[str, str]) -> tuple[int, int]:
    """(attempted, failed) experiments: failed ones raised, or their CSV
    output differs from the recorded reference."""
    attempted = failed = 0
    for p in passes:
        seen = {e["label"] for e in p}
        if seen != set(reference):
            raise SystemExit(f"experiments {sorted(seen)} do not match the reference")
        for e in p:
            attempted += 1
            if e["error"] is not None or e["digest"] != reference[e["label"]]:
                failed += 1
                print(f"FAILED {e['label']}: {e['error'] or 'output differs from reference'}",
                      file=sys.stderr)
    return attempted, failed


def end_to_end(passes: list[list[dict]], attempted: int, failed: int) -> dict[str, float]:
    # A median over passes per experiment: a slow spell in one pass moves no
    # experiment's median.
    return {
        "setup_s": sum(medians(passes, "scaled_setup_s").values()),
        "eval_s": sum(medians(passes, "scaled_s").values()),
        "peak_rss_mb": max(medians(passes, "peak_rss_kb").values()) / 1024.0,
        "exact_frac": (attempted - failed) / attempted,
    }


def per_layer(untraced: list[list[dict]], traced: list[list[dict]]) -> dict[str, float]:
    def value(fn: str, field: str) -> float:
        key = STAT_FIELD[field]
        return statistics.median(
            sum(e["layers"].get(fn, {}).get(key, 0) for e in p) for p in traced
        )

    out = {f"{fn}.{field}": value(fn, field) for fn, fields in LAYERS.items() for field in fields}
    requests = out["inference.posterior_engine.calls"]
    builds = out["inference.PosteriorEngine.init.calls"]
    out["inference.engine_reuse"] = 1.0 - builds / requests if requests else 0.0
    out["trace.overhead_s"] = (
        sum(medians(traced, "seconds").values()) - sum(medians(untraced, "seconds").values())
    )
    return out


def git_rev(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_digest(root: str) -> str:
    """Digest of every file under src/, naming the code when git cannot."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:20]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bnmia", "__init__.py")):
        raise SystemExit("run from the repository root: src/bnmia is missing")
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    if reference["seeds"] != workloads.REFERENCE_SEEDS:
        raise SystemExit("reference.json was recorded for another seed count")
    expected = reference["digests"][args.workload][str(workloads.workload_seed(args.seed))]

    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    every = [p for kind in passes.values() for p in kind]
    attempted, failed = check(every, expected)
    if args.trace:
        metrics = per_layer(passes[False], passes[True])
    else:
        metrics = end_to_end(passes[False], attempted, failed)

    wall = medians(passes[False], "seconds")
    scaled = medians(passes[False], "scaled_s")
    for label in wall:
        print(f"{label:32s} median {wall[label]:8.3f} s wall, {scaled[label]:8.3f} s scaled, "
              f"over {len(passes[False])} passes")
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "workload_seed": workloads.workload_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {"untraced": len(passes[False]), "traced": len(passes.get(True, []))},
        "setup_wall_s": sum(medians(passes[False], "setup_s").values()),
        "eval_wall_s": sum(wall.values()),
        "git_rev": git_rev(root),
        "src_sha256": src_digest(root),
        "python": sys.version.split()[0],
        "numpy": every[0][0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
