"""The benchmark's workloads: which `bnmia eval` experiments each one runs.

Every workload goes through `harness.run_experiment`, the public entry point
behind `bnmia eval`, with `workers=1`.  The reasons for each workload, and the
layers it is expected to stress, are in README.md next to this file.
"""
from __future__ import annotations

import hashlib
import time

# References are recorded for this many workload seeds; the seed a run is
# given is reduced modulo this number (see README.md, "Correctness").
REFERENCE_SEEDS = 32

N = 4
TRIALS = 40
MARGINAL_ATTACKS = ("lrt", "inner_product", "bayes")
SACHS_SETS = ("right-sub", "leaves", "leaf-root", "leaf-parent", "path-left", "path-right")

# name -> list of (population, ExperimentConfig keyword arguments)
SPECS: dict[str, list[tuple[str, dict]]] = {
    "bundled-strong": [
        (name, {"attacks": MARGINAL_ATTACKS})
        for name in ("cancer", "earthquake", "asia", "survey")
        + tuple(f"sachs:{s}" for s in SACHS_SETS)
    ],
    "proxy-sweep": [
        ("asia", {"threat": threat, "m": m, "attacks": MARGINAL_ATTACKS})
        for threat in ("weak", "weakest")
        for m in (10, 100, 1000)
    ],
    "many-targets": [
        (name, {"attacks": MARGINAL_ATTACKS, "targets_in": 500, "targets_out": 500})
        for name in ("cancer", "asia")
    ],
}
WORKLOADS = tuple(SPECS)


def workload_seed(seed: int) -> int:
    """The experiment seed a benchmark seed selects."""
    return seed % REFERENCE_SEEDS


def configs(workload: str, seed: int) -> list:
    """The workload's experiment configs for one benchmark seed."""
    from bnmia.harness import ExperimentConfig

    return [
        ExperimentConfig(
            population=population, n=N, trials=TRIALS, seed=workload_seed(seed), workers=1,
            **kwargs,
        )
        for population, kwargs in SPECS[workload]
    ]


def label(config) -> str:
    """Short unique name of one experiment within its workload."""
    parts = [config.population, config.threat]
    if config.m is not None:
        parts.append(f"m={config.m}")
    return "/".join(parts)


def resolve_network(config) -> None:
    """Resolve the network an experiment names, as `eval` does on start-up;
    for bundled names this parses the BIF file."""
    import numpy as np
    from bnmia.harness import resolve_population

    resolve_population(config, np.random.default_rng(config.seed))


def digest(result) -> str:
    """Fingerprint of an experiment's CSV output (rows, then summary)."""
    text = result.rows_csv() + result.summary_csv()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def run_one(config) -> dict:
    """Run one experiment; record its wall time and output digest, or the
    error it raised."""
    from bnmia.harness import run_experiment

    start = time.perf_counter()
    try:
        result = run_experiment(config)
    except Exception as exc:  # a failed experiment is reported, not fatal
        seconds = time.perf_counter() - start
        return {"label": label(config), "seconds": seconds, "digest": None,
                "error": f"{type(exc).__name__}: {exc}"}
    seconds = time.perf_counter() - start
    return {"label": label(config), "seconds": seconds, "digest": digest(result), "error": None}
