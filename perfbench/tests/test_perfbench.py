"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

child.import_bnmia(ROOT)

from bnmia.harness import ExperimentConfig, run_experiment  # noqa: E402
from bnmia.populations import load_benchmark  # noqa: E402


def _reference() -> dict:
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _csv(config) -> str:
    result = run_experiment(config)
    return result.rows_csv() + result.summary_csv()


@pytest.fixture
def tracer():
    load_benchmark.cache_clear()  # cold laws, as in a fresh process
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_configs_resolve(workload):
    cfgs = workloads.configs(workload, 0)
    for config in cfgs:
        workloads.resolve_network(config)
    labels = [workloads.label(c) for c in cfgs]
    assert len(set(labels)) == len(labels)
    reference = _reference()
    assert reference["seeds"] == workloads.REFERENCE_SEEDS
    for seed in range(workloads.REFERENCE_SEEDS):
        assert sorted(reference["digests"][workload][str(seed)]) == sorted(labels)


def test_seed_selects_reference_seed():
    assert workloads.workload_seed(0) == 0
    assert workloads.workload_seed(workloads.REFERENCE_SEEDS + 3) == 3
    assert {c.seed for c in workloads.configs("proxy-sweep", 5)} == {5}


def test_law_time_is_charged_to_the_law(tracer):
    config = ExperimentConfig("sachs:path-left", 4, trials=1)
    run_experiment(config)
    stats = tracer.snapshot()
    law = stats["model.output_marginal_law"]
    assert law["count"] > 0  # support of the one law built
    # The law is reached through harness and through attribute_marginals,
    # both by name; neither caller may absorb its time.
    assert law["self_s"] > 10 * stats["model.attribute_marginals"]["self_s"]
    assert law["self_s"] > 10 * stats["harness.run_trial"]["self_s"]
    # Its per-leaf encode calls are spans of their own, one per joint state.
    assert stats["model.encode"]["calls"] > 177_147
    biggest = max(stats.items(), key=lambda kv: kv[1]["self_s"] if kv[0] != "model.encode" else 0)
    assert biggest[0] == "model.output_marginal_law"


def test_tracing_does_not_change_outputs():
    cfgs = [
        ExperimentConfig("cancer", 4, trials=2, targets_in=5, targets_out=5),
        ExperimentConfig("lr:6", 4, trials=2, attacks=("lrt_clipped_auto", "bayes")),
        ExperimentConfig("asia", 4, trials=2, threat="weakest", m=30),
        ExperimentConfig("asia", 4, trials=2, threat="weak", m=30),
    ]
    untraced = [_csv(c) for c in cfgs]
    load_benchmark.cache_clear()
    t = Tracer()
    t.install()
    try:
        traced = [_csv(c) for c in cfgs]
    finally:
        t.uninstall()
    assert traced == untraced
    stats = t.snapshot()
    for name in ("model.sample", "learning.mle_fit", "learning.chow_liu_fit",
                 "learning.ProxyDataset.from_network_samples", "inference.sum_log_table",
                 "attacks.lrt_clipped_score", "populations.make_lr_repeated"):
        assert stats[name]["calls"] > 0, name


def test_uninstall_restores_every_binding():
    import bnmia
    from bnmia import harness, inference, learning, model

    before = (harness.output_marginal_law, model.output_marginal_law, bnmia.encode,
              inference.PosteriorEngine.__init__, learning.ProxyDataset.from_network_samples)
    t = Tracer()
    t.install()
    assert harness.output_marginal_law is not before[0]
    assert model.output_marginal_law is harness.output_marginal_law
    t.uninstall()
    after = (harness.output_marginal_law, model.output_marginal_law, bnmia.encode,
             inference.PosteriorEngine.__init__, learning.ProxyDataset.from_network_samples)
    assert after == before


def test_altered_reference_is_flagged():
    one_pass = [run.run_child("many-targets", 0, i, trace=False, timeout=170) for i in range(2)]
    run.scale(one_pass, run.REFERENCE_SPEED, run.REFERENCE_SPEED)
    expected = dict(_reference()["digests"]["many-targets"]["0"])
    assert run.check([one_pass], expected) == (2, 0)
    assert run.end_to_end([one_pass], 2, 0)["exact_frac"] == 1.0
    expected["asia/strong"] = "0" * 20
    attempted, failed = run.check([one_pass], expected)
    assert (attempted, failed) == (2, 1)
    assert run.end_to_end([one_pass], attempted, failed)["exact_frac"] == 0.5


def test_raised_experiment_is_flagged():
    passes = [[
        {"label": "a", "seconds": 1.0, "digest": "x", "error": None},
        {"label": "b", "seconds": 1.0, "digest": None, "error": "ValueError: boom"},
    ]]
    assert run.check(passes, {"a": "x", "b": "y"}) == (2, 1)


def test_scaling_follows_host_speed():
    one_pass = [{"label": "a", "seconds": 2.0, "setup_s": 0.3},
                {"label": "b", "seconds": 1.0, "setup_s": 0.6}]
    slow = {k: 2 * v for k, v in run.REFERENCE_SPEED.items()}  # half the reference speed
    run.scale(one_pass, slow, slow)
    assert [e["scaled_s"] for e in one_pass] == [1.0, 0.5]
    assert [e["scaled_setup_s"] for e in one_pass] == [0.15, 0.3]
    now = run.calibrate()
    assert set(now) == set(run.REFERENCE_SPEED) and all(0.0 < v < 10.0 for v in now.values())


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit(metric["name"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many-targets", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
