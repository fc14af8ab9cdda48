import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import reference_roc_points

from bnmia import harness
from bnmia.attacks import ClipRange
from bnmia.harness import (
    ExperimentConfig,
    bench_posterior,
    resolve_population,
    roc_and_auc,
    run_experiment,
    run_trial,
)
from bnmia.inference import ImpossibleEvidenceError
from bnmia.model import ReleasedCounts, output_marginal_law
from bnmia.populations import LEFT, RIGHT, make_product

SCORE_GRID = [-math.inf, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, math.inf]


class TestRocAndAuc:
    def test_perfect_separation(self):
        r = roc_and_auc([1.0, 1.0], [0.0, 0.0])
        assert r.auc == 1.0
        assert r.points[0] == (0.0, 0.0)
        assert r.points[-1] == (1.0, 1.0)

    def test_identical_multisets(self):
        assert roc_and_auc([0.3, 0.7], [0.3, 0.7]).auc == 0.5

    def test_three_of_four_pairs(self):
        assert roc_and_auc([0.9, 0.4], [0.6, 0.1]).auc == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            roc_and_auc([], [1.0])

    def test_curve_monotone(self):
        rng = np.random.default_rng(0)
        r = roc_and_auc(rng.normal(1, 1, 30), rng.normal(0, 1, 25))
        fprs = [p[0] for p in r.points]
        tprs = [p[1] for p in r.points]
        assert fprs == sorted(fprs) and tprs == sorted(tprs)

    def test_handles_infinite_scores(self):
        r = roc_and_auc([math.inf, 0.0], [-math.inf, 0.0])
        assert r.auc == pytest.approx(0.75 + 0.125)  # 3 wins, one tie at 0.0

    @given(
        st.lists(st.sampled_from(SCORE_GRID), min_size=1, max_size=25),
        st.lists(st.sampled_from(SCORE_GRID), min_size=1, max_size=25),
    )
    @settings(max_examples=200, deadline=None)
    def test_pair_count_equals_trapezoid(self, s_in, s_out):
        r = roc_and_auc(s_in, s_out)
        assert r.points == reference_roc_points(s_in, s_out)
        fprs = np.array([p[0] for p in r.points])
        tprs = np.array([p[1] for p in r.points])
        assert abs(np.trapezoid(tprs, fprs) - r.auc) <= 1e-12


class TestResolvePopulation:
    def test_toy_specs(self):
        rng = np.random.default_rng(0)
        config = ExperimentConfig(population="product:5", n=2)
        bn = resolve_population(config, rng)
        assert bn.d == 5 and len(bn.nodes) == 5
        config = ExperimentConfig(population="half:7", n=2)
        assert resolve_population(config, rng).d == 7
        config = ExperimentConfig(population="lr:6", n=2)
        bn = resolve_population(config, rng)
        assert bn.d == 6 and len(bn.nodes) == 7  # six attributes plus the coin

    def test_toy_params_vary_per_stream(self):
        config = ExperimentConfig(population="product:3", n=2)
        a = resolve_population(config, np.random.default_rng(1))
        b = resolve_population(config, np.random.default_rng(2))
        assert a.nodes != b.nodes

    def test_benchmark_and_overrides(self):
        config = ExperimentConfig(
            population="cancer", n=2,
            output_nodes=("Xray", "Dyspnoea"), encoding="raw-binary",
        )
        bn = resolve_population(config, np.random.default_rng(0))
        assert bn.d == 2

    def test_file_path(self, tmp_path):
        from bnmia.formats import emit_sexpr
        from bnmia.populations import make_cancer

        path = tmp_path / "net.sexp"
        path.write_text(emit_sexpr(make_cancer()), encoding="utf-8")
        config = ExperimentConfig(population=str(path), n=2)
        assert resolve_population(config, np.random.default_rng(0)).d == 10


class TestRunTrial:
    def test_deterministic(self):
        config = ExperimentConfig(
            population="product:4", n=3, targets_in=5, targets_out=5, seed=11
        )
        a = run_trial(config, 0)
        b = run_trial(config, 0)
        for name in config.attacks:
            assert a[name].scores_in == b[name].scores_in
            assert a[name].scores_out == b[name].scores_out

    def test_bayes_matches_lrt_on_product(self):
        config = ExperimentConfig(
            population="product:4", n=3, targets_in=6, targets_out=6, seed=3,
            attacks=("lrt", "bayes"),
        )
        scores = run_trial(config, 1)
        for s_l, s_b in zip(scores["lrt"].scores_in, scores["bayes"].scores_in):
            if math.isinf(s_l):
                assert math.isinf(s_b)
            else:
                assert s_b == pytest.approx(s_l, rel=1e-9, abs=1e-9)

    def test_single_record_dataset_bayes(self):
        config = ExperimentConfig(
            population="product:3", n=1, targets_in=4, targets_out=4, seed=5,
            attacks=("bayes",),
        )
        bn = resolve_population(config, harness._stream(5, 0, "population"))
        law = output_marginal_law(bn)
        scores = run_trial(config, 0)
        # with n=1 every IN target equals the single record, so the odds are
        # exactly 1 / law(record)
        finite = [s for s in scores["bayes"].scores_in if not math.isinf(s)]
        assert finite
        for s in finite:
            prob = math.exp(-s)
            assert any(abs(prob - p) < 1e-9 for _, p in law.outcomes)

    def test_unknown_attack_rejected(self):
        config = ExperimentConfig(population="product:3", n=2, attacks=("nonesuch",))
        with pytest.raises(ValueError, match="unknown attack"):
            run_trial(config, 0)

    def test_clip_attacks_run_on_lr(self):
        config = ExperimentConfig(
            population="lr:6", n=3, targets_in=4, targets_out=4, seed=9,
            attacks=("lrt", "lrt_clipped_auto", "lrt_clipped_flip", "lrt_clipped:1-4"),
        )
        scores = run_trial(config, 0)
        assert set(scores) == set(config.attacks)


class TestRunExperiment:
    def test_csv_deterministic_and_well_formed(self):
        config = ExperimentConfig(
            population="product:4", n=3, trials=3, targets_in=4, targets_out=4, seed=21
        )
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.rows_csv() == b.rows_csv()
        assert a.summary_csv() == b.summary_csv()
        header = a.rows_csv().splitlines()[0]
        assert header == "population,d,n,threat,m,attack,trial,auc"
        assert len(a.rows) == 3 * len(config.attacks)

    def test_single_trial_std_zero(self):
        config = ExperimentConfig(
            population="product:3", n=2, trials=1, targets_in=4, targets_out=4, seed=2
        )
        result = run_experiment(config)
        assert all(row.std_auc == 0.0 for row in result.summary)

    def test_trivially_separable_population(self):
        # one attribute, n=1: the released count pins the single record, so
        # every attack separates members from the population well
        config = ExperimentConfig(
            population="product:1", n=1, trials=12, targets_in=8, targets_out=8, seed=4
        )
        result = run_experiment(config)
        for row in result.summary:
            assert row.mean_auc > 0.55

    def test_workers_match_serial(self):
        from dataclasses import replace

        config = ExperimentConfig(
            population="product:4", n=3, trials=4, targets_in=4, targets_out=4, seed=13
        )
        serial = run_experiment(config)
        parallel = run_experiment(replace(config, workers=2))
        assert serial.rows_csv() == parallel.rows_csv()

    def test_weak_threat_runs(self):
        config = ExperimentConfig(
            population="cancer", n=3, trials=2, targets_in=4, targets_out=4,
            threat="weak", m=20, seed=8, attacks=("lrt", "bayes"),
        )
        result = run_experiment(config)
        assert len(result.summary) == 2

    def test_weakest_threat_runs(self):
        config = ExperimentConfig(
            population="cancer", n=3, trials=2, targets_in=4, targets_out=4,
            threat="weakest", m=20, seed=8, attacks=("bayes",),
        )
        result = run_experiment(config)
        assert result.summary[0].trials == 2

    def test_missing_m_rejected(self):
        with pytest.raises(ValueError, match="proxy size"):
            ExperimentConfig(population="cancer", n=2, threat="weak")


class TestThreatModelOrdering:
    def test_strong_weak_weakest_chain_on_cancer(self):
        # statistical: losing model information cannot help much
        values = {}
        for threat, m in (("strong", None), ("weak", 50), ("weakest", 50)):
            config = ExperimentConfig(
                population="cancer", n=4, trials=40, targets_in=20, targets_out=20,
                seed=0, threat=threat, m=m, attacks=("bayes",),
            )
            values[threat] = run_experiment(config).mean_auc("bayes")
        assert values["strong"] >= values["weak"] - 0.03
        assert values["weak"] >= values["weakest"] - 0.03


class TestBench:
    def test_rows_schema(self):
        rows = bench_posterior(["product:4"], n=2, datasets=2, targets=4, seed=0)
        row = rows[0]
        assert row.population == "product:4"
        assert row.num_nodes == 4 and row.output_dim == 4
        assert row.mean_seconds >= 0.0
        assert row.calls == 8


class TestClippedSuites:
    def test_tied_vectors(self):
        assert list(harness._tied_vectors(4, LEFT, 1)) == [
            (0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1)
        ]
        right = list(harness._tied_vectors(4, RIGHT, 2))
        assert len(right) == 27 and right[:2] == [(0, 0, 0, 0), (0, 0, 1, 1)]
        assert all(v[3] == v[2] for v in right)

    def test_gap_skips_rows_where_both_odds_are_zero(self):
        bn = make_product((0.3, 0.6))
        ys = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
        counts = ReleasedCounts((0, 1), 1)  # only (0, 1) can be the record
        assert harness._clipped_gap(bn, counts, ys, ClipRange(1, 2)) <= 1e-15

    def test_gap_is_inf_when_exactly_one_odds_is_zero(self):
        bn = make_product((0.3, 0.6))
        ys = np.array([(0, 0), (0, 1)])
        counts = ReleasedCounts((0, 1), 1)
        assert harness._clipped_gap(bn, counts, ys, ClipRange(1, 1)) == math.inf

    def test_advisory_suite_is_pinned(self):
        suite = harness.verify_lr_single_side_counts()
        assert suite.advisory and not suite.passed
        assert suite.cases == 6_264

    def test_oracle_mismatch_on_impossible_evidence_is_reported(self, monkeypatch):
        def refuse(*args):
            raise ImpossibleEvidenceError("refused")

        monkeypatch.setattr(harness, "brute_force_posterior", refuse)
        suite = harness.verify_oracle_agreement()
        assert suite.max_deviation == math.inf and not suite.passed
        assert suite.cases == 1_950
