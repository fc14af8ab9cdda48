import inspect
import math
import tracemalloc
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import (
    TrialScores,
    batch_trials,
    make_cancer,
    one_row_auc,
    reference_auc,
    reference_roc_points,
    reference_trial,
)

from bnmia import attacks, harness, suites
from bnmia.attacks import ClipRange
from bnmia.harness import (
    ExperimentConfig,
    resolve_population,
    run_batch,
    run_experiment,
    weighted_auc_rows,
)
from bnmia.inference import ImpossibleEvidenceError
from bnmia.model import (
    BayesianNetwork,
    InvalidNetworkError,
    ModelSizeError,
    NodeSpec,
    ReleasedCounts,
    attribute_marginals,
    dataset_counts,
    encode,
    output_marginal_law,
    project,
    sample,
)
from bnmia.populations import (
    LEFT, RIGHT, _copy_layout, make_half_repeated, make_lr_side, make_product, midpoint
)

SCORE_GRID = [-math.inf, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, math.inf]


class TestRocAndAuc:
    """The AUC eval reports is the area under the swept ROC curve of the
    reference."""

    def test_perfect_separation(self):
        points = reference_roc_points([1.0, 1.0], [0.0, 0.0])
        assert one_row_auc([1.0, 1.0], [0.0, 0.0]) == 1.0
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)

    def test_identical_multisets(self):
        assert one_row_auc([0.3, 0.7], [0.3, 0.7]) == 0.5

    def test_three_of_four_pairs(self):
        assert one_row_auc([0.9, 0.4], [0.6, 0.1]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            one_row_auc([], [1.0])

    def test_curve_monotone(self):
        rng = np.random.default_rng(0)
        points = reference_roc_points(rng.normal(1, 1, 30), rng.normal(0, 1, 25))
        fprs = [p[0] for p in points]
        tprs = [p[1] for p in points]
        assert fprs == sorted(fprs) and tprs == sorted(tprs)

    def test_handles_infinite_scores(self):
        value = one_row_auc([math.inf, 0.0], [-math.inf, 0.0])
        assert value == pytest.approx(0.75 + 0.125)  # 3 wins, one tie at 0.0

    @given(
        st.lists(st.sampled_from(SCORE_GRID), min_size=1, max_size=25),
        st.lists(st.sampled_from(SCORE_GRID), min_size=1, max_size=25),
    )
    @settings(max_examples=200, deadline=None)
    def test_pair_count_equals_trapezoid(self, s_in, s_out):
        points = reference_roc_points(s_in, s_out)
        fprs = np.array([p[0] for p in points])
        tprs = np.array([p[1] for p in points])
        assert abs(np.trapezoid(tprs, fprs) - one_row_auc(s_in, s_out)) <= 1e-12


class TestAuc:
    """The rank-count AUC equals the pairwise formula exactly, with no
    tolerance."""

    @staticmethod
    def check(s_in, s_out):
        assert one_row_auc(s_in, s_out) == reference_auc(s_in, s_out)

    def test_random_lengths_and_grids(self):
        rng = np.random.default_rng(11)
        grids = [
            np.array(SCORE_GRID + [-0.0]),
            np.array([-math.inf, math.inf]),
            np.round(np.linspace(-3.0, 3.0, 13), 1),
        ]
        for case in range(300):
            sizes = rng.integers(1, [1001, 1001]) if case % 3 else rng.integers(1, [30, 30])
            if case % 2:
                grid = grids[case % len(grids)]
                s_in, s_out = (rng.choice(grid, size) for size in sizes)
            else:
                s_in, s_out = rng.normal(0.3, 1.0, sizes[0]), rng.normal(0.0, 1.0, sizes[1])
            self.check(s_in, s_out)

    @pytest.mark.parametrize("size_in, size_out", [(1, 1), (1, 1000), (1000, 1), (1000, 1000)])
    def test_extreme_lengths(self, size_in, size_out):
        rng = np.random.default_rng(size_in + size_out)
        self.check(rng.choice(SCORE_GRID, size_in), rng.choice(SCORE_GRID, size_out))

    @pytest.mark.parametrize("value", [-math.inf, -1.5, 0.0, 2.0, math.inf])
    def test_all_equal(self, value):
        assert one_row_auc([value] * 7, [value] * 4) == 0.5
        self.check([value] * 7, [value] * 4)

    def test_rejects_empty_and_nan(self):
        with pytest.raises(ValueError, match="nonempty"):
            one_row_auc([1.0], [])
        with pytest.raises(ValueError, match="NaN"):
            one_row_auc([1.0], [math.nan])
        with pytest.raises(ValueError, match="nonempty"):
            weighted_auc_rows([[1.0, 2.0]], [[1, 2]], [[0, 0]])


@st.composite
def weighted_rows(draw):
    """A (rows, width) score array drawn from a small grid with both
    infinities, so most rows have many ties and some one distinct value,
    with in- and out-weights of 0..3: some slots stand for no target, as
    padding does, but every row has at least one of each."""
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    cells = st.lists(st.integers(0, 3), min_size=width, max_size=width)
    grid = draw(st.sampled_from([SCORE_GRID, [-math.inf, math.inf], [0.5]]))
    scores = [draw(st.lists(st.sampled_from(grid), min_size=width, max_size=width))
              for _ in range(rows)]
    ins = [draw(cells.filter(any)) for _ in range(rows)]
    outs = [draw(cells.filter(any)) for _ in range(rows)]
    return np.array(scores), np.array(ins), np.array(outs)


class TestWeightedAuc:
    """Counting with multiplicities gives the AUC of the expanded lists,
    with no tolerance."""

    @given(weighted_rows())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_pairwise_formula_on_expanded_lists(self, case):
        scores, ins, outs = case
        got = weighted_auc_rows(scores, ins, outs)
        assert got.shape == (len(scores),)
        for row, w_in, w_out, auc in zip(scores, ins, outs, got.tolist()):
            assert auc == reference_auc(np.repeat(row, w_in), np.repeat(row, w_out))

    def test_weights_broadcast_over_leading_axes(self):
        rng = np.random.default_rng(5)
        scores = rng.choice(SCORE_GRID, (3, 4, 9))
        ins, outs = rng.integers(1, 4, (2, 4, 9))
        got = weighted_auc_rows(scores, ins, outs)
        assert got.shape == (3, 4)
        for a, t in np.ndindex(3, 4):
            row = scores[a, t]
            assert got[a, t] == reference_auc(np.repeat(row, ins[t]), np.repeat(row, outs[t]))


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

        path = tmp_path / "net.sexp"
        path.write_text(emit_sexpr(make_cancer()), encoding="utf-8")
        config = ExperimentConfig(population=str(path), n=2)
        assert resolve_population(config, np.random.default_rng(0)).d == 10


def run_one(config: ExperimentConfig, trial_index: int):
    """The scores of one trial, run as a batch of one, read through
    `batch_trials`."""
    batch = run_batch(config, [trial_index], harness._shared_population(config))
    return batch_trials(config, batch)[0]


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, -3])
    @pytest.mark.parametrize("trial", [0, 39, 2**32, 2**70 + 1])
    def test_stream_is_the_list_seeded_generator(self, seed, trial):
        for purpose, tag in harness._STREAM_TAGS.items():
            entropy = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, trial, tag])
            expected = np.random.default_rng(entropy).random(5)
            assert harness._stream(seed, trial, purpose).random(5).tobytes() == expected.tobytes()

    def test_negative_trial_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            harness._stream(0, -1, "dataset")


class TestRunTrial:
    def test_deterministic(self):
        config = ExperimentConfig(
            population="product:4", n=3, targets_in=5, targets_out=5, seed=11
        )
        a = run_one(config, 0)
        b = run_one(config, 0)
        for name in config.attacks:
            assert a[name].scores_in == b[name].scores_in
            assert a[name].scores_out == b[name].scores_out

    def test_bayes_matches_lrt_on_product(self):
        config = ExperimentConfig(
            population="product:4", n=3, targets_in=6, targets_out=6, seed=3,
            attacks=("lrt", "bayes"),
        )
        (batch,) = run_batch(config, [1], None)  # one trial: one scoring group
        members = batch.ins[0] > 0
        lrt, bayes = (row[members].tolist() for row in batch.scores[:, 0])
        assert len(lrt) == len(bayes) > 0
        for s_l, s_b in zip(lrt, bayes):
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
        scores = run_one(config, 0)
        # with n=1 every IN target equals the single record, so the odds are
        # exactly 1 / law(record)
        finite = [s for s in scores["bayes"].scores_in if not math.isinf(s)]
        assert finite
        for s in finite:
            prob = math.exp(-s)
            assert np.any(np.abs(prob - law.probs) < 1e-9)

    def test_unknown_attack_rejected(self):
        with pytest.raises(ValueError, match="unknown attack"):
            ExperimentConfig(population="product:3", n=2, attacks=("nonesuch",))

    @pytest.mark.parametrize(
        "attack, message",
        [
            ("lrt_clipped:x-3", "unknown attack 'lrt_clipped:x-3'"),
            ("lrt_clipped:3-2", "attack 'lrt_clipped:3-2': bad clip range"),
        ],
    )
    def test_bad_attack_rejected_before_any_resolve(self, monkeypatch, attack, message):
        def resolve(*args):
            raise AssertionError("a network was resolved")

        monkeypatch.setattr(harness, "resolve_network", resolve)
        with pytest.raises(ValueError, match=message):
            run_experiment(ExperimentConfig("asia", 4, trials=2, attacks=("lrt", attack)))

    def test_clip_attacks_run_on_lr(self):
        config = ExperimentConfig(
            population="lr:6", n=3, targets_in=4, targets_out=4, seed=9,
            attacks=("lrt", "lrt_clipped_auto", "lrt_clipped_flip", "lrt_clipped:1-4"),
        )
        scores = run_one(config, 0)
        assert set(scores) == set(config.attacks)


BATCH_CASES = [
    pytest.param(ExperimentConfig("product:6", 4, trials=5, seed=1), id="product:6"),
    pytest.param(ExperimentConfig("half:7", 4, trials=5, seed=2), id="half:7"),
    pytest.param(
        ExperimentConfig("lr:6", 4, trials=5, seed=3, attacks=("lrt", "lrt_clipped_auto", "bayes")),
        id="lr:6",
    ),
    pytest.param(
        ExperimentConfig("asia", 4, trials=4, seed=4, threat="weak", m=50), id="asia-weak"
    ),
    pytest.param(
        ExperimentConfig("cancer", 4, trials=4, seed=5, threat="weakest", m=20),
        id="cancer-weakest",
    ),
    pytest.param(
        ExperimentConfig("sachs:leaves", 4, trials=4, seed=6, targets_out=300), id="sachs:leaves"
    ),
    pytest.param(
        ExperimentConfig("product:5", 7, trials=4, seed=7, threat="weak", m=30),
        id="product:5-weak-n7",
    ),
    # Strong threat on a bundled network: the whole batch is one stacked group.
    pytest.param(ExperimentConfig("survey", 4, trials=12, seed=8), id="survey"),
    pytest.param(ExperimentConfig("sachs:leaf-root", 4, trials=14, seed=9), id="sachs:leaf-root"),
    # Fitted attackers, one law per trial: hidden ancestors and ternary nodes,
    # and proxies of 400 records.
    pytest.param(
        ExperimentConfig("sachs:leaf-root", 4, trials=4, seed=10, threat="weak", m=30),
        id="sachs:leaf-root-weak",
    ),
    # Learned trees with unreleased nodes: fitted per structure and
    # eliminated, where trees of networks that release every node (asia,
    # cancer) are fitted as one stack.
    pytest.param(
        ExperimentConfig("sachs:leaf-root", 4, trials=4, seed=17, threat="weakest", m=50),
        id="sachs:leaf-root-weakest",
    ),
    pytest.param(
        ExperimentConfig("asia", 4, trials=5, seed=11, threat="weakest", m=400),
        id="asia-weakest-m400",
    ),
    # Proxies that learn five distinct trees in 8 trials, some of them more
    # than once, all fitted in one stack.
    pytest.param(
        ExperimentConfig("asia", 4, trials=8, seed=12, threat="weakest", m=200),
        id="asia-weakest-m200",
    ),
    # Proxies of 600 records: one trial to a proxy chunk under a 16 KiB
    # budget, whose fit group then spans chunks
    # (`test_one_trial_proxy_chunks_meet_in_a_fit_group`).
    pytest.param(
        ExperimentConfig("asia", 4, trials=3, seed=13, threat="weak", m=600),
        id="asia-weak-m600",
    ),
]


@st.composite
def target_stacks(draw):
    """A (trials, targets, d) bit array, each trial's targets drawn from a
    few rows of its own, d up to 140: rows of up to three 63-bit words."""
    trials, k, d = draw(st.integers(1, 5)), draw(st.integers(1, 30)), draw(st.integers(0, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(0, 2, (trials, draw(st.integers(1, 8)), d))
    return pool[np.arange(trials)[:, None], rng.integers(0, pool.shape[1], (trials, k))]


@st.composite
def weighted_state_stacks(draw):
    """A (trials, records, columns) state array, each trial's records drawn
    from a few rows of its own, columns of 2 to 9 states (up to 70 of them,
    so keys of several words), its radices, and two (trials, records) weight
    arrays with zeros, each trial holding a record of nonzero weight."""
    trials, k, columns = draw(st.integers(1, 5)), draw(st.integers(1, 30)), draw(st.integers(0, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radix = rng.integers(2, 10, columns)
    pool = rng.integers(0, radix, (trials, draw(st.integers(1, 8)), columns))
    states = pool[np.arange(trials)[:, None], rng.integers(0, pool.shape[1], (trials, k))]
    weights = rng.integers(0, 3, (2, trials, k)) * (rng.random((2, trials, k)) < 0.6)
    weights[1, :, 0] += 1
    return states, radix.tolist(), weights


def expanded(rows, counts, t) -> dict[bytes, tuple[int, ...]]:
    """Trial t's used slots as row bytes -> its counts, checking that they
    lead, hold distinct rows and are followed by padding that repeats the
    first row at weight 0."""
    weight = sum(c[t] for c in counts)
    used = int(np.count_nonzero(weight))
    assert (weight[:used] > 0).all() and (weight[used:] == 0).all()
    assert (rows[t, used:] == rows[t, 0]).all()
    got = {rows[t, j].tobytes(): tuple(int(c[t, j]) for c in counts) for j in range(used)}
    assert len(got) == used
    return got


def recounted(states, weights, t) -> dict[bytes, tuple[int, ...]]:
    """Trial t's distinct rows with nonzero summed weight, row bytes ->
    summed weights, counted record by record."""
    sums: dict[bytes, list[int]] = {}
    for j, row in enumerate(states[t]):
        each = sums.setdefault(row.tobytes(), [0] * len(weights))
        for w, weight in enumerate(weights):
            each[w] += int(weight[t, j])
    return {key: tuple(each) for key, each in sums.items() if any(each)}


def weighted_rows(config, targets):
    """A (trials, targets, d) bit array's distinct rows with their in- and
    out-counts, the first targets_in targets of each trial being its
    in-targets, as `_draw_chunk` returns them."""
    is_in = np.broadcast_to(np.arange(targets.shape[1]) < config.targets_in, targets.shape[:2])
    rows, (ins, outs) = harness._distinct_rows(
        targets, [2] * targets.shape[2], [is_in.astype(np.int64), (~is_in).astype(np.int64)]
    )
    return rows, ins, outs


class TestDistinctTargets:
    """`_distinct_rows` keys rows on their states in mixed radix, in words of
    up to 63 bits."""

    @given(target_stacks())
    @settings(max_examples=200, deadline=None)
    def test_each_target_has_its_row_and_rows_are_distinct(self, targets):
        ones = np.ones(targets.shape[:2], dtype=np.int64)
        rows, counts = harness._distinct_rows(targets, [2] * targets.shape[2], [ones])
        assert rows.shape[0] == len(targets) and rows.shape[2] == targets.shape[2]
        for t in range(len(targets)):
            assert expanded(rows, counts, t) == recounted(targets, [ones], t)

    @given(weighted_state_stacks())
    @settings(max_examples=200, deadline=None)
    def test_weights_are_summed_and_weightless_rows_take_no_slot(self, case):
        states, radix, weights = case
        rows, counts = harness._distinct_rows(states, radix, list(weights))
        widths = [len(recounted(states, weights, t)) for t in range(len(states))]
        assert rows.shape[1] == max(widths)
        for t in range(len(states)):
            assert expanded(rows, counts, t) == recounted(states, weights, t)


def wide_network() -> BayesianNetwork:
    """Three 24-state nodes in a chain, one-hot: d = 72, so a target row is
    two 63-bit words and a packed (trial, row) key would pass 63 bits."""
    rng = np.random.default_rng(3)
    states = tuple(f"s{i}" for i in range(24))

    def cpt(combos) -> dict:
        weights = rng.uniform(0.1, 1.0, (len(combos), 24))
        return {c: tuple((w / w.sum()).tolist()) for c, w in zip(combos, weights)}

    by_parent = [(i,) for i in range(24)]
    nodes = (
        NodeSpec("A", states, (), cpt([()])),
        NodeSpec("B", states, ("A",), cpt(by_parent)),
        NodeSpec("C", states, ("B",), cpt(by_parent)),
    )
    return BayesianNetwork(nodes, ("A", "B", "C"), "one-hot")


def record_chunks_and_groups(monkeypatch) -> tuple[list[int], list[int]]:
    """Record the trials of every draw chunk and of every scoring group
    that `run_batch` makes from here on, in this process."""
    chunks, groups = [], []
    draw_chunk, score_group = harness._draw_chunk, harness._score_group

    def drawn(config, trials, *args):
        chunks.append(len(trials))
        return draw_chunk(config, trials, *args)

    def scored(config, trials, *args):
        groups.append(len(trials))
        return score_group(config, trials, *args)

    monkeypatch.setattr(harness, "_draw_chunk", drawn)
    monkeypatch.setattr(harness, "_score_group", scored)
    return chunks, groups


def assert_batch_is_the_reference(config, batch) -> None:
    """Every trial of a batch of trials 0.. scores as `reference_trial`
    scores it alone."""
    got = batch_trials(config, batch)
    assert len(got) == config.trials
    for i, scores in enumerate(got):
        reference = reference_trial(config, i)
        assert set(scores) == set(reference) == set(config.attacks)
        for name in config.attacks:
            assert scores[name] == reference[name].sorted()


class TestBatches:
    """Trials drawn in chunks and scored in groups score exactly as trials
    drawn one by one, for any chunk and group size."""

    @pytest.mark.parametrize("budget", ["one-trial", "all-trials", "default"])
    @pytest.mark.parametrize("config", BATCH_CASES)
    def test_batched_trials_equal_the_reference(self, monkeypatch, config, budget):
        # One budget bounds the draw chunks, the scoring and fit groups and
        # the slices of stacked trees: at its extremes each holds one trial,
        # or every trial.
        group_bytes = {"one-trial": 1, "all-trials": 1 << 62, "default": harness._GROUP_BYTES}
        monkeypatch.setattr(harness, "_GROUP_BYTES", group_bytes[budget])
        chunks, groups = record_chunks_and_groups(monkeypatch)
        batch = run_batch(config, range(config.trials), harness._shared_population(config))
        for group in batch:
            assert np.array_equal(group.aucs, weighted_auc_rows(group.scores, group.ins, group.outs))
        if budget != "default":
            assert chunks == groups == (
                [1] * config.trials if budget == "one-trial" else [config.trials]
            )
        assert_batch_is_the_reference(config, batch)

    def test_one_trial_chunks_meet_in_a_group(self, monkeypatch):
        # Each trial's 304 records of 11 nodes take 26,752 bytes of uniforms,
        # past the budget, but its at most 48 distinct rows of d = 12 take
        # 4,608 bytes: trials drawn alone are scored three to a group.
        config = ExperimentConfig("sachs:leaves", 4, trials=4, seed=6, targets_out=300)
        monkeypatch.setattr(harness, "_GROUP_BYTES", 16 * 1024)
        chunks, groups = record_chunks_and_groups(monkeypatch)
        batch = run_batch(config, range(config.trials), harness._shared_population(config))
        assert chunks == [1] * 4 and groups == [3, 1]
        assert_batch_is_the_reference(config, batch)

    def test_run_batch_returns_each_scoring_group(self, monkeypatch):
        # The groups of test_one_trial_chunks_meet_in_a_group come back one
        # BatchScores each, in trial order, and hold the experiment's AUCs.
        config = ExperimentConfig("sachs:leaves", 4, trials=4, seed=6, targets_out=300)
        rows = run_experiment(config).rows
        monkeypatch.setattr(harness, "_GROUP_BYTES", 16 * 1024)
        _, groups = record_chunks_and_groups(monkeypatch)
        scored = run_batch(config, range(config.trials), harness._shared_population(config))
        assert [len(group.ins) for group in scored] == groups == [3, 1]
        aucs = np.concatenate([group.aucs for group in scored], axis=1)
        assert [(row.trial, row.auc) for row in rows] == [
            (t, auc) for t, each in enumerate(aucs.T.tolist()) for auc in each
        ]

    def test_one_trial_proxy_chunks_meet_in_a_fit_group(self, monkeypatch):
        # A proxy of 600 asia records takes 38,400 bytes of uniforms, past the
        # budget, but its at most 40 distinct rows of 8 nodes 2,560 bytes:
        # the three trials' proxies are drawn one by one and fitted together.
        config = ExperimentConfig("asia", 4, trials=3, seed=13, threat="weak", m=600)
        monkeypatch.setattr(harness, "_GROUP_BYTES", 16 * 1024)
        draws, fits = [], []
        draw, marginals = harness._draw, harness.empirical_marginals

        def drawn(nets, u):
            draws.append(u.shape[:2])
            return draw(nets, u)

        def fitted(proxy, *args):
            fits.append(len(proxy.stack))
            return marginals(proxy, *args)

        monkeypatch.setattr(harness, "_draw", drawn)
        monkeypatch.setattr(harness, "empirical_marginals", fitted)
        batch = run_batch(config, range(config.trials), harness._shared_population(config))
        assert draws == [(3, 24)] + [(1, 600)] * 3 and fits == [3]
        assert_batch_is_the_reference(config, batch)

    @pytest.mark.parametrize(
        "n, targets_out, trials, workers, sizes",
        [
            # (worker shares, draw chunks of each share, scoring groups of each
            # share); cancer has 5 nodes, so a record takes 40 bytes of uniforms.
            (4, 20, 40, 1, ([40], [[40]], [[40]])),  # 24 records a trial: one chunk
            (4, 500, 5, 1, ([5], [[5]], [[5]])),  # 504 records a trial: 26 a chunk
            (4, 20, 40, 2, ([20, 20], [[20], [20]], [[20], [20]])),  # one share per worker
            (4, 20, 3, 4, ([1, 1, 1], [[1], [1], [1]], [[1], [1], [1]])),
            (4, 2000, 3, 1, ([3], [[3]], [[3]])),  # 2,004 records a trial: six a chunk
            (4, 5000, 5, 1, ([5], [[2, 2, 1]], [[5]])),  # 5,004 records: two a chunk
            # A trial over the draw budget is drawn alone, but scored with the others.
            (4, 13200, 3, 1, ([3], [[1, 1, 1]], [[3]])),
        ],
    )
    def test_batch_sizes(self, monkeypatch, n, targets_out, trials, workers, sizes):
        config = ExperimentConfig(
            "cancer", n, trials=trials, targets_out=targets_out, workers=workers
        )
        ranges = harness._batches(config)
        assert [i for r in ranges for i in r] == list(range(trials))
        chunks, groups = record_chunks_and_groups(monkeypatch)
        per_share = []
        for r in ranges:
            run_batch(config, r, harness._shared_population(config))
            per_share.append((chunks[:], groups[:]))
            chunks.clear()
            groups.clear()
        got = ([len(r) for r in ranges], [c for c, _ in per_share], [g for _, g in per_share])
        assert got == sizes

    @pytest.mark.parametrize("population, chunks", [("cancer", [6]), ("sachs:leaves", [2, 2, 2])])
    def test_chunks_count_each_networks_nodes(self, monkeypatch, population, chunks):
        # 2,004 records a trial: 80,160 bytes of uniforms on cancer's 5
        # nodes, 176,352 on the 11 nodes of sachs.
        config = ExperimentConfig(population, 4, trials=6, targets_out=2000)
        drawn, _ = record_chunks_and_groups(monkeypatch)
        run_batch(config, range(config.trials), harness._shared_population(config))
        assert drawn == chunks

    def test_one_engine_per_experiment(self, monkeypatch):
        # 500 + 500 targets of cancer's 5 nodes draw 26 trials a chunk, but
        # the 40 trials' distinct rows are scored as one group: one engine
        # for all releases.
        from bnmia.inference import PosteriorEngine

        built = []
        init = PosteriorEngine.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PosteriorEngine, "__init__", counted)
        config = ExperimentConfig("cancer", 4, targets_in=500, targets_out=500)
        chunks, groups = record_chunks_and_groups(monkeypatch)
        run_experiment(config)
        assert len(built) == 1
        assert chunks == [26, 14] and groups == [40]

    def test_toy_group_laws_share_one_outcome_array(self):
        # Under the strong threat a toy group's laws are built network by
        # network into one outcome array, and score as the laws built alone.
        config = ExperimentConfig("product:4", 3, trials=6, seed=2)
        trials = range(config.trials)
        nets = [resolve_population(config, harness._stream(config.seed, i, "population"))
                for i in trials]
        laws, mus = harness._attackers(config, trials, nets)
        alone = [output_marginal_law(bn) for bn in nets]
        assert all(law.vectors is laws[0].vectors for law in laws)
        assert mus.tolist() == [attribute_marginals(law).tolist() for law in alone]
        rng = np.random.default_rng(5)
        releases = [dataset_counts(bn, project(bn, sample(bn, config.n, rng))) for bn in nets]
        ys = rng.integers(0, 2, size=(len(nets), 16, 4))
        got, _ = attacks.score("bayes", laws, None, releases, ys)
        assert (got == attacks.score("bayes", alone, None, releases, ys)[0]).all()

    def test_toy_networks_are_resolved_chunk_by_chunk(self, monkeypatch):
        # A group holds its trials' toy networks while it is scored, so a
        # share resolves its trials' networks only as their chunk is drawn.
        config = ExperimentConfig("product:3", 2, trials=5, targets_in=3, targets_out=3)
        # Two trials' (5 records, 3 nodes) uniforms a chunk.
        monkeypatch.setattr(harness, "_GROUP_BYTES", 2 * 8 * (config.n + config.targets_out) * 3)
        events = []
        resolve, draw_chunk = harness.resolve_population, harness._draw_chunk

        def resolved(config, rng):
            events.append("resolve")
            return resolve(config, rng)

        def drawn(config, trials, nets):
            events.append(f"draw {len(trials)}")
            return draw_chunk(config, trials, nets)

        monkeypatch.setattr(harness, "resolve_population", resolved)
        monkeypatch.setattr(harness, "_draw_chunk", drawn)
        run_batch(config, range(config.trials), None)
        assert events == ["resolve", "resolve", "draw 2"] * 2 + ["resolve", "draw 1"]

    def test_impossible_release_flags_only_its_trial(self):
        # X3 copies X2, so the second release is impossible evidence.
        bn = make_half_repeated(3, (0.5, 0.4))
        config = ExperimentConfig("half:3", 3, targets_in=2, targets_out=2, trials=3)
        releases = [ReleasedCounts(c, 3) for c in ((1, 1, 1), (1, 1, 2), (2, 0, 0))]
        targets = np.array([[(0, 1, 1), (1, 0, 0), (1, 1, 1), (0, 0, 0)]] * 3)
        got = batch_trials(config, [harness._score_group(
            config, [0, 1, 2], [bn] * 3, releases, *weighted_rows(config, targets)
        )])
        for t in range(3):
            one = slice(t, t + 1)
            alone = batch_trials(config, [harness._score_group(
                config, [t], [bn], releases[one], *weighted_rows(config, targets[one])
            )])[0]
            for name in config.attacks:
                flagged = 4 if (t, name) == (1, "bayes") else 0
                assert got[t][name].impossible_evidence == flagged
                assert alone[name].impossible_evidence == flagged
                assert got[t][name].scores_in == alone[name].scores_in
                assert got[t][name].scores_out == alone[name].scores_out
        assert got[1]["bayes"].scores_in + got[1]["bayes"].scores_out == [-math.inf] * 4

    @pytest.mark.parametrize("case", ["sachs:leaf-root", "wide"])
    def test_distinct_scores_expand_to_the_reference(self, tmp_path, case):
        if case == "wide":
            from bnmia.formats import emit_sexpr

            path = tmp_path / "wide.sexp"
            path.write_text(emit_sexpr(wide_network()), encoding="utf-8")
            config = ExperimentConfig(str(path), 4, trials=4, targets_in=30, targets_out=30, seed=2)
        else:
            config = ExperimentConfig(case, 4, trials=14, seed=9)
        batch = run_batch(config, range(config.trials), harness._shared_population(config))
        k = config.targets_in + config.targets_out
        assert sum(len(group.ins) for group in batch) == config.trials
        for group in batch:
            assert group.scores.shape[:2] == (len(config.attacks), len(group.ins))
            assert group.scores.shape[2] < k  # some targets share a row
            assert (group.ins.sum(axis=1) == config.targets_in).all()
            assert (group.outs.sum(axis=1) == config.targets_out).all()
        for t, scores in enumerate(batch_trials(config, batch)):
            expected = reference_trial(config, t)
            assert scores == {name: each.sorted() for name, each in expected.items()}

    def test_impossible_release_scores_by_distinct_targets(self):
        # X3 copies X2, so the second release is impossible evidence; the
        # trials' six targets hold two, two and three distinct rows.
        bn = make_half_repeated(3, (0.5, 0.4))
        config = ExperimentConfig("half:3", 3, targets_in=3, targets_out=3, trials=3)
        releases = [ReleasedCounts(c, 3) for c in ((1, 1, 1), (1, 1, 2), (2, 0, 0))]
        rows = np.array([(0, 1, 1), (1, 0, 0), (1, 1, 1), (0, 0, 0)])
        targets = rows[[[0, 1, 0, 1, 1, 0], [2, 2, 2, 3, 3, 2], [3, 0, 3, 3, 0, 1]]]
        batch = harness._score_group(
            config, [0, 1, 2], [bn] * 3, releases, *weighted_rows(config, targets)
        )
        assert ((batch.ins + batch.outs) > 0).sum(axis=1).tolist() == [2, 2, 3]
        assert batch.impossible.tolist() == [[False] * 3, [False] * 3, [False, True, False]]
        got = batch_trials(config, [batch])
        law = output_marginal_law(bn)
        mu = attribute_marginals(law)
        for t, release in enumerate(releases):
            for name in config.attacks:
                (scores,), impossible = attacks.score(name, law, mu, [release], targets[t : t + 1])
                flagged = 6 if impossible else 0
                expected = TrialScores(scores[:3].tolist(), scores[3:].tolist(), flagged)
                assert got[t][name] == expected.sorted()
        assert got[1]["bayes"].scores_in + got[1]["bayes"].scores_out == [-math.inf] * 6

    def test_one_trial_batch_is_the_reference_trial(self):
        config = ExperimentConfig("half:5", 3, trials=3, seed=8)
        for i in range(config.trials):
            got, expected = run_one(config, i), reference_trial(config, i)
            assert got == {name: scores.sorted() for name, scores in expected.items()}

    def test_file_population_is_parsed_once(self, monkeypatch, tmp_path):
        from importlib import resources

        from bnmia import formats

        path = tmp_path / "cancer.bif"
        path.write_text(
            resources.files("bnmia.data").joinpath("cancer.bif").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        parses = []
        load_document = formats.load_document

        def counted(*args, **kwargs):
            parses.append(args)
            return load_document(*args, **kwargs)

        monkeypatch.setattr(formats, "load_document", counted)
        config = ExperimentConfig(str(path), 4, trials=5, targets_in=4, targets_out=4)
        result = run_experiment(config)
        assert len(parses) == 1
        assert len(result.rows) == 5 * len(config.attacks)


def reference_targets(config, trial_index: int):
    """One trial drawn record by record, as `reference_trial` draws it: its
    release, its (targets, d) encoded targets (the picked records, then the
    fresh ones) and its (n, d) encoded dataset records."""
    def stream(purpose):
        return harness._stream(config.seed, trial_index, purpose)

    bn = resolve_population(config, stream("population"))
    data = project(bn, sample(bn, config.n, stream("dataset")))
    picks = stream("targets_in").integers(0, config.n, size=config.targets_in)
    fresh = project(bn, sample(bn, config.targets_out, stream("targets_out")))
    targets = encode(bn, np.concatenate([data[picks], fresh]))
    return dataset_counts(bn, data), targets, encode(bn, data)


def assert_chunk_is_the_reference(config, nets) -> int:
    """`_draw_chunk` on trials 0.. of config against each trial drawn record
    by record: the same release, and distinct rows that expand by their in-
    and out-counts to its targets.  Returns how many trials drew a dataset
    record that is neither picked nor equal to a target."""
    releases, rows, ins, outs = harness._draw_chunk(config, range(len(nets)), nets)
    is_in = np.arange(config.targets_in + config.targets_out) < config.targets_in
    unpicked = 0
    for t in range(len(nets)):
        release, targets, data = reference_targets(config, t)
        assert releases[t] == release
        assert expanded(rows, (ins, outs), t) == recounted(
            targets[None], [is_in[None].astype(int), (~is_in)[None].astype(int)], 0
        )
        unpicked += not {row.tobytes() for row in data} <= {row.tobytes() for row in targets}
    return unpicked


class TestReducedDraws:
    """Draws reduced to weighted distinct rows expand to the records drawn
    one by one."""

    def test_unpicked_records_take_no_slot(self):
        # One in-target among four records: three are never picked, and
        # their rows are dropped unless a target shares them.
        config = ExperimentConfig("asia", 4, trials=6, targets_in=1, targets_out=3, seed=14)
        shared = harness._shared_population(config)
        assert assert_chunk_is_the_reference(config, [shared] * config.trials) > 0
        batch = run_batch(config, range(config.trials), shared)
        for t, scores in enumerate(batch_trials(config, batch)):
            expected = reference_trial(config, t)
            assert scores == {name: each.sorted() for name, each in expected.items()}

    def test_target_states_past_63_bits(self):
        # 70 released binary nodes: a target key takes two words.
        config = ExperimentConfig("product:70", 4, trials=3, targets_in=5, targets_out=5, seed=15)
        nets = [
            resolve_population(config, harness._stream(config.seed, i, "population"))
            for i in range(config.trials)
        ]
        assert_chunk_is_the_reference(config, nets)

    @pytest.mark.parametrize("threat", ["weak", "weakest"])
    def test_proxy_states_past_63_bits(self, threat):
        # A proxy row holds all 70 nodes, so its key takes two words.
        config = ExperimentConfig(
            "product:70", 4, output_nodes=("X1", "X2", "X3"), trials=3, seed=16,
            threat=threat, m=12,
        )
        batch = run_batch(config, range(config.trials), None)
        for t, scores in enumerate(batch_trials(config, batch)):
            expected = reference_trial(config, t)
            assert scores == {name: each.sorted() for name, each in expected.items()}


# sachs.bif under its path, five of its nodes released.
SACHS_FILE = dict(
    population=str(resources.files("bnmia.data") / "sachs.bif"),
    output_nodes=("PKC", "Raf", "Mek", "Erk", "Akt"),
)

# Runs whose outputs must not depend on the workers: through the process
# pool, the worker shares, the draw chunks, the scoring groups and the one
# resolve of a file population, under every threat.  A draw chunk holds the
# trials whose (records x nodes) float64 uniforms fit in 512 KiB: "many"
# draws its 8 trials in one chunk, and each trial of "chunks" on the file's
# 11 nodes is its own chunk; with one worker its 120 trials' distinct rows
# fill three scoring groups, and with two the first share fills two.
# "weakest-big" draws its proxies five to a chunk, each reduced to its
# distinct records, and fits the two chunks in one group, whose trees have
# hidden nodes.  asia releases every node, so its weakest trees take the
# product over the output grid and its weak structure the einsum chain.  The
# toy populations draw each trial's network afresh.
WORKER_RUNS = {
    "strong": ExperimentConfig(**SACHS_FILE, n=4, trials=8),
    "weak": ExperimentConfig(**SACHS_FILE, n=4, trials=8, threat="weak", m=100),
    "weakest": ExperimentConfig(**SACHS_FILE, n=4, trials=8, threat="weakest", m=20),
    "weakest-big": ExperimentConfig(**SACHS_FILE, n=4, trials=8, threat="weakest", m=1000),
    "many": ExperimentConfig(**SACHS_FILE, n=4, trials=8, targets_in=300, targets_out=300),
    "chunks": ExperimentConfig(**SACHS_FILE, n=4, trials=120, targets_out=6000),
    "asia-weakest": ExperimentConfig("asia", 4, trials=8, threat="weakest", m=1000),
    "asia-weak": ExperimentConfig("asia", 4, trials=8, threat="weak", m=100),
    "lr": ExperimentConfig("lr:6", 4, trials=8),
    "half": ExperimentConfig("half:8", 4, trials=8, threat="weakest", m=50),
    "product": ExperimentConfig("product:5", 4, trials=8, threat="weak", m=20),
    "product-small": ExperimentConfig("product:4", 3, trials=4, targets_in=4, targets_out=4,
                                      seed=13),
    "shares": ExperimentConfig("cancer", 4, trials=5, targets_in=4, targets_out=5000, seed=13),
}


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

    def test_toy_laws_hold_one_outcome_array(self):
        # product:14's law has 16,384 outcomes: one copy of its outcome
        # vectors a trial would hold 70 MiB over 40 trials.
        config = ExperimentConfig("product:14", 2, trials=40)
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20

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

    @pytest.mark.parametrize("config", WORKER_RUNS.values(), ids=WORKER_RUNS.keys())
    def test_workers_match_serial(self, config):
        # The two CSVs `eval` writes, byte for byte, at 1, 2 and 3 workers.
        serial = run_experiment(config)
        for workers in (2, 3):
            parallel = run_experiment(replace(config, workers=workers))
            assert parallel.rows_csv() == serial.rows_csv()
            assert parallel.summary_csv() == serial.summary_csv()

    def test_worker_shares_split_draw_chunks(self, monkeypatch):
        # The trials are drawn in three chunks, two trials a chunk, and
        # shared three and two between two workers.
        config = WORKER_RUNS["shares"]
        assert [len(r) for r in harness._batches(replace(config, workers=2))] == [3, 2]
        chunks, _ = record_chunks_and_groups(monkeypatch)
        run_experiment(config)
        assert chunks == [2, 2, 1]

    def test_weak_threat_runs(self):
        config = ExperimentConfig(
            population="cancer", n=3, trials=2, targets_in=4, targets_out=4,
            threat="weak", m=20, seed=8, attacks=("lrt", "bayes"),
        )
        result = run_experiment(config)
        assert len(result.summary) == 2

    def test_weakest_tree_past_the_guard_raises(self):
        # product:30 releases all 30 nodes, so each learned tree's law is
        # over 2^30 outcomes, past STATE_GUARD, before any grid is built.
        config = ExperimentConfig("product:30", 4, trials=2, threat="weakest", m=10)
        with pytest.raises(ModelSizeError, match="30 nodes would have 1073741824 entries"):
            run_batch(config, range(config.trials), None)

    @pytest.mark.parametrize("threat", ["weak", "weakest"])
    def test_marginal_attacks_fit_no_network(self, monkeypatch, threat):
        # The marginals come from the proxy, so without bayes no structure
        # or law is fitted, and product:24, whose law would have 2^24
        # outcomes, runs under the weak threats.
        def unread(*args):
            raise AssertionError("a law no attack reads was fitted")

        monkeypatch.setattr(harness, "chow_liu_structures", unread)
        monkeypatch.setattr(harness, "output_laws", unread)
        config = ExperimentConfig(
            "product:24", 4, trials=2, threat=threat, m=20, attacks=("lrt", "inner_product")
        )
        assert len(run_experiment(config).rows) == 4

    @pytest.mark.parametrize("threat", ["weak", "weakest"])
    def test_marginal_rows_do_not_depend_on_bayes(self, threat):
        marginal = ("lrt", "inner_product")
        config = ExperimentConfig("asia", 4, trials=8, threat=threat, m=100, attacks=marginal)
        alone = run_experiment(config)
        full = run_experiment(replace(config, attacks=marginal + ("bayes",)))
        assert alone.rows == [row for row in full.rows if row.attack != "bayes"]
        assert alone.summary == [row for row in full.summary if row.attack != "bayes"]

    def test_weakest_threat_runs(self):
        config = ExperimentConfig(
            population="cancer", n=3, trials=2, targets_in=4, targets_out=4,
            threat="weakest", m=20, seed=8, attacks=("bayes",),
        )
        result = run_experiment(config)
        assert result.summary[0].trials == 2

    @pytest.mark.parametrize("population", ["asia", "product:3"])
    def test_invalid_network_raised_before_any_batch(self, monkeypatch, population):
        def run_batch(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(harness, "run_batch", run_batch)
        config = ExperimentConfig(population, 4, output_nodes=("nope",), workers=2)
        with pytest.raises(InvalidNetworkError, match="^output node nope is not declared$"):
            run_experiment(config)

    def test_missing_m_rejected(self):
        with pytest.raises(ValueError, match="proxy size"):
            ExperimentConfig(population="cancer", n=2, threat="weak")

    def test_repeated_attack_rejected_before_any_resolve(self, monkeypatch):
        # A repeated name would append each trial's AUCs to one list twice.
        def resolve(*args):
            raise AssertionError("a network was resolved")

        monkeypatch.setattr(harness, "resolve_network", resolve)
        with pytest.raises(ValueError, match="^attack 'lrt' is named more than once$"):
            ExperimentConfig("cancer", 4, trials=3, targets_out=600, attacks=("lrt", "lrt"))
        with pytest.raises(ValueError, match="^attack 'bayes' is named more than once$"):
            ExperimentConfig("cancer", 4, attacks=("bayes", "lrt", "bayes"))

    def test_m_under_the_strong_threat_rejected(self):
        # No proxy is drawn under the strong threat, so an m would only be
        # written into every CSV row.
        with pytest.raises(ValueError, match="^m applies only to the weak and weakest threats$"):
            ExperimentConfig("cancer", 4, trials=2, m=5)
        with pytest.raises(ValueError, match="^m applies only"):
            ExperimentConfig("cancer", 4, threat="strong", m=1)

    def test_weakest_needs_two_proxy_records_before_any_resolve(self, monkeypatch):
        def resolve(*args):
            raise AssertionError("a network was resolved")

        monkeypatch.setattr(harness, "resolve_network", resolve)
        with pytest.raises(ValueError, match="^the weakest threat model .* m >= 2$"):
            ExperimentConfig("cancer", 4, trials=2, threat="weakest", m=1)
        # The weak threat fits tables to the known graph: one record will do.
        ExperimentConfig("cancer", 4, trials=2, threat="weak", m=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 4.0), ("trials", 2.5), ("targets_in", 3.5), ("targets_out", 3.5),
            ("workers", 1.5), ("seed", 1.5), ("m", 10.5), ("m", "10"),
        ],
    )
    def test_non_integer_sizes_rejected(self, field, value):
        # A float would get as far as run_experiment: range(2.5), rng.integers(..., 3.5).
        kwargs = {"n": 4, "trials": 2, "threat": "weak", "m": 10, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            ExperimentConfig("cancer", **kwargs)

    def test_numpy_integer_sizes_accepted(self):
        config = ExperimentConfig(
            "cancer", np.int64(2), trials=np.int32(1), targets_in=np.int64(2),
            targets_out=np.int64(2), seed=np.uint64(3), threat="weak", m=np.int64(10),
            attacks=("lrt",),
        )
        assert len(run_experiment(config).rows) == 1

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n": 0}, "^trials, targets, and n must all be at least 1$"),
            ({"trials": 0}, "^trials, targets, and n must all be at least 1$"),
            ({"targets_in": 0}, "^trials, targets, and n must all be at least 1$"),
            ({"targets_out": 0}, "^trials, targets, and n must all be at least 1$"),
            ({"workers": 0}, "^workers must be at least 1$"),
            ({"threat": "weaker"}, r"^threat must be one of \('strong', 'weak', 'weakest'\)$"),
            ({"threat": "weak", "m": 0}, "^weak and weakest threat models need a proxy size"),
        ],
    )
    def test_size_and_threat_errors(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig("cancer", **{"n": 4, **kwargs})


class TestThreatModelOrdering:
    def test_strong_weak_weakest_chain_on_cancer(self):
        # statistical: losing model information cannot help much
        values = {}
        for threat, m in (("strong", None), ("weak", 50), ("weakest", 50)):
            config = ExperimentConfig(
                population="cancer", n=4, trials=40, targets_in=20, targets_out=20,
                seed=0, threat=threat, m=m, attacks=("bayes",),
            )
            (row,) = run_experiment(config).summary
            values[threat] = row.mean_auc
        assert values["strong"] >= values["weak"] - 0.03
        assert values["weak"] >= values["weakest"] - 0.03


class TestBench:
    def test_rows_schema(self):
        rows = suites.bench_posterior(["product:4"], n=2, datasets=2, targets=4, seed=0)
        row = rows[0]
        assert row.population == "product:4"
        assert row.num_nodes == 4 and row.output_dim == 4
        assert row.mean_seconds >= 0.0
        assert row.calls == 8


class TestSuiteRunner:
    def test_a_check_at_inf_fails_its_suite(self):
        run = suites._suite("checks", 1e-9)(lambda: iter([(0.0, 2), (math.inf, 3), (1e-12, 1)]))
        suite = run()
        assert suite.max_deviation == math.inf and not suite.passed
        assert (suite.name, suite.tolerance, suite.cases) == ("checks", 1e-9, 6)
        assert not suite.advisory and suite.seconds >= 0.0

    def test_an_advisory_failure_stays_advisory(self):
        run = suites._suite("gap", 1e-9, note="known", advisory=True)(lambda: iter([(1.0, 4)]))
        suite = run()
        assert (suite.passed, suite.advisory, suite.note, suite.cases) == (False, True, "known", 4)

    def test_suites_keep_their_signatures(self):
        assert list(inspect.signature(suites.verify_product_equivalence).parameters) == [
            "populations", "seed"
        ]
        assert suites.verify_binomial_identities.__name__ == "verify_binomial_identities"
        suite = suites.verify_binomial_identities(samples=5, seed=1)
        assert (suite.name, suite.cases) == ("binomial_ratio_identities", 10)


class TestClippedSuites:
    def test_tied_vectors(self):
        # Left side at d = 4: X2 copies X1, while X3 and X4 are free.
        assert list(suites._tied_vectors(4, LEFT, 1)) == [
            (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1),
            (1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1),
        ]
        right = list(suites._tied_vectors(4, RIGHT, 2))
        assert len(right) == 27 and right[:2] == [(0, 0, 0, 0), (0, 0, 1, 1)]
        assert all(v[3] == v[2] for v in right)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_tied_vectors_are_the_support(self, d):
        # The suites' targets are every outcome the side's network can release.
        rng = np.random.default_rng(d)
        nets = [(RIGHT, make_half_repeated(d, tuple(rng.uniform(0.2, 0.8, size=midpoint(d)))))]
        if d % 2 == 0:
            for side in (RIGHT, LEFT):
                size = midpoint(d) if side == RIGHT else d - midpoint(d) + 2
                nets.append((side, make_lr_side(d, tuple(rng.uniform(0.2, 0.8, size=size)), side)))
        for side, bn in nets:
            tied = sorted(suites._tied_vectors(d, side, 1))
            assert tied == [tuple(v) for v in output_marginal_law(bn).vectors.tolist()]

    @staticmethod
    def _copy_block(d, side):
        # The attributes that share one source: the repeated block of a side.
        layout = _copy_layout(d, side)
        return {j for j, s in enumerate(layout) if layout.count(s) > 1}

    @pytest.mark.parametrize("d", (4, 6, 8, 10))
    def test_choose_side_reads_a_tied_release(self, d):
        for side in (RIGHT, LEFT):
            block = self._copy_block(d, side)
            for n in (1, 2, 3):
                for c in suites._tied_vectors(d, side, n):
                    free = {c[j] for j in range(d) if j not in block}
                    expected = side if len(free) > 1 else attacks.AMBIGUOUS
                    assert attacks.choose_side(ReleasedCounts(c, n)) == expected

    @pytest.mark.parametrize("d", (4, 6, 8, 10, 12))
    def test_side_clip_holds_one_coordinate_of_the_block(self, d):
        for side in (RIGHT, LEFT):
            block = self._copy_block(d, side)
            kept = set(attacks.side_clip_range(d, side).indices(d))
            assert len(kept & block) == 1 and kept | block == set(range(d))

    def test_gap_skips_rows_where_both_odds_are_zero(self):
        law = output_marginal_law(make_product((0.3, 0.6)))
        ys = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
        counts = ReleasedCounts((0, 1), 1)  # only (0, 1) can be the record
        gap, cases = suites._clipped_gap(law, [counts], ys, ClipRange(1, 2))
        assert gap <= 1e-15 and cases == 4

    def test_gap_is_inf_when_exactly_one_odds_is_zero(self):
        law = output_marginal_law(make_product((0.3, 0.6)))
        ys = np.array([(0, 0), (0, 1)])
        counts = ReleasedCounts((0, 1), 1)
        assert suites._clipped_gap(law, [counts], ys, ClipRange(1, 1)) == (math.inf, 2)

    @pytest.mark.parametrize(
        "kind, d, side", [("half", 5, RIGHT), ("lr", 6, RIGHT), ("lr", 6, LEFT)]
    )
    def test_batch_gap_is_the_largest_release_gap(self, kind, d, side):
        # Each release of a batch gets the bits it gets alone, so the batch's
        # gap is the largest one-release gap, float for float.
        rng = np.random.default_rng(3)
        if kind == "half":
            bn = make_half_repeated(d, tuple(rng.uniform(0.2, 0.8, size=midpoint(d))))
            clip = attacks.side_clip_range(d, RIGHT)
        else:
            size = midpoint(d) if side == RIGHT else d - midpoint(d) + 2
            bn = make_lr_side(d, tuple(rng.uniform(0.2, 0.8, size=size)), side)
            clip = attacks.side_clip_range(d, side)
        law = output_marginal_law(bn)
        ys = np.array(list(suites._tied_vectors(d, side, 1)))
        for n in (2, 3):
            releases = [ReleasedCounts(c, n) for c in suites._tied_vectors(d, side, n)]
            alone = [suites._clipped_gap(law, [counts], ys, clip) for counts in releases]
            assert suites._clipped_gap(law, releases, ys, clip) == (
                max(gap for gap, _ in alone), len(releases) * len(ys)
            )
            assert all(cases == len(ys) for _, cases in alone)
            assert 0.0 < max(gap for gap, _ in alone) <= 1e-9

    def test_batch_skips_an_impossible_release(self):
        # half:3's third attribute copies its second, so (0, 1, 0) is impossible.
        law = output_marginal_law(make_half_repeated(3, (0.3, 0.6)))
        ys = np.array([(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)])
        clip = attacks.side_clip_range(3, RIGHT)
        possible = [ReleasedCounts((1, 1, 1), 2), ReleasedCounts((0, 2, 2), 2)]
        impossible = ReleasedCounts((0, 1, 0), 2)
        assert suites._clipped_gap(law, [impossible], ys, clip) == (0.0, 0)
        alone = max(suites._clipped_gap(law, [counts], ys, clip)[0] for counts in possible)
        batch = [possible[0], impossible, possible[1]]
        assert suites._clipped_gap(law, batch, ys, clip) == (alone, 2 * len(ys))

    def test_advisory_suite_is_pinned(self):
        suite = suites.verify_lr_single_side_counts()
        assert suite.advisory and not suite.passed
        assert suite.cases == 11_040

    def test_oracle_mismatch_on_impossible_evidence_is_reported(self, monkeypatch):
        def refuse(*args):
            raise ImpossibleEvidenceError("refused")

        monkeypatch.setattr(suites, "brute_force_posterior", refuse)
        suite = suites.verify_oracle_agreement()
        assert suite.max_deviation == math.inf and not suite.passed
        assert suite.cases == 1_950
