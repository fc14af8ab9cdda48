import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from reference import make_cancer, mle_fit, reference_sum_log_table
from strategies import small_networks

from bnmia import inference, model
from bnmia.harness import ExperimentConfig, run_experiment
from bnmia.suites import _theta_in, law_ratio_deviation
from bnmia.learning import ProxyDataset
from bnmia.inference import (
    ImpossibleEvidenceError,
    PosteriorEngine,
    brute_force_posterior,
    closed_form_product_ratio,
    sum_log_table,
)
from bnmia.model import (
    ReleasedCounts,
    attribute_marginals,
    dataset_counts,
    output_marginal_law,
    project,
    sample,
)
from bnmia.populations import (
    BUNDLED_BENCHMARKS,
    load_benchmark,
    make_half_repeated,
    make_lr_side,
    make_product,
)


def count_prob(law, k: int, target) -> float:
    """P(V_1 + ... + V_k = target) for V_i iid ~ law: one lookup in the table
    capped at k in every coordinate."""
    return math.exp(sum_log_table(law, k, (k,) * law.d).log_prob([target])[0])


def odds(bn, counts, y) -> float:
    """The posterior odds R of one target, from a new one-release engine."""
    return math.exp(PosteriorEngine(output_marginal_law(bn), [counts]).result(y))


class TestSumCountProb:
    """The count law, looked up in `sum_log_table`."""

    def test_fair_coin_binomial(self):
        law = output_marginal_law(make_product((0.5,)))
        assert count_prob(law, 2, (1,)) == pytest.approx(0.5, abs=1e-15)

    def test_empty_sum(self):
        law = output_marginal_law(make_product((0.5,)))
        assert count_prob(law, 0, (0,)) == 1.0
        assert count_prob(law, 0, (1,)) == 0.0

    def test_two_draws_corner(self):
        law = output_marginal_law(make_product((0.5, 0.5)))
        # only composition of (2, 0) is (1,0)+(1,0)
        assert count_prob(law, 2, (2, 0)) == pytest.approx(0.0625, abs=1e-15)

    def test_negative_target_is_zero(self):
        law = output_marginal_law(make_product((0.5,)))
        assert count_prob(law, 2, (-1,)) == 0.0

    def test_negative_cap_is_rejected(self):
        law = output_marginal_law(make_product((0.5, 0.5)))
        with pytest.raises(ValueError, match="caps must be nonnegative"):
            sum_log_table(law, 2, (-1, 1))
        with pytest.raises(ValueError, match="caps must be nonnegative"):
            sum_log_table(law, 2, [(1, 1), (0, -2)])

    def test_negative_k_is_rejected(self):
        law = output_marginal_law(make_product((0.5, 0.5)))
        with pytest.raises(ValueError, match="k must be nonnegative"):
            sum_log_table(law, -1, (1, 1))

    def test_matches_binomial_pmf(self):
        p = 0.37
        law = output_marginal_law(make_product((p,)))
        for n in range(1, 7):
            for k in range(n + 1):
                expected = math.comb(n, k) * p**k * (1 - p) ** (n - k)
                assert count_prob(law, n, (k,)) == pytest.approx(expected, rel=1e-12)

    def test_normalization_small_instances(self):
        for p in [(0.3, 0.6), (0.2, 0.5, 0.8)]:
            law = output_marginal_law(make_product(p))
            for n in (1, 2, 3):
                total = sum(
                    count_prob(law, n, c)
                    for c in itertools.product(range(n + 1), repeat=len(p))
                )
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_pruning_soundness(self):
        # A table computed under a tight cap agrees bitwise with the uncapped
        # table on every count vector within the cap, and holds nothing else.
        law = output_marginal_law(make_half_repeated(5, (0.3, 0.6, 0.45)))
        full = sum_log_table(law, 3, (3,) * 5)
        cap = (2, 1, 3, 3, 3)
        pruned = sum_log_table(law, 3, cap)
        grid = np.indices((4,) * 5).reshape(5, -1).T
        within = np.all(grid <= np.array(cap), axis=1)
        pruned_lp = pruned.log_prob(grid)
        full_lp = full.log_prob(grid)
        assert np.all(pruned_lp[~within] == -np.inf)
        assert np.all(pruned_lp[within] == full_lp[within])
        assert len(pruned) == np.count_nonzero(np.isfinite(pruned_lp))
        assert len(full) == np.count_nonzero(np.isfinite(full_lp))

    def test_wide_keys_copy_chain(self):
        # 23 raw-binary copies of one coin released at n = 8 with c = 6 each:
        # packing the 7-fold table needs 23 * log2(7) = 64.6 bits, beyond
        # int64 keys.  Only the all-ones and all-zeros vectors have mass.
        p = 0.6
        nodes = (model.NodeSpec("X1", ("0", "1"), (), {(): (1 - p, p)}),) + tuple(
            model.NodeSpec(f"X{j}", ("0", "1"), ("X1",), {(0,): (1.0, 0.0), (1,): (0.0, 1.0)})
            for j in range(2, 24)
        )
        bn = model.BayesianNetwork(nodes, tuple(n.name for n in nodes), model.RAW_BINARY)
        counts = ReleasedCounts((6,) * 23, 8)
        assert odds(bn, counts, (1,) * 23) == pytest.approx((6 / 8) / p, rel=1e-12)
        assert odds(bn, counts, (1,) + (0,) * 22) == 0.0


def released(bn, n: int, rng) -> tuple[int, ...]:
    return dataset_counts(bn, project(bn, sample(bn, n, rng))).counts


def reference_vectors(keys: np.ndarray, cap) -> np.ndarray:
    """The count vectors of `reference_sum_log_table`'s keys: mixed radix
    over cap + 1, C order, decoded as Python ints."""
    rest, digits = keys.astype(object), []
    for c in reversed(cap):
        digits.append(rest % (c + 1))
        rest = rest // (c + 1)
    return np.stack(digits[::-1], axis=1).astype(np.int64).reshape(len(keys), len(cap))


def assert_matches_reference(law, k: int, cap) -> None:
    """The table holds as many entries as the reference, and its lookups
    of the reference's count vectors give the same log-probability bits."""
    table = sum_log_table(law, k, cap)
    keys, log_probs = reference_sum_log_table(law, k, cap)
    assert len(table) == len(keys)
    assert table.log_prob(reference_vectors(keys, cap)).tobytes() == log_probs.tobytes()


def copy_chain_law(d: int, p: float = 0.6, q: float = 0.3) -> model.SupportDistribution:
    """The law of a raw-binary coin with d - 2 exact copies, then an
    independent coin: four outcomes, all d bits set in two of them.  (The
    network's output table, 2**d entries, is over the elimination guard.)"""
    outcomes = [
        ((x,) * (d - 1) + (z,), (p if x else 1 - p) * (q if z else 1 - q))
        for x in (0, 1) for z in (0, 1)
    ]
    return model.SupportDistribution(
        np.array([v for v, _ in outcomes], dtype=np.int64), np.array([w for _, w in outcomes])
    )


class TestBlockedStepMatchesReference:
    """sum_log_table's outcome-block step against the per-outcome reference
    loop, bit for bit: same number of entries, same log-probability bits at
    every count vector of the reference."""

    @settings(max_examples=100, deadline=None)
    @given(small_networks(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_random_networks(self, bn, n, seed):
        law = output_marginal_law(bn)
        cap = released(bn, n, np.random.default_rng(seed))
        for k in (n - 1, n, n + 1):  # n + 1 prunes every one-hot partial sum
            assert_matches_reference(law, k, cap)

    @pytest.mark.parametrize("name", [b for b in BUNDLED_BENCHMARKS if b.startswith("sachs:")])
    def test_sachs_sets(self, name):
        bn = load_benchmark(name)
        law = output_marginal_law(bn)
        rng = np.random.default_rng(5)
        for n in (4, 6):
            cap = released(bn, n, rng)
            for k in (n - 1, n):
                assert_matches_reference(law, k, cap)

    @pytest.mark.parametrize("budget", [1, 10**12], ids=["block-per-outcome", "one-block"])
    def test_block_budget_does_not_change_the_table(self, monkeypatch, budget):
        monkeypatch.setattr(inference, "_BLOCK_BYTES", budget)
        rng = np.random.default_rng(9)
        for bn in (load_benchmark("asia"), load_benchmark("sachs:path-left"),
                   make_product(tuple(rng.uniform(0.2, 0.8, 6)))):
            law = output_marginal_law(bn)
            cap = released(bn, 6, rng)
            for k in (3, 5):
                assert_matches_reference(law, k, cap)
        assert_matches_reference(copy_chain_law(70), 5, (5,) * 69 + (2,))

    def test_step_memory_follows_the_block_budget(self):
        # A plain-sachs release at n = 4 that keeps 1,728 law outcomes and
        # reaches 9,216 live partial sums: one block over a whole step peaks
        # at about 152 MiB of numpy allocations, the 256 KiB blocks at 29 MiB.
        law = output_marginal_law(load_benchmark("sachs"))
        cap = (4, 0, 0, 1, 2, 1, 4, 0, 0, 1, 0, 3, 1, 2, 1, 0, 2,
               2, 1, 2, 1, 2, 0, 2, 0, 1, 3, 3, 0, 1, 0, 3, 1)
        tracemalloc.start()
        try:
            table = sum_log_table(law, 3, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 1728
        assert peak < 64 * 2**20

    def test_wide_raw_binary_chain(self):
        # d = 70 packs 69 copies of one coin into one digit, and int64 keys;
        # the cap that binds first sits on the last coordinate, past any
        # 64-bit mask.
        law = copy_chain_law(70)
        cap = (5,) * 69 + (2,)
        table = sum_log_table(law, 5, cap)
        assert table.parts[0].keys.dtype == np.int64 and len(table) == 18
        assert_matches_reference(law, 5, cap)
        assert_matches_reference(law, 6, (5,) * 68 + (2, 5))


def never_taken_states_law() -> model.SupportDistribution:
    """A one-hot law whose first node has two states of probability zero:
    their columns are zero on every outcome, so one copies the other."""
    nodes = (
        model.NodeSpec("A", ("a", "b", "c", "e"), (), {(): (0.4, 0.6, 0.0, 0.0)}),
        model.NodeSpec("B", ("0", "1"), ("A",), {
            (0,): (0.3, 0.7), (1,): (0.8, 0.2), (2,): (0.5, 0.5), (3,): (0.5, 0.5),
        }),
    )
    return output_marginal_law(model.BayesianNetwork(nodes, ("A", "B"), model.ONE_HOT))


class TestKeyDigits:
    """Columns equal on every law outcome share one int64 key digit, capped
    at their least cap; a release whose key still passes 62 bits stops
    before any convolution step."""

    @pytest.mark.parametrize("name", ["half:9", "lr:10-right", "lr:10-left", "copy-chain",
                                      "never-taken-states"])
    def test_targets_whose_copies_disagree_miss(self, name):
        # Every reachable sum under the cap, and each of them with one
        # coordinate moved by one: where a column and one it copies
        # disagree, the lookup misses; elsewhere it gives the reference's
        # bits, or misses where the reference has no entry.
        rng = np.random.default_rng(3)
        law = {
            "half:9": lambda: output_marginal_law(make_half_repeated(9, rng.uniform(0.2, 0.8, 5))),
            "lr:10-right": lambda: output_marginal_law(
                make_lr_side(10, rng.uniform(0.2, 0.8, 6), "right")),
            "lr:10-left": lambda: output_marginal_law(
                make_lr_side(10, rng.uniform(0.2, 0.8, 6), "left")),
            "copy-chain": lambda: copy_chain_law(12),
            "never-taken-states": never_taken_states_law,
        }[name]()
        k = 4
        cap = np.full(law.d, k)
        cap[-2] = k - 1  # a copied column may bind below the column it copies
        keys, log_probs = reference_sum_log_table(law, k, cap)
        sums = reference_vectors(keys, cap)
        moved = (sums[:, None, :] + np.concatenate([np.eye(law.d), -np.eye(law.d)])[None])
        targets = np.concatenate([sums, moved.reshape(-1, law.d).astype(np.int64)])
        same = (law.vectors[:, :, None] == law.vectors[:, None, :]).all(axis=0)
        disagree = np.array([(t[:, None] != t[None, :])[same].any() for t in targets])
        expected = dict(zip(map(tuple, sums.tolist()), log_probs.tolist()))
        got = sum_log_table(law, k, cap).log_prob(targets)
        assert disagree.any() and (got[disagree] == -np.inf).all()
        assert got[~disagree].tolist() == [
            expected.get(tuple(t), -np.inf) for t in targets[~disagree].tolist()
        ]

    def test_a_release_past_62_bits_stops_before_any_step(self, monkeypatch):
        # Trials 0 and 1 of `eval --network asia --n 50` at seed 0: no two of
        # asia's sixteen one-hot columns are equal on every outcome, and the
        # key of trial 1 needs 63.9 bits.
        caps = [(0, 50, 0, 50, 22, 28, 1, 49, 23, 27, 1, 49, 1, 49, 27, 23),
                (0, 50, 2, 48, 26, 24, 1, 49, 19, 31, 3, 47, 9, 41, 21, 29)]
        law = output_marginal_law(load_benchmark("asia"))

        def never(*args):
            raise AssertionError("a convolution step ran")

        monkeypatch.setattr(inference, "_range_candidates", never)
        message = r"^release 1's table keys need 63\.9 bits, past 62$"
        with pytest.raises(model.ModelSizeError, match=message):
            sum_log_table(law, 49, caps)


WIDTHS = [1, 7, 8, 9, 16, 17, 32, 33, 63, 64, 65, 128, 129]


def bit_rows(rng, rows: int, d: int) -> np.ndarray:
    """Random 0/1 rows at a sparse and a dense rate, then every one-hot row,
    so that each bit of each word decides some pair alone."""
    return np.concatenate([
        rng.random((rows, d)) < 0.05,
        rng.random((rows, d)) < 0.5,
        np.eye(d, dtype=bool),
    ]).astype(np.int64)


class TestBitSets:
    """The packed room test against its definition on the unpacked rows."""

    def assert_disjoint_is_its_definition(self, a, b) -> None:
        pa, pb = inference._packed(a), inference._packed(b)
        assert pa.shape == (len(a), -(-a.shape[1] // 64)) and pa.dtype == pb.dtype
        hit = np.empty((len(a), len(b)), pa.dtype)
        expected = ~(a[:, None, :] & b[None, :, :]).any(axis=2)
        assert np.array_equal(inference._disjoint(pa, pb, hit), expected)

    @pytest.mark.parametrize("d", WIDTHS)
    def test_disjoint_at_word_edges(self, d):
        rng = np.random.default_rng(d)
        self.assert_disjoint_is_its_definition(bit_rows(rng, 20, d), bit_rows(rng, 15, d))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 140), st.integers(0, 2**32 - 1))
    def test_disjoint_at_any_width(self, d, seed):
        rng = np.random.default_rng(seed)
        self.assert_disjoint_is_its_definition(bit_rows(rng, 8, d), bit_rows(rng, 6, d))

    @pytest.mark.parametrize("d", WIDTHS)
    def test_narrowest_word(self, d):
        packed = inference._packed(np.ones((1, d), dtype=bool))
        bytes_needed = -(-d // 8)
        word = next((b for b in (1, 2, 4, 8) if b >= bytes_needed), 8)
        assert packed.itemsize == word and packed.shape[1] * word * 8 >= d

    @pytest.mark.parametrize("budget", [1, 10**12], ids=["outcome-per-block", "one-block"])
    @settings(
        max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(st.integers(1, 140), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_fits_is_coordinatewise(self, monkeypatch, budget, d, releases, seed):
        monkeypatch.setattr(inference, "_BLOCK_BYTES", budget)
        rng = np.random.default_rng(seed)
        vectors = bit_rows(rng, 10, d)
        caps = rng.integers(1, 3, (releases, d)) * (rng.random((releases, d)) >= 0.1)
        expected = (vectors[:, None, :] <= caps[None, :, :]).all(axis=2)
        assert np.array_equal(inference._fits(vectors, caps), expected)


class TestCandidateBudget:
    """A convolution range that gathers more than `_CANDIDATE_BUDGET`
    candidates raises ModelSizeError; one that gathers exactly that many
    builds the same table as without the guard."""

    def largest_range(self, monkeypatch, law, k, caps) -> int:
        gathered = []
        real = inference._range_candidates

        def counted(*args):
            out = real(*args)
            gathered.append(len(out[0]))
            return out

        monkeypatch.setattr(inference, "_range_candidates", counted)
        sum_log_table(law, k, caps)
        monkeypatch.setattr(inference, "_range_candidates", real)
        return max(gathered)

    def test_budget_bounds_a_range(self, monkeypatch):
        law = output_marginal_law(load_benchmark("asia"))
        caps = released(load_benchmark("asia"), 6, np.random.default_rng(2))
        expected = sum_log_table(law, 5, caps)
        largest = self.largest_range(monkeypatch, law, 5, caps)
        monkeypatch.setattr(inference, "_CANDIDATE_BUDGET", largest)
        table = sum_log_table(law, 5, caps)
        assert [part.keys.tobytes() for part in table.parts] == [
            part.keys.tobytes() for part in expected.parts
        ]
        assert [part.log_probs.tobytes() for part in table.parts] == [
            part.log_probs.tobytes() for part in expected.parts
        ]
        monkeypatch.setattr(inference, "_CANDIDATE_BUDGET", largest - 1)
        with pytest.raises(model.ModelSizeError, match="candidate budget"):
            sum_log_table(law, 5, caps)

    def test_gathering_and_grouping_peak_follows_the_candidates(self, monkeypatch):
        # product:8 capped at 3, three steps: the largest range gathers
        # 1,679,616 candidates of 16 bytes each, and the step peaks at 2.0
        # times their bytes.  Holding the unsorted candidates beside their
        # sorted copies while grouping peaks at 3.1 times.
        law = output_marginal_law(make_product((0.5,) * 8))
        caps = (3,) * 8
        largest = self.largest_range(monkeypatch, law, 3, caps)
        tracemalloc.start()
        try:
            sum_log_table(law, 3, caps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert largest == 1_679_616
        assert peak < 2.5 * 16 * largest

    def test_budget_bounds_the_live_table(self, monkeypatch):
        # 100 releases of product:3 at n = 8: every range of a step gathers
        # fewer candidates than the joined table holds live partial sums, so
        # a budget that lets every range through stops the table, and one
        # that holds the final table builds the same table.
        bn = make_product((0.3, 0.5, 0.7))
        law = output_marginal_law(bn)
        rng = np.random.default_rng(4)
        caps = np.array([released(bn, 8, rng) for _ in range(100)])
        expected = sum_log_table(law, 7, caps)
        largest = self.largest_range(monkeypatch, law, 7, caps)
        assert largest < len(expected)
        monkeypatch.setattr(inference, "_CANDIDATE_BUDGET", largest)
        message = rf"more than {largest} live partial sums \(the candidate budget\)$"
        with pytest.raises(model.ModelSizeError, match=message):
            sum_log_table(law, 7, caps)
        monkeypatch.setattr(inference, "_CANDIDATE_BUDGET", len(expected))
        table = sum_log_table(law, 7, caps)
        assert [part.keys.tobytes() for part in table.parts] == [
            part.keys.tobytes() for part in expected.parts
        ]
        assert [part.log_probs.tobytes() for part in table.parts] == [
            part.log_probs.tobytes() for part in expected.parts
        ]

    def test_budget_stops_an_experiment(self, monkeypatch):
        monkeypatch.setattr(inference, "_CANDIDATE_BUDGET", 8)
        config = ExperimentConfig("cancer", 4, trials=2, seed=0, attacks=("bayes",))
        with pytest.raises(model.ModelSizeError, match="more than 8 candidate sums"):
            run_experiment(config)


class TestStackedTable:
    """One table for a stack of releases against one table per release: the
    same lookups, bit for bit, of c_r - v for every law outcome v and of
    random targets, one release at a time and all at once, whatever the
    release ranges of a step and however the stack is split into parts."""

    @pytest.mark.parametrize("mode", ["release-per-range", "one-range", "split"])
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        small_networks(), st.integers(1, 5), st.integers(2, 6), st.integers(0, 2**32 - 1),
        st.integers(0, 1),
    )
    def test_lookups_equal_one_table_per_release(
        self, monkeypatch, mode, bn, n, releases, seed, headroom
    ):
        law = output_marginal_law(bn)
        rng = np.random.default_rng(seed)
        caps = np.array([released(bn, n, rng) for _ in range(releases)])
        if mode == "split":
            # A column that no other column copies takes the cap that makes
            # the stack's elementwise-max key 61.5 - headroom bits wide: the
            # whole stack is past 62 bits, and any 2**headroom releases fit
            # in one part.
            assume(releases >= 2 ** (headroom + 1))
            copy_of = inference._first_copies(law.vectors)
            alone = np.flatnonzero(np.bincount(copy_of, minlength=law.d) == 1)
            assume(len(alone))
            caps[:, alone[0]] = 0
            rest = np.log2(inference._key_caps(caps, copy_of).max(axis=0) + 1).sum()
            caps[:, alone[0]] = int(2.0 ** (61.5 - headroom - rest))
        if mode != "split":
            budget = 1 if mode == "release-per-range" else 10**12
            monkeypatch.setattr(inference, "_RANGE_BYTES", budget)
        k = n - 1
        table = sum_log_table(law, k, caps)
        assert (len(table.parts) > 1) == (mode == "split")
        assert all(part.keys.dtype == np.int64 for part in table.parts)
        all_targets, all_releases, expected = [], [], []
        for r, cap in enumerate(caps):
            alone = sum_log_table(law, k, cap)
            targets = np.concatenate([cap - law.vectors, rng.integers(-1, k + 2, (20, law.d))])
            assert np.array_equal(table.log_prob(targets, r), alone.log_prob(targets))
            all_targets.append(targets)
            all_releases.append(np.full(len(targets), r))
            expected.append(alone.log_prob(targets))
        got = table.log_prob(np.concatenate(all_targets), np.concatenate(all_releases))
        assert np.array_equal(got, np.concatenate(expected))

    @pytest.mark.parametrize("budget", [1, 10**12], ids=["release-per-range", "one-range"])
    def test_release_under_which_no_outcome_fits(self, monkeypatch, budget):
        # A one-hot law has no outcome under an all-zero cap: that release's
        # table empties at the first step, beside releases whose tables do not.
        monkeypatch.setattr(inference, "_RANGE_BYTES", budget)
        bn = make_cancer()
        law = output_marginal_law(bn)
        rng = np.random.default_rng(4)
        caps = np.array([released(bn, 4, rng), (0,) * law.d, released(bn, 4, rng)])
        table = sum_log_table(law, 3, caps)
        for r, cap in enumerate(caps):
            targets = np.concatenate([cap - law.vectors, np.zeros((1, law.d), dtype=np.int64)])
            alone = sum_log_table(law, 3, cap)
            assert np.array_equal(table.log_prob(targets, r), alone.log_prob(targets))
        assert len(sum_log_table(law, 3, caps[1])) == 0

    @pytest.mark.parametrize("releases", [1, 3], ids=["one-release", "stacked"])
    def test_release_index_outside_the_stack(self, releases):
        law = output_marginal_law(make_product((0.3, 0.6)))
        table = sum_log_table(law, 1, [(1, 1)] * releases)
        assert table.log_prob([(1, 0)], releases - 1)[0] == pytest.approx(math.log(0.3 * 0.4))
        for bad in (releases, 7, -1, [0, releases]):
            with pytest.raises(ValueError, match="release index outside"):
                table.log_prob([(1, 0), (0, 1)], bad)


def fitted_laws(bn, count: int, m: int, alpha: float, rng) -> list:
    """The output laws of `count` networks refit to proxies of m records."""
    return [
        output_marginal_law(mle_fit(bn, ProxyDataset.from_network_samples(bn, m, rng), alpha))
        for _ in range(count)
    ]


def drawn_release(law, n: int, rng) -> ReleasedCounts:
    """The release of n records drawn from law itself: possible under it."""
    picks = rng.choice(len(law), size=n, p=law.probs / law.probs.sum())
    return ReleasedCounts(tuple(law.vectors[picks].sum(axis=0).tolist()), n)


class TestStackedLaws:
    """One engine over a stack of per-release laws against one engine per
    release: the same denominators and log ratios, bit for bit, whether the
    laws' supports differ (so the stack splits into parts), a release in
    the middle is impossible evidence, one law object is passed for several
    releases, or one law is passed for all."""

    def log_columns(self, monkeypatch, laws, releases) -> tuple[set, set]:
        """The log columns and the lengths of `rel` that building an engine
        over laws and releases passes to `_range_candidates`."""
        columns, rels = set(), set()
        real = inference._range_candidates

        def recorded(*args):
            columns.add(args[6].shape[1])
            rels.add(len(args[8]))
            return real(*args)

        monkeypatch.setattr(inference, "_range_candidates", recorded)
        PosteriorEngine(laws, releases)
        monkeypatch.setattr(inference, "_range_candidates", real)
        return columns, rels

    def assert_equals_one_engine_per_release(self, laws, releases, rng):
        engine = PosteriorEngine(laws, releases)
        each = [laws] * len(releases) if isinstance(laws, model.SupportDistribution) else laws
        outcomes = np.unique(np.concatenate([law.vectors for law in each]), axis=0)
        targets = np.concatenate([outcomes, rng.integers(0, 2, (10, outcomes.shape[1]))])
        ratios = engine.log_ratios(np.array([targets] * len(releases)))
        impossible = []
        for r, release in enumerate(releases):
            alone = PosteriorEngine(each[r], [release])
            if alone.impossible:
                impossible.append(r)
                assert np.all(ratios[r] == -np.inf)
            assert engine.log_denominators[r] == alone.log_denominators[0]
            assert ratios[r].tobytes() == alone.log_ratios(targets[None]).tobytes()
        assert engine.impossible == tuple(impossible)
        return engine

    @pytest.mark.parametrize("budget", [1, 10**12], ids=["release-per-range", "one-range"])
    @pytest.mark.parametrize("seed", range(4))
    def test_laws_with_different_supports(self, monkeypatch, budget, seed):
        # Unsmoothed fits to 6 records leave outcomes out, each fit its own.
        monkeypatch.setattr(inference, "_RANGE_BYTES", budget)
        rng = np.random.default_rng(seed)
        bn = make_cancer().with_outputs(("Smoker", "Cancer", "Xray", "Dyspnoea"), "one-hot")
        laws = fitted_laws(bn, 6, 6, 0.0, rng)
        releases = [drawn_release(law, 4, rng) for law in laws]
        engine = self.assert_equals_one_engine_per_release(laws, releases, rng)
        assert len(engine._table.parts) > 1

    @pytest.mark.parametrize("budget", [1, 10**12], ids=["release-per-range", "one-range"])
    def test_impossible_release_in_the_middle(self, monkeypatch, budget):
        # Smoothed fits share their support; a one-hot block summing past n
        # is impossible under any of them.
        monkeypatch.setattr(inference, "_RANGE_BYTES", budget)
        rng = np.random.default_rng(11)
        bn = make_cancer()
        laws = fitted_laws(bn, 5, 20, 1.0, rng)
        releases = [drawn_release(law, 3, rng) for law in laws]
        releases[2] = ReleasedCounts((3,) * bn.d, 3)
        engine = self.assert_equals_one_engine_per_release(laws, releases, rng)
        assert engine.impossible == (2,)
        assert len(engine._table.parts) == 1

    @pytest.mark.parametrize("budget", [1, 10**12], ids=["release-per-range", "one-range"])
    def test_repeated_law_objects(self, monkeypatch, budget):
        # Smoothed fits share their support, so the stack [A, B, A, A, C] is
        # one part that logs each of its three law objects once.
        monkeypatch.setattr(inference, "_RANGE_BYTES", budget)
        rng = np.random.default_rng(13)
        a, b, c = fitted_laws(make_cancer(), 3, 20, 1.0, rng)
        laws = [a, b, a, a, c]
        releases = [drawn_release(law, 3, rng) for law in laws]
        engine = self.assert_equals_one_engine_per_release(laws, releases, rng)
        assert len(engine._table.parts) == 1
        # One range over all five releases reads a column per live key.
        columns, rels = self.log_columns(monkeypatch, laws, releases)
        assert columns == {3} and (max(rels) > 1) == (budget > 1)

    def test_shared_law_passed_once(self, monkeypatch):
        rng = np.random.default_rng(12)
        bn = load_benchmark("asia")
        law = output_marginal_law(bn)
        releases = [drawn_release(law, 4, rng) for _ in range(6)]
        once = self.assert_equals_one_engine_per_release(law, releases, rng)
        # [law] * R holds one log column, read through a one-entry rel.
        assert self.log_columns(monkeypatch, [law] * len(releases), releases) == ({1}, {1})
        per_release = PosteriorEngine([law] * len(releases), releases)
        assert per_release.log_denominators.tobytes() == once.log_denominators.tobytes()
        targets = np.array([law.vectors[:40]] * len(releases))
        assert per_release.log_ratios(targets).tobytes() == once.log_ratios(targets).tobytes()

    def test_one_law_per_release(self):
        law = output_marginal_law(make_product((0.3, 0.6)))
        releases = [ReleasedCounts((1, 1), 2)] * 3
        with pytest.raises(ValueError, match="one law for all its releases or one per release"):
            PosteriorEngine([law] * 2, releases)
        with pytest.raises(ValueError, match="one law for all its releases or one per release"):
            sum_log_table([law] * 4, 1, [(1, 1)] * 3)


class TestPosteriorRatio:
    def test_single_coin_closed_form_value(self):
        bn = make_product((0.5,))
        ratio = odds(bn, ReleasedCounts((2,), 2), (1,))
        assert ratio == pytest.approx(2.0, rel=1e-12)
        assert _theta_in(ratio) == pytest.approx(2 / 3, rel=1e-12)

    def test_infeasible_target_gives_zero(self):
        bn = make_product((0.5,))
        engine = PosteriorEngine(output_marginal_law(bn), [ReleasedCounts((0,), 2)])
        log_ratio = engine.result((1,))
        assert log_ratio == float("-inf")
        assert math.exp(log_ratio) == 0.0

    @pytest.mark.parametrize("target", [(0.5,), (2,), (-1,)])
    def test_target_entries_other_than_bits_are_refused(self, target):
        law = output_marginal_law(make_product((0.5,)))
        engine = PosteriorEngine(law, [ReleasedCounts((1,), 2)])
        with pytest.raises(ValueError, match="target entries must be 0 or 1"):
            engine.result(target)
        with pytest.raises(ValueError, match="target entries must be 0 or 1"):
            engine.log_ratios([[target]])

    @pytest.mark.parametrize("release", [1, 3, -1])
    def test_release_index_outside_the_engine(self, release):
        # -1 would read the last denominator, 3 would index past it.
        law = output_marginal_law(make_product((0.5,)))
        engine = PosteriorEngine(law, [ReleasedCounts((1,), 2)])
        with pytest.raises(ValueError, match="^release index outside the table's releases$"):
            engine.result((1,), release)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda law, c: PosteriorEngine(law, [ReleasedCounts((1, 1, 1), 2)]),
             "^released counts have the wrong dimension$"),
            (lambda law, c: PosteriorEngine(law, [c]).result((1, 0, 1)),
             "^target has the wrong dimension$"),
            (lambda law, c: PosteriorEngine(law, [c]).log_ratios([[(1, 0, 1)]]),
             "^target has the wrong dimension$"),
            (lambda law, c: PosteriorEngine(law, [c]).log_ratios([(1, 0)]),
             "^target has the wrong dimension$"),
            (lambda law, c: PosteriorEngine(law, [c]).log_ratios([[(1, 0)], [(0, 1)]]),
             r"^a batch's targets must be a \(releases, targets, d\) array$"),
        ],
        ids=["counts", "result-target", "batch-target", "batch-rank", "batch-releases"],
    )
    def test_dimension_errors(self, call, message):
        law = output_marginal_law(make_product((0.3, 0.6)))
        with pytest.raises(ValueError, match=message):
            call(law, ReleasedCounts((1, 1), 2))

    def test_counts_past_a_sure_state_are_impossible_evidence(self):
        # The live table empties before the last convolution step.
        sure = model.NodeSpec("A", ("0", "1"), (), {(): (0.0, 1.0)})
        law = output_marginal_law(model.BayesianNetwork((sure,), ("A",), model.ONE_HOT))
        engine = PosteriorEngine(law, [ReleasedCounts((3, 1), 3)])
        assert engine.impossible == (0,)
        with pytest.raises(ImpossibleEvidenceError):
            engine.result((1, 0))

    def test_one_impossible_release_in_a_batch(self):
        # X3 copies X2, so counts with c3 != c2 are impossible evidence.
        law = output_marginal_law(make_half_repeated(3, (0.5, 0.4)))
        batch = [ReleasedCounts(c, 3) for c in ((1, 1, 1), (1, 1, 2), (2, 0, 0))]
        engine = PosteriorEngine(law, batch)
        assert np.isneginf(engine.log_denominators).tolist() == [False, True, False]
        assert engine.impossible == (1,)
        targets = np.array([list(itertools.product((0, 1), repeat=3))] * 3)
        ratios = engine.log_ratios(targets)
        assert np.all(ratios[1] == -np.inf)
        for r in (0, 2):
            alone = PosteriorEngine(law, [batch[r]])
            assert engine.log_denominators[r] == alone.log_denominators[0]
            assert np.array_equal(ratios[r], alone.log_ratios(targets[r : r + 1])[0])
        with pytest.raises(ImpossibleEvidenceError, match="impossible evidence"):
            engine.result((0, 1, 1), release=1)
        assert PosteriorEngine(law, [batch[1]]).impossible == (0,)

    def test_single_record_dataset(self):
        bn = make_product((0.3, 0.6))
        law = output_marginal_law(bn)
        c = (1, 1)
        assert law.vectors[-1].tolist() == list(c)
        assert odds(bn, ReleasedCounts(c, 1), (1, 1)) == pytest.approx(
            1.0 / law.probs[-1], rel=1e-12
        )
        # a target that is not the released record cannot be the record
        assert odds(bn, ReleasedCounts(c, 1), (0, 1)) == 0.0

    def test_posterior_engine_retains_nothing(self):
        bn = make_product((0.3, 0.6))
        counts = ReleasedCounts((1, 1), 2)
        first = PosteriorEngine(output_marginal_law(bn), [counts])
        assert PosteriorEngine(output_marginal_law(bn), [counts]) is not first
        ref = weakref.ref(first)
        del first
        gc.collect()
        assert ref() is None

    def test_engine_reuse_matches_fresh(self):
        bn = make_product((0.3, 0.6, 0.45))
        counts = ReleasedCounts((2, 1, 3), 4)
        law = output_marginal_law(bn)
        engine = PosteriorEngine(law, [counts])
        for y in itertools.product((0, 1), repeat=3):
            assert engine.result(y) == PosteriorEngine(output_marginal_law(bn), [counts]).result(y)


@pytest.mark.parametrize("name", BUNDLED_BENCHMARKS)
def test_ratios_average_to_one_under_the_law(name):
    # Summed against the law, the numerator gives the denominator, so
    # sum_y law(y) R(y) = 1 for any feasible release.
    bn = load_benchmark(name)
    assert law_ratio_deviation(bn, 4, 3, np.random.default_rng(0)) <= 1e-12


class TestClosedForm:
    def test_hand_value(self):
        counts = ReleasedCounts((3, 1), 4)
        out = closed_form_product_ratio((0.5, 0.5), counts, (1, 0))
        assert out == pytest.approx(2.25, rel=1e-12)

    def test_identity_when_means_equal_marginals(self):
        counts = ReleasedCounts((2, 1), 4)
        out = closed_form_product_ratio((0.5, 0.25), counts, (1, 0))
        assert out == pytest.approx(1.0, rel=1e-12)

    def test_binomial_ratio_identities(self):
        n, mu, k = 5, 0.3, 2

        def binom(nn, p, kk):
            return math.comb(nn, kk) * p**kk * (1 - p) ** (nn - kk)

        lhs_set = binom(n - 1, mu, k - 1) / binom(n, mu, k)
        assert lhs_set == pytest.approx(k / (n * mu), rel=1e-12)
        lhs_unset = binom(n - 1, mu, k) / binom(n, mu, k)
        assert lhs_unset == pytest.approx((n - k) / (n * (1 - mu)), rel=1e-12)

    def test_boundary_marginals_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            closed_form_product_ratio((0.0, 0.5), ReleasedCounts((1, 1), 2), (1, 0))

    def test_zero_factor_returns_zero(self):
        counts = ReleasedCounts((0, 2), 4)
        assert closed_form_product_ratio((0.5, 0.5), counts, (1, 0)) == 0.0


class TestProductEquivalence:
    def test_posterior_equals_closed_form_on_random_products(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            p = tuple(rng.uniform(0.2, 0.8, size=d))
            bn = make_product(p)
            mu = attribute_marginals(output_marginal_law(bn))
            for c in itertools.product(range(n + 1), repeat=d):
                counts = ReleasedCounts(c, n)
                engine = PosteriorEngine(output_marginal_law(bn), [counts])
                for y in itertools.product((0, 1), repeat=d):
                    lam = closed_form_product_ratio(mu, counts, y)
                    r = math.exp(engine.result(y))
                    if lam == 0.0:
                        assert r == 0.0
                    else:
                        assert r == pytest.approx(lam, rel=1e-9)


class TestHalfRepeatedEquivalence:
    def test_posterior_equals_clipped_form(self):
        rng = np.random.default_rng(7)
        for d in (3, 5, 7):
            m = d // 2 + 1
            p = tuple(rng.uniform(0.2, 0.8, size=m))
            bn = make_half_repeated(d, p)
            mu = attribute_marginals(output_marginal_law(bn))
            for n in (1, 2, 3):
                for free in itertools.product(range(n + 1), repeat=m):
                    c = free + (free[m - 1],) * (d - m)
                    counts = ReleasedCounts(c, n)
                    engine = PosteriorEngine(output_marginal_law(bn), [counts])
                    for y_free in itertools.product((0, 1), repeat=m):
                        y = y_free + (y_free[m - 1],) * (d - m)
                        lam = closed_form_product_ratio(
                            mu[:m], ReleasedCounts(c[:m], n), y[:m]
                        )
                        r = math.exp(engine.result(y))
                        if lam == 0.0:
                            assert r == 0.0
                        else:
                            assert r == pytest.approx(lam, rel=1e-9)


class TestBruteForceOracle:
    def test_products_exhaustive(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            p = tuple(rng.uniform(0.2, 0.8, size=d))
            bn = make_product(p)
            for c in itertools.product(range(n + 1), repeat=d):
                counts = ReleasedCounts(c, n)
                engine = PosteriorEngine(output_marginal_law(bn), [counts])
                for y in itertools.product((0, 1), repeat=d):
                    bf = brute_force_posterior(bn, counts, y)
                    dp = math.exp(engine.result(y))
                    assert _theta_in(dp) == pytest.approx(_theta_in(bf), abs=1e-12)
                    if bf == 0.0:
                        assert dp == 0.0
                    else:
                        assert dp == pytest.approx(bf, rel=1e-12)

    def test_cancer_projected(self):
        bn = make_cancer().with_outputs(("Xray", "Dyspnoea"), model.RAW_BINARY)
        n = 2
        for c in itertools.product(range(n + 1), repeat=2):
            counts = ReleasedCounts(c, n)
            for y in itertools.product((0, 1), repeat=2):
                bf = brute_force_posterior(bn, counts, y)
                dp = odds(bn, counts, y)
                assert _theta_in(dp) == pytest.approx(_theta_in(bf), abs=1e-12)
                if bf > 0.0:
                    assert dp == pytest.approx(bf, rel=1e-12)

    def test_guard(self, monkeypatch):
        # 2**10 states per instance: 2**30 assignments at n = 3, and 2**20 at
        # n = 2 once the guard is lowered below them.
        bn = make_product((0.5,) * 10)
        with pytest.raises(model.ModelSizeError):
            brute_force_posterior(bn, ReleasedCounts((1,) * 10, 3), (0,) * 10)
        monkeypatch.setattr(model, "STATE_GUARD", 2**20 - 1)
        with pytest.raises(model.ModelSizeError):
            brute_force_posterior(bn, ReleasedCounts((1,) * 10, 2), (0,) * 10)


class TestEngineMatchesOracleOnRandomNetworks:
    """The convolution engine against brute-force enumeration on random small
    networks: every law-support target and one off-support vector, for the
    release of a sampled dataset and for an arbitrary count vector."""

    @settings(max_examples=200, deadline=None)
    @given(small_networks(), st.sampled_from((1, 2, 3)), st.integers(0, 2**32 - 1))
    def test_random_networks(self, bn, n, seed):
        assume(bn.joint_state_count**n <= 20_000)
        rng = np.random.default_rng(seed)
        law = output_marginal_law(bn)
        support = list(map(tuple, law.vectors.tolist()))
        off = next((y for y in itertools.product((0, 1), repeat=bn.d) if y not in support), None)
        targets = support + ([off] if off is not None else [])
        releases = [
            dataset_counts(bn, project(bn, sample(bn, n, rng))),
            ReleasedCounts(tuple(int(c) for c in rng.integers(0, n + 1, size=bn.d)), n),
        ]
        for counts in releases:
            engine = PosteriorEngine(law, [counts])
            try:
                oracle = [brute_force_posterior(bn, counts, y) for y in targets]
            except ImpossibleEvidenceError:
                assert engine.impossible == (0,)
                with pytest.raises(ImpossibleEvidenceError):
                    engine.result(targets[0])
                continue
            assert engine.impossible == ()
            batch = engine.log_ratios([targets])[0].tolist()
            for y, log_r, bf in zip(targets, batch, oracle):
                # the per-target result, then the batch path that eval scores with
                for ratio in (math.exp(engine.result(y)), math.exp(log_r)):
                    assert abs(_theta_in(ratio) - _theta_in(bf)) <= 1e-12
                    assert (ratio == 0.0) == (bf == 0.0)
                    if bf > 0.0:
                        assert abs(ratio - bf) <= 1e-12 * bf
