import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnmia import model
from bnmia.harness import ExperimentConfig, run_trial
from bnmia.attacks import (
    AMBIGUOUS,
    IN,
    OUT,
    AttackScore,
    ClipRange,
    bayes_score,
    choose_side,
    decide,
    half_clip_range,
    inner_product_score,
    lrt_clipped_score,
    lrt_score,
    side_clip_range,
)
from bnmia.model import (
    BayesianNetwork,
    NodeSpec,
    ReleasedCounts,
    attribute_marginals,
)
from bnmia.populations import LEFT, RIGHT, make_half_repeated, make_product


class TestLrtScore:
    def test_zero_when_means_match_marginals(self):
        counts = ReleasedCounts((2, 1), 4)
        s = lrt_score((0.5, 0.25), counts, (1, 0))
        assert s.value == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        counts = ReleasedCounts((3, 1), 4)
        s = lrt_score((0.5, 0.5), counts, (1, 0))
        assert s.value == pytest.approx(math.log(2.25), rel=1e-12)

    def test_zero_count_with_set_bit(self):
        counts = ReleasedCounts((0, 2), 4)
        s = lrt_score((0.5, 0.5), counts, (1, 0))
        assert s.value == float("-inf")

    def test_boundary_marginal_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            lrt_score((1.0, 0.5), ReleasedCounts((1, 1), 2), (1, 0))

    def test_never_nan(self):
        # mean 1 on an unset bit zeroes the numerator; stays -inf, not NaN
        counts = ReleasedCounts((4, 0), 4)
        s = lrt_score((0.5, 0.5), counts, (0, 1))
        assert s.value == float("-inf")

    def test_one_hot_pair_doubles_raw_contribution(self):
        # a binary node's one-hot pair contributes the raw term twice
        counts_raw = ReleasedCounts((3,), 4)
        raw = lrt_score((0.3,), counts_raw, (1,))
        counts_hot = ReleasedCounts((3, 1), 4)
        hot = lrt_score((0.3, 0.7), counts_hot, (1, 0))
        assert hot.value == pytest.approx(2 * raw.value, rel=1e-12)


class TestClipped:
    def test_full_range_equals_plain(self):
        counts = ReleasedCounts((3, 1, 2), 4)
        mu = (0.4, 0.5, 0.6)
        y = (1, 0, 1)
        full = lrt_clipped_score(mu, counts, y, ClipRange(1, 3))
        assert full.value == lrt_score(mu, counts, y).value

    def test_ignores_indices_outside_range(self):
        bn = make_half_repeated(5, (0.3, 0.5, 0.7))
        mu = attribute_marginals(bn)
        y = (1, 0, 1, 1, 1)
        clip = half_clip_range(5)
        assert clip == ClipRange(1, 3)
        a = lrt_clipped_score(mu, ReleasedCounts((2, 1, 3, 3, 3), 4), y, clip)
        b = lrt_clipped_score(mu, ReleasedCounts((2, 1, 3, 0, 4), 4), y, clip)
        assert a.value == b.value

    def test_side_ranges(self):
        assert side_clip_range(4, RIGHT) == ClipRange(1, 3)
        assert side_clip_range(4, LEFT) == ClipRange(2, 4)
        assert side_clip_range(10, RIGHT) == ClipRange(1, 6)
        assert side_clip_range(10, LEFT) == ClipRange(5, 10)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            ClipRange(3, 2)
        with pytest.raises(ValueError, match="exceeds dimension"):
            lrt_clipped_score((0.5,), ReleasedCounts((1,), 2), (1,), ClipRange(1, 2))


class TestChooseSide:
    def test_right(self):
        assert choose_side(ReleasedCounts((1, 3, 2, 2), 4), 4) == RIGHT

    def test_left(self):
        assert choose_side(ReleasedCounts((2, 2, 3, 1), 4), 4) == LEFT

    def test_ambiguous_both_constant(self):
        assert choose_side(ReleasedCounts((2, 2, 2, 2), 4), 4) == AMBIGUOUS

    def test_ambiguous_neither_constant(self):
        assert choose_side(ReleasedCounts((1, 2, 3, 4, 1, 3), 4), 6) == AMBIGUOUS


class TestInnerProduct:
    def test_zero_cases(self):
        counts = ReleasedCounts((2, 1), 4)
        assert inner_product_score((0.5, 0.25), counts, (1, 1)).value == pytest.approx(0.0)
        assert inner_product_score((0.3, 0.9), counts, (0, 0)).value == 0.0

    def test_hand_value(self):
        counts = ReleasedCounts((3, 1), 4)
        s = inner_product_score((0.5, 0.5), counts, (1, 0))
        assert s.value == pytest.approx(0.25, abs=1e-15)


class TestBayesScore:
    def test_matches_lrt_on_product_population(self):
        bn = make_product((0.3, 0.6, 0.45))
        mu = attribute_marginals(bn)
        counts = ReleasedCounts((2, 1, 3), 4)
        for y in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
            b = bayes_score(bn, counts, y)
            l = lrt_score(mu, counts, y)
            assert b.value == pytest.approx(l.value, rel=1e-9)

    def test_matches_clipped_on_half_repeated(self):
        bn = make_half_repeated(5, (0.3, 0.6, 0.45))
        mu = attribute_marginals(bn)
        counts = ReleasedCounts((2, 1, 3, 3, 3), 3)
        clip = half_clip_range(5)
        for y_free in [(0, 0, 0), (1, 0, 1), (0, 1, 1)]:
            y = y_free + (y_free[-1], y_free[-1])
            b = bayes_score(bn, counts, y)
            l = lrt_clipped_score(mu, counts, y, clip)
            assert b.value == pytest.approx(l.value, rel=1e-9)

    def test_infeasible_target(self):
        bn = make_product((0.5, 0.5))
        s = bayes_score(bn, ReleasedCounts((0, 1), 2), (1, 0))
        assert s.value == float("-inf")


class TestDecide:
    def test_strict_inequality(self):
        assert decide(AttackScore("lrt", 0.0), 0.0) == OUT

    def test_infinite_score(self):
        assert decide(AttackScore("bayes", float("inf")), 1e9) == IN

    def test_log_ratio_above_zero(self):
        assert decide(AttackScore("lrt", math.log(2.25)), 0.0) == IN

    def test_order_invariance_linear_vs_log(self):
        # ordering of ratio attacks is the same whether compared as ratios
        # or as log ratios
        values = [0.25, 1.0, 2.25, 9.0]
        logs = [math.log(v) for v in values]
        assert sorted(range(4), key=lambda i: values[i]) == sorted(
            range(4), key=lambda i: logs[i]
        )

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            AttackScore("lrt", float("nan"))


# The one-target loops the batched scorers replaced.

def reference_log_ratio(mu, counts, y, indices):
    total = 0.0
    for j in indices:
        mu_j = float(mu[j])
        if not 0.0 < mu_j < 1.0:
            raise ValueError("population marginals must lie strictly inside (0, 1)")
        xbar = counts.counts[j] / counts.n
        num = xbar if y[j] else 1.0 - xbar
        den = mu_j if y[j] else 1.0 - mu_j
        if num == 0.0:
            return float("-inf")
        total += math.log(num) - math.log(den)
    return total


def reference_inner_product(mu, counts, y):
    return sum((counts.counts[j] / counts.n - float(mu[j])) * y[j] for j in range(len(y)))


class TestBatchedScores:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_batch_equals_one_target_loops(self, d, n, seed):
        rng = np.random.default_rng(seed)
        mu = rng.uniform(0.01, 0.99, size=d)
        counts = ReleasedCounts(tuple(int(c) for c in rng.integers(0, n + 1, size=d)), n)
        ys = rng.integers(0, 2, size=(25, d))
        lo = int(rng.integers(1, d + 1))
        clip = ClipRange(lo, int(rng.integers(lo, d + 1)))
        batches = (
            (lrt_score(mu, counts, ys), lrt_score,
             lambda y: reference_log_ratio(mu, counts, y, range(d))),
            (lrt_clipped_score(mu, counts, ys, clip), lambda *a: lrt_clipped_score(*a, clip),
             lambda y: reference_log_ratio(mu, counts, y, clip.indices(d))),
            (inner_product_score(mu, counts, ys), inner_product_score,
             lambda y: reference_inner_product(mu, counts, y)),
        )
        for batch, one, reference in batches:
            assert batch.shape == (25,) and not np.isnan(batch).any()
            for value, y in zip(batch.tolist(), ys):
                assert value == one(mu, counts, tuple(y.tolist())).value
                assert value == reference(tuple(y.tolist()))

    def test_zero_factor_is_minus_inf_in_a_batch(self):
        counts = ReleasedCounts((0, 4), 4)
        ys = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
        scores = lrt_score((0.5, 0.5), counts, ys)
        inf = float("inf")
        assert scores.tolist() == [-inf, math.log(2.0) + math.log(2.0), -inf, -inf]

    def test_marginal_outside_the_open_interval_raises(self):
        # A strong-threat population with a state of marginal 0: A = a2 never
        # occurs, so its one-hot coordinate has mu = 0.
        bn = BayesianNetwork(
            (NodeSpec("A", ("a0", "a1", "a2"), (), {(): (0.5, 0.5, 0.0)}),), ("A",), model.ONE_HOT
        )
        mu = attribute_marginals(bn)
        assert mu.tolist() == [0.5, 0.5, 0.0]
        counts = ReleasedCounts((2, 2, 0), 4)
        for y in ((1, 0, 0), (0, 1, 0)):
            with pytest.raises(ValueError, match="inside"):
                lrt_score(mu, counts, y)
        with pytest.raises(ValueError, match="inside"):
            lrt_score(mu, counts, np.array([[1, 0, 0], [0, 1, 0]]))
        assert inner_product_score(mu, counts, (1, 0, 0)).value == 0.0

    def test_strong_eval_on_a_zero_marginal_raises(self, tmp_path):
        net = tmp_path / "zero.bif"
        net.write_text(
            "network unknown {\n}\n"
            "variable A {\n  type discrete [ 3 ] { a0, a1, a2 };\n}\n"
            "probability ( A ) {\n  table 0.5, 0.5, 0.0;\n}\n",
            encoding="utf-8",
        )
        config = ExperimentConfig(str(net), 4, targets_in=3, targets_out=3, attacks=("lrt",))
        with pytest.raises(ValueError, match="inside"):
            run_trial(config, 0)

    def test_every_marginal_is_checked(self):
        # The target's first coordinate zeroes its numerator; a one-target
        # loop would stop there, but every marginal in range is checked.
        counts = ReleasedCounts((0, 1), 2)
        assert reference_log_ratio((0.5, 1.0), counts, (1, 0), range(2)) == float("-inf")
        with pytest.raises(ValueError, match="inside"):
            lrt_score((0.5, 1.0), counts, (1, 0))
