import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnmia import harness, model
from bnmia.harness import ExperimentConfig
from bnmia.attacks import (
    AMBIGUOUS,
    IN,
    OUT,
    ClipRange,
    choose_side,
    decide,
    inner_product_score,
    lrt_clipped_score,
    lrt_score,
    parse_attack,
    score,
    side_clip_range,
)
from bnmia.inference import PosteriorEngine
from bnmia.model import (
    BayesianNetwork,
    NodeSpec,
    ReleasedCounts,
    attribute_marginals,
    output_marginal_law,
)
from bnmia.populations import LEFT, RIGHT, make_half_repeated, make_product


def one(name, mu, counts, y, law=None) -> float:
    """The score of attack `name` for target y against release counts alone."""
    out, _ = score(name, law, mu, [counts], [[y]])
    assert out.shape == (1, 1)
    return float(out[0, 0])


class TestLrtScore:
    def test_zero_when_means_match_marginals(self):
        counts = ReleasedCounts((2, 1), 4)
        assert one("lrt", (0.5, 0.25), counts, (1, 0)) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        counts = ReleasedCounts((3, 1), 4)
        assert one("lrt", (0.5, 0.5), counts, (1, 0)) == pytest.approx(math.log(2.25), rel=1e-12)

    def test_zero_count_with_set_bit(self):
        counts = ReleasedCounts((0, 2), 4)
        assert one("lrt", (0.5, 0.5), counts, (1, 0)) == float("-inf")

    def test_boundary_marginal_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            one("lrt", (1.0, 0.5), ReleasedCounts((1, 1), 2), (1, 0))

    def test_never_nan(self):
        # mean 1 on an unset bit zeroes the numerator; stays -inf, not NaN
        counts = ReleasedCounts((4, 0), 4)
        assert one("lrt", (0.5, 0.5), counts, (0, 1)) == float("-inf")

    def test_one_hot_pair_doubles_raw_contribution(self):
        # a binary node's one-hot pair contributes the raw term twice
        counts_raw = ReleasedCounts((3,), 4)
        raw = one("lrt", (0.3,), counts_raw, (1,))
        counts_hot = ReleasedCounts((3, 1), 4)
        hot = one("lrt", (0.3, 0.7), counts_hot, (1, 0))
        assert hot == pytest.approx(2 * raw, rel=1e-12)


class TestClipped:
    def test_full_range_equals_plain(self):
        counts = ReleasedCounts((3, 1, 2), 4)
        mu = (0.4, 0.5, 0.6)
        y = (1, 0, 1)
        assert one("lrt_clipped:1-3", mu, counts, y) == one("lrt", mu, counts, y)

    def test_ignores_indices_outside_range(self):
        bn = make_half_repeated(5, (0.3, 0.5, 0.7))
        mu = attribute_marginals(output_marginal_law(bn))
        y = (1, 0, 1, 1, 1)
        clip = side_clip_range(5, RIGHT)
        assert clip == ClipRange(1, 3)
        a = one("lrt_clipped:1-3", mu, ReleasedCounts((2, 1, 3, 3, 3), 4), y)
        b = one("lrt_clipped:1-3", mu, ReleasedCounts((2, 1, 3, 0, 4), 4), y)
        assert a == b

    def test_side_ranges(self):
        assert side_clip_range(4, RIGHT) == ClipRange(1, 3)
        assert side_clip_range(4, LEFT) == ClipRange(2, 4)
        assert side_clip_range(10, RIGHT) == ClipRange(1, 6)
        assert side_clip_range(10, LEFT) == ClipRange(5, 10)
        with pytest.raises(ValueError, match="^side must be 'left' or 'right'$"):
            side_clip_range(4, "up")

    def test_bad_range(self):
        with pytest.raises(ValueError):
            ClipRange(3, 2)
        with pytest.raises(ValueError, match="exceeds dimension"):
            one("lrt_clipped:1-2", (0.5,), ReleasedCounts((1,), 2), (1,))


class TestChooseSide:
    def test_right(self):
        assert choose_side(ReleasedCounts((1, 3, 2, 2), 4)) == RIGHT

    def test_left(self):
        assert choose_side(ReleasedCounts((2, 2, 3, 1), 4)) == LEFT

    def test_ambiguous_both_constant(self):
        assert choose_side(ReleasedCounts((2, 2, 2, 2), 4)) == AMBIGUOUS

    def test_ambiguous_neither_constant(self):
        assert choose_side(ReleasedCounts((1, 2, 3, 4, 1, 3), 4)) == AMBIGUOUS

    def test_width_comes_from_the_counts(self):
        # Read as d = 4, the first four counts would say left; all six say nothing.
        assert choose_side(ReleasedCounts((1, 1, 2, 3, 4, 5), 5)) == AMBIGUOUS

    def test_odd_width_is_rejected(self):
        with pytest.raises(ValueError, match="d must be even"):
            choose_side(ReleasedCounts((1, 2, 2), 2))


class TestInnerProduct:
    def test_zero_cases(self):
        counts = ReleasedCounts((2, 1), 4)
        assert one("inner_product", (0.5, 0.25), counts, (1, 1)) == pytest.approx(0.0)
        assert one("inner_product", (0.3, 0.9), counts, (0, 0)) == 0.0

    def test_hand_value(self):
        counts = ReleasedCounts((3, 1), 4)
        assert one("inner_product", (0.5, 0.5), counts, (1, 0)) == pytest.approx(0.25, abs=1e-15)


class TestBayesScore:
    def test_matches_lrt_on_product_population(self):
        law = output_marginal_law(make_product((0.3, 0.6, 0.45)))
        mu = attribute_marginals(law)
        counts = ReleasedCounts((2, 1, 3), 4)
        for y in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
            b = one("bayes", None, counts, y, law)
            assert b == pytest.approx(one("lrt", mu, counts, y), rel=1e-9)

    def test_matches_clipped_on_half_repeated(self):
        law = output_marginal_law(make_half_repeated(5, (0.3, 0.6, 0.45)))
        mu = attribute_marginals(law)
        counts = ReleasedCounts((2, 1, 3, 3, 3), 3)
        assert side_clip_range(5, RIGHT) == ClipRange(1, 3)
        for y_free in [(0, 0, 0), (1, 0, 1), (0, 1, 1)]:
            y = y_free + (y_free[-1], y_free[-1])
            b = one("bayes", None, counts, y, law)
            assert b == pytest.approx(one("lrt_clipped:1-3", mu, counts, y), rel=1e-9)

    def test_infeasible_target(self):
        law = output_marginal_law(make_product((0.5, 0.5)))
        assert one("bayes", None, ReleasedCounts((0, 1), 2), (1, 0), law) == float("-inf")


class TestDecide:
    def test_strict_inequality(self):
        assert decide(0.0, 0.0) == OUT

    def test_infinite_score(self):
        assert decide(float("inf"), 1e9) == IN

    def test_log_ratio_above_zero(self):
        assert decide(math.log(2.25), 0.0) == IN

    def test_order_invariance_linear_vs_log(self):
        # ordering of ratio attacks is the same whether compared as ratios
        # or as log ratios
        values = [0.25, 1.0, 2.25, 9.0]
        logs = [math.log(v) for v in values]
        assert sorted(range(4), key=lambda i: values[i]) == sorted(
            range(4), key=lambda i: logs[i]
        )



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
            (lrt_score(mu, [counts], ys[None])[0], "lrt",
             lambda y: reference_log_ratio(mu, counts, y, range(d))),
            (lrt_clipped_score(mu, [counts], ys[None], clip)[0], f"lrt_clipped:{clip.lo}-{clip.hi}",
             lambda y: reference_log_ratio(mu, counts, y, clip.indices(d))),
            (inner_product_score(mu, [counts], ys[None])[0], "inner_product",
             lambda y: reference_inner_product(mu, counts, y)),
        )
        for batch, name, reference in batches:
            assert batch.shape == (25,) and not np.isnan(batch).any()
            assert score(name, None, mu, [counts], ys[None])[0][0].tolist() == batch.tolist()
            for value, y in zip(batch.tolist(), ys.tolist()):
                assert value == one(name, mu, counts, y)
                assert value == reference(tuple(y))

    def test_zero_factor_is_minus_inf_in_a_batch(self):
        counts = ReleasedCounts((0, 4), 4)
        ys = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
        scores = lrt_score((0.5, 0.5), [counts], ys[None])[0]
        inf = float("inf")
        assert scores.tolist() == [-inf, math.log(2.0) + math.log(2.0), -inf, -inf]

    def test_marginal_outside_the_open_interval_raises(self):
        # A strong-threat population with a state of marginal 0: A = a2 never
        # occurs, so its one-hot coordinate has mu = 0.
        bn = BayesianNetwork(
            (NodeSpec("A", ("a0", "a1", "a2"), (), {(): (0.5, 0.5, 0.0)}),), ("A",), model.ONE_HOT
        )
        mu = attribute_marginals(output_marginal_law(bn))
        assert mu.tolist() == [0.5, 0.5, 0.0]
        counts = ReleasedCounts((2, 2, 0), 4)
        for y in ((1, 0, 0), (0, 1, 0)):
            with pytest.raises(ValueError, match="inside"):
                one("lrt", mu, counts, y)
        with pytest.raises(ValueError, match="inside"):
            lrt_score(mu, [counts], np.array([[[1, 0, 0], [0, 1, 0]]]))
        assert one("inner_product", mu, counts, (1, 0, 0)) == 0.0

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
            harness.run_batch(config, [0], harness._shared_population(config))

    def test_every_marginal_is_checked(self):
        # The target's first coordinate zeroes its numerator; a one-target
        # loop would stop there, but every marginal in range is checked.
        counts = ReleasedCounts((0, 1), 2)
        assert reference_log_ratio((0.5, 1.0), counts, (1, 0), range(2)) == float("-inf")
        with pytest.raises(ValueError, match="inside"):
            one("lrt", (0.5, 1.0), counts, (1, 0))


class TestScore:
    def test_nan_rejected(self):
        # A NaN marginal passes through the inner product into its score.
        with pytest.raises(ValueError, match="NaN"):
            score("inner_product", None, (math.nan, 0.5), [ReleasedCounts((1, 1), 2)], [[[1, 0]]])

    @pytest.mark.parametrize(
        "name", ["lrt", "inner_product", "bayes", "lrt_clipped:1-2", "lrt_clipped_auto"]
    )
    @pytest.mark.parametrize(
        "targets", [[[1, 0, 1]], [[1, 0, 1, 0, 1]], [1, 0, 1, 0]], ids=["3", "5", "1-D"]
    )
    def test_wrong_width_rejected(self, name, targets):
        law = output_marginal_law(make_product((0.3, 0.5, 0.7, 0.4)))
        counts = ReleasedCounts((1, 2, 1, 3), 3)
        with pytest.raises(ValueError, match="target has the wrong dimension"):
            score(name, law, attribute_marginals(law), [counts], [targets])

    def test_each_marginal_scorer_checks_the_width(self):
        mu, counts = (0.3, 0.5, 0.7), ReleasedCounts((1, 2, 1), 3)
        for targets in ([[1, 0]], [[1, 0, 1, 1]]):
            for scored in (
                lambda: lrt_score(mu, [counts], [targets]),
                lambda: inner_product_score(mu, [counts], [targets]),
                lambda: lrt_clipped_score(mu, [counts], [targets], ClipRange(1, 2)),
            ):
                with pytest.raises(ValueError, match="target has the wrong dimension"):
                    scored()

    @pytest.mark.parametrize("name", ["lrt", "inner_product", "bayes", "lrt_clipped:1-2"])
    @pytest.mark.parametrize("entry", [0.5, 2, -1, math.nan])
    def test_target_entries_other_than_bits_are_refused(self, name, entry):
        # The int64 cast would read 0.5 as 0; lrt would read 2 and -1 as a 1.
        law = output_marginal_law(make_product((0.3, 0.5, 0.7)))
        counts = ReleasedCounts((1, 2, 1), 3)
        with pytest.raises(ValueError, match="target entries must be 0 or 1"):
            score(name, law, attribute_marginals(law), [counts], [[[1, entry, 0]]])

    def test_side_clips_follow_choose_side(self):
        mu = (0.3, 0.4, 0.5, 0.6)
        ys = np.array([[1, 0, 1, 1], [0, 1, 0, 0], [1, 1, 0, 1]])
        right, left, neither = (
            ReleasedCounts(c, 4) for c in ((1, 3, 2, 2), (2, 2, 3, 1), (2, 2, 2, 2))
        )
        for counts, side in ((right, RIGHT), (left, LEFT), (neither, RIGHT)):
            other = LEFT if side == RIGHT else RIGHT
            for name, clip_side in (("lrt_clipped_auto", side), ("lrt_clipped_flip", other)):
                expected = lrt_clipped_score(mu, [counts], ys[None], side_clip_range(4, clip_side))
                assert score(name, None, mu, [counts], ys[None])[0].tolist() == expected.tolist()

    def test_bayes_is_the_engine_on_the_batch(self):
        law = output_marginal_law(make_half_repeated(3, (0.3, 0.6)))
        counts = ReleasedCounts((2, 1, 1), 3)
        ys = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 1], [0, 1, 1]])
        engine = PosteriorEngine(law, [counts])
        expected = [engine.result(y) for y in ys.tolist()]
        assert score("bayes", law, None, [counts], ys[None])[0][0].tolist() == expected

    @pytest.mark.parametrize(
        "name", ["lrt", "inner_product", "bayes", "lrt_clipped:2-3", "lrt_clipped_auto"]
    )
    def test_one_attacker_per_release(self, name):
        # Each release against its own law and marginal row, in one call.
        rng = np.random.default_rng(21)
        laws = [output_marginal_law(make_product(tuple(rng.uniform(0.2, 0.8, size=4))))
                for _ in range(5)]
        mus = np.array([attribute_marginals(law) for law in laws])
        releases = [ReleasedCounts(tuple(rng.integers(0, 4, size=4).tolist()), 3) for _ in laws]
        ys = rng.integers(0, 2, size=(5, 6, 4))
        got, _ = score(name, laws, mus, releases, ys)
        for r, law in enumerate(laws):
            alone = score(name, law, mus[r], [releases[r]], ys[r : r + 1])[0][0]
            assert got[r].tobytes() == alone.tobytes()

    def test_impossible_evidence_raises(self):
        # A batch raises nothing: it returns its impossible releases as data.
        law = output_marginal_law(make_half_repeated(3, (0.3, 0.6)))  # the copy always equals X2
        scores, impossible = score(
            "bayes", law, None, [ReleasedCounts((1, 1, 0), 2)], [[[1, 1, 1]]]
        )
        assert impossible == (0,)
        assert scores.tolist() == [[-math.inf]]

    def test_impossible_releases_come_back_as_data(self):
        # X3 copies X2 in half:3, so the second and fourth releases are
        # impossible evidence under bayes; no marginal test finds any.
        law = output_marginal_law(make_half_repeated(3, (0.3, 0.6)))
        releases = [ReleasedCounts(c, 3) for c in ((1, 1, 1), (1, 1, 2), (2, 0, 0), (0, 2, 1))]
        ys = np.broadcast_to([[0, 0, 0], [1, 0, 0], [1, 1, 1], [0, 1, 1]], (4, 4, 3))
        engine = PosteriorEngine(law, releases)
        assert engine.impossible == (1, 3)
        scores, impossible = score("bayes", law, None, releases, ys)
        assert impossible == engine.impossible
        assert scores.tobytes() == engine.log_ratios(ys).tobytes()
        assert (scores[[1, 3]] == -math.inf).all() and np.isfinite(scores[[0, 2]]).any()
        mu = attribute_marginals(law)
        for name in ("lrt", "inner_product", "lrt_clipped:1-2"):
            assert score(name, law, mu, releases, ys)[1] == ()
        even = [ReleasedCounts(c, 4) for c in ((1, 3, 2, 2), (2, 2, 3, 1))]  # the side clips' d
        for name in ("lrt_clipped_auto", "lrt_clipped_flip"):
            assert score(name, None, (0.3, 0.4, 0.5, 0.6), even, np.ones((2, 1, 4)))[1] == ()

    @pytest.mark.parametrize("name", [
        "lrt", "inner_product", "bayes", "lrt_clipped:1-1", "lrt_clipped_auto", "lrt_clipped_flip"
    ])
    def test_empty_batch_rejected(self, name):
        law = output_marginal_law(make_product((0.3, 0.5)))
        with pytest.raises(ValueError, match="a batch needs at least one release"):
            score(name, law, attribute_marginals(law), [], np.empty((0, 0, 2), dtype=int))


class TestParseAttack:
    @pytest.mark.parametrize(
        "name", ["lrt", "inner_product", "bayes", "lrt_clipped_auto", "lrt_clipped_flip"]
    )
    def test_named_attacks(self, name):
        assert parse_attack(name) is None

    def test_fixed_clip(self):
        assert parse_attack("lrt_clipped:2-5") == ClipRange(2, 5)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("nope", "unknown attack 'nope'"),
            ("lrt_clipped", "unknown attack 'lrt_clipped'"),
            ("lrt_clipped:x-3", "unknown attack 'lrt_clipped:x-3'"),
            ("lrt_clipped:1-2-3", "unknown attack 'lrt_clipped:1-2-3'"),
            ("lrt_clipped:-1-3", "unknown attack 'lrt_clipped:-1-3'"),
            ("LRT", "unknown attack 'LRT'"),
            ("lrt_clipped:3-2", r"attack 'lrt_clipped:3-2': bad clip range \[3, 2\]"),
            ("lrt_clipped:0-2", r"attack 'lrt_clipped:0-2': bad clip range \[0, 2\]"),
        ],
    )
    def test_bad_names_are_named(self, name, message):
        with pytest.raises(ValueError, match=message):
            parse_attack(name)
        with pytest.raises(ValueError, match=message):
            score(name, None, (0.5, 0.5), [ReleasedCounts((1, 1), 2)], [[[1, 0]]])
