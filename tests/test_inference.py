import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from strategies import small_networks

from bnmia import model
from bnmia.harness import law_ratio_deviation
from bnmia.inference import (
    ImpossibleEvidenceError,
    PosteriorEngine,
    brute_force_posterior,
    closed_form_product_ratio,
    posterior_ratio,
    sum_count_prob,
    sum_log_table,
)
from bnmia.model import (
    Dataset,
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
    make_cancer,
    make_half_repeated,
    make_product,
)


class TestSumCountProb:
    def test_fair_coin_binomial(self):
        law = output_marginal_law(make_product((0.5,)))
        assert sum_count_prob(law, 2, (1,)) == pytest.approx(0.5, abs=1e-15)

    def test_empty_sum(self):
        law = output_marginal_law(make_product((0.5,)))
        assert sum_count_prob(law, 0, (0,)) == 1.0
        assert sum_count_prob(law, 0, (1,)) == 0.0

    def test_two_draws_corner(self):
        law = output_marginal_law(make_product((0.5, 0.5)))
        # only composition of (2, 0) is (1,0)+(1,0)
        assert sum_count_prob(law, 2, (2, 0)) == pytest.approx(0.0625, abs=1e-15)

    def test_negative_target_is_zero(self):
        law = output_marginal_law(make_product((0.5,)))
        assert sum_count_prob(law, 2, (-1,)) == 0.0

    def test_matches_binomial_pmf(self):
        p = 0.37
        law = output_marginal_law(make_product((p,)))
        for n in range(1, 7):
            for k in range(n + 1):
                expected = math.comb(n, k) * p**k * (1 - p) ** (n - k)
                assert sum_count_prob(law, n, (k,)) == pytest.approx(expected, rel=1e-12)

    def test_normalization_small_instances(self):
        for p in [(0.3, 0.6), (0.2, 0.5, 0.8)]:
            law = output_marginal_law(make_product(p))
            for n in (1, 2, 3):
                total = sum(
                    sum_count_prob(law, n, c)
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
        assert posterior_ratio(bn, counts, (1,) * 23).ratio == pytest.approx(
            (6 / 8) / p, rel=1e-12
        )
        assert posterior_ratio(bn, counts, (1,) + (0,) * 22).ratio == 0.0


class TestPosteriorRatio:
    def test_single_coin_closed_form_value(self):
        bn = make_product((0.5,))
        res = posterior_ratio(bn, ReleasedCounts((2,), 2), (1,))
        assert res.ratio == pytest.approx(2.0, rel=1e-12)
        assert res.theta_in == pytest.approx(2 / 3, rel=1e-12)

    def test_infeasible_target_gives_zero(self):
        bn = make_product((0.5,))
        res = posterior_ratio(bn, ReleasedCounts((0,), 2), (1,))
        assert res.ratio == 0.0
        assert res.theta_in == 0.0
        assert res.log_ratio == float("-inf")

    def test_copy_violation_is_impossible_evidence(self):
        bn = make_half_repeated(3, (0.5, 0.5))
        with pytest.raises(ImpossibleEvidenceError, match="impossible evidence"):
            posterior_ratio(bn, ReleasedCounts((1, 1, 2), 3), (1, 1, 1))

    def test_counts_past_a_sure_state_are_impossible_evidence(self):
        # The live table empties before the last convolution step.
        sure = model.NodeSpec("A", ("0", "1"), (), {(): (0.0, 1.0)})
        law = output_marginal_law(model.BayesianNetwork((sure,), ("A",), model.ONE_HOT))
        with pytest.raises(ImpossibleEvidenceError):
            PosteriorEngine(law, ReleasedCounts((3, 1), 3))

    def test_single_record_dataset(self):
        bn = make_product((0.3, 0.6))
        law = output_marginal_law(bn)
        c = (1, 1)
        res = posterior_ratio(bn, ReleasedCounts(c, 1), (1, 1))
        assert res.ratio == pytest.approx(1.0 / law.prob(c), rel=1e-12)
        # a target that is not the released record cannot be the record
        res2 = posterior_ratio(bn, ReleasedCounts(c, 1), (0, 1))
        assert res2.ratio == 0.0

    def test_engine_reuse_matches_fresh(self):
        bn = make_product((0.3, 0.6, 0.45))
        counts = ReleasedCounts((2, 1, 3), 4)
        law = output_marginal_law(bn)
        engine = PosteriorEngine(law, counts)
        for y in itertools.product((0, 1), repeat=3):
            assert engine.result(y).ratio == posterior_ratio(bn, counts, y).ratio


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
            mu = attribute_marginals(bn)
            for c in itertools.product(range(n + 1), repeat=d):
                counts = ReleasedCounts(c, n)
                for y in itertools.product((0, 1), repeat=d):
                    lam = closed_form_product_ratio(mu, counts, y)
                    r = posterior_ratio(bn, counts, y).ratio
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
            mu = attribute_marginals(bn)
            for n in (1, 2, 3):
                for free in itertools.product(range(n + 1), repeat=m):
                    c = free + (free[m - 1],) * (d - m)
                    counts = ReleasedCounts(c, n)
                    for y_free in itertools.product((0, 1), repeat=m):
                        y = y_free + (y_free[m - 1],) * (d - m)
                        lam = closed_form_product_ratio(
                            mu[:m], ReleasedCounts(c[:m], n), y[:m]
                        )
                        r = posterior_ratio(bn, counts, y).ratio
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
                for y in itertools.product((0, 1), repeat=d):
                    bf = brute_force_posterior(bn, counts, y)
                    dp = posterior_ratio(bn, counts, y)
                    assert dp.theta_in == pytest.approx(bf.theta_in, abs=1e-12)
                    if bf.ratio == 0.0:
                        assert dp.ratio == 0.0
                    else:
                        assert dp.ratio == pytest.approx(bf.ratio, rel=1e-12)

    def test_cancer_projected(self):
        bn = make_cancer().with_outputs(("Xray", "Dyspnoea"), model.RAW_BINARY)
        n = 2
        for c in itertools.product(range(n + 1), repeat=2):
            counts = ReleasedCounts(c, n)
            for y in itertools.product((0, 1), repeat=2):
                bf = brute_force_posterior(bn, counts, y)
                dp = posterior_ratio(bn, counts, y)
                assert dp.theta_in == pytest.approx(bf.theta_in, abs=1e-12)
                if bf.ratio > 0.0:
                    assert dp.ratio == pytest.approx(bf.ratio, rel=1e-12)

    def test_guard(self):
        bn = make_product((0.5,) * 10)
        with pytest.raises(model.ModelSizeError):
            brute_force_posterior(bn, ReleasedCounts((1,) * 10, 3), (0,) * 10)


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
        support = [vec for vec, _ in law.outcomes]
        off = next(
            (y for y in itertools.product((0, 1), repeat=bn.d) if law.prob(y) == 0.0), None
        )
        targets = support + ([off] if off is not None else [])
        releases = [
            dataset_counts(Dataset(project(bn, sample(bn, n, rng))), bn),
            ReleasedCounts(tuple(int(c) for c in rng.integers(0, n + 1, size=bn.d)), n),
        ]
        for counts in releases:
            try:
                oracle = [brute_force_posterior(bn, counts, y) for y in targets]
            except ImpossibleEvidenceError:
                with pytest.raises(ImpossibleEvidenceError):
                    PosteriorEngine(law, counts)
                continue
            engine = PosteriorEngine(law, counts)
            for y, bf in zip(targets, oracle):
                dp = engine.result(y)
                assert abs(dp.theta_in - bf.theta_in) <= 1e-12
                assert (dp.ratio == 0.0) == (bf.ratio == 0.0)
                if bf.ratio > 0.0:
                    assert abs(dp.ratio - bf.ratio) <= 1e-12 * bf.ratio
