import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import reference_encode, reference_sample, states_of
from strategies import small_networks

from bnmia import model
from bnmia.model import (
    BayesianNetwork,
    Dataset,
    NodeSpec,
    ReleasedCounts,
    attribute_marginals,
    dataset_counts,
    decode,
    encode,
    joint_prob,
    output_marginal_law,
    project,
    sample,
    validate,
)
from bnmia.populations import (
    BUNDLED_BENCHMARKS,
    SACHS_OUTPUT_SETS,
    load_benchmark,
    make_cancer,
    make_half_repeated,
    make_product,
    resolve_network,
)


def bern(name, p, parents=(), rows=None):
    if rows is None:
        rows = {(): (1.0 - p, p)}
    return NodeSpec(name, ("0", "1"), parents, rows)


class TestValidate:
    def test_cancer_is_clean(self):
        assert validate(make_cancer()) == []

    def test_bad_row_sum(self):
        bad = BayesianNetwork(
            (NodeSpec("A", ("0", "1"), (), {(): (0.5, 0.6)}),), ("A",), model.RAW_BINARY
        )
        problems = validate(bad)
        assert len(problems) == 1
        assert "sum != 1" in problems[0]

    def test_two_node_cycle(self):
        a = NodeSpec("A", ("0", "1"), ("B",), {(0,): (1.0, 0.0), (1,): (0.0, 1.0)})
        b = NodeSpec("B", ("0", "1"), ("A",), {(0,): (1.0, 0.0), (1,): (0.0, 1.0)})
        problems = validate(BayesianNetwork((a, b), (), model.RAW_BINARY))
        assert any("cycle" in p for p in problems)

    def test_missing_cpt_row(self):
        child = NodeSpec("B", ("0", "1"), ("A",), {(0,): (1.0, 0.0)})
        bn = BayesianNetwork((bern("A", 0.5), child), (), model.RAW_BINARY)
        assert any("missing CPT row" in p for p in problems_of(bn))

    def test_unknown_parent(self):
        child = NodeSpec("B", ("0", "1"), ("Z",), {(0,): (1.0, 0.0), (1,): (0.0, 1.0)})
        bn = BayesianNetwork((child,), (), model.RAW_BINARY)
        assert any("unknown parent" in p for p in problems_of(bn))

    def test_raw_binary_requires_binary_outputs(self):
        tri = NodeSpec("A", ("a", "b", "c"), (), {(): (0.2, 0.3, 0.5)})
        bn = BayesianNetwork((tri,), ("A",), model.RAW_BINARY)
        assert any("raw-binary" in p for p in problems_of(bn))


def problems_of(bn):
    return validate(bn)


class TestJointProb:
    def test_cancer_example_record(self):
        bn = make_cancer()
        rec = {"Pollution": 0, "Smoker": 0, "Cancer": 0, "Xray": 0, "Dyspnoea": 0}
        # 0.9 * 0.3 * 0.03 * 0.9 * 0.65
        assert joint_prob(bn, rec) == pytest.approx(0.0047385, abs=1e-15)

    def test_zero_factor_gives_zero(self):
        bn = make_half_repeated(3, (0.5, 0.5))
        rec = {"X1": 0, "X2": 1, "X3": 0}  # X3 must copy X2
        assert joint_prob(bn, rec) == 0.0

    def test_product_independence(self):
        bn = make_product((0.5, 0.5))
        assert joint_prob(bn, {"X1": 1, "X2": 1}) == pytest.approx(0.25)

    def test_unassigned_node_rejected(self):
        bn = make_product((0.5, 0.5))
        with pytest.raises(ValueError, match="does not assign"):
            joint_prob(bn, {"X1": 1})

    def test_chain_rule_normalizes(self):
        bn = make_cancer()
        total = math.fsum(p for _, p in model.enumerate_full_records(bn))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestOutputLaw:
    def test_uniform_product(self):
        bn = make_product((0.5, 0.5))
        law = output_marginal_law(bn)
        assert len(law) == 4
        assert all(p == pytest.approx(0.25) for _, p in law.outcomes)

    def test_cancer_projected_to_symptoms(self):
        bn = make_cancer().with_outputs(("Xray", "Dyspnoea"), model.RAW_BINARY)
        law = output_marginal_law(bn)
        assert len(law) == 4
        # independent oracle: direct sum over all 32 full assignments
        expected = 0.0
        for rec, p in model.enumerate_full_records(bn):
            if rec["Xray"] == 0 and rec["Dyspnoea"] == 0:
                expected += p
        assert law.prob((0, 0)) == pytest.approx(expected, abs=1e-12)

    def test_half_repeated_copy_constraint(self):
        bn = make_half_repeated(3, (0.5, 0.5))
        law = output_marginal_law(bn)
        assert law.prob((0, 1, 0)) == 0.0
        assert all(v[1] == v[2] for v, _ in law.outcomes)

    def test_guard(self):
        bn = make_product((0.5,) * 8)
        with pytest.raises(model.ModelSizeError, match="too large"):
            output_marginal_law(bn, guard=100)

    def test_guard_bounds_factors_not_the_joint(self):
        # A fresh instance, so the law is built under this guard.
        bn = load_benchmark("sachs:path-left")
        bn = bn.with_outputs(bn.output_nodes, bn.encoding)
        assert bn.joint_state_count == 177_147
        assert len(output_marginal_law(bn, guard=10_000)) == 243

    def test_guard_covers_intermediate_factors(self):
        # The 5 three-state outputs give a 243-entry table, but summing out
        # a hidden ancestor needs a 729-entry factor first.
        bn = load_benchmark("sachs:path-left")
        with pytest.raises(model.ModelSizeError, match="729 entries > guard 728"):
            output_marginal_law(bn.with_outputs(bn.output_nodes, bn.encoding), guard=728)
        assert len(output_marginal_law(bn.with_outputs(bn.output_nodes, bn.encoding), guard=729)) == 243

    def test_guard_holds_on_the_cached_law(self):
        # The shared instance: a default build caches the law, and a later
        # smaller guard must still see its largest (729-entry) factor.
        bn = load_benchmark("sachs:path-left")
        assert len(output_marginal_law(bn)) == 243
        for guard in (10, 728):
            with pytest.raises(model.ModelSizeError, match=f"729 entries > guard {guard}"):
                output_marginal_law(bn, guard=guard)
        assert output_marginal_law(bn, guard=729) is output_marginal_law(bn)

    def test_encodes_once_per_outcome(self, monkeypatch):
        calls = []

        def counting_encode(bn, states):
            calls.append(len(states))
            return encode(bn, states)

        monkeypatch.setattr(model, "encode", counting_encode)
        bn = load_benchmark("sachs:leaf-root")
        law = output_marginal_law(bn.with_outputs(bn.output_nodes, bn.encoding))
        assert calls == [len(law)] == [729]


def reference_law(bn):
    """The law summed over every full record, in walk order."""
    acc = {}
    for rec, p in model.enumerate_full_records(bn):
        vec = reference_encode(bn, rec)
        acc[vec] = acc.get(vec, 0.0) + p
    return acc


def assert_same_law(bn):
    law = output_marginal_law(bn)
    expected = reference_law(bn)
    vectors = [v for v, _ in law.outcomes]
    assert vectors == sorted(expected)
    for vec, p in law.outcomes:
        assert p > 0.0
        assert abs(p - expected[vec]) <= 1e-12 * expected[vec]


class TestLawMatchesFullEnumeration:
    @pytest.mark.parametrize(
        "name",
        ("cancer", "earthquake", "asia", "survey", "sachs")
        + tuple(f"sachs:{s}" for s in SACHS_OUTPUT_SETS),
    )
    def test_bundled(self, name):
        bn = load_benchmark(name)
        assert_same_law(bn.with_outputs(bn.output_nodes, bn.encoding))

    @pytest.mark.parametrize("name", ("product:6", "half:7", "lr:8"))
    def test_toy(self, name):
        # lr:8 hides its side coin, so a variable is eliminated there.
        assert_same_law(resolve_network(name, np.random.default_rng(3)))

    @settings(max_examples=200, deadline=None)
    @given(small_networks())
    def test_random_networks(self, bn):
        assert validate(bn) == []
        assert_same_law(bn)


class TestAttributeMarginals:
    def test_product_marginals_equal_p(self):
        p = (0.3, 0.7, 0.45)
        mu = attribute_marginals(make_product(p))
        np.testing.assert_allclose(mu, p, atol=1e-12)

    def test_half_repeated_copies_share_marginal(self):
        bn = make_half_repeated(5, (0.3, 0.6, 0.8))
        mu = attribute_marginals(bn)
        assert mu[3] == pytest.approx(mu[2], abs=1e-12)
        assert mu[4] == pytest.approx(mu[2], abs=1e-12)

    def test_cancer_smoker_group(self):
        bn = make_cancer()
        mu = attribute_marginals(bn)
        # one-hot layout: Pollution(2), Smoker(2), ...
        assert mu[2] == pytest.approx(0.3, abs=1e-12)
        assert mu[3] == pytest.approx(0.7, abs=1e-12)

    def test_marginals_match_law_expectation(self):
        bn = make_cancer()
        law = output_marginal_law(bn)
        expected = sum(p * np.array(v) for v, p in law.outcomes)
        np.testing.assert_allclose(attribute_marginals(bn), expected, atol=1e-12)


class TestSampling:
    def test_deterministic_given_seed(self):
        bn = make_cancer()
        r1 = sample(bn, 5, np.random.default_rng(7))
        r2 = sample(bn, 5, np.random.default_rng(7))
        assert r1.shape == (5, 5)
        assert (r1 == r2).all()

    def test_bernoulli_frequency(self):
        bn = make_product((0.3,))
        hits = sample(bn, 100_000, np.random.default_rng(42))[:, 0].sum()
        assert abs(hits / 100_000 - 0.3) < 0.01

    def test_copy_constraints_hold_in_samples(self):
        bn = make_half_repeated(5, (0.5, 0.5, 0.5))
        states = sample(bn, 200, np.random.default_rng(3))
        assert (states[:, 3] == states[:, 2]).all() and (states[:, 4] == states[:, 2]).all()


def assert_sampler_matches_reference(bn, m=300, seed=7):
    """Rows of one batched draw, and their encodings, equal m successive
    one-record draws from the same stream, bit for bit."""
    got = sample(bn, m, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    expected = [reference_sample(bn, rng) for _ in range(m)]
    assert got.tolist() == states_of(bn.node_names, expected).tolist()
    bits = encode(bn, project(bn, got))
    assert bits.tolist() == [list(reference_encode(bn, rec)) for rec in expected]
    return expected


class TestSamplerMatchesReference:
    @pytest.mark.parametrize("name", BUNDLED_BENCHMARKS)
    def test_bundled(self, name):
        assert_sampler_matches_reference(load_benchmark(name))

    @pytest.mark.parametrize("name", ("product:6", "half:7", "lr:8"))
    def test_toy(self, name):
        assert_sampler_matches_reference(resolve_network(name, np.random.default_rng(3)))

    @settings(max_examples=200, deadline=None)
    @given(small_networks(), st.integers(0, 2**32 - 1))
    def test_random_networks(self, bn, seed):
        for rec in assert_sampler_matches_reference(bn, m=50, seed=seed):
            assert joint_prob(bn, rec) > 0.0  # no probability-0 state is drawn

    def test_empty_batch(self):
        bn = make_cancer()
        assert sample(bn, 0, np.random.default_rng(0)).shape == (0, 5)
        assert encode(bn, np.zeros((0, 5), dtype=np.int64)).shape == (0, 10)


class _LargestUniform:
    """A stub generator whose every uniform is the largest double below 1."""

    def random(self, shape):
        return np.full(shape, 1.0 - 2.0**-53)


class TestSamplerRoundedRows:
    """A CPT row whose cumulative sum rounds below 1 must not let a uniform
    just under 1 fall past its last state of positive probability."""

    @pytest.mark.parametrize("row", [(0.1,) * 10, (0.1,) * 10 + (0.0,)])
    def test_largest_uniform_lands_on_last_positive_state(self, row):
        assert np.cumsum(row)[-1] <= 1.0 - 2.0**-53  # the stub uniform passes every entry
        root = NodeSpec("A", tuple(f"a{k}" for k in range(len(row))), (), {(): row})
        child = bern("B", 0.5, ("A",), {(k,): (0.5, 0.5) for k in range(len(row))})
        bn = BayesianNetwork((root, child), ("A", "B"), model.ONE_HOT)
        assert validate(bn) == []
        assert sample(bn, 3, _LargestUniform()).tolist() == [[9, 1]] * 3
        alone = BayesianNetwork((root,), ("A",), model.ONE_HOT)
        assert sample(alone, 2, _LargestUniform()).tolist() == [[9]] * 2


class TestEncoding:
    def test_one_hot_block(self):
        bn = BayesianNetwork((bern("A", 0.5),), ("A",), model.ONE_HOT)
        assert encode(bn, [[1]]).tolist() == [[0, 1]]

    def test_raw_binary(self):
        bn = make_product((0.5, 0.5))
        assert encode(bn, [[1, 0]]).tolist() == [[1, 0]]

    def test_survey_dimension(self):
        cards = (3, 2, 2, 2, 2, 3)
        nodes = tuple(
            NodeSpec(f"V{i}", tuple(map(str, range(k))), (), {(): tuple([1.0 / k] * k)})
            for i, k in enumerate(cards)
        )
        bn = BayesianNetwork(nodes, tuple(n.name for n in nodes), model.ONE_HOT)
        assert bn.d == 14

    @given(st.integers(0, 1), st.integers(0, 2), st.integers(0, 1))
    def test_round_trip(self, a, b, c):
        nodes = (
            NodeSpec("A", ("0", "1"), (), {(): (0.5, 0.5)}),
            NodeSpec("B", ("x", "y", "z"), (), {(): (0.2, 0.3, 0.5)}),
            NodeSpec("C", ("0", "1"), (), {(): (0.4, 0.6)}),
        )
        bn = BayesianNetwork(nodes, ("A", "B", "C"), model.ONE_HOT)
        assert decode(bn, encode(bn, [[a, b, c]])).tolist() == [[a, b, c]]

    def test_output_order_is_followed(self):
        bn = make_cancer().with_outputs(("Xray", "Pollution"), model.ONE_HOT)
        full = np.array([[1, 0, 0, 1, 0]])  # Pollution=1, Xray=1
        assert project(bn, full).tolist() == [[1, 1]]
        assert encode(bn, project(bn, full)).tolist() == [[0, 1, 0, 1]]

    def test_decode_rejects_a_broken_block(self):
        bn = make_cancer()
        with pytest.raises(ValueError, match="does not sum to 1"):
            decode(bn, [[1, 1] + [1, 0] * 4])
        with pytest.raises(ValueError, match="wrong length"):
            decode(bn, [[1, 0]])

    def test_raw_binary_rejects_a_wide_node(self):
        tri = NodeSpec("A", ("a", "b", "c"), (), {(): (0.2, 0.3, 0.5)})
        with pytest.raises(ValueError, match="raw-binary"):
            encode(BayesianNetwork((tri,), ("A",), model.RAW_BINARY), [[2]])


class TestDatasetCounts:
    def test_hand_sum(self):
        bn = make_product((0.5, 0.5))
        ds = Dataset(np.array([[1, 0], [0, 1], [1, 1]]))
        counts = dataset_counts(ds, bn)
        assert counts == ReleasedCounts((2, 2), 3)
        assert all(type(c) is int for c in counts.counts)

    def test_identical_records(self):
        bn = make_product((0.5, 0.5, 0.5))
        ds = Dataset(np.array([[1, 0, 1]] * 4))
        assert dataset_counts(ds, bn).counts == (4, 0, 4)

    def test_five_record_symptom_dataset(self):
        # n=5 dataset over (Cancer, Xray, Dyspnoea); counts are the column sums
        bn = make_cancer().with_outputs(("Cancer", "Xray", "Dyspnoea"), model.RAW_BINARY)
        rows = [(0, 0, 1), (1, 1, 0), (0, 0, 0), (1, 0, 1), (1, 1, 1)]
        counts = dataset_counts(Dataset(np.array(rows)), bn)
        assert counts.counts == tuple(sum(col) for col in zip(*rows))
        assert counts.n == 5

    def test_one_hot_groups_sum_to_n(self):
        bn = make_cancer()
        ds = Dataset(project(bn, sample(bn, 7, np.random.default_rng(11))))
        counts = dataset_counts(ds, bn)
        for g in range(5):
            assert counts.counts[2 * g] + counts.counts[2 * g + 1] == 7

    def test_equals_summed_reference_encodings(self):
        bn = load_benchmark("asia")
        rng = np.random.default_rng(4)
        records = [reference_sample(bn, rng) for _ in range(40)]
        ds = Dataset(project(bn, states_of(bn.node_names, records)))
        expected = [sum(col) for col in zip(*(reference_encode(bn, r) for r in records))]
        assert dataset_counts(ds, bn).counts == tuple(expected)


class TestTableDimensions:
    @pytest.mark.parametrize(
        "name,expected_d",
        [("cancer", 10), ("asia", 16), ("survey", 14), ("sachs:path-left", 15)],
    )
    def test_benchmark_dimensions(self, name, expected_d):
        from bnmia.populations import load_benchmark

        assert load_benchmark(name).d == expected_d
