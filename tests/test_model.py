import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
    sample,
    validate,
)
from bnmia.populations import (
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
        # A fresh instance, so no cached law bypasses the guard.
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

    def test_encodes_once_per_outcome(self, monkeypatch):
        calls = []

        def counting_encode(bn, rec):
            calls.append(rec)
            return encode(bn, rec)

        monkeypatch.setattr(model, "encode", counting_encode)
        bn = load_benchmark("sachs:leaf-root")
        law = output_marginal_law(bn.with_outputs(bn.output_nodes, bn.encoding))
        assert len(calls) == len(law) == 729


def reference_law(bn):
    """The law summed over every full record, in walk order."""
    acc = {}
    for rec, p in model.enumerate_full_records(bn):
        vec = encode(bn, rec)
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
        r1 = sample(bn, np.random.default_rng(7))
        r2 = sample(bn, np.random.default_rng(7))
        assert r1 == r2

    def test_bernoulli_frequency(self):
        bn = make_product((0.3,))
        rng = np.random.default_rng(42)
        hits = sum(sample(bn, rng)["X1"] for _ in range(100_000))
        assert abs(hits / 100_000 - 0.3) < 0.01

    def test_copy_constraints_hold_in_samples(self):
        bn = make_half_repeated(5, (0.5, 0.5, 0.5))
        rng = np.random.default_rng(3)
        for _ in range(200):
            rec = sample(bn, rng)
            assert rec["X4"] == rec["X3"] == rec["X5"]


class TestEncoding:
    def test_one_hot_block(self):
        bn = BayesianNetwork((bern("A", 0.5),), ("A",), model.ONE_HOT)
        assert encode(bn, {"A": 1}) == (0, 1)

    def test_raw_binary(self):
        bn = make_product((0.5, 0.5))
        assert encode(bn, {"X1": 1, "X2": 0}) == (1, 0)

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
        rec = {"A": a, "B": b, "C": c}
        assert decode(bn, encode(bn, rec)) == rec


class TestDatasetCounts:
    def test_hand_sum(self):
        bn = make_product((0.5, 0.5))
        ds = Dataset(({"X1": 1, "X2": 0}, {"X1": 0, "X2": 1}, {"X1": 1, "X2": 1}))
        counts = dataset_counts(ds, bn)
        assert counts == ReleasedCounts((2, 2), 3)

    def test_identical_records(self):
        bn = make_product((0.5, 0.5, 0.5))
        rec = {"X1": 1, "X2": 0, "X3": 1}
        ds = Dataset((rec,) * 4)
        assert dataset_counts(ds, bn).counts == tuple(4 * b for b in encode(bn, rec))

    def test_five_record_symptom_dataset(self):
        # n=5 dataset over (Cancer, Xray, Dyspnoea); counts are the column sums
        bn = make_cancer().with_outputs(("Cancer", "Xray", "Dyspnoea"), model.RAW_BINARY)
        rows = [(0, 0, 1), (1, 1, 0), (0, 0, 0), (1, 0, 1), (1, 1, 1)]
        ds = Dataset(tuple({"Cancer": c, "Xray": x, "Dyspnoea": d} for c, x, d in rows))
        counts = dataset_counts(ds, bn)
        assert counts.counts == tuple(sum(col) for col in zip(*rows))
        assert counts.n == 5

    def test_one_hot_groups_sum_to_n(self):
        bn = make_cancer()
        rng = np.random.default_rng(11)
        ds = Dataset(tuple(sample(bn, rng) for _ in range(7)))
        counts = dataset_counts(ds, bn)
        for g in range(5):
            assert counts.counts[2 * g] + counts.counts[2 * g + 1] == 7


class TestTableDimensions:
    @pytest.mark.parametrize(
        "name,expected_d",
        [("cancer", 10), ("asia", 16), ("survey", 14), ("sachs:path-left", 15)],
    )
    def test_benchmark_dimensions(self, name, expected_d):
        from bnmia.populations import load_benchmark

        assert load_benchmark(name).d == expected_d
