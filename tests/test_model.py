import gc
import itertools
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from reference import joint_prob, make_cancer, reference_encode, reference_sample, states_of
from strategies import small_networks

from bnmia import model
from bnmia.model import (
    BayesianNetwork,
    NodeSpec,
    ReleasedCounts,
    attribute_marginals,
    dataset_counts,
    draw_records,
    encode,
    output_marginal_law,
    project,
    sample,
    validate,
)
from bnmia.populations import (
    BUNDLED_BENCHMARKS,
    SACHS_OUTPUT_SETS,
    load_benchmark,
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

    # A network broken in one place, and the one problem it is reported with.
    BROKEN = [
        (BayesianNetwork((bern("A", 0.5),), ("A",), "ternary"), "unknown encoding 'ternary'"),
        (BayesianNetwork((bern("A", 0.5), bern("A", 0.3)), (), model.RAW_BINARY),
         "node A: duplicate declaration"),
        (BayesianNetwork((NodeSpec("A", ("0",), (), {(): (1.0,)}),), (), model.ONE_HOT),
         "node A: fewer than 2 states"),
        (BayesianNetwork((NodeSpec("A", ("x", "x"), (), {(): (0.5, 0.5)}),), (), model.ONE_HOT),
         "node A: duplicate state labels"),
        (BayesianNetwork(
            (NodeSpec("A", ("0", "1"), (), {(): (0.5, 0.5), (0,): (0.5, 0.5)}),), (), model.ONE_HOT
        ), "node A: unexpected CPT row key (0,)"),
        (BayesianNetwork((NodeSpec("A", ("0", "1"), (), {(): (1.5, -0.5)}),), (), model.ONE_HOT),
         "node A: row () has entries outside [0, 1]"),
    ]

    @pytest.mark.parametrize(
        "bn, problem", BROKEN,
        ids=["encoding", "declared-twice", "one-state", "labels", "row-key", "entries"],
    )
    def test_reports_the_one_problem(self, bn, problem):
        assert validate(bn) == [problem]


def problems_of(bn):
    return validate(bn)


def with_node(bn, node):
    """bn with the node of the same name replaced."""
    nodes = tuple(node if n.name == node.name else n for n in bn.nodes)
    return BayesianNetwork(nodes, bn.output_nodes, bn.encoding)


class TestValidateMutatedNetworks:
    """A random well-formed network, broken in one place, is reported with
    that break's own message and nothing else."""

    @staticmethod
    def pick_row(bn, data):
        assert validate(bn) == []
        node = data.draw(st.sampled_from(bn.nodes))
        return node, data.draw(st.sampled_from(sorted(node.cpt)))

    @settings(max_examples=50, deadline=None)
    @given(small_networks(), st.data())
    def test_row_rescaled(self, bn, data):
        node, combo = self.pick_row(bn, data)
        cpt = {**node.cpt, combo: tuple(0.5 * p for p in node.cpt[combo])}
        bad = with_node(bn, replace(node, cpt=cpt))
        assert validate(bad) == [f"node {node.name}: row {combo} sum != 1"]

    @settings(max_examples=50, deadline=None)
    @given(small_networks(), st.data())
    def test_row_dropped(self, bn, data):
        node, combo = self.pick_row(bn, data)
        cpt = {k: row for k, row in node.cpt.items() if k != combo}
        labels = tuple(bn.node(p).states[s] for p, s in zip(node.parents, combo))
        bad = with_node(bn, replace(node, cpt=cpt))
        assert validate(bad) == [f"node {node.name}: missing CPT row for {labels}"]

    @settings(max_examples=50, deadline=None)
    @given(small_networks(), st.data())
    def test_row_truncated(self, bn, data):
        node, combo = self.pick_row(bn, data)
        cpt = {**node.cpt, combo: node.cpt[combo][:-1]}
        bad = with_node(bn, replace(node, cpt=cpt))
        k = node.cardinality
        message = f"node {node.name}: row {combo} has length {k - 1}, expected {k}"
        assert validate(bad) == [message]

    @settings(max_examples=50, deadline=None)
    @given(small_networks(), st.data())
    def test_back_edge(self, bn, data):
        # The child of an edge becomes a parent of its own parent, with a CPT
        # row for every combination of the new parent set: only the order
        # and the cycle are broken.
        assert validate(bn) == []
        edges = [(p, node.name) for node in bn.nodes for p in node.parents]
        assume(edges)
        parent, child = data.draw(st.sampled_from(edges))
        node = bn.node(parent)
        cpt = {
            combo + (s,): row
            for combo, row in node.cpt.items()
            for s in range(bn.node(child).cardinality)
        }
        bad = with_node(bn, replace(node, parents=node.parents + (child,), cpt=cpt))
        assert validate(bad) == [
            f"node {parent}: listed before its parent {child}",
            "cycle: the parent graph is not acyclic",
        ]


class TestJointProb:
    """The reference chain rule that format and population tests compare
    networks with."""

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
        assert all(p == pytest.approx(0.25) for p in law.probs)

    def test_cancer_projected_to_symptoms(self):
        bn = make_cancer().with_outputs(("Xray", "Dyspnoea"), model.RAW_BINARY)
        law = output_marginal_law(bn)
        assert len(law) == 4
        # independent oracle: direct sum over all 32 full assignments
        expected = 0.0
        for rec, p in model.enumerate_full_records(bn):
            if rec["Xray"] == 0 and rec["Dyspnoea"] == 0:
                expected += p
        assert law.vectors[0].tolist() == [0, 0]
        assert law.probs[0] == pytest.approx(expected, abs=1e-12)

    def test_half_repeated_copy_constraint(self):
        bn = make_half_repeated(3, (0.5, 0.5))
        law = output_marginal_law(bn)
        assert len(law) == 4
        assert all(v[1] == v[2] for v in law.vectors.tolist())

    def test_the_network_keeps_no_law(self):
        # Each call builds a new law, and only its caller holds it.
        bn = make_product((0.3, 0.6))
        law = output_marginal_law(bn)
        ref = weakref.ref(law)
        del law
        gc.collect()
        assert ref() is None
        assert output_marginal_law(bn) is not output_marginal_law(bn)

    def test_no_outputs(self):
        law = output_marginal_law(make_product((0.3, 0.6)).with_outputs((), model.ONE_HOT))
        assert law.vectors.shape == (1, 0) and law.d == 0
        assert law.probs.tolist() == [1.0]

    def test_stacked_laws_normalize_and_hold_contiguous_rows(self):
        bn = make_product((0.5, 0.5))
        flat = np.full((2, 2), 0.25)
        laws = model._laws(bn, np.stack([flat, flat * (1 + 5e-10), flat]))
        assert [law.probs.flags.c_contiguous for law in laws] == [True] * 3
        past = flat + 1e-9  # total 1 + 4e-9, reported as its exact sum
        with pytest.raises(ValueError, match=f"total probability {math.fsum(past.ravel())!r}$"):
            model._laws(bn, np.stack([flat, past]))

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(model, "STATE_GUARD", 100)
        with pytest.raises(model.ModelSizeError, match="too large"):
            output_marginal_law(make_product((0.5,) * 8))

    def test_guard_bounds_factors_not_the_joint(self, monkeypatch):
        # A fresh instance, so the law is built under this guard.
        monkeypatch.setattr(model, "STATE_GUARD", 10_000)
        bn = load_benchmark("sachs:path-left")
        bn = bn.with_outputs(bn.output_nodes, bn.encoding)
        assert bn.joint_state_count == 177_147
        assert len(output_marginal_law(bn)) == 243

    def test_guard_covers_intermediate_factors(self, monkeypatch):
        # The 5 three-state outputs give a 243-entry table, but summing out
        # a hidden ancestor needs a 729-entry factor first.
        bn = load_benchmark("sachs:path-left")
        monkeypatch.setattr(model, "STATE_GUARD", 728)
        with pytest.raises(model.ModelSizeError, match="729 entries > guard 728"):
            output_marginal_law(bn.with_outputs(bn.output_nodes, bn.encoding))
        monkeypatch.setattr(model, "STATE_GUARD", 729)
        assert len(output_marginal_law(bn.with_outputs(bn.output_nodes, bn.encoding))) == 243

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
    assert law.vectors.dtype == np.int64
    assert law.vectors.shape == (len(law.probs), bn.d)
    vectors = list(map(tuple, law.vectors.tolist()))
    assert vectors == sorted(expected)
    for vec, p in zip(vectors, law.probs.tolist()):
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
        mu = attribute_marginals(output_marginal_law(make_product(p)))
        np.testing.assert_allclose(mu, p, atol=1e-12)

    def test_half_repeated_copies_share_marginal(self):
        bn = make_half_repeated(5, (0.3, 0.6, 0.8))
        mu = attribute_marginals(output_marginal_law(bn))
        assert mu[3] == pytest.approx(mu[2], abs=1e-12)
        assert mu[4] == pytest.approx(mu[2], abs=1e-12)

    def test_cancer_smoker_group(self):
        bn = make_cancer()
        mu = attribute_marginals(output_marginal_law(bn))
        # one-hot layout: Pollution(2), Smoker(2), ...
        assert mu[2] == pytest.approx(0.3, abs=1e-12)
        assert mu[3] == pytest.approx(0.7, abs=1e-12)

    def test_marginals_match_law_expectation(self):
        bn = make_cancer()
        law = output_marginal_law(bn)
        expected = sum(p * v for v, p in zip(law.vectors, law.probs))
        np.testing.assert_allclose(
            attribute_marginals(output_marginal_law(bn)), expected, atol=1e-12
        )


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


class TestDrawRecords:
    """One pass over records of several networks of one structure draws each
    record as `sample` draws it from its own network."""

    @pytest.mark.parametrize("name", ("product:4", "lr:6"))
    def test_stacked_networks_match_sample(self, name):
        rng = np.random.default_rng(17)
        nets = [resolve_network(name, rng) for _ in range(4)]
        sizes = [5, 1, 30, 12]
        seeds = [101, 102, 103, 104]
        u = [np.random.default_rng(s).random((m, len(nets[0].nodes))) for s, m in zip(seeds, sizes)]
        slot = np.repeat(np.arange(4), sizes)
        order = rng.permutation(len(slot))  # records of the networks interleaved
        got = np.empty((len(slot), len(nets[0].nodes)), dtype=np.int64)
        got[order] = draw_records(nets, slot[order], np.concatenate(u)[order])
        for j, net in enumerate(nets):
            expected = sample(net, sizes[j], np.random.default_rng(seeds[j]))
            assert got[slot == j].tolist() == expected.tolist()

    def test_wide_rows_and_states_match_reference(self):
        # D's CPT row index runs to 342 through three 7-state parents, and E
        # has 300 states: both pass what one unsigned byte holds.
        rng = np.random.default_rng(11)

        def node(name, k, parents=(), combos=((),)):
            rows = {c: tuple(rng.dirichlet(np.ones(k))) for c in combos}
            return NodeSpec(name, tuple(f"s{j}" for j in range(k)), parents, rows)

        roots = [node(name, 7) for name in "ABC"]
        wide_row = node("D", 3, ("A", "B", "C"), itertools.product(range(7), repeat=3))
        wide_state = node("E", 300, ("D",), [(j,) for j in range(3)])
        # Without E every state fits a byte; with it, no state does.
        for nodes in ((*roots, wide_row), (*roots, wide_row, wide_state)):
            bn = BayesianNetwork(nodes, ("D",), model.ONE_HOT)
            assert validate(bn) == []
            expected = assert_sampler_matches_reference(bn, m=2000)
            assert {rec["D"] for rec in expected} == {0, 1, 2}
            got = draw_records([bn], np.zeros(5, dtype=np.int64), rng.random((5, len(nodes))))
            assert got.dtype == np.int64 and got.flags.c_contiguous
        assert max(rec["E"] for rec in expected) > 255

    def test_structures_must_match(self):
        rng = np.random.default_rng(0)
        u = rng.random((2, 4))
        with pytest.raises(ValueError, match="share their structure"):
            draw_records(
                [make_half_repeated(4, (0.5,) * 3), make_product((0.5,) * 4)], np.array([0, 1]), u
            )
        with pytest.raises(ValueError, match="one uniform per node"):
            draw_records([make_product((0.5,) * 3)], np.array([0, 0]), u)


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

    def test_output_order_is_followed(self):
        bn = make_cancer().with_outputs(("Xray", "Pollution"), model.ONE_HOT)
        full = np.array([[1, 0, 0, 1, 0]])  # Pollution=1, Xray=1
        assert project(bn, full).tolist() == [[1, 1]]
        assert encode(bn, project(bn, full)).tolist() == [[0, 1, 0, 1]]

    def test_raw_binary_rejects_a_wide_node(self):
        tri = NodeSpec("A", ("a", "b", "c"), (), {(): (0.2, 0.3, 0.5)})
        with pytest.raises(ValueError, match="raw-binary"):
            encode(BayesianNetwork((tri,), ("A",), model.RAW_BINARY), [[2]])


class TestReleasedCounts:
    @pytest.mark.parametrize(
        "counts, n", [((2.7, 2), 4), ((2, 2), 4.5), ((2.0, 2), 4), ((2, 2), np.float64(4))]
    )
    def test_non_integers_are_refused(self, counts, n):
        with pytest.raises(ValueError, match="released counts and n must be integers"):
            ReleasedCounts(counts, n)

    def test_numpy_integers_are_counts(self):
        counts = ReleasedCounts((np.int64(2), np.uint8(1)), np.int32(4))
        assert counts == ReleasedCounts((2, 1), 4)


class TestDatasetCounts:
    def test_hand_sum(self):
        bn = make_product((0.5, 0.5))
        counts = dataset_counts(bn, np.array([[1, 0], [0, 1], [1, 1]]))
        assert counts == ReleasedCounts((2, 2), 3)
        assert all(type(c) is int for c in counts.counts)

    def test_identical_records(self):
        bn = make_product((0.5, 0.5, 0.5))
        assert dataset_counts(bn, np.array([[1, 0, 1]] * 4)).counts == (4, 0, 4)

    def test_five_record_symptom_dataset(self):
        # n=5 dataset over (Cancer, Xray, Dyspnoea); counts are the column sums
        bn = make_cancer().with_outputs(("Cancer", "Xray", "Dyspnoea"), model.RAW_BINARY)
        rows = [(0, 0, 1), (1, 1, 0), (0, 0, 0), (1, 0, 1), (1, 1, 1)]
        counts = dataset_counts(bn, np.array(rows))
        assert counts.counts == tuple(sum(col) for col in zip(*rows))
        assert counts.n == 5

    def test_one_hot_groups_sum_to_n(self):
        bn = make_cancer()
        counts = dataset_counts(bn, project(bn, sample(bn, 7, np.random.default_rng(11))))
        for g in range(5):
            assert counts.counts[2 * g] + counts.counts[2 * g + 1] == 7

    def test_equals_summed_reference_encodings(self):
        bn = load_benchmark("asia")
        rng = np.random.default_rng(4)
        records = [reference_sample(bn, rng) for _ in range(40)]
        states = project(bn, states_of(bn.node_names, records))
        expected = [sum(col) for col in zip(*(reference_encode(bn, r) for r in records))]
        assert dataset_counts(bn, states).counts == tuple(expected)


class TestTableDimensions:
    @pytest.mark.parametrize(
        "name,expected_d",
        [("cancer", 10), ("asia", 16), ("survey", 14), ("sachs:path-left", 15)],
    )
    def test_benchmark_dimensions(self, name, expected_d):
        from bnmia.populations import load_benchmark

        assert load_benchmark(name).d == expected_d
