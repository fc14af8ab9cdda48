import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import (
    chow_liu_fit, joint_prob, make_cancer, mle_fit, proxy_records, reference_encode, states_of
)
from strategies import small_networks

from bnmia import learning, model
from bnmia.learning import (
    ProxyDataset,
    chow_liu_structures,
    cpt_tables,
    empirical_marginals,
    tally_cells,
)
from bnmia.model import (
    BayesianNetwork,
    NodeSpec,
    output_laws,
    output_marginal_law,
    validate,
)


def single_root_proxy(values, states=("0", "1")):
    return ProxyDataset(("A",), {"A": tuple(states)}, np.array(values).reshape(-1, 1))


def binary_proxy(names, records):
    return ProxyDataset(
        tuple(names), {v: ("0", "1") for v in names}, states_of(names, records)
    )


def root_skeleton():
    return BayesianNetwork(
        (NodeSpec("A", ("0", "1"), (), {(): (0.5, 0.5)}),), ("A",), model.RAW_BINARY
    )


class TestMleFit:
    def test_add_one_smoothing(self):
        fitted = mle_fit(root_skeleton(), single_root_proxy([1, 1, 1]), alpha=1.0)
        assert fitted.node("A").cpt[()] == pytest.approx((0.2, 0.8))

    def test_unsmoothed_frequency(self):
        fitted = mle_fit(root_skeleton(), single_root_proxy([1, 1, 1]), alpha=0.0)
        assert fitted.node("A").cpt[()] == (0.0, 1.0)

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError, match="^smoothing must be nonnegative$"):
            cpt_tables([np.zeros((1, 1, 2), dtype=np.int64)], -0.5)

    def test_exact_frequency_proxy_recovers_cpts(self):
        # counts proportional to the exact joint recover the tables at alpha=0
        chain = BayesianNetwork(
            (
                NodeSpec("A", ("0", "1"), (), {(): (0.5, 0.5)}),
                NodeSpec("B", ("0", "1"), ("A",), {(0,): (0.75, 0.25), (1,): (0.25, 0.75)}),
            ),
            ("A", "B"),
            model.RAW_BINARY,
        )
        records = []
        for rec, p in model.enumerate_full_records(chain):
            weight = round(p * 8)
            assert weight == pytest.approx(p * 8)
            records.extend([dict(rec)] * weight)
        proxy = binary_proxy(("A", "B"), records)
        fitted = mle_fit(chain, proxy, alpha=0.0)
        for node, orig in zip(fitted.nodes, chain.nodes):
            for combo, row in orig.cpt.items():
                assert node.cpt[combo] == pytest.approx(row, abs=1e-12)

    def test_unseen_parent_combo_uniform_at_alpha_zero(self):
        chain = BayesianNetwork(
            (
                NodeSpec("A", ("0", "1"), (), {(): (0.5, 0.5)}),
                NodeSpec("B", ("0", "1"), ("A",), {(0,): (0.5, 0.5), (1,): (0.5, 0.5)}),
            ),
            ("A", "B"),
            model.RAW_BINARY,
        )
        proxy = binary_proxy(("A", "B"), [{"A": 0, "B": 1}])
        fitted = mle_fit(chain, proxy, alpha=0.0)
        assert fitted.node("B").cpt[(1,)] == (0.5, 0.5)

    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=30),
        st.floats(0.0, 5.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_rows_are_distributions_for_any_alpha(self, values, alpha):
        fitted = mle_fit(root_skeleton(), single_root_proxy(values), alpha=alpha)
        assert validate(fitted) == []


class TestChowLiu:
    def test_perfect_pair_is_linked(self):
        rng = np.random.default_rng(0)
        records = []
        for _ in range(200):
            a = int(rng.integers(2))
            c = int(rng.integers(2))
            records.append({"A": a, "B": a, "C": c})
        proxy = binary_proxy(("A", "B", "C"), records)
        fitted = chow_liu_fit(proxy, alpha=1.0)
        edges = {(n.name, n.parents[0]) for n in fitted.nodes if n.parents}
        assert ("B", "A") in edges or ("A", "B") in edges

    def test_independent_columns_still_a_tree(self):
        rng = np.random.default_rng(1)
        records = tuple(
            {"A": int(rng.integers(2)), "B": int(rng.integers(2)), "C": int(rng.integers(2))}
            for _ in range(50)
        )
        proxy = binary_proxy(("A", "B", "C"), records)
        fitted = chow_liu_fit(proxy, alpha=1.0)
        assert validate(fitted) == []
        assert sum(len(n.parents) for n in fitted.nodes) == 2  # tree with 3 nodes

    def test_chain_skeleton_recovery(self):
        chain = BayesianNetwork(
            (
                NodeSpec("A", ("0", "1"), (), {(): (0.5, 0.5)}),
                NodeSpec("B", ("0", "1"), ("A",), {(0,): (0.9, 0.1), (1,): (0.1, 0.9)}),
                NodeSpec("C", ("0", "1"), ("B",), {(0,): (0.85, 0.15), (1,): (0.15, 0.85)}),
            ),
            ("A", "B", "C"),
            model.RAW_BINARY,
        )
        rng = np.random.default_rng(5)
        proxy = ProxyDataset.from_network_samples(chain, 10_000, rng)
        fitted = chow_liu_fit(proxy, alpha=0.0)
        undirected = set()
        for node in fitted.nodes:
            for p in node.parents:
                undirected.add(frozenset((node.name, p)))
        assert undirected == {frozenset(("A", "B")), frozenset(("B", "C"))}

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        proxy = ProxyDataset.from_network_samples(make_cancer(), 30, rng)
        a = chow_liu_fit(proxy, alpha=1.0)
        b = chow_liu_fit(proxy, alpha=1.0)
        assert a.nodes == b.nodes

    def test_needs_two_records(self):
        with pytest.raises(ValueError, match="two records"):
            chow_liu_fit(single_root_proxy([1]), alpha=1.0)


def law_dict(law) -> dict[tuple[int, ...], float]:
    return dict(zip(map(tuple, law.vectors.tolist()), law.probs.tolist()))


class TestWeakAttackerConsistency:
    def test_learned_law_converges_in_total_variation(self):
        bn = make_cancer()
        true_law = output_marginal_law(bn)
        rng = np.random.default_rng(123)
        distances = []
        for m in (10, 100, 1000, 10_000):
            proxy = ProxyDataset.from_network_samples(bn, m, rng)
            learned = mle_fit(bn, proxy, alpha=1.0)
            learned_law = output_marginal_law(learned)
            true_p, learned_p = law_dict(true_law), law_dict(learned_law)
            tv = 0.5 * sum(
                abs(true_p.get(v, 0.0) - learned_p.get(v, 0.0)) for v in true_p.keys() | learned_p
            )
            distances.append(tv)
        assert distances[-1] < distances[0]
        assert distances[-1] < 0.05


class TestEmpiricalMarginals:
    def test_plain_frequency(self):
        proxy = single_root_proxy([1, 1, 0, 0])
        mu = empirical_marginals(proxy, ("A",), model.RAW_BINARY)
        assert mu[0] == pytest.approx(0.5)

    def test_clamping(self):
        proxy = single_root_proxy([1] * 10)
        mu = empirical_marginals(proxy, ("A",), model.RAW_BINARY)
        assert mu[0] == pytest.approx(0.95)

    def test_interior_untouched(self):
        proxy = single_root_proxy([1, 0, 0, 0, 0, 0, 0, 1, 1, 1])
        mu = empirical_marginals(proxy, ("A",), model.RAW_BINARY)
        assert mu[0] == pytest.approx(0.4)

    def test_one_hot_layout(self):
        proxy = single_root_proxy([0, 2, 2, 1], ("x", "y", "z"))
        mu = empirical_marginals(proxy, ("A",), model.ONE_HOT)
        np.testing.assert_allclose(mu, [0.25, 0.25, 0.5])

    def test_raw_binary_needs_binary_nodes(self):
        proxy = single_root_proxy([0, 2, 2, 1], ("x", "y", "z"))
        with pytest.raises(ValueError, match="^raw-binary encoding requires binary nodes: A$"):
            empirical_marginals(proxy, ("A",), model.RAW_BINARY)


class TestProxyCsv:
    def test_round_trip(self):
        bn = make_cancer()
        rng = np.random.default_rng(77)
        proxy = ProxyDataset.from_network_samples(bn, 12, rng)
        text = proxy.to_csv()
        states = {n.name: n.states for n in bn.nodes}
        back = ProxyDataset.from_csv(text, states)
        assert back.nodes == proxy.nodes
        assert (back.data == proxy.data).all()

    def test_schema_inferred_from_labels(self):
        text = "A,B\nyes,low\nno,high\nyes,high\n"
        proxy = ProxyDataset.from_csv(text)
        assert proxy.states["A"] == ("no", "yes")
        assert proxy.m == 3

    def test_bad_width(self):
        with pytest.raises(ValueError, match="width"):
            ProxyDataset.from_csv("A,B\n1\n")

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown state 'maybe' for node B"):
            ProxyDataset.from_csv("A,B\nyes,no\nno,maybe\n", {"A": ("no", "yes"), "B": ("no",)})

    def test_needs_a_record_and_a_column_per_node(self):
        with pytest.raises(ValueError, match="at least one record"):
            ProxyDataset.from_csv("A,B\n\n", {"A": ("0",), "B": ("0",)})
        with pytest.raises(ValueError, match="one column per node"):
            ProxyDataset(("A", "B"), {"A": ("0", "1"), "B": ("0", "1")}, np.zeros((3, 1)))

    def test_needs_a_header_row(self):
        with pytest.raises(ValueError, match="^proxy CSV needs a header row and at least one"):
            ProxyDataset.from_csv("A,B\n")

    @pytest.mark.parametrize(
        "text, states",
        [("A,A\nx,y\ny,y\n", None), ("A,A\nx,x\ny,y\n", None), ("A,A\nx,y\n", {"A": ("x", "y")})],
    )
    def test_repeated_node_rejected(self, text, states):
        # One states entry cannot describe two columns of one name.
        with pytest.raises(ValueError, match="^proxy node 'A' is named more than once$"):
            ProxyDataset.from_csv(text, states)
        with pytest.raises(ValueError, match="^proxy node 'A' is named more than once$"):
            ProxyDataset(("A", "A"), {"A": ("x", "y")}, np.zeros((1, 2)))

    def test_node_missing_from_the_schema_rejected(self):
        with pytest.raises(ValueError, match="^proxy node 'B' has no states in the schema$"):
            ProxyDataset.from_csv("A,B\nx,y\n", {"A": ("x",)})
        with pytest.raises(ValueError, match="^proxy node 'B' has no states in the schema$"):
            ProxyDataset(("A", "B"), {"A": ("x",)}, np.zeros((1, 2)))

    @pytest.mark.parametrize("index", [2, 5, -1])
    def test_state_index_outside_the_node_rejected(self, index):
        states = {"A": ("0", "1", "2"), "B": ("0", "1")}
        message = "^proxy state index outside the states of node 'B'$"
        with pytest.raises(ValueError, match=message):
            ProxyDataset(("A", "B"), states, np.array([[2, 0], [0, index]]))
        with pytest.raises(ValueError, match=message):
            ProxyDataset(("A", "B"), states, np.array([[[2, 0]], [[0, index]]]))

    def test_counts_weigh_rows(self):
        states = {"A": ("no", "yes")}
        proxy = ProxyDataset(("A",), states, np.array([[1], [0]]), np.array([2, 1]))
        assert proxy.m == 3
        assert proxy.to_csv() == "A\nyes\nyes\nno\n"
        with pytest.raises(ValueError, match="one nonnegative count per row"):
            ProxyDataset(("A",), states, np.array([[1], [0]]), np.array([2]))
        with pytest.raises(ValueError, match="one nonnegative count per row"):
            ProxyDataset(("A",), states, np.array([[1], [0]]), np.array([2, -1]))
        with pytest.raises(ValueError, match="at least one record"):
            ProxyDataset(("A",), states, np.array([[1], [0]]), np.array([0, 0]))
        with pytest.raises(ValueError, match="same number of records"):
            ProxyDataset(("A",), states, np.zeros((2, 2, 1)), np.array([[1, 1], [2, 1]]))


# Dict-tally references: the per-record loops the array fits replaced.

def reference_mle_fit(structure, records, alpha):
    cpts = {}
    for node in structure.nodes:
        k = node.cardinality
        combos = list(
            itertools.product(*(range(structure.node(p).cardinality) for p in node.parents))
        )
        tally = {combo: [0] * k for combo in combos}
        for rec in records:
            tally[tuple(rec[p] for p in node.parents)][rec[node.name]] += 1
        cpt = {}
        for combo in combos:
            total = sum(tally[combo]) + alpha * k
            if total == 0:
                cpt[combo] = tuple([1.0 / k] * k)
            else:
                cpt[combo] = tuple((cnt + alpha) / total for cnt in tally[combo])
        cpts[node.name] = cpt
    return cpts


def reference_pair_mutual_information(proxy, records, u, v, alpha):
    ku, kv = len(proxy.states[u]), len(proxy.states[v])
    joint = np.full((ku, kv), alpha, dtype=float)
    for rec in records:
        joint[rec[u], rec[v]] += 1.0
    joint /= joint.sum()
    pu = joint.sum(axis=1)
    pv = joint.sum(axis=0)
    mi = 0.0
    for a in range(ku):
        for b in range(kv):
            if joint[a, b] > 0.0 and pu[a] > 0.0 and pv[b] > 0.0:
                mi += joint[a, b] * math.log(joint[a, b] / (pu[a] * pv[b]))
    return mi


def reference_marginals(bn, records):
    total = np.zeros(bn.d)
    for rec in records:
        total += reference_encode(bn, rec)
    freq = total / len(records)
    lo = 1.0 / (2 * len(records))
    return np.clip(freq, lo, 1.0 - lo)


class TestArrayFitsMatchDictTallies:
    @settings(max_examples=100, deadline=None)
    @given(small_networks(), st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_random_proxies(self, bn, m, seed):
        proxy = ProxyDataset.from_network_samples(bn, m, np.random.default_rng(seed))
        records = proxy_records(proxy)
        for alpha in (0.0, 1.0, 0.3):
            fitted = mle_fit(bn, proxy, alpha)
            expected = reference_mle_fit(bn, records, alpha)
            for node in fitted.nodes:
                assert list(node.cpt.items()) == list(expected[node.name].items())
            pairs = list(itertools.combinations(proxy.nodes, 2))
            got, = learning._mutual_informations(proxy, alpha)
            assert got == [
                reference_pair_mutual_information(proxy, records, u, v, alpha) for u, v in pairs
            ]
            if m >= 2:
                tree = chow_liu_fit(proxy, alpha, bn.output_nodes, bn.encoding)
                expected = reference_mle_fit(tree, records, alpha)
                for node in tree.nodes:
                    assert list(node.cpt.items()) == list(expected[node.name].items())
        mu = empirical_marginals(proxy, bn.output_nodes, bn.encoding)
        assert mu.tobytes() == reference_marginals(bn, records).tobytes()


class TestWeightedFits:
    """Fits from each proxy's distinct rows and their counts, as eval reduces
    its proxies, equal the fits on the records themselves, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(small_networks(), small_networks(max_nodes=4, max_parents=1, max_states=9)),
        st.integers(1, 4),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    def test_distinct_rows_with_counts_equal_the_records(self, bn, stack, m, seed):
        from bnmia.harness import _distinct_rows

        cards = [node.cardinality for node in bn.nodes]
        data = model.sample(bn, stack * m, np.random.default_rng(seed)).reshape(stack, m, -1)
        rows, (counts,) = _distinct_rows(data, cards, [np.ones(data.shape[:2], dtype=np.int64)])
        states = {node.name: node.states for node in bn.nodes}
        records = ProxyDataset(bn.node_names, states, data)
        weighted = ProxyDataset(bn.node_names, states, rows, counts)
        assert weighted.m == records.m == m
        structures = [bn] * stack
        for got, expected in zip(
            tally_cells(structures, weighted), tally_cells(structures, records)
        ):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        for alpha in (0.0, 0.3, 1.0):
            got = learning._mutual_informations(weighted, alpha)
            assert got == learning._mutual_informations(records, alpha)
            if m >= 2:
                trees = [
                    chow_liu_structures(proxy, alpha, bn.output_nodes, bn.encoding)
                    for proxy in (weighted, records)
                ]
                assert [[(v.name, v.parents) for v in tree.nodes] for tree in trees[0]] == [
                    [(v.name, v.parents) for v in tree.nodes] for tree in trees[1]
                ]
        assert empirical_marginals(weighted, bn.output_nodes, bn.encoding).tobytes() == (
            empirical_marginals(records, bn.output_nodes, bn.encoding).tobytes()
        )


def brute_force_law(bn) -> dict[tuple[int, ...], float]:
    """The output law summed over every full assignment by `joint_prob`."""
    law: dict[tuple[int, ...], float] = {}
    for states in itertools.product(*(range(node.cardinality) for node in bn.nodes)):
        rec = dict(zip(bn.node_names, states))
        vec = reference_encode(bn, rec)
        law[vec] = law.get(vec, 0.0) + joint_prob(bn, rec)
    return {vec: p for vec, p in law.items() if p > 0.0}


def assert_stack_fits_each_proxy(bn, data, alpha):
    """The stacked fits of an (R, m, nodes) proxy stack against each proxy
    fitted alone: laws, trees and marginals bit for bit, and each law within
    1e-12 of the brute-force law of that proxy's fitted network."""
    states = {node.name: node.states for node in bn.nodes}
    stack = ProxyDataset(bn.node_names, states, data)
    structures = [bn] * len(data)
    laws = output_laws(structures, cpt_tables(tally_cells(structures, stack), alpha))
    trees = []
    if data.shape[1] > 1:
        trees = chow_liu_structures(stack, alpha, bn.output_nodes, bn.encoding)
    marginals = empirical_marginals(stack, bn.output_nodes, bn.encoding)
    assert len(laws) == len(marginals) == len(data)
    for r, law in enumerate(laws):
        proxy = ProxyDataset(bn.node_names, states, data[r])
        fitted = mle_fit(bn, proxy, alpha)
        alone = output_marginal_law(fitted)
        assert np.array_equal(law.vectors, alone.vectors)
        assert np.array_equal(law.probs, alone.probs)
        expected = brute_force_law(fitted)
        assert list(map(tuple, law.vectors.tolist())) == sorted(expected)
        for vec, p in zip(map(tuple, law.vectors.tolist()), law.probs.tolist()):
            assert abs(p - expected[vec]) <= 1e-12 * expected[vec]
        assert marginals[r].tobytes() == empirical_marginals(
            proxy, bn.output_nodes, bn.encoding
        ).tobytes()
        if trees:
            tree = chow_liu_fit(proxy, alpha, bn.output_nodes, bn.encoding)
            assert [(v.name, v.parents) for v in trees[r].nodes] == [
                (v.name, v.parents) for v in tree.nodes
            ]
    return laws


def wide_network() -> BayesianNetwork:
    """A hidden 9-state root H, so the elimination sums over nine states, with
    a binary output A below it and a ternary output B below both."""
    h = NodeSpec("H", tuple(f"h{i}" for i in range(9)), (), {(): tuple([1 / 9] * 9)})
    a = NodeSpec("A", ("0", "1"), ("H",), {(i,): (0.5, 0.5) for i in range(9)})
    b = NodeSpec("B", ("0", "1", "2"), ("H", "A"), {
        (i, j): (0.2, 0.3, 0.5) for i in range(9) for j in range(2)
    })
    return BayesianNetwork((h, a, b), ("A", "B"), model.ONE_HOT)


class TestStackedFits:
    """Fitting R proxies as one stack gives each proxy's own fit, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(small_networks(), small_networks(max_nodes=4, max_parents=1, max_states=9)),
        st.integers(1, 4),
        st.integers(1, 6),
        st.sampled_from((0.0, 1.0)),
        st.integers(0, 2**32 - 1),
    )
    def test_random_stacks(self, bn, stack, m, alpha, seed):
        # States drawn uniformly, not from bn: few records leave parent rows
        # unseen, and with alpha = 0 the proxies' laws have different supports.
        rng = np.random.default_rng(seed)
        cards = [node.cardinality for node in bn.nodes]
        data = np.stack([rng.integers(0, k, size=(stack, m)) for k in cards], axis=2)
        assert_stack_fits_each_proxy(bn, data, alpha)

    def test_one_proxy_paths_reject_a_stack(self):
        bn = make_cancer()
        stack = ProxyDataset.from_network_samples(bn, 6, np.random.default_rng(0))
        stack = ProxyDataset(stack.nodes, stack.states, stack.data.reshape(2, 3, -1))
        assert stack.m == 3
        with pytest.raises(ValueError, match="one proxy"):
            stack.to_csv()

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_unseen_rows_differing_supports_and_a_nine_state_node(self, alpha):
        bn = wide_network()
        data = np.array([
            [[0, 0, 0], [0, 1, 2], [8, 1, 1], [8, 0, 2]],
            [[3, 1, 0], [3, 1, 0], [5, 0, 1], [5, 1, 2]],
            [[2, 0, 2], [7, 1, 1], [7, 0, 0], [4, 0, 1]],
        ])
        states = {node.name: node.states for node in bn.nodes}
        counts = tally_cells([bn] * 3, ProxyDataset(bn.node_names, states, data))
        assert (counts[1].sum(axis=-1) == 0).any()  # some (proxy, H) rows of A unseen
        laws = assert_stack_fits_each_proxy(bn, data, alpha)
        if alpha == 0.0:
            assert len({tuple(map(tuple, law.vectors.tolist())) for law in laws}) == 3
        else:
            assert all(law.vectors is laws[0].vectors for law in laws)


def released_whole(bn, rng):
    """bn releasing every node, in a random order; one-hot unless every node
    is binary."""
    binary = all(node.cardinality == 2 for node in bn.nodes)
    return bn.with_outputs(
        [bn.node_names[i] for i in rng.permutation(len(bn.nodes))],
        bn.encoding if binary else model.ONE_HOT,
    )


def assert_law_is(law, expected):
    """law holds exactly the outcomes and probabilities of a dict law,
    sorted by vector: probabilities equal byte for byte."""
    vectors = sorted(expected)
    assert law.vectors.tolist() == [list(vec) for vec in vectors]
    assert law.probs.tobytes() == np.array([expected[vec] for vec in vectors]).tobytes()


def assert_stacked_trees_fit_each_tree(bn, data, alpha):
    """The trees learned from an (R, m, nodes) proxy stack, counted and
    fitted as one stack, against each tree fitted alone to its own proxy:
    each tree's cells in its own rows with the padding rows empty, and its
    law equal to the law of its fitted network alone, vectors and probs
    byte for byte, and, when every node is released, to the chain rule in
    the tree's own node order.  Returns the trees and the stacked laws."""
    states = {node.name: node.states for node in bn.nodes}
    stack = ProxyDataset(bn.node_names, states, data)
    trees = chow_liu_structures(stack, alpha, bn.output_nodes, bn.encoding)
    tallies = tally_cells(trees, stack)
    laws = output_laws(trees, cpt_tables(tallies, alpha))
    assert len(laws) == len(data)
    for r, (tree, law) in enumerate(zip(trees, laws)):
        proxy = ProxyDataset(bn.node_names, states, data[r])
        order = [tree.node_names.index(v) for v in trees[0].node_names]
        alone = tally_cells([tree], proxy)
        for counts, own in zip(tallies, (alone[i] for i in order)):
            rows = own.shape[1]
            assert np.array_equal(counts[r, :rows], own[0]) and not counts[r, rows:].any()
        fitted = mle_fit(tree, proxy, alpha)
        alone = output_marginal_law(fitted)
        assert law.vectors.tobytes() == alone.vectors.tobytes()
        assert law.vectors.shape == alone.vectors.shape
        assert law.probs.tobytes() == alone.probs.tobytes()
        if set(tree.output_nodes) == set(tree.node_names):
            assert_law_is(law, brute_force_law(fitted))
    return trees, laws


class TestGridProduct:
    """A stack of several structures that release every node takes the
    grid product; each network alone takes elimination.  Both must equal,
    byte for byte, the chain rule at each grid point in the network's own
    node order (`brute_force_law`, which adds each product once to 0.0):
    the IEEE operations of eliminating nothing."""

    @settings(max_examples=100, deadline=None)
    @given(
        small_networks(max_nodes=5, max_parents=3, max_states=3),
        st.integers(2, 5),
        st.integers(1, 12),
        st.sampled_from((0.0, 0.3, 1.0)),
        st.integers(0, 2**32 - 1),
    )
    def test_multi_parent_networks_released_whole(self, bn, stack, m, alpha, seed):
        # Every other proxy is fitted to the same nodes with no edges,
        # listed in reverse order.
        rng = np.random.default_rng(seed)
        bn = released_whole(bn, rng)
        assert_law_is(output_marginal_law(bn), brute_force_law(bn))
        edgeless = BayesianNetwork(
            tuple(NodeSpec(v.name, v.states) for v in reversed(bn.nodes)),
            bn.output_nodes, bn.encoding,
        )
        structures = [(bn, edgeless)[r % 2] for r in range(stack)]
        cards = [node.cardinality for node in bn.nodes]
        data = np.stack([rng.integers(0, k, size=(stack, m)) for k in cards], axis=2)
        states = {node.name: node.states for node in bn.nodes}
        proxies = ProxyDataset(bn.node_names, states, data)
        laws = output_laws(structures, cpt_tables(tally_cells(structures, proxies), alpha))
        for structure, law, proxy in zip(structures, laws, data):
            fitted = mle_fit(structure, ProxyDataset(bn.node_names, states, proxy), alpha)
            alone = output_marginal_law(fitted)
            assert law.vectors.tobytes() == alone.vectors.tobytes()
            assert law.probs.tobytes() == alone.probs.tobytes()
            assert_law_is(law, brute_force_law(fitted))


class TestStackedTrees:
    """Learned trees counted and fitted as one stack (`tally_cells`,
    `cpt_tables`, `output_laws` on all of them) give each tree's own cells
    and laws bit for bit, on the grid product when every node is released
    and by elimination per structure when some are not."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(small_networks(), small_networks(max_nodes=4, max_parents=1, max_states=9)),
        st.integers(1, 4),
        st.integers(2, 12),
        st.sampled_from((0.0, 0.3, 1.0)),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_random_stacks(self, bn, stack, m, alpha, whole, seed):
        # States drawn uniformly, so at alpha = 0 unseen rows leave laws of
        # partial support; with whole, every node released in a random order.
        rng = np.random.default_rng(seed)
        if whole:
            bn = released_whole(bn, rng)
        cards = [node.cardinality for node in bn.nodes]
        data = np.stack([rng.integers(0, k, size=(stack, m)) for k in cards], axis=2)
        assert_stacked_trees_fit_each_tree(bn, data, alpha)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_differing_trees_with_hidden_nodes(self, alpha):
        # Every tree is rooted at B, which is not released, so each law sums
        # B out.  B drives A, C and D in the first and third proxies and
        # nothing in the second, whose tree differs.
        rng = np.random.default_rng(3)

        def noisy(x):
            return np.where(rng.random(200) < 0.9, x, rng.integers(0, 2, 200))

        b, a = rng.integers(0, 3, 200), rng.integers(0, 2, 200)
        fan = np.stack([b, noisy(b % 2), noisy(b % 2), noisy(b % 2)], axis=1)
        pair = np.stack([rng.integers(0, 3, 200), a, noisy(a), rng.integers(0, 2, 200)], axis=1)
        nodes = tuple(NodeSpec(v, ("0", "1", "2")[: 3 if v == "B" else 2]) for v in "BACD")
        bn = BayesianNetwork(nodes, ("C", "A"), model.ONE_HOT)
        data = np.stack([fan, pair, fan])
        trees, laws = assert_stacked_trees_fit_each_tree(bn, data, alpha)
        keys = [tuple((v.name, v.parents) for v in tree.nodes) for tree in trees]
        assert keys[0] == keys[2] != keys[1]
        states = {node.name: node.states for node in nodes}
        for tree, law, proxy in zip(trees, laws, data):
            fitted = mle_fit(tree, ProxyDataset(bn.node_names, states, proxy), alpha)
            expected = brute_force_law(fitted)
            assert sorted(expected) == list(map(tuple, law.vectors.tolist()))
            for vec, p in zip(map(tuple, law.vectors.tolist()), law.probs.tolist()):
                assert abs(p - expected[vec]) <= 1e-12 * expected[vec]

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_partial_supports_and_a_nine_state_node(self, alpha):
        h = NodeSpec("H", tuple(f"h{i}" for i in range(9)), (), {(): tuple([1 / 9] * 9)})
        a = NodeSpec("A", ("0", "1"), ("H",), {(i,): (0.5, 0.5) for i in range(9)})
        b = NodeSpec("B", ("0", "1", "2"), ("A",), {(j,): (0.2, 0.3, 0.5) for j in range(2)})
        bn = BayesianNetwork((h, a, b), ("B", "H", "A"), model.ONE_HOT)
        data = np.array([
            [[0, 0, 0], [0, 1, 2], [8, 1, 1], [8, 0, 2]],
            [[3, 1, 0], [3, 1, 0], [5, 0, 1], [5, 1, 2]],
            [[2, 0, 2], [7, 1, 1], [7, 0, 0], [4, 0, 1]],
        ])
        _, laws = assert_stacked_trees_fit_each_tree(bn, data, alpha)
        if alpha == 0.0:
            assert all(len(law) < 9 * 2 * 3 for law in laws)
            assert len({law.vectors.tobytes() for law in laws}) == 3
        else:
            assert all(law.vectors is laws[0].vectors for law in laws)
