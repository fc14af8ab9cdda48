"""Hypothesis strategies shared by the test modules."""
from __future__ import annotations

import itertools

from hypothesis import strategies as st

from bnmia.model import ONE_HOT, RAW_BINARY, BayesianNetwork, NodeSpec


@st.composite
def small_networks(
    draw, max_nodes: int = 5, max_parents: int = 3, max_states: int = 3
) -> BayesianNetwork:
    """A random well-formed network: a DAG of 1..max_nodes nodes listed in
    topological order, 2..max_states states each, CPT rows with exact zeros,
    and a random ordered subset of released outputs.  Raw-binary encoding is
    drawn only when every output is binary."""
    size = draw(st.integers(1, max_nodes))
    nodes: list[NodeSpec] = []
    for i in range(size):
        card = draw(st.integers(2, max_states))
        parents = tuple(
            nodes[j] for j in draw(
                st.lists(st.integers(0, i - 1), unique=True, max_size=min(i, max_parents))
            )
        ) if i else ()
        cpt = {}
        for combo in itertools.product(*(range(p.cardinality) for p in parents)):
            weights = draw(
                st.lists(st.integers(0, 3), min_size=card, max_size=card).filter(any)
            )
            cpt[combo] = tuple(w / sum(weights) for w in weights)
        nodes.append(NodeSpec(
            f"V{i}", tuple(f"s{k}" for k in range(card)), tuple(p.name for p in parents), cpt
        ))
    order = draw(st.permutations(nodes))
    outputs = order[: draw(st.integers(1, size))]
    encodings = (RAW_BINARY, ONE_HOT) if all(v.cardinality == 2 for v in outputs) else (ONE_HOT,)
    return BayesianNetwork(
        tuple(nodes), tuple(v.name for v in outputs), draw(st.sampled_from(encodings))
    )
