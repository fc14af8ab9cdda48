"""Attacker-side model fitting from a public proxy sample.

The weak attacker knows the graph and learns the tables from the proxy; the
weakest learns structure too.  Structure learning here is a maximum-weight
spanning tree over pairwise empirical mutual information, which is
deterministic and adequate at this scale at the cost of tree-shaped output.
The proxy is one (m, nodes) array of state indices, and every fit counts from
its columns.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import BayesianNetwork, NodeSpec, ONE_HOT, RAW_BINARY, sample


@dataclass(frozen=True)
class ProxyDataset:
    """m full records over a known node schema (names and state labels),
    stored as an (m, nodes) int array of state indices, column i for nodes[i].
    `from_csv` and `to_csv` convert to and from CSV text."""

    nodes: tuple[str, ...]
    states: dict[str, tuple[str, ...]]
    data: np.ndarray

    @property
    def m(self) -> int:
        return len(self.data)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.int64)
        if data.ndim != 2 or data.shape[1] != len(self.nodes):
            raise ValueError("proxy data must have one column per node")
        if len(data) < 1:
            raise ValueError("proxy dataset must contain at least one record")
        object.__setattr__(self, "data", data)

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.nodes.index(name)]

    @classmethod
    def from_network_samples(
        cls, bn: BayesianNetwork, m: int, rng: np.random.Generator
    ) -> "ProxyDataset":
        states = {n.name: n.states for n in bn.nodes}
        return cls(bn.node_names, states, sample(bn, m, rng))

    @classmethod
    def from_csv(cls, text: str, states: dict[str, tuple[str, ...]] | None = None) -> "ProxyDataset":
        """Header row of node names, one record per line, values are state
        labels.  Without an explicit schema, each column's states are the
        sorted distinct labels it contains."""
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) < 2:
            raise ValueError("proxy CSV needs a header row and at least one record")
        names = tuple(h.strip() for h in rows[0])
        data = [[cell.strip() for cell in row] for row in rows[1:] if row]
        for row in data:
            if len(row) != len(names):
                raise ValueError("proxy CSV row width does not match the header")
        if states is None:
            states = {
                name: tuple(sorted({row[i] for row in data}))
                for i, name in enumerate(names)
            }
        array = np.zeros((len(data), len(names)), dtype=np.int64)
        for i, (name, labels) in enumerate(zip(names, zip(*data))):
            index = {label: k for k, label in enumerate(states[name])}
            unknown = set(labels) - index.keys()
            if unknown:
                raise ValueError(f"unknown state {min(unknown)!r} for node {name}")
            array[:, i] = [index[label] for label in labels]
        return cls(names, dict(states), array)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.nodes)
        labels = [self.states[n] for n in self.nodes]
        for row in self.data.tolist():
            writer.writerow([states[s] for states, s in zip(labels, row)])
        return out.getvalue()


def mle_fit(
    structure: BayesianNetwork, proxy: ProxyDataset, alpha: float = 0.0
) -> BayesianNetwork:
    """Refit every CPT from proxy counts with additive smoothing alpha.

    alpha = 0 is the unsmoothed maximum-likelihood estimate; parent
    combinations never observed then fall back to a uniform row.
    """
    if alpha < 0:
        raise ValueError("smoothing must be nonnegative")
    nodes = []
    for node in structure.nodes:
        k = node.cardinality
        names = node.parents + (node.name,)
        shape = tuple(structure.node(p).cardinality for p in node.parents) + (k,)
        flat = np.ravel_multi_index(tuple(proxy.column(v) for v in names), shape)
        tally = np.bincount(flat, minlength=math.prod(shape)).reshape(-1, k).tolist()
        cpt = {}
        for combo, row_counts in zip(itertools.product(*map(range, shape[:-1])), tally):
            total = sum(row_counts) + alpha * k
            if total == 0:
                cpt[combo] = tuple([1.0 / k] * k)
            else:
                cpt[combo] = tuple((cnt + alpha) / total for cnt in row_counts)
        nodes.append(NodeSpec(node.name, node.states, node.parents, cpt))
    return BayesianNetwork(tuple(nodes), structure.output_nodes, structure.encoding)


def _mutual_informations(proxy: ProxyDataset, alpha: float) -> list[float]:
    """The empirical mutual information of every node pair, in
    `itertools.combinations` order, from alpha-smoothed cell counts.

    All pairs' (ku, kv) tables are tallied in one `np.add.at` over one flat
    array: one 1.0 added per record, in record order, the same sums for any
    alpha.  The pairs of one table shape lie next to each other, so each
    shape's tables are normalized and summed as one (pairs, ku, kv) block,
    with the per-table sums of a lone (ku, kv) table.  A pair's terms are
    then added in Python floats, cell by cell."""
    cards = [len(proxy.states[v]) for v in proxy.nodes]
    pairs = list(itertools.combinations(range(len(cards)), 2))
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (a, b) in enumerate(pairs):
        groups.setdefault((cards[a], cards[b]), []).append(i)
    order = [i for group in groups.values() for i in group]
    a = np.array([pairs[i][0] for i in order], dtype=np.int64)
    b = np.array([pairs[i][1] for i in order], dtype=np.int64)
    kv = np.array(cards, dtype=np.int64)[b]
    sizes = np.array(cards, dtype=np.int64)[a] * kv
    cells = (proxy.data[:, a] * kv + proxy.data[:, b] + (np.cumsum(sizes) - sizes)).T.ravel()
    tally = np.full(int(sizes.sum()), alpha, dtype=float)
    np.add.at(tally, cells, 1.0)
    out = [0.0] * len(pairs)
    lo = 0
    for (ku, kv), group in groups.items():
        joint = tally[lo : lo + len(group) * ku * kv].reshape(len(group), ku, kv)
        lo += len(group) * ku * kv
        joint /= joint.reshape(len(group), -1).sum(axis=1)[:, None, None]
        for i, table, pu, pv in zip(
            group, joint.tolist(), joint.sum(axis=2).tolist(), joint.sum(axis=1).tolist()
        ):
            mi = 0.0
            for p_u, row in zip(pu, table):
                for p_v, p in zip(pv, row):
                    if p > 0.0 and p_u > 0.0 and p_v > 0.0:
                        mi += p * math.log(p / (p_u * p_v))
            out[i] = mi
    return out


def chow_liu_fit(
    proxy: ProxyDataset,
    alpha: float = 0.0,
    output_nodes: Sequence[str] | None = None,
    encoding: str = ONE_HOT,
) -> BayesianNetwork:
    """Learn a tree-shaped network: maximum-weight spanning tree on pairwise
    mutual information (alpha-smoothed cell counts), rooted at the first
    node, with CPTs refit by mle_fit.  Ties break on lexicographic edge name.
    """
    if proxy.m < 2:
        raise ValueError("structure learning needs at least two records")
    names = proxy.nodes
    edges = [
        (-mi, *sorted(pair))
        for mi, pair in zip(_mutual_informations(proxy, alpha), itertools.combinations(names, 2))
    ]
    edges.sort()

    parent_of = {name: name for name in names}

    def find(x: str) -> str:
        while parent_of[x] != x:
            parent_of[x] = parent_of[parent_of[x]]
            x = parent_of[x]
        return x

    chosen: dict[str, set[str]] = {name: set() for name in names}
    picked = 0
    for _, u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent_of[ru] = rv
            chosen[u].add(v)
            chosen[v].add(u)
            picked += 1
            if picked == len(names) - 1:
                break

    root = names[0]
    order = [root]
    parents: dict[str, tuple[str, ...]] = {root: ()}
    frontier = [root]
    seen = {root}
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(chosen[u]):
                if v not in seen:
                    parents[v] = (u,)
                    order.append(v)
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt

    skeleton_nodes = tuple(
        NodeSpec(name, proxy.states[name], parents[name], {}) for name in order
    )
    skeleton = BayesianNetwork(
        skeleton_nodes,
        tuple(output_nodes) if output_nodes is not None else names,
        encoding,
    )
    return mle_fit(skeleton, proxy, alpha)


def empirical_marginals(
    proxy: ProxyDataset, output_nodes: Sequence[str], encoding: str
) -> np.ndarray:
    """Per-attribute frequencies in the proxy, clamped away from 0 and 1 so
    ratio attacks stay defined: the clamp is [1/(2m), 1 - 1/(2m)].  Each
    output node's states are counted with one `np.bincount`; raw-binary
    keeps the count of state 1."""
    tallies = []
    for name in output_nodes:
        k = len(proxy.states[name])
        if encoding == RAW_BINARY and k != 2:
            raise ValueError(f"raw-binary encoding requires binary nodes: {name}")
        counts = np.bincount(proxy.column(name), minlength=k)
        tallies.append(counts[1:] if encoding == RAW_BINARY else counts)
    freq = np.concatenate(tallies) / proxy.m if tallies else np.zeros(0)
    lo = 1.0 / (2 * proxy.m)
    return np.clip(freq, lo, 1.0 - lo)
