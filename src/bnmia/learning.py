"""Attacker-side model fitting from a public proxy sample.

The weak attacker knows the graph and learns the tables from the proxy; the
weakest learns structure too.  Structure learning here is a maximum-weight
spanning tree over pairwise empirical mutual information, which is
deterministic and adequate at this scale at the cost of tree-shaped output.
The proxy is one (rows, nodes) array of state indices with a count per row
(one per record by default), and every fit counts from its columns, each row
as often as its count says.  The fits take a stack of R proxies, counting the
cells of all of them in one weighted `np.bincount` per table, with each
proxy's integers as it would get alone from its records one by one; one proxy
is the stack of one.
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
    stored as a (rows, nodes) int array of state indices, column i for
    nodes[i], and the number of records each row stands for (`counts`, one
    per row by default); or R proxies of m records each as an (R, rows,
    nodes) stack with (R, rows) counts.  `from_csv` and `to_csv` convert one
    proxy to and from CSV text."""

    nodes: tuple[str, ...]
    states: dict[str, tuple[str, ...]]
    data: np.ndarray
    counts: np.ndarray | None = None

    @property
    def m(self) -> int:
        """The records of each proxy: its rows' total count."""
        return int(self.weights[0].sum())

    def __post_init__(self):
        _check_schema(self.nodes, self.states)
        data = np.asarray(self.data, dtype=np.int64)
        if data.ndim not in (2, 3) or data.shape[-1] != len(self.nodes):
            raise ValueError("proxy data must have one column per node")
        outside = (data < 0) | (data >= [len(self.states[v]) for v in self.nodes])
        if outside.any():
            node = self.nodes[int(np.argmax(outside.reshape(-1, len(self.nodes)).any(axis=0)))]
            raise ValueError(f"proxy state index outside the states of node {node!r}")
        counts = np.ones(data.shape[:-1], dtype=np.int64) if self.counts is None else (
            np.asarray(self.counts, dtype=np.int64)
        )
        if counts.shape != data.shape[:-1] or (counts < 0).any():
            raise ValueError("proxy counts must be one nonnegative count per row")
        totals = counts.sum(axis=-1)
        if data.shape[-2] < 1 or (totals < 1).any():
            raise ValueError("proxy dataset must contain at least one record")
        if (totals != totals.flat[0]).any():
            raise ValueError("the proxies of a stack must hold the same number of records")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "counts", counts)

    @property
    def stack(self) -> np.ndarray:
        """The rows as an (R, rows, nodes) array; R = 1 for one proxy."""
        return self.data.reshape(-1, *self.data.shape[-2:])

    @property
    def weights(self) -> np.ndarray:
        """The rows' counts as an (R, rows) array; R = 1 for one proxy."""
        return self.counts.reshape(-1, self.counts.shape[-1])

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
        _check_schema(names, states)
        array = np.zeros((len(data), len(names)), dtype=np.int64)
        for i, (name, labels) in enumerate(zip(names, zip(*data))):
            index = {label: k for k, label in enumerate(states[name])}
            unknown = set(labels) - index.keys()
            if unknown:
                raise ValueError(f"unknown state {min(unknown)!r} for node {name}")
            array[:, i] = [index[label] for label in labels]
        return cls(names, dict(states), array)

    def to_csv(self) -> str:
        if self.data.ndim != 2:
            raise ValueError("only one proxy converts to CSV, not a stack")
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.nodes)
        labels = [self.states[n] for n in self.nodes]
        for row in np.repeat(self.data, self.counts, axis=0).tolist():
            writer.writerow([states[s] for states, s in zip(labels, row)])
        return out.getvalue()


def _check_schema(nodes: Sequence[str], states: dict[str, tuple[str, ...]]) -> None:
    """Refuse a node named twice or one that `states` does not describe."""
    for i, node in enumerate(nodes):
        if node in nodes[:i]:
            raise ValueError(f"proxy node {node!r} is named more than once")
        if node not in states:
            raise ValueError(f"proxy node {node!r} has no states in the schema")


def tally_cells(structures: Sequence[BayesianNetwork], proxy: ProxyDataset) -> list[np.ndarray]:
    """The cell counts of R structures over the proxy's nodes, structure r
    in proxy r of a stack: one (R, rows, k) int array per node, in
    structures[0] order.  Row j of proxy r is the j-th combination of the
    node's parents in structures[r], in C order, padded to the largest
    structure's count; padding rows count nothing.  Each node's cells take
    one `np.bincount` weighted by the rows' counts, and the row index
    arithmetic is done once per distinct parent family."""
    stack, weights = proxy.stack, proxy.weights.ravel().astype(float)
    column = {v: stack[:, :, i] for i, v in enumerate(proxy.nodes)}
    card = {v: len(states) for v, states in proxy.states.items()}
    networks: dict[BayesianNetwork, int] = {}
    network = np.array([networks.setdefault(bn, len(networks)) for bn in structures])
    proxies, tables = np.arange(len(stack)), []
    for node in structures[0].nodes:
        families: dict[tuple[str, ...], int] = {}
        family = [families.setdefault(bn.node(node.name).parents, len(families)) for bn in networks]
        index = np.empty((len(families), *stack.shape[:2]), dtype=np.int64)
        for at, parents in zip(index, families):
            row = 0
            for p in parents:
                row = row * card[p] + column[p]
            at[...] = row
        cells = index[np.array(family)[network], proxies] if len(index) > 1 else index[0]
        rows = max(math.prod(card[p] for p in parents) for parents in families)
        shape = (len(stack), rows, card[node.name])
        cells = np.ravel_multi_index((proxies[:, None], cells, column[node.name]), shape)
        counts = np.bincount(cells.ravel(), weights, math.prod(shape))
        tables.append(counts.astype(np.int64).reshape(shape))
    return tables


def cpt_tables(tallies: Sequence[np.ndarray], alpha: float) -> list[np.ndarray]:
    """CPT stacks from cell counts with additive smoothing alpha: each row is
    (count + alpha) / (row total + alpha * k), the IEEE operations of the row
    fitted on its own.  alpha = 0 is the unsmoothed maximum-likelihood
    estimate; a row never observed then falls back to uniform."""
    if alpha < 0:
        raise ValueError("smoothing must be nonnegative")
    tables = []
    for counts in tallies:
        k = counts.shape[-1]
        total = counts.sum(axis=-1, keepdims=True) + alpha * k
        table = np.full(counts.shape, 1.0 / k)
        tables.append(np.divide(counts + alpha, total, out=table, where=total != 0))
    return tables


def _mutual_informations(proxy: ProxyDataset, alpha: float) -> list[list[float]]:
    """The empirical mutual information of every node pair, in
    `itertools.combinations` order, in each proxy of a stack, from
    alpha-smoothed cell counts.

    All proxies' and pairs' (ku, kv) cell counts come from one weighted
    `np.bincount` over one flat array.  A cell counted c times holds
    cumsum([alpha, 1, 1, ...])[c]: alpha plus one 1.0 per record, added in
    turn, the sum a record-by-record tally makes (alpha + c can differ in
    the last bit).  The tables of one shape lie next to each other and are
    normalized and summed as one (R, pairs, ku, kv) block, with the
    per-table sums of a lone table.  A pair's terms p log(p / (pu pv)) take
    `math.log` and are added cell by cell, in row-major order, by one
    sequential `np.cumsum`."""
    cards = [len(proxy.states[v]) for v in proxy.nodes]
    data = proxy.stack
    pairs = list(itertools.combinations(range(len(cards)), 2))
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (a, b) in enumerate(pairs):
        groups.setdefault((cards[a], cards[b]), []).append(i)
    order = [i for group in groups.values() for i in group]
    a = np.array([pairs[i][0] for i in order], dtype=np.int64)
    b = np.array([pairs[i][1] for i in order], dtype=np.int64)
    kv = np.array(cards, dtype=np.int64)[b]
    sizes = np.array(cards, dtype=np.int64)[a] * kv
    proxies, width = len(data), int(sizes.sum())
    # Built in place: a 40-proxy fit group's (proxies, rows, pairs) cells
    # are the largest arrays of a fit.
    cells = data[:, :, a]
    cells *= kv
    cells += data[:, :, b]
    cells += np.cumsum(sizes) - sizes
    cells += width * np.arange(proxies)[:, None, None]
    weights = np.repeat(proxy.weights.ravel().astype(float), len(pairs))
    counts = np.bincount(cells.ravel(), weights, proxies * width).astype(np.int64)
    del cells, weights
    tally = np.cumsum(np.r_[alpha, np.ones(proxy.m)])[counts].reshape(proxies, width)
    out = np.empty((proxies, len(pairs)))
    lo = 0
    for (ku, kv), group in groups.items():
        joint = tally[:, lo : lo + len(group) * ku * kv].reshape(proxies, len(group), ku, kv)
        lo += len(group) * ku * kv
        joint /= joint.reshape(proxies, len(group), -1).sum(axis=2)[:, :, None, None]
        pu = np.broadcast_to(joint.sum(axis=3)[..., :, None], joint.shape)
        pv = np.broadcast_to(joint.sum(axis=2)[..., None, :], joint.shape)
        live = (joint > 0.0) & (pu > 0.0) & (pv > 0.0)
        p = joint[live]
        logs = np.fromiter(map(math.log, (p / (pu[live] * pv[live])).tolist()), float, len(p))
        terms = np.zeros(joint.shape)
        terms[live] = p * logs
        out[:, group] = np.cumsum(terms.reshape(proxies, len(group), -1), axis=2)[:, :, -1]
    return out.tolist()


def chow_liu_structures(
    proxy: ProxyDataset, alpha: float = 0.0, output_nodes: Sequence[str] | None = None,
    encoding: str = ONE_HOT,
) -> list[BayesianNetwork]:
    """The tree learned from each proxy of a stack, as a network with empty
    CPTs: maximum-weight spanning tree on pairwise mutual information
    (alpha-smoothed cell counts), rooted at the first node.  Edges are tried
    by decreasing mutual information, ties broken on lexicographic edge
    name: one `np.lexsort` for the whole stack.  Proxies that learn the same
    tree share one network."""
    if proxy.m < 2:
        raise ValueError("structure learning needs at least two records")
    outputs = tuple(output_nodes) if output_nodes is not None else proxy.nodes
    edges = [tuple(sorted(pair)) for pair in itertools.combinations(proxy.nodes, 2)]
    rank = np.empty(len(edges), dtype=np.int64)
    rank[sorted(range(len(edges)), key=edges.__getitem__)] = np.arange(len(edges))
    mis = np.array(_mutual_informations(proxy, alpha)).reshape(len(proxy.stack), len(edges))
    trees, learned = [], {}
    for order in np.lexsort((np.broadcast_to(rank, mis.shape), -mis), axis=1).tolist():
        parents = _tree(proxy.nodes, [edges[i] for i in order])
        key = tuple(parents.items())
        if key not in learned:
            nodes = tuple(NodeSpec(v, proxy.states[v], parents[v], {}) for v in parents)
            learned[key] = BayesianNetwork(nodes, outputs, encoding)
        trees.append(learned[key])
    return trees


def _tree(names: Sequence[str], edges: Sequence[tuple[str, str]]) -> dict[str, tuple[str, ...]]:
    """Each node's parents in the spanning tree that takes each (u, v) edge
    in turn unless it closes a cycle (Kruskal's rule), rooted at names[0],
    in breadth-first order."""
    parent_of = {name: name for name in names}

    def find(x: str) -> str:
        while parent_of[x] != x:
            parent_of[x] = parent_of[parent_of[x]]
            x = parent_of[x]
        return x

    chosen: dict[str, set[str]] = {name: set() for name in names}
    picked = 0
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent_of[ru] = rv
            chosen[u].add(v)
            chosen[v].add(u)
            picked += 1
            if picked == len(names) - 1:
                break

    parents: dict[str, tuple[str, ...]] = {names[0]: ()}
    frontier = [names[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(chosen[u]):
                if v not in parents:
                    parents[v] = (u,)
                    nxt.append(v)
        frontier = nxt
    return parents


def empirical_marginals(
    proxy: ProxyDataset, output_nodes: Sequence[str], encoding: str
) -> np.ndarray:
    """Per-attribute frequencies in the proxy, clamped away from 0 and 1 so
    ratio attacks stay defined: the clamp is [1/(2m), 1 - 1/(2m)].  The
    output nodes' states in every proxy of a stack are counted with one
    weighted `np.bincount`, in one-hot layout; raw-binary keeps the count of state 1.
    A stack of R proxies gives an (R, d) array."""
    cards = np.array([len(proxy.states[name]) for name in output_nodes], dtype=np.int64)
    if encoding == RAW_BINARY and (cards != 2).any():
        wide = output_nodes[int(np.argmax(cards != 2))]
        raise ValueError(f"raw-binary encoding requires binary nodes: {wide}")
    stack = proxy.stack
    width = int(cards.sum())
    cells = stack[:, :, [proxy.nodes.index(v) for v in output_nodes]] + np.cumsum(cards) - cards
    cells += width * np.arange(len(stack))[:, None, None]
    weights = np.repeat(proxy.weights.ravel().astype(float), len(output_nodes))
    counts = np.bincount(cells.ravel(), weights, len(stack) * width)
    counts = counts.astype(np.int64).reshape(len(stack), width)
    freq = (counts[:, 1::2] if encoding == RAW_BINARY else counts) / proxy.m
    lo = 1.0 / (2 * proxy.m)
    return np.clip(freq, lo, 1.0 - lo).reshape(*proxy.data.shape[:-2], freq.shape[1])
