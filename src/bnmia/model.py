"""Discrete Bayesian networks with explicit conditional probability tables.

Provides the in-memory network model plus the operations everything else is
built on: validation, joint probability, the exact distribution of the encoded
output attributes (by variable elimination on the outputs' ancestors; only
`enumerate_full_records` walks the full joint), batched ancestral sampling, and
the raw-binary / one-hot encodings.  A batch of records is an (m, columns)
array of state indices: `sample` draws full records (one column per node, in
node order), `project` keeps the output columns, and `encode` turns projected
states into the (m, d) bit array.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

RAW_BINARY = "raw-binary"
ONE_HOT = "one-hot"
ENCODINGS = (RAW_BINARY, ONE_HOT)

# CPT rows must sum to 1 within this tolerance to be accepted.
ROW_SUM_TOL = 1e-12
# Default ceiling on the entries of any factor built for the output law.
DEFAULT_STATE_GUARD = 10_000_000

# A record maps node name -> state index; used by the full-joint enumerator.
Record = dict[str, int]
# Encoded records are 0/1 bit vectors of length d.
EncodedVector = tuple[int, ...]


class ModelSizeError(ValueError):
    """Raised when an exact computation would exceed its size guard."""


@dataclass(frozen=True)
class NodeSpec:
    """One discrete node: ordered states, ordered parents, and its CPT.

    The CPT maps each combination of parent state indices (in parent order)
    to a probability row over this node's states.
    """

    name: str
    states: tuple[str, ...]
    parents: tuple[str, ...] = ()
    cpt: dict[tuple[int, ...], tuple[float, ...]] = field(default_factory=dict)

    @property
    def cardinality(self) -> int:
        return len(self.states)

    def state_index(self, label: str) -> int:
        return self.states.index(label)


@dataclass(eq=False)
class BayesianNetwork:
    """A DAG of NodeSpecs (topologically ordered) plus the released attributes.

    `output_nodes` names the nodes whose values make up the released records;
    `encoding` controls how those values become bit vectors.  Instances are
    immutable by convention after construction and safe to share across
    workers; derived quantities are cached lazily.
    """

    nodes: tuple[NodeSpec, ...]
    output_nodes: tuple[str, ...] = ()
    encoding: str = ONE_HOT

    def __post_init__(self):
        self.nodes = tuple(self.nodes)
        self.output_nodes = tuple(self.output_nodes)
        self._by_name = {n.name: n for n in self.nodes}
        self._law = None
        self._sampler = None
        self._codec = None

    def node(self, name: str) -> NodeSpec:
        return self._by_name[name]

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    @property
    def joint_state_count(self) -> int:
        return math.prod(n.cardinality for n in self.nodes)

    @property
    def d(self) -> int:
        """Dimension of the encoded output vector."""
        if self.encoding == RAW_BINARY:
            return len(self.output_nodes)
        return sum(self._by_name[v].cardinality for v in self.output_nodes)

    def with_outputs(self, output_nodes: Sequence[str], encoding: str) -> "BayesianNetwork":
        return BayesianNetwork(self.nodes, tuple(output_nodes), encoding)


@dataclass(eq=False)
class SupportDistribution:
    """Exact distribution over encoded output vectors: the population's law.

    Outcomes are sorted by vector, carry strictly positive probabilities, and
    sum to 1 within 1e-9.
    """

    outcomes: tuple[tuple[EncodedVector, float], ...]
    d: int

    def __post_init__(self):
        self._index = {vec: p for vec, p in self.outcomes}
        self._vectors = None
        self._probs = None

    def prob(self, vec: EncodedVector) -> float:
        return self._index.get(tuple(vec), 0.0)

    def vectors(self) -> np.ndarray:
        if self._vectors is None:
            self._vectors = np.array([v for v, _ in self.outcomes], dtype=np.int64).reshape(
                len(self.outcomes), self.d
            )
        return self._vectors

    def probs(self) -> np.ndarray:
        if self._probs is None:
            self._probs = np.array([p for _, p in self.outcomes], dtype=float)
        return self._probs

    def __len__(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class Dataset:
    """A private dataset: an (n, outputs) array of projected states."""

    states: np.ndarray

    @property
    def n(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class ReleasedCounts:
    """The released statistic, kept as exact integer column sums c = n * mean."""

    counts: tuple[int, ...]
    n: int

    @property
    def means(self) -> tuple[float, ...]:
        return tuple(c / self.n for c in self.counts)


def validate(bn: BayesianNetwork) -> list[str]:
    """Check every structural invariant; returns one message per violation.

    An empty list means the network is well formed.  Violations are data, not
    exceptions, so broken networks can be inspected.
    """
    problems: list[str] = []
    if bn.encoding not in ENCODINGS:
        problems.append(f"unknown encoding {bn.encoding!r}")

    names = [n.name for n in bn.nodes]
    seen: set[str] = set()
    for name in names:
        if name in seen:
            problems.append(f"node {name}: duplicate declaration")
        seen.add(name)

    declared = set(names)
    position = {name: i for i, name in enumerate(names)}

    for node in bn.nodes:
        if node.cardinality < 2:
            problems.append(f"node {node.name}: fewer than 2 states")
        if len(set(node.states)) != node.cardinality:
            problems.append(f"node {node.name}: duplicate state labels")
        unknown = [p for p in node.parents if p not in declared]
        for p in unknown:
            problems.append(f"node {node.name}: unknown parent {p}")
        if unknown:
            continue
        for p in node.parents:
            if position[p] >= position[node.name]:
                problems.append(f"node {node.name}: listed before its parent {p}")
        expected = set(
            itertools.product(*(range(bn.node(p).cardinality) for p in node.parents))
        )
        got = set(node.cpt)
        for combo in sorted(expected - got):
            labels = tuple(bn.node(p).states[s] for p, s in zip(node.parents, combo))
            problems.append(f"node {node.name}: missing CPT row for {labels}")
        for combo in sorted(got - expected):
            problems.append(f"node {node.name}: unexpected CPT row key {combo}")
        for combo in sorted(expected & got):
            row = node.cpt[combo]
            if len(row) != node.cardinality:
                problems.append(
                    f"node {node.name}: row {combo} has length {len(row)}, expected {node.cardinality}"
                )
                continue
            if any(not (0.0 <= p <= 1.0) for p in row):
                problems.append(f"node {node.name}: row {combo} has entries outside [0, 1]")
            if abs(math.fsum(row) - 1.0) > ROW_SUM_TOL:
                problems.append(f"node {node.name}: row {combo} sum != 1")

    if _has_cycle(bn):
        problems.append("cycle: the parent graph is not acyclic")

    out_seen: set[str] = set()
    for v in bn.output_nodes:
        if v not in declared:
            problems.append(f"output node {v} is not declared")
        elif v in out_seen:
            problems.append(f"output node {v} listed twice")
        out_seen.add(v)
    if bn.encoding == RAW_BINARY:
        for v in bn.output_nodes:
            if v in declared and bn.node(v).cardinality != 2:
                problems.append(f"raw-binary encoding requires binary nodes: {v}")
    return problems


def _has_cycle(bn: BayesianNetwork) -> bool:
    declared = {n.name for n in bn.nodes}
    edges = {n.name: [p for p in n.parents if p in declared] for n in bn.nodes}
    state: dict[str, int] = {}  # 0 visiting, 1 done

    def visit(v: str) -> bool:
        if state.get(v) == 1:
            return False
        if state.get(v) == 0:
            return True
        state[v] = 0
        if any(visit(p) for p in edges[v]):
            return True
        state[v] = 1
        return False

    return any(visit(v) for v in edges)


def joint_prob(bn: BayesianNetwork, full: Record) -> float:
    """Chain-rule probability of a full assignment."""
    prob = 1.0
    for node in bn.nodes:
        if node.name not in full:
            raise ValueError(f"record does not assign node {node.name}")
        row = node.cpt[tuple(full[p] for p in node.parents)]
        prob *= row[full[node.name]]
    return prob


def output_marginal_law(
    bn: BayesianNetwork, guard: int = DEFAULT_STATE_GUARD
) -> SupportDistribution:
    """Exact law of the encoded output vector, by variable elimination.

    Only the outputs and their ancestors are kept: every other node is a
    barren descendant whose CPT sums to 1.  Each kept CPT becomes a factor.
    The hidden ancestors are summed out one at a time, next the one whose
    resulting factor is smallest (ties broken by topological position), and
    what is left is multiplied into one table over the outputs.  Its positive
    entries, encoded once each, are the outcomes.  Raises ModelSizeError when
    any factor, the output table included, would exceed `guard` entries.
    Cached on the network instance with its largest factor's size, which a
    later call's guard is checked against.
    """
    if bn._law is not None:
        law, largest = bn._law
        if largest > guard:
            raise ModelSizeError(
                f"network too large for variable elimination: its largest factor "
                f"has {largest} entries > guard {guard}"
            )
        return law
    outputs = tuple(dict.fromkeys(bn.output_nodes))
    kept = set(outputs)
    for node in reversed(bn.nodes):
        if node.name in kept:
            kept.update(node.parents)
    position = {name: i for i, name in enumerate(bn.node_names)}
    card = {name: bn.node(name).cardinality for name in kept}
    _check_size(outputs, card, guard)

    factors = [_cpt_factor(bn, node) for node in bn.nodes if node.name in kept]

    def resulting(h: str) -> int:
        scope = set().union(*(s for s, _ in factors if h in s)) - {h}
        return math.prod(card[u] for u in scope)

    hidden = kept.difference(outputs)
    largest = 0
    while hidden:
        v = min(hidden, key=lambda h: (resulting(h), position[h]))
        hidden.remove(v)
        scope, table = _product([f for f in factors if v in f[0]], card, guard)
        largest = max(largest, table.size)
        factors = [f for f in factors if v not in f[0]]
        factors.append((tuple(u for u in scope if u != v), table.sum(axis=scope.index(v))))
    scope, table = _product(factors, card, guard)
    largest = max(largest, table.size)
    table = np.transpose(table, [scope.index(v) for v in outputs])

    positive = table > 0.0
    probs = table[positive].tolist()
    vectors = map(tuple, encode(bn, np.argwhere(positive)).tolist())
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"output law does not normalize: total probability {total!r}")
    law = SupportDistribution(tuple(sorted(zip(vectors, probs))), d=bn.d)
    bn._law = (law, largest)
    return law


# A factor is a scope (node names, one table axis each, in order) and a table.
Factor = tuple[tuple[str, ...], np.ndarray]


def _check_size(scope: Sequence[str], card: dict[str, int], guard: int) -> None:
    size = math.prod(card[v] for v in scope)
    if size > guard:
        raise ModelSizeError(
            f"network too large for variable elimination: a factor over "
            f"{len(scope)} nodes would have {size} entries > guard {guard}"
        )


def _cpt_factor(bn: BayesianNetwork, node: NodeSpec) -> Factor:
    """The node's CPT as a table with axes (parents..., node)."""
    shape = tuple(bn.node(p).cardinality for p in node.parents) + (node.cardinality,)
    rows = [node.cpt[combo] for combo in itertools.product(*map(range, shape[:-1]))]
    return node.parents + (node.name,), np.array(rows, dtype=float).reshape(shape)


def _product(factors: Sequence[Factor], card: dict[str, int], guard: int) -> Factor:
    """Multiply factors left to right; the scope is checked against the guard
    first, and every partial product is a sub-table of the result."""
    scope = tuple(dict.fromkeys(v for f_scope, _ in factors for v in f_scope))
    _check_size(scope, card, guard)
    done: tuple[str, ...] = ()
    table = np.ones(())
    for f_scope, f_table in factors:
        union = done + tuple(v for v in f_scope if v not in done)
        # Labels are numbered per call: only this product's nodes count
        # toward einsum's 52-label limit.
        label = {v: i for i, v in enumerate(union)}
        table = np.einsum(
            table, [label[v] for v in done], f_table, [label[v] for v in f_scope],
            list(range(len(union))),
        )
        done = union
    return scope, table


def attribute_marginals(bn: BayesianNetwork, guard: int = DEFAULT_STATE_GUARD) -> np.ndarray:
    """Per-attribute probability of bit 1 under the output law."""
    law = output_marginal_law(bn, guard=guard)
    return law.probs() @ law.vectors()


def sample(bn: BayesianNetwork, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw m full records by ancestral sampling: an (m, nodes) state array.

    One uniform per (record, node), drawn as rng.random((m, nodes)), so row i
    uses the same doubles as the i-th of m one-record draws would.  Node by
    node, each record's CPT row is picked by its parents' states and its state
    is the number of cumulative row entries <= its uniform.  Each cumulative
    row is exactly 1 from its last positive entry on, so a uniform in [0, 1)
    lands on a state of positive probability even where the sum of the row
    rounds below 1.
    """
    if bn._sampler is None:
        bn._sampler = []
        for node in bn.nodes:
            _, table = _cpt_factor(bn, node)
            shape = table.shape[:-1]
            strides = [math.prod(shape[j + 1 :]) for j in range(len(shape))]
            rows = table.reshape(-1, node.cardinality)
            cum = np.cumsum(rows, axis=1)
            last = node.cardinality - 1 - np.argmax(rows[:, ::-1] > 0.0, axis=1)
            cum[np.arange(node.cardinality) >= last[:, None]] = 1.0
            bn._sampler.append((
                [bn.node_names.index(p) for p in node.parents],
                np.array(strides, dtype=np.int64),
                cum,
            ))
    u = rng.random((m, len(bn.nodes)))
    states = np.zeros((m, len(bn.nodes)), dtype=np.int64)
    for i, (parents, strides, cum) in enumerate(bn._sampler):
        rows = cum[states[:, parents] @ strides]
        states[:, i] = (rows <= u[:, i, None]).sum(axis=1)
    return states


def _output_codec(bn: BayesianNetwork) -> tuple[list[int], np.ndarray]:
    """The output nodes' columns in a full state array, and the offset of each
    output's first bit in the encoded vector; cached on the network."""
    if bn._codec is None:
        cards = [bn.node(v).cardinality for v in bn.output_nodes]
        wide = [v for v, k in zip(bn.output_nodes, cards) if k != 2]
        if bn.encoding == RAW_BINARY and wide:
            raise ValueError(f"raw-binary encoding requires binary nodes: {wide[0]}")
        steps = np.array([1] * len(cards) if bn.encoding == RAW_BINARY else cards, dtype=np.int64)
        bn._codec = ([bn.node_names.index(v) for v in bn.output_nodes], np.cumsum(steps) - steps)
    return bn._codec


def project(bn: BayesianNetwork, states: np.ndarray) -> np.ndarray:
    """The output columns of an (m, nodes) state array, in output order."""
    return states[:, _output_codec(bn)[0]]


def encode(bn: BayesianNetwork, states) -> np.ndarray:
    """Encode an (m, outputs) array of projected states as an (m, d) bit array
    per the network's encoding."""
    offsets = _output_codec(bn)[1]
    states = np.asarray(states, dtype=np.int64)
    if bn.encoding == RAW_BINARY:
        return states.copy()
    bits = np.zeros((len(states), bn.d), dtype=np.int64)
    np.put_along_axis(bits, states + offsets, 1, axis=1)
    return bits


def decode(bn: BayesianNetwork, bits) -> np.ndarray:
    """Invert encode: the (m, outputs) projected states of an (m, d) bit array."""
    offsets = _output_codec(bn)[1]
    bits = np.asarray(bits, dtype=np.int64)
    if bits.shape[1] != bn.d:
        raise ValueError("encoded vector has wrong length")
    if bn.encoding == RAW_BINARY:
        return bits.copy()
    for v, block in zip(bn.output_nodes, np.split(bits, offsets[1:], axis=1)):
        if np.any(block < 0) or np.any(block.sum(axis=1) != 1):
            raise ValueError(f"one-hot block for {v} does not sum to 1")
    return np.nonzero(bits)[1].reshape(len(bits), -1) - offsets


def dataset_counts(ds: Dataset, bn: BayesianNetwork) -> ReleasedCounts:
    """Exact integer column sums of the encoded dataset."""
    if ds.n < 1:
        raise ValueError("dataset must contain at least one record")
    return ReleasedCounts(tuple(encode(bn, ds.states).sum(axis=0).tolist()), ds.n)


def enumerate_full_records(bn: BayesianNetwork) -> Iterable[tuple[Record, float]]:
    """All full assignments with positive probability, with their joint probability."""
    nodes = bn.nodes
    rec: Record = {}

    def walk(i: int, p: float):
        if i == len(nodes):
            yield dict(rec), p
            return
        node = nodes[i]
        row = node.cpt[tuple(rec[q] for q in node.parents)]
        for s, ps in enumerate(row):
            if ps > 0.0:
                rec[node.name] = s
                yield from walk(i + 1, p * ps)
        rec.pop(node.name, None)

    yield from walk(0, 1.0)
