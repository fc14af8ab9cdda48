"""Discrete Bayesian networks with explicit conditional probability tables.

Provides the in-memory network model plus the operations everything else is
built on: validation, the exact distribution of the encoded output
attributes (by variable elimination on the outputs' ancestors; only
`enumerate_full_records` walks the full joint), ancestral sampling, and the
raw-binary / one-hot encodings.  A batch of records is an (m, columns) array
of state indices: `draw_records` maps one uniform per (record, node) to full
records (one column per node, in node order) in one pass, even for records of
several networks that share a structure, and `sample` is its one-network
case; `project` keeps the output columns, and `encode` turns projected states
into the (m, d) bit array.
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
# Ceiling on the entries of any factor built for the output law, and on the
# assignments the brute-force oracle enumerates.
STATE_GUARD = 10_000_000

# A record maps node name -> state index; used by the full-joint enumerator.
Record = dict[str, int]
# Encoded records are 0/1 bit vectors of length d.
EncodedVector = tuple[int, ...]


class ModelSizeError(ValueError):
    """Raised when an exact computation would exceed its size guard."""


class InvalidNetworkError(ValueError):
    """A network that `validate` rejects; the message joins its problems."""


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


@dataclass(eq=False)
class BayesianNetwork:
    """A DAG of NodeSpecs (topologically ordered) plus the released attributes.

    `output_nodes` names the nodes whose values make up the released records;
    `encoding` controls how those values become bit vectors.  Instances are
    immutable by convention after construction and safe to share across
    workers; the sampler and codec are cached lazily, but never the law.
    """

    nodes: tuple[NodeSpec, ...]
    output_nodes: tuple[str, ...] = ()
    encoding: str = ONE_HOT

    def __post_init__(self):
        self.nodes = tuple(self.nodes)
        self.output_nodes = tuple(self.output_nodes)
        self._by_name = {n.name: n for n in self.nodes}
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


@dataclass(frozen=True, eq=False)
class SupportDistribution:
    """Exact distribution over encoded output vectors: the population's law.

    `vectors` is an (outcomes, d) int64 array of distinct rows in
    lexicographic order; `probs` holds their probabilities, all positive and
    summing to 1 within 1e-9.
    """

    vectors: np.ndarray
    probs: np.ndarray

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class ReleasedCounts:
    """The released statistic, kept as exact integer column sums c = n * mean."""

    counts: tuple[int, ...]
    n: int

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) for v in (self.n, *self.counts)):
            raise ValueError("released counts and n must be integers")
        if self.n < 1:
            raise ValueError("a release needs at least one record")
        if any(c < 0 or c > self.n for c in self.counts):
            raise ValueError("released counts must lie in [0, n]")


def validate(bn: BayesianNetwork) -> list[str]:
    """Check every structural invariant; returns one message per violation.

    An empty list means the network is well formed.  Violations are data, not
    exceptions, so broken networks can be inspected.
    """
    problems: list[str] = []
    if not bn.nodes:
        problems.append("network has no nodes")
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

    if _toposort(bn.nodes)[1]:
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


def _toposort(nodes: Sequence[NodeSpec]) -> tuple[list[NodeSpec], list[NodeSpec]]:
    """The nodes in stable topological order (declaration order among ready
    nodes; a parent that is not declared counts as placed), and, in
    declaration order, those the walk cannot place: the nodes on a cycle or
    below one."""
    declared = {n.name for n in nodes}
    placed: set[str] = set()
    ordered: list[NodeSpec] = []
    pending = list(nodes)
    while pending:
        remaining = []
        for node in pending:
            if all(p in placed or p not in declared for p in node.parents):
                ordered.append(node)
                placed.add(node.name)
            else:
                remaining.append(node)
        if len(remaining) == len(pending):
            break
        pending = remaining
    return ordered, pending


def output_marginal_law(bn: BayesianNetwork) -> SupportDistribution:
    """Exact law of the encoded output vector: the one-network case of
    `output_laws`, on the network's own CPTs.  Built afresh on every call:
    a caller that needs the law twice keeps it."""
    return output_laws([bn], [_cpt_table(bn, node) for node in bn.nodes])[0]


def output_laws(
    structures: Sequence[BayesianNetwork], tables: Sequence[np.ndarray]
) -> list[SupportDistribution]:
    """The exact output laws of R networks over the same nodes and outputs,
    network r of structure structures[r]: tables[i] stacks the R CPTs of
    structures[0].nodes[i], reshaped to (R, rows, k), where row j of network
    r is the j-th combination of the node's parents in structures[r], in C
    order (`learning.tally_cells`).

    Only the outputs and their ancestors are kept: every other node is a
    barren descendant whose CPT sums to 1.  Networks of several structures
    that keep no hidden node take the grid product (`_grid_product`);
    otherwise each structure's networks are eliminated together
    (`_eliminate`, one einsum chain when nothing is hidden: for a single
    structure, faster than the grid's gathers).  Each law is that of its
    network alone, bit for bit, and the laws end in one `_laws`.  Raises
    ModelSizeError when one network's factor, the output table included,
    would exceed `STATE_GUARD` entries; the stack holds R of each.
    """
    bn, stack = structures[0], len(structures)
    outputs = tuple(dict.fromkeys(bn.output_nodes))
    card = {node.name: node.cardinality for node in bn.nodes}
    _check_size(outputs, card)
    tables = {v: t.reshape(stack, -1, card[v]) for v, t in zip(card, tables)}
    nets = {net: tuple((v.name, v.parents) for v in net.nodes) for net in dict.fromkeys(structures)}
    keys: dict[tuple, int] = {}
    group = np.array([keys.setdefault(nets[net], len(keys)) for net in structures])
    hidden = any(set(parents) - set(outputs) for key in keys for v, parents in key if v in outputs)
    if len(keys) > 1 and not hidden:
        return _laws(bn, _grid_product(list(keys), group, tables, outputs, card))
    table = np.empty((stack, *(card[v] for v in outputs)))
    for g, key in enumerate(keys):
        picked = group == g
        table[picked] = _eliminate(key, {v: t[picked] for v, t in tables.items()}, outputs, card)
    return _laws(bn, table)


def _grid_product(
    keys: list[tuple], group: np.ndarray, tables: dict[str, np.ndarray],
    outputs: tuple[str, ...], card: dict[str, int],
) -> np.ndarray:
    """The (R, *output cards) output tables of networks whose outputs have
    no hidden ancestor, network r of the structure whose (node, parents)
    sequence is keys[group[r]].  `_product` would multiply 1.0 by one
    factor a kept node in the structure's own order; so does this, over the
    grid of output states, one (R, outcomes) product a step.

    A (node, parents) family's entry at a grid point is its table's start
    plus sum_j grid[axes[j]] * strides[j] (the parents' C-order row times
    k, plus the node's state).  A step computes that for each family some
    network takes there, then gathers each network's entries from its own
    row of the tables.  The grid takes the smallest unsigned type that
    holds its states."""
    stack, shape = len(group), tuple(card[v] for v in outputs)
    grid = np.indices(shape, np.min_scalar_type(max(shape, default=1)))
    grid = grid.reshape(len(shape), math.prod(shape))
    axis = {v: j for j, v in enumerate(outputs)}
    families: dict[tuple, int] = {}
    steps = np.array(
        [[families.setdefault(f, len(families)) for f in key if f[0] in axis] for key in keys],
        dtype=np.intp,
    ).reshape(len(keys), len(outputs))
    width = 1 + max((len(parents) for _, parents in families), default=0)
    axes, strides = np.zeros((2, len(families), width), dtype=np.int64)
    start = dict(zip(tables, np.cumsum([0] + [t[0].size for t in tables.values()]).tolist()))
    first = np.array([start[v] for v, _ in families], dtype=np.int64)
    for f, (v, parents) in enumerate(families):
        stride = 1
        for j, u in reversed(list(enumerate(parents + (v,)))):
            axes[f, j], strides[f, j], stride = axis[u], stride, stride * card[u]
    entries = np.concatenate([t.reshape(stack, -1) for t in tables.values()], axis=1)
    networks = np.arange(stack)[:, None] * entries.shape[1]
    table = np.ones((stack, grid.shape[1]))
    for at in steps.T:
        used, which = np.unique(at, return_inverse=True)
        cells = first[used, None] + grid[axes[used, 0]] * strides[used, 0, None]
        for j in range(1, width):
            cells += grid[axes[used, j]] * strides[used, j, None]
        table *= entries.ravel()[cells[which[group]] + networks]
    return table.reshape(stack, *shape)


def _eliminate(
    key: tuple, tables: dict[str, np.ndarray], outputs: tuple[str, ...], card: dict[str, int]
) -> np.ndarray:
    """The (R, *output cards) output tables of R networks of one structure,
    its (node, parents) sequence `key`, by variable elimination with the
    networks as a leading axis.  The hidden ancestors are summed out one at
    a time, next the one whose resulting factor is smallest (ties broken by
    topological position), and the rest is multiplied into one table over
    the outputs.  The plan depends on the structure alone."""
    kept = set(outputs)
    for v, parents in reversed(key):
        if v in kept:
            kept.update(parents)
    position = {v: i for i, (v, _) in enumerate(key)}
    stack = len(tables[key[0][0]])
    factors = []
    for v, parents in key:
        if v in kept:
            cards = [card[u] for u in parents + (v,)]
            rows = tables[v][:, : math.prod(cards[:-1])]
            factors.append((parents + (v,), rows.reshape(stack, *cards)))

    def resulting(h: str) -> int:
        scope = set().union(*(s for s, _ in factors if h in s)) - {h}
        return math.prod(card[u] for u in scope)

    hidden = kept.difference(outputs)
    while hidden:
        v = min(hidden, key=lambda h: (resulting(h), position[h]))
        hidden.remove(v)
        scope, table = _product([f for f in factors if v in f[0]], card, stack)
        factors = [f for f in factors if v not in f[0]]
        factors.append((tuple(u for u in scope if u != v), table.sum(axis=scope.index(v) + 1)))
    scope, table = _product(factors, card, stack)
    return np.transpose(table, [0] + [scope.index(v) + 1 for v in outputs])


def _laws(structure: BayesianNetwork, table: np.ndarray) -> list[SupportDistribution]:
    """The laws of an (R, *output cards) stack of output tables, axes in
    output order: the outcomes positive in any network are encoded once and
    sorted by vector; each law keeps its positive ones, and laws positive
    everywhere share one vectors array.  Raises ValueError when a law does
    not normalize within 1e-9."""
    shape, table = table.shape[1:], table.reshape(len(table), -1)
    union = (table > 0.0).any(axis=0)
    vectors = encode(structure, np.argwhere(union.reshape(shape)))
    # lexsort's last key is the primary one; the rows are distinct, and with
    # no outputs (d = 0) there is one outcome and nothing to sort.
    order = np.lexsort(vectors.T[::-1]) if vectors.shape[1] else slice(None)
    vectors = vectors[order]
    table = np.ascontiguousarray(table[:, np.flatnonzero(union)[order]])
    laws = []
    # A float sum of the row is off by far less than 1e-12, so only a row
    # within 1e-12 of the threshold, or past it, needs the exact fsum.
    for probs, total in zip(table, table.sum(axis=1)):
        if abs(total - 1.0) > 1e-9 - 1e-12:
            total = math.fsum(probs)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"output law does not normalize: total probability {total!r}")
        keep = probs > 0.0
        if keep.all():
            laws.append(SupportDistribution(vectors, probs))
        else:
            laws.append(SupportDistribution(vectors[keep], probs[keep]))
    return laws


# A factor is a scope (node names, one table axis each, in order) and a table.
Factor = tuple[tuple[str, ...], np.ndarray]


def _check_size(scope: Sequence[str], card: dict[str, int]) -> None:
    size = math.prod(card[v] for v in scope)
    if size > STATE_GUARD:
        raise ModelSizeError(
            f"network too large for variable elimination: a factor over "
            f"{len(scope)} nodes would have {size} entries > guard {STATE_GUARD}"
        )


def _cpt_table(bn: BayesianNetwork, node: NodeSpec) -> np.ndarray:
    """The node's CPT as a table with axes (parents..., node)."""
    shape = tuple(bn.node(p).cardinality for p in node.parents) + (node.cardinality,)
    rows = [node.cpt[combo] for combo in itertools.product(*map(range, shape[:-1]))]
    return np.array(rows, dtype=float).reshape(shape)


def _product(factors: Sequence[Factor], card: dict[str, int], stack: int) -> Factor:
    """Multiply factors left to right, each with a leading axis of `stack`
    networks (einsum label 0); the scope is checked against the guard first,
    and every partial product is a sub-table of the result."""
    scope = tuple(dict.fromkeys(v for f_scope, _ in factors for v in f_scope))
    _check_size(scope, card)
    done: tuple[str, ...] = ()
    table = np.ones(stack)
    for f_scope, f_table in factors:
        union = done + tuple(v for v in f_scope if v not in done)
        # Labels are numbered per call: only this product's nodes count
        # toward einsum's 52-label limit.
        label = {v: i for i, v in enumerate(union, 1)}
        table = np.einsum(
            table, [0] + [label[v] for v in done], f_table, [0] + [label[v] for v in f_scope],
            list(range(len(union) + 1)),
        )
        done = union
    return scope, table


def attribute_marginals(law: SupportDistribution) -> np.ndarray:
    """Per-attribute probability of bit 1 under an output law."""
    return law.probs @ law.vectors


def sample(bn: BayesianNetwork, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw m full records by ancestral sampling: an (m, nodes) state array.

    One uniform per (record, node), drawn as rng.random((m, nodes)), so row i
    uses the same doubles as the i-th of m one-record draws would.  This is
    `draw_records` with one network.
    """
    u = rng.random((m, len(bn.nodes)))
    return draw_records([bn], np.zeros(m, dtype=np.int64), u)


def draw_records(
    bns: Sequence[BayesianNetwork], slot: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """One ancestral pass over records drawn from several networks of one
    structure (the same nodes, parents and state counts; CPT values may
    differ): record i is drawn from bns[slot[i]] with the uniforms u[i], one
    per node.  Returns the (records, nodes) state array.

    Node by node, the networks' cumulative CPT rows are stacked, each
    network's block at its slot, and each record's row is picked by its slot
    and its parents' states; its state is the number of cumulative row
    entries <= its uniform, counted one column of the rows at a time.  Each
    cumulative row is exactly 1 from its last positive entry on, so a
    uniform in [0, 1) lands on a state of positive probability even where
    the sum of the row rounds below 1 (and the last column, always 1, is
    never counted).  A record's
    states depend only on its own network and uniforms, never on the rest of
    the batch.  The states are held node by node in the narrowest unsigned
    type that fits every cardinality; row indices are int64.
    """
    samplers = [_sampler(bn) for bn in bns]
    if any(len(nodes) != u.shape[1] for nodes in samplers):
        raise ValueError("need one uniform per node of every network")
    widest = max((cum.shape[1] for nodes in samplers for _, _, cum in nodes), default=1)
    states = np.zeros(u.shape[::-1], dtype=np.min_scalar_type(widest))
    for i, layer in enumerate(zip(*samplers)):
        parents, strides, cum = layer[0]
        rows = strides @ states[parents]  # int64 strides: no narrow product wraps
        if len(layer) > 1:
            if any(p != parents or c.shape != cum.shape for p, _, c in layer):
                raise ValueError("networks drawn together must share their structure")
            rows += slot * len(cum)
            cum = np.concatenate([c for _, _, c in layer])
        column, uniforms = states[i], u[:, i]
        for entries in cum.T[:-1]:
            column += entries[rows] <= uniforms
    return np.ascontiguousarray(states.T, dtype=np.int64)


def _sampler(bn: BayesianNetwork) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
    """Per node: its parents' columns, the strides that turn their states
    into a CPT row index, and the cumulative CPT rows; cached on the network."""
    if bn._sampler is None:
        bn._sampler = []
        for node in bn.nodes:
            table = _cpt_table(bn, node)
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
    return bn._sampler


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


def dataset_counts(bn: BayesianNetwork, states: np.ndarray) -> ReleasedCounts:
    """The release of a private dataset, an (n, outputs) array of projected
    states: the exact integer column sums of its encoding, and n."""
    return ReleasedCounts(tuple(encode(bn, states).sum(axis=0).tolist()), len(states))


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
