"""Experiment orchestration: trials, threat models and AUC by rank.  The
equivalence suites and the posterior timing live in `suites`.

A trial samples one private dataset, releases its counts, draws in/out
targets, and scores every configured attack.  Per-trial randomness comes from
streams keyed by (master seed, trial index, purpose), so adding attacks or
reordering work never perturbs the sampled data.  An experiment gives each
worker a share of its trials.  A share is drawn in chunks of trials whose
uniforms fit in `_GROUP_BYTES`, one ancestral pass per chunk, and each chunk
is reduced at once to its trials' distinct target rows with their in- and
out-counts (`_distinct_rows`), which alone are encoded.  Those rows are
scored in groups of trials whose padded row stack fits in the same budget
(`_packed`): one scoring call per attack for the whole group, against one
attacker per trial or one shared by all, and one rank pass.  Each group comes
back as its own `BatchScores`, counted as it arrives.  Under the weak
and weakest threats the attackers are fitted to proxies drawn the same way,
each chunk reduced to distinct full records with counts and the chunks
packed into fit groups; every attacker's network is fitted on one path
(`tally_cells`, `cpt_tables`, `output_laws`).  The outputs are those of
trials run one by one.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
from collections import Counter
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from . import attacks as atk
from .inference import _same_outcomes
from .learning import (
    ProxyDataset, chow_liu_structures, cpt_tables, empirical_marginals, tally_cells
)
from .model import (
    STATE_GUARD,
    BayesianNetwork,
    ReleasedCounts,
    SupportDistribution,
    attribute_marginals,
    draw_records,
    encode,
    output_laws,
    output_marginal_law,
    project,
)
from .populations import is_toy, resolve_network

STRONG = "strong"
WEAK = "weak"
WEAKEST = "weakest"
THREATS = (STRONG, WEAK, WEAKEST)

DEFAULT_ATTACKS = ("lrt", "inner_product", "bayes")

# Additive smoothing of the attacker's CPTs fitted from proxy data.
PROXY_SMOOTHING = 1.0

_STREAM_TAGS = {"population": 0, "dataset": 1, "targets_in": 2, "targets_out": 3, "proxy": 4}

@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: population, release size, threat model, attacks, seeds."""

    population: str
    n: int
    output_nodes: tuple[str, ...] | None = None
    encoding: str | None = None
    trials: int = 40
    targets_in: int = 20
    targets_out: int = 20
    threat: str = STRONG
    m: int | None = None
    attacks: tuple[str, ...] = DEFAULT_ATTACKS
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1 or self.targets_in < 1 or self.targets_out < 1 or self.n < 1:
            raise ValueError("trials, targets, and n must all be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        repeated = [name for name, k in Counter(self.attacks).items() if k > 1]
        if repeated:
            raise ValueError(f"attack {repeated[0]!r} is named more than once")
        if self.threat not in THREATS:
            raise ValueError(f"threat must be one of {THREATS}")
        if self.threat == STRONG and self.m is not None:
            raise ValueError("m applies only to the weak and weakest threats")
        if self.threat in (WEAK, WEAKEST) and (self.m is None or self.m < 1):
            raise ValueError("weak and weakest threat models need a proxy size m >= 1")
        if self.threat == WEAKEST and self.m < 2:
            raise ValueError(
                "the weakest threat model learns structure: it needs a proxy size m >= 2"
            )
        for name in self.attacks:
            atk.parse_attack(name)


@dataclass
class BatchScores:
    """The scores of one scoring group, by each trial's distinct targets.

    `scores[a, t, s]` is attack `config.attacks[a]`'s score of the target row
    in slot s of trial t; `ins[t, s]` and `outs[t, s]` count the in- and
    out-targets of trial t equal to that row (both 0 on a padding slot,
    which repeats a scored row); `impossible[a, t]` flags a trial whose
    release is impossible evidence for attack a; and `aucs[a, t]` is
    `weighted_auc_rows` of scores[a, t] under those weights, counted when
    the group was scored."""

    scores: np.ndarray
    ins: np.ndarray
    outs: np.ndarray
    impossible: np.ndarray
    aucs: np.ndarray


def _stream(seed: int, trial: int, purpose: str) -> np.random.Generator:
    """The generator `np.random.default_rng` makes from the entropy list
    [seed mod 2^64, trial, purpose tag], seeded from the list's uint32
    words as SeedSequence reads them (each int's 32-bit words, low first;
    [0] for 0): given the words, SeedSequence skips a slow conversion."""
    if trial < 0:
        raise ValueError("trial indices are nonnegative")
    words = []
    for n in (seed & 0xFFFFFFFFFFFFFFFF, trial, _STREAM_TAGS[purpose]):
        words.append(n & 0xFFFFFFFF)
        while n >> 32:
            n >>= 32
            words.append(n & 0xFFFFFFFF)
    entropy = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(entropy))


def resolve_population(config: ExperimentConfig, rng: np.random.Generator) -> BayesianNetwork:
    """The trial's population network: `resolve_network` on the config's
    population name and output overrides, toy parameters drawn from rng."""
    return resolve_network(config.population, rng, config.output_nodes, config.encoding)


def _shared_population(config: ExperimentConfig) -> BayesianNetwork | None:
    """The network every trial of config uses, resolved once; None for a toy
    population, whose trials each draw their own parameters."""
    return None if is_toy(config.population) else resolve_population(config, None)


def _attackers(
    config: ExperimentConfig, trials: Sequence[int], nets: Sequence[BayesianNetwork]
):
    """The attacker of each trial of a group under the configured threat
    model: its output law and its marginals.  Under the strong threat the law
    of each distinct population network, built once: one for all trials when
    they share a network, else one per trial, each toy trial resolving its
    own.  Under the weak and weakest threats one law and one marginal row per
    trial, fitted to the trial's proxy sample.  The proxies are drawn in one
    `draw_records` pass per draw chunk (`_chunk_size` of m records a trial),
    each trial's m uniforms from its own proxy stream, and each chunk is
    reduced at once to its trials' distinct full records with their counts
    (`_distinct_rows`).  The reduced chunks are packed into fit groups
    (`_packed`), and each fit group is fitted once from its weighted rows: its
    marginals, and, only when `bayes` is among the attacks (no other attack
    reads them), its trials' structures (the population's under the weak
    threat, each proxy's Chow-Liu tree under the weakest) and laws.  The laws
    are fitted in slices whose (trials, output states) tables hold at most
    `STATE_GUARD` entries, the guard on one law's factors, each slice on the
    one path: `tally_cells`, `cpt_tables` and `output_laws`.  Under every
    threat, consecutive laws with equal outcomes share one array (`_sharing`)."""
    if config.threat == STRONG:
        laws = _sharing(map(output_marginal_law, dict.fromkeys(nets)))
        if len(laws) == 1:
            return laws[0], attribute_marginals(laws[0])
        return laws, np.array([attribute_marginals(law) for law in laws])
    m, bn = config.m, nets[0]
    names, states = bn.node_names, {node.name: node.states for node in bn.nodes}
    radix = [node.cardinality for node in bn.nodes]
    chunk = _chunk_size(m, bn)

    def reduced():
        for lo in range(0, len(trials), chunk):
            hi = min(lo + chunk, len(trials))
            u = np.empty((hi - lo, m, len(names)))
            for t, i in enumerate(trials[lo:hi]):
                _stream(config.seed, i, "proxy").random(out=u[t])
            ones = np.ones(u.shape[:2], dtype=np.int64)
            rows, counts = _distinct_rows(_draw(nets[lo:hi], u), radix, [ones])
            del u  # drawn with the next chunk's, it would double the chunk's peak
            yield rows, *counts

    step = max(1, STATE_GUARD // math.prod(bn.node(v).cardinality for v in bn.output_nodes))
    laws, mus = [], []
    for rows, counts in _packed(reduced()):
        proxies = ProxyDataset(names, states, rows, counts)
        mus.append(empirical_marginals(proxies, bn.output_nodes, bn.encoding))
        if atk.BAYES not in config.attacks:
            continue
        structures = [bn] * len(rows) if config.threat == WEAK else chow_liu_structures(
            proxies, PROXY_SMOOTHING, bn.output_nodes, bn.encoding
        )
        for lo in range(0, len(rows), step):
            part = slice(lo, lo + step)
            proxy = ProxyDataset(names, states, rows[part], counts[part])
            tables = cpt_tables(tally_cells(structures[part], proxy), PROXY_SMOOTHING)
            laws += output_laws(structures[part], tables)
    return _sharing(laws), np.concatenate(mus)


def _sharing(laws: Iterable[SupportDistribution]) -> list[SupportDistribution]:
    """The laws in order, taken one at a time, each sharing the previous
    one's outcome vectors when they are equal."""
    out = []
    for law in laws:
        if out and _same_outcomes(out[-1], law):
            law = SupportDistribution(out[-1].vectors, law.probs)
        out.append(law)
    return out


def _score_group(
    config: ExperimentConfig,
    trials: Sequence[int],
    nets: Sequence[BayesianNetwork],
    releases: Sequence[ReleasedCounts],
    rows: np.ndarray,
    ins: np.ndarray,
    outs: np.ndarray,
) -> BatchScores:
    """Score every configured attack on a group of trials, trial t drawn
    from nets[t]: one `attacks.score` call per attack for all their
    releases, their attackers (`_attackers`) and the (trials, slots, d)
    distinct target rows with their (trials, slots) in- and
    out-multiplicities (`_draw_chunk`).  Scoring is elementwise, so every
    target's score is that of its row.  A trial whose release is impossible
    evidence under its attacker's law has that attack flagged and
    scored -inf.  One `weighted_auc_rows` pass then counts every attack's
    AUCs for the group."""
    attacker, mu = _attackers(config, trials, nets)
    scores = np.empty((len(config.attacks),) + rows.shape[:2])
    impossible = np.zeros(scores.shape[:2], dtype=bool)
    for a, name in enumerate(config.attacks):
        scores[a], flagged = atk.score(name, attacker, mu, releases, rows)
        impossible[a, list(flagged)] = True
    return BatchScores(scores, ins, outs, impossible, weighted_auc_rows(scores, ins, outs))


def _distinct_rows(
    states: np.ndarray, radix: Sequence[int], weights: Sequence[np.ndarray]
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Each trial's distinct rows of a (trials, records, columns) state array
    whose column j takes radix[j] values, with the summed weights of the
    records equal to each row: a (trials, width, columns) array, a trial's
    rows in its leading slots and its other slots padding that repeats its
    first row; and for each (trials, records) integer weight array the
    (trials, width) sums, 0 on padding.  A record that weighs 0 in every
    array counts as the trial's first record that does not, so its row
    takes no slot of its own; every trial needs such a record.

    A row is keyed in mixed radix, as one word or, when the radices'
    product passes 2^63, as several words of at most 63 bits, and each
    trial's keys are sorted on their own: one `argsort` for one word, a
    `lexsort` otherwise.  So the rows may be of any width, and no key packs
    the trial with the row."""
    trials, k, columns = states.shape
    words, lo = [], 0
    while lo < columns or not words:
        strides, size, hi = [], 1, lo
        while hi < columns and size * int(radix[hi]) <= 1 << 63:
            strides.append(size)
            size *= int(radix[hi])
            hi += 1
        words.append(states[:, :, lo:hi] @ np.array(strides, dtype=np.int64))
        lo = hi
    each = np.arange(trials)[:, None]
    total = sum(weights)
    source = None
    if not total.all():
        source = np.where(total > 0, np.arange(k), np.argmax(total > 0, axis=1)[:, None])
        words = [word[each, source] for word in words]
    new = np.ones((trials, k), dtype=bool)
    if len(words) == 1:
        order = np.argsort(words[0], axis=1)
        ranked = words[0][each, order]
        np.not_equal(ranked[:, 1:], ranked[:, :-1], out=new[:, 1:])
    else:  # lexsort's last key is the primary one
        order = np.lexsort(words[::-1], axis=1)
        ranked = np.stack(words, axis=2)[each, order]
        np.any(ranked[:, 1:] != ranked[:, :-1], axis=2, out=new[:, 1:])
    # Runs of equal keys in the (trials * records) ranked order, one per
    # distinct row; each trial's first record starts one.
    starts = np.flatnonzero(new)
    trial = starts // k
    size = np.bincount(trial, minlength=trials)
    width = int(size.max())
    slot = np.arange(len(starts)) - (np.cumsum(size) - size)[trial]
    first = np.zeros((trials, width), dtype=np.int64)
    first[trial, slot] = order.ravel()[starts]
    first = np.where(np.arange(width) < size[:, None], first, first[:, :1])
    if source is not None:
        first = source[each, first]
    sums = []
    for w in weights:
        sums.append(np.zeros((trials, width), dtype=np.int64))
        sums[-1][trial, slot] = np.add.reduceat(w[each, order].ravel(), starts)
    return states[each, first], tuple(sums)


def _draw(nets: Sequence[BayesianNetwork], u: np.ndarray) -> np.ndarray:
    """The (trials, records, nodes) states of one `draw_records` pass over a
    (trials, records, nodes) uniform array, trial t's records from nets[t]."""
    slot_of = {net: j for j, net in enumerate(dict.fromkeys(nets))}
    slot = np.repeat([slot_of[net] for net in nets], u.shape[1])
    return draw_records(list(slot_of), slot, u.reshape(-1, u.shape[2])).reshape(u.shape)


def _draw_chunk(
    config: ExperimentConfig, trials: Sequence[int], nets: Sequence[BayesianNetwork]
) -> tuple[list[ReleasedCounts], np.ndarray, np.ndarray, np.ndarray]:
    """Draw a chunk of trials in one pass from their trials' networks, and
    reduce it to what scoring needs: each trial's release, and its distinct
    target rows with their (trials, slots) in- and out-counts.  A trial's n
    dataset records count as in-targets as often as they are picked, its
    fresh records once each as out-targets; the records are reduced on their
    output states (`_distinct_rows`), and only the distinct rows and the
    dataset records are encoded, in one `encode` call."""
    n, k_out = config.n, config.targets_out
    bn = nets[0]
    nodes = len(bn.nodes)
    u = np.empty((len(trials), n + k_out, nodes))
    picks = np.empty((len(trials), config.targets_in), dtype=np.int64)
    for t, i in enumerate(trials):
        _stream(config.seed, i, "dataset").random(out=u[t, :n])
        picks[t] = _stream(config.seed, i, "targets_in").integers(0, n, size=config.targets_in)
        _stream(config.seed, i, "targets_out").random(out=u[t, n:])
    states = _draw(nets, u)
    del u  # a chunk's uniforms, states and output states are alive two at a time
    outputs = project(bn, states.reshape(-1, nodes)).reshape(len(trials), n + k_out, -1)
    del states
    ins = np.zeros(outputs.shape[:2], dtype=np.int64)
    picks += n * np.arange(len(trials))[:, None]
    ins[:, :n] = np.bincount(picks.ravel(), minlength=len(trials) * n).reshape(-1, n)
    outs = np.zeros_like(ins)
    outs[:, n:] = 1
    radix = [bn.node(v).cardinality for v in bn.output_nodes]
    rows, (ins, outs) = _distinct_rows(outputs, radix, [ins, outs])
    data = outputs[:, :n].reshape(-1, outputs.shape[2])
    bits = encode(bn, np.concatenate([data, rows.reshape(-1, rows.shape[2])]))
    sums = bits[: len(data)].reshape(len(trials), n, -1).sum(axis=1)
    releases = [ReleasedCounts(tuple(c), n) for c in sums.tolist()]
    return releases, bits[len(data) :].reshape(*rows.shape[:2], -1), ins, outs


def _slots(a: np.ndarray, width: int, weights: bool = False) -> np.ndarray:
    """a with `width` slots along axis 1, its own cut or padded: a padding
    slot repeats slot 0, at weight 0 in a (trials, slots) array of weights.
    Only padding slots are ever cut."""
    index = np.arange(width)
    pad = index >= a.shape[1]
    index[pad] = 0
    out = np.take(a, index, axis=1)
    if weights:
        out[:, pad] = 0
    return out


def _packed(chunks: Iterable[tuple]):
    """The trials of drawn chunks collected into groups, each yielded as
    soon as it closes.  A chunk is a tuple of parts with the trials first:
    per-trial sequences, one (trials, slots, columns) row array and
    (trials, slots) weight arrays, a trial's used slots being its leading
    ones of nonzero weight; a group is the same tuple, its trials padded to
    its widest (`_slots`).  A group collects trials across chunks, and
    closes only when one more trial would take its padded rows, at their
    own bytes an entry, past `_GROUP_BYTES`; it always holds at least one
    trial."""
    pieces = []  # the open group's slices of chunks
    size = width = 0  # the open group's trials and slots

    def joined(parts):
        if isinstance(parts[0], np.ndarray):
            return np.concatenate([_slots(p, width, weights=p.ndim == 2) for p in parts])
        return [x for p in parts for x in p]

    for chunk in chunks:
        arrays = [p for p in chunk if isinstance(p, np.ndarray)]
        slot_bytes = next(a.itemsize * a.shape[2] for a in arrays if a.ndim == 3)
        lo = 0
        for t, used in enumerate(np.count_nonzero(sum(a for a in arrays if a.ndim == 2), axis=1)):
            if size and (size + 1) * max(width, used) * slot_bytes > _GROUP_BYTES:
                pieces.append([p[lo:t] for p in chunk])
                yield tuple(map(joined, zip(*pieces)))
                pieces, size, width, lo = [], 0, 0, t
            size, width = size + 1, max(width, int(used))
        pieces.append([p[lo:] for p in chunk])
    yield tuple(map(joined, zip(*pieces)))


def _groups(config: ExperimentConfig, trials: Sequence[int], shared: BayesianNetwork | None):
    """The scoring groups of a share of trials, each yielded as soon as it
    closes, as `_score_group`'s arguments after config: its trials, their
    networks and releases, and its (trials, slots, d) distinct target rows
    with their in- and out-counts, each trial padded to the group's widest.

    Trials are drawn in chunks (`_chunk_size` of n + targets_out records a
    trial), and each chunk is reduced to its distinct rows at once
    (`_draw_chunk`).  A toy population's networks are resolved trial by
    trial as their chunk fills, each from its trial's population stream, so
    only the chunk's and the open group's are held.  The chunks are packed
    into groups by `_GROUP_BYTES` (`_packed`)."""
    def network(i: int) -> BayesianNetwork:
        if shared is not None:
            return shared
        return resolve_population(config, _stream(config.seed, i, "population"))

    def drawn():
        lo = 0
        while lo < len(trials):
            nets = [network(trials[lo])]
            hi = min(len(trials), lo + _chunk_size(config.n + config.targets_out, nets[0]))
            nets += map(network, trials[lo + 1 : hi])
            yield (trials[lo:hi], nets, *_draw_chunk(config, trials[lo:hi], nets))
            lo = hi

    yield from _packed(drawn())


def run_batch(
    config: ExperimentConfig, trials: Sequence[int], shared: BayesianNetwork | None
) -> list[BatchScores]:
    """Run the given trials, a worker's share, and return each scoring
    group's `BatchScores` as `_score_group` made it, in trial order.

    Each trial's streams make the draws it would make alone: its dataset
    stream the uniforms of its n records, its targets_in stream the records
    picked as in-targets, its targets_out stream the uniforms of its fresh
    out-targets.  `shared` is the network every trial uses; when it is None
    (toy populations) each trial resolves its own from its population stream.
    The trials are drawn in chunks of bounded uniforms and scored in groups
    of bounded distinct rows (`_groups`).  Each group is scored and ranked
    together (`_score_group`), under every threat and population: one call
    per attack, against one attacker for all the group's trials (the strong
    threat on a shared network) or one per trial (fitted to the trial's
    proxy, or a toy population's own law), once per distinct target row
    of each trial.  Every score is that of the trial scored alone, bit for
    bit, so a trial's scores still do not depend on the chunk or group it
    ran in.
    """
    return [_score_group(config, *group) for group in _groups(config, trials, shared)]


def weighted_auc_rows(scores, ins, outs) -> np.ndarray:
    """The pairwise AUC of each row of a (..., width) score array whose
    entry j stands for ins[..., j] in-targets and outs[..., j] out-targets
    (integer weights, broadcast to the scores' shape), counted by rank (the
    Mann-Whitney form) in one pass over all rows: each row is sorted, and
    each tie group adds its in-weight times the out-weight of the row's
    groups below it, and times its own out-weight at half weight.  The
    counts are integers, the same as on the rows expanded by their weights,
    so every AUC is exact up to the one final division.
    """
    s = np.asarray(scores, dtype=float)
    if np.isnan(s).any():
        raise ValueError("scores must not be NaN")
    shape = s.shape
    width = shape[-1]
    s = s.reshape(-1, width)
    w_in, w_out = (
        np.broadcast_to(np.asarray(w, dtype=np.int64), shape).reshape(s.shape) for w in (ins, outs)
    )
    k_in, k_out = w_in.sum(axis=1), w_out.sum(axis=1)
    if not (k_in.all() and k_out.all()):
        raise ValueError("both score lists must be nonempty")
    order = np.argsort(s, axis=1)
    ranked = np.take_along_axis(s, order, axis=1)
    del s  # the pass holds few (rows, width) arrays at once
    new_group = np.ones(ranked.shape, dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=new_group[:, 1:])
    del ranked
    starts = np.flatnonzero(new_group)  # groups never span two rows
    w_in = np.take_along_axis(w_in, order, axis=1)
    w_out = np.take_along_axis(w_out, order, axis=1)
    del order
    ins_g = np.add.reduceat(w_in.ravel(), starts)
    outs_g = np.add.reduceat(w_out.ravel(), starts)
    outs_before = (np.cumsum(w_out, axis=1) - w_out).ravel()[starts]  # earlier groups of the row
    first_of_row = np.searchsorted(starts, np.arange(0, w_out.size, width))
    below = np.add.reduceat(ins_g * outs_before, first_of_row)
    ties = np.add.reduceat(ins_g * outs_g, first_of_row)
    return ((below + 0.5 * ties) / (k_in * k_out)).reshape(shape[:-1])


@dataclass(frozen=True)
class TrialRow:
    population: str
    d: int
    n: int
    threat: str
    m: int | None
    attack: str
    trial: int
    auc: float


@dataclass(frozen=True)
class SummaryRow:
    population: str
    d: int
    n: int
    threat: str
    m: int | None
    attack: str
    mean_auc: float
    std_auc: float
    trials: int


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[TrialRow]
    summary: list[SummaryRow]
    impossible_evidence: dict[str, int]

    def mean_auc(self, attack: str) -> float:
        for row in self.summary:
            if row.attack == attack:
                return row.mean_auc
        raise KeyError(attack)

    def rows_csv(self) -> str:
        return _table_csv(TrialRow, self.rows)

    def summary_csv(self) -> str:
        return _table_csv(SummaryRow, self.summary)


def _table_csv(row_type: type, rows: Iterable) -> str:
    """The rows of a row dataclass under its field names, one line each: a
    float to 6 decimals, and None (the strong threat's m) as an empty cell,
    as the csv module writes it."""
    names = [f.name for f in fields(row_type)]
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(names)
    for r in rows:
        values = (getattr(r, name) for name in names)
        w.writerow([f"{v:.6f}" if isinstance(v, float) else v for v in values])
    return out.getvalue()


# Byte budget of one draw chunk's (trials, records, nodes) float64 uniforms,
# of one scoring group's padded (trials, distinct rows, d) target stack and
# of one fit group's padded (trials, distinct rows, nodes) proxy stack, at 8
# bytes an entry: a chunk or group closes when one more trial would take it
# past this, and always holds at least one trial.  40 trials of 40 distinct
# targets fit at d up to 40.
_GROUP_BYTES = 512 * 1024


def _chunk_size(records: int, bn: BayesianNetwork) -> int:
    """The trials of a draw chunk of `records` records a trial from networks
    of bn's structure: as many as their uniforms fit in `_GROUP_BYTES`, and
    at least one.  Each chunk is reduced to its distinct rows before the
    next one is drawn."""
    return max(1, _GROUP_BYTES // (8 * records * len(bn.nodes)))


def _batches(config: ExperimentConfig) -> list[range]:
    """Each worker's share of the trials: consecutive ranges of
    ceil(trials / workers) trials, so `workers` of them when there are that
    many trials."""
    size = -(-config.trials // config.workers)
    return [range(s, min(s + size, config.trials)) for s in range(0, config.trials, size)]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials, one `run_batch` per worker's share, and aggregate each
    scoring group's AUCs and flags, as it arrives, into per-attack AUC mean
    and population std.  A non-toy population is resolved once for the whole
    experiment.  With workers > 1 a process pool runs the shares; the outputs
    do not depend on the shares, the draw chunks, the scoring groups or the
    workers."""
    shared = _shared_population(config)
    d = (shared or resolve_population(config, _stream(config.seed, 0, "population"))).d
    ranges = _batches(config)
    args = ([config] * len(ranges), ranges, [shared] * len(ranges))
    per_attack: dict[str, list[float]] = {name: [] for name in config.attacks}
    flags = dict.fromkeys(config.attacks, 0)

    def count(shares) -> None:
        flagged = config.targets_in + config.targets_out
        for group in itertools.chain.from_iterable(shares):
            aucs = group.aucs.tolist()
            for name, row, impossible in zip(config.attacks, aucs, group.impossible.sum(axis=1)):
                per_attack[name] += row
                flags[name] += flagged * int(impossible)

    if config.workers > 1:
        # Imported here: multiprocessing would otherwise add to every import of bnmia.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            count(pool.map(run_batch, *args, chunksize=1))
    else:
        count(map(run_batch, *args))
    rows = [
        TrialRow(
            config.population, d, config.n, config.threat, config.m, name, i, per_attack[name][i]
        )
        for i in range(config.trials)
        for name in config.attacks
    ]
    summary = [
        SummaryRow(
            config.population, d, config.n, config.threat, config.m, name,
            float(np.mean(vals)), float(np.std(vals)), config.trials,
        )
        for name, vals in per_attack.items()
    ]
    return ExperimentResult(config, rows, summary, flags)
