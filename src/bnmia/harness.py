"""Experiment orchestration: trials, threat models, AUC by rank, timing, and
the numerical equivalence suites.

A trial samples one private dataset, releases its counts, draws in/out
targets, and scores every configured attack.  Per-trial randomness comes from
streams keyed by (master seed, trial index, purpose), so adding attacks or
reordering work never perturbs the sampled data.  An experiment gives each
worker a share of its trials.  A share is drawn in chunks of at most
`_BATCH_RECORDS` drawn records, one ancestral pass and one encoding per
chunk, and each chunk is reduced at once to its trials' distinct target
rows.  Those rows are scored in groups of trials whose padded row stack fits
in `_GROUP_BYTES`: one scoring call per attack for the whole group, against
one attacker per trial or one shared by all (under the weak and weakest
threats the attackers are fitted to proxies drawn in one pass per
`_BATCH_RECORDS` proxy records), and one rank pass.  The outputs are those
of trials run one by one.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import attacks as atk
from .inference import (
    ImpossibleEvidenceError,
    PosteriorEngine,
    brute_force_posterior,
    closed_form_product_ratio,
    posterior_engine,
    sum_log_table,
)
from .learning import (
    ProxyDataset, chow_liu_structures, cpt_tables, empirical_marginals, tally_cells
)
from .model import (
    BayesianNetwork,
    ReleasedCounts,
    SupportDistribution,
    attribute_marginals,
    dataset_counts,
    draw_records,
    encode,
    output_laws,
    output_marginal_law,
    project,
    sample,
)
from .populations import (
    BUNDLED_BENCHMARKS,
    LEFT,
    RIGHT,
    is_toy,
    load_benchmark,
    make_half_repeated,
    make_lr_repeated,
    make_lr_side,
    make_product,
    midpoint,
    resolve_network,
)

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
    """The scores of a worker's share of trials, or of one scoring group, by
    each trial's distinct targets.

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
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, trial, _STREAM_TAGS[purpose]])
    )


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
    model: its network (or law) and its marginals.  Under the strong threat
    the trials' population networks, one for all when they share one;
    otherwise one law and one marginal row per trial, fitted to the trial's
    proxy sample.  The proxies are drawn in one `draw_records` pass per at
    most `_BATCH_RECORDS` proxy records (at least one trial), each trial's m
    uniforms from its own proxy stream.  A chunk's trials are grouped by
    structure (node order and parents: the population's under the weak
    threat, each proxy's Chow-Liu tree under the weakest), and only each
    group's cell counts are kept; each structure's CPTs are then fitted, and
    its laws eliminated, once for the whole group.  A law shares the
    previous trial's outcome vectors when they are equal."""
    if config.threat == STRONG:
        if all(bn is nets[0] for bn in nets):
            return nets[0], attribute_marginals(nets[0])
        return nets, np.array([attribute_marginals(bn) for bn in nets])
    m, bn = config.m, nets[0]
    names, states = bn.node_names, {node.name: node.states for node in bn.nodes}
    chunk = max(1, _BATCH_RECORDS // m)
    groups, mus = {}, []
    for lo in range(0, len(trials), chunk):
        hi = min(lo + chunk, len(trials))
        u = np.stack([
            _stream(config.seed, i, "proxy").random((m, len(names))) for i in trials[lo:hi]
        ])
        proxies = ProxyDataset(names, states, _draw(nets[lo:hi], u))
        mus.append(empirical_marginals(proxies, bn.output_nodes, bn.encoding))
        structures = [bn] * (hi - lo) if config.threat == WEAK else chow_liu_structures(
            proxies, PROXY_SMOOTHING, bn.output_nodes, bn.encoding
        )
        rows: dict[tuple, list[int]] = {}
        for r, structure in enumerate(structures):
            rows.setdefault(tuple((v.name, v.parents) for v in structure.nodes), []).append(r)
        for key, picked in rows.items():
            structure, index, tallies = groups.setdefault(key, (structures[picked[0]], [], []))
            index += [lo + r for r in picked]
            group = ProxyDataset(names, states, proxies.data[picked])
            tallies.append(tally_cells(structure, group))
    laws = [None] * len(trials)
    for structure, index, tallies in groups.values():
        tables = cpt_tables([np.concatenate(t) for t in zip(*tallies)], PROXY_SMOOTHING)
        for t, law in zip(index, output_laws(structure, tables)):
            laws[t] = law
    for t in range(1, len(laws)):
        if np.array_equal(laws[t - 1].vectors, laws[t].vectors):
            laws[t] = SupportDistribution(laws[t - 1].vectors, laws[t].probs)
    return laws, np.concatenate(mus)


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
    out-multiplicities (`_weighted_rows`).  Scoring is elementwise, so every
    target's score is that of its row.  A trial whose release is impossible
    evidence under its attacker's network has that attack flagged and
    scored -inf.  One `weighted_auc_rows` pass then counts every attack's
    AUCs for the group."""
    attacker, mu = _attackers(config, trials, nets)
    scores = np.empty((len(config.attacks),) + rows.shape[:2])
    impossible = np.zeros(scores.shape[:2], dtype=bool)
    for a, name in enumerate(config.attacks):
        try:
            scores[a] = atk.score(name, attacker, mu, releases, rows)
        except ImpossibleEvidenceError as err:
            scores[a] = err.scores
            impossible[a, list(err.releases)] = True
    return BatchScores(scores, ins, outs, impossible, weighted_auc_rows(scores, ins, outs))


def _weighted_rows(
    config: ExperimentConfig, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each trial's distinct rows of its (trials, targets, d) encoded
    targets, the in-targets first (`_distinct_targets`), and the (trials,
    slots) counts of its in- and of its out-targets equal to each row."""
    rows, slot = _distinct_targets(targets)
    size = rows.shape[1]
    slot += np.arange(len(targets))[:, None] * size
    k_in = config.targets_in
    ins, outs = (
        np.bincount(part.ravel(), minlength=len(targets) * size).reshape(-1, size)
        for part in (slot[:, :k_in], slot[:, k_in:])
    )
    return rows, ins, outs


def _distinct_targets(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's distinct rows of a (trials, targets, d) bit array: a
    (trials, distinct, d) array, a trial's rows in its first slots and its
    other slots padded with its first target; and the (trials, targets) slot
    of each target's row.  Rows are compared as words of up to 63 bits,
    sorted within each trial, so the rows may be of any width."""
    trials, k, d = targets.shape
    words = np.stack([
        targets[:, :, lo : lo + 63] @ (1 << np.arange(min(63, d - lo)))
        for lo in range(0, max(d, 1), 63)
    ], axis=2)
    if words.shape[2] == 1:
        order = np.argsort(words[:, :, 0], axis=1)
    else:  # lexsort's last key is the primary one
        order = np.lexsort(words.transpose(2, 0, 1)[::-1], axis=1)
    each = np.arange(trials)[:, None]
    ranked = words[each, order]
    new = np.ones((trials, k), dtype=bool)
    np.any(ranked[:, 1:] != ranked[:, :-1], axis=2, out=new[:, 1:])
    ranked_slot = np.cumsum(new, axis=1) - 1
    slot = np.empty_like(ranked_slot)
    slot[each, order] = ranked_slot
    first = np.zeros((trials, int(ranked_slot[:, -1].max()) + 1), dtype=np.int64)
    first[np.nonzero(new)[0], ranked_slot[new]] = order[new]
    return targets[each, first], slot


def _draw(nets: Sequence[BayesianNetwork], u: np.ndarray) -> np.ndarray:
    """The (trials, records, nodes) states of one `draw_records` pass over a
    (trials, records, nodes) uniform array, trial t's records from nets[t]."""
    slot_of = {net: j for j, net in enumerate(dict.fromkeys(nets))}
    slot = np.repeat([slot_of[net] for net in nets], u.shape[1])
    return draw_records(list(slot_of), slot, u.reshape(-1, u.shape[2])).reshape(u.shape)


def _draw_chunk(
    config: ExperimentConfig, trials: Sequence[int], nets: Sequence[BayesianNetwork]
) -> tuple[list[ReleasedCounts], np.ndarray, np.ndarray, np.ndarray]:
    """Draw a chunk of trials in one pass from their trials' networks, with
    one `project` + `encode`, and reduce it to what scoring needs: each
    trial's release, the column sums of its n records, and its distinct
    target rows with their multiplicities (`_weighted_rows`), its targets
    being its picked records followed by its fresh ones."""
    n, k_out = config.n, config.targets_out
    bn = nets[0]
    nodes = len(bn.nodes)
    u = np.empty((len(trials), n + k_out, nodes))
    picks = np.empty((len(trials), config.targets_in), dtype=np.int64)
    for t, i in enumerate(trials):
        u[t, :n] = _stream(config.seed, i, "dataset").random((n, nodes))
        picks[t] = _stream(config.seed, i, "targets_in").integers(0, n, size=config.targets_in)
        u[t, n:] = _stream(config.seed, i, "targets_out").random((k_out, nodes))
    states = _draw(nets, u).reshape(-1, nodes)
    bits = encode(bn, project(bn, states)).reshape(len(trials), n + k_out, bn.d)
    releases = [ReleasedCounts(tuple(c), n) for c in bits[:, :n].sum(axis=1).tolist()]
    fresh = np.broadcast_to(np.arange(n, n + k_out), (len(trials), k_out))
    targets = bits[np.arange(len(trials))[:, None], np.concatenate([picks, fresh], axis=1)]
    return releases, *_weighted_rows(config, targets)


def _slots(a: np.ndarray, width: int, axis: int = 1, weights: bool = False) -> np.ndarray:
    """a with `width` slots along axis, its own cut or padded: a padding slot
    repeats slot 0, at weight 0 in a (trials, slots) array of weights.  Only
    padding slots are ever cut."""
    index = np.arange(width)
    pad = index >= a.shape[axis]
    index[pad] = 0
    out = np.take(a, index, axis=axis)
    if weights:
        out[:, pad] = 0
    return out


def _groups(config: ExperimentConfig, trials: Sequence[int], shared: BayesianNetwork | None):
    """The scoring groups of a share of trials, each yielded as soon as it
    closes, as `_score_group`'s arguments after config: its trials, their
    networks and releases, and its (trials, slots, d) distinct target rows
    with their in- and out-multiplicities, each trial padded to the group's
    widest.

    Trials are drawn in chunks of at most `_BATCH_RECORDS` records (n +
    targets_out a trial, at least one trial), and each chunk is reduced to
    its distinct rows at once (`_draw_chunk`).  A toy population's networks
    are resolved chunk by chunk, each from its trial's population stream,
    so only the chunk's and the open group's are held.  A group collects
    trials across chunks, and closes only when one more trial would take its
    padded row stack, at 8 bytes an entry as scoring holds it, past
    `_GROUP_BYTES`; it always holds at least one trial."""
    chunk = max(1, _BATCH_RECORDS // (config.n + config.targets_out))
    pieces = []  # the open group's slices of drawn chunks
    size = width = 0  # the open group's trials and slots

    def closed():
        ids, nets, releases = ([x for piece in pieces for x in piece[p]] for p in range(3))
        rows = np.concatenate([_slots(piece[3], width) for piece in pieces])
        ins, outs = (
            np.concatenate([_slots(piece[p], width, weights=True) for piece in pieces])
            for p in (4, 5)
        )
        return ids, nets, releases, rows, ins, outs

    for lo in range(0, len(trials), chunk):
        ids = trials[lo : lo + chunk]
        nets = [
            shared if shared is not None
            else resolve_population(config, _stream(config.seed, i, "population"))
            for i in ids
        ]
        drawn = (ids, nets, *_draw_chunk(config, ids, nets))
        slot_bytes = 8 * nets[0].d
        cut = 0
        for t, used in enumerate(np.count_nonzero(drawn[4] + drawn[5], axis=1).tolist()):
            if size and (size + 1) * max(width, used) * slot_bytes > _GROUP_BYTES:
                pieces.append([part[cut:t] for part in drawn])
                yield closed()
                pieces, size, width, cut = [], 0, 0, t
            size, width = size + 1, max(width, used)
        pieces.append([part[cut:] for part in drawn])
    yield closed()


def _joined(groups: Sequence[BatchScores]) -> BatchScores:
    """The scores of consecutive groups of trials as one BatchScores, every
    group padded to the widest group's slots."""
    if len(groups) == 1:
        return groups[0]
    width = max(g.ins.shape[1] for g in groups)
    return BatchScores(
        np.concatenate([_slots(g.scores, width, axis=2) for g in groups], axis=1),
        np.concatenate([_slots(g.ins, width, weights=True) for g in groups]),
        np.concatenate([_slots(g.outs, width, weights=True) for g in groups]),
        np.concatenate([g.impossible for g in groups], axis=1),
        np.concatenate([g.aucs for g in groups], axis=1),
    )


def run_batch(
    config: ExperimentConfig, trials: Sequence[int], shared: BayesianNetwork | None
) -> BatchScores:
    """Run the given trials, a worker's share, and return their scores and
    AUCs, trial by trial in order.

    Each trial's streams make the draws it would make alone: its dataset
    stream the uniforms of its n records, its targets_in stream the records
    picked as in-targets, its targets_out stream the uniforms of its fresh
    out-targets.  `shared` is the network every trial uses; when it is None
    (toy populations) each trial resolves its own from its population stream.
    The trials are drawn in chunks of bounded records and scored in groups
    of bounded distinct rows (`_groups`).  Each group is scored and ranked
    together (`_score_group`), under every threat and population: one call
    per attack, against one attacker for all the group's trials (the strong
    threat on a shared network) or one per trial (fitted to the trial's
    proxy, or a toy population's own network), once per distinct target row
    of each trial.  Every score is that of the trial scored alone, bit for
    bit, so a trial's scores still do not depend on the chunk or group it
    ran in.
    """
    return _joined([_score_group(config, *group) for group in _groups(config, trials, shared)])


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
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["population", "d", "n", "threat", "m", "attack", "trial", "auc"])
        for r in self.rows:
            w.writerow(
                [r.population, r.d, r.n, r.threat, "" if r.m is None else r.m,
                 r.attack, r.trial, f"{r.auc:.6f}"]
            )
        return out.getvalue()

    def summary_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(
            ["population", "d", "n", "threat", "m", "attack", "mean_auc", "std_auc", "trials"]
        )
        for r in self.summary:
            w.writerow(
                [r.population, r.d, r.n, r.threat, "" if r.m is None else r.m,
                 r.attack, f"{r.mean_auc:.6f}", f"{r.std_auc:.6f}", r.trials]
            )
        return out.getvalue()


# Records (n + targets_out per trial) that one draw chunk of trials may hold;
# a chunk always holds at least one trial.  Chunks bound the drawn records
# alive at once: each chunk is reduced to its distinct target rows before the
# next one is drawn.
_BATCH_RECORDS = 1024
# Byte budget of one scoring group's padded (trials, distinct rows, d) target
# stack, at 8 bytes an entry: a group closes when one more trial would take
# it past this, and always holds at least one trial.  40 trials of 40
# distinct targets fit at d up to 40.
_GROUP_BYTES = 512 * 1024


def _batches(config: ExperimentConfig) -> list[range]:
    """Each worker's share of the trials: consecutive ranges of
    ceil(trials / workers) trials, so `workers` of them when there are that
    many trials."""
    size = -(-config.trials // config.workers)
    return [range(s, min(s + size, config.trials)) for s in range(0, config.trials, size)]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials, one `run_batch` per worker's share, and aggregate
    per-attack AUC mean and population std.  A non-toy population is
    resolved once for the whole experiment.  With workers > 1 a process pool
    runs the shares; the outputs do not depend on the shares, the draw
    chunks, the scoring groups or the workers."""
    shared = _shared_population(config)
    d = (shared or resolve_population(config, _stream(config.seed, 0, "population"))).d
    ranges = _batches(config)
    args = ([config] * len(ranges), ranges, [shared] * len(ranges))
    per_attack: dict[str, list[float]] = {name: [] for name in config.attacks}
    flags = dict.fromkeys(config.attacks, 0)

    def count(batches) -> None:
        flagged = config.targets_in + config.targets_out
        for batch in batches:
            aucs = batch.aucs.tolist()
            for name, row, impossible in zip(config.attacks, aucs, batch.impossible.sum(axis=1)):
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


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchRow:
    population: str
    num_nodes: int
    param_dim: int        # encoded dimension of all nodes
    num_output_nodes: int
    output_dim: int       # encoded dimension of the released attributes (d)
    mean_seconds: float
    calls: int


def bench_posterior(
    populations: Sequence[str],
    n: int = 4,
    datasets: int = 20,
    targets: int = 40,
    seed: int = 0,
) -> list[BenchRow]:
    """Mean wall-clock seconds per posterior computation.

    Each call pays the full convolution for its released counts (no reuse
    across targets); the population's output law is computed once up front,
    like a compiled model.
    """
    if datasets < 1 or targets < 1:
        raise ValueError("datasets and targets must be at least 1")
    rows = []
    for name in populations:
        config = ExperimentConfig(population=name, n=n, seed=seed)
        bn = resolve_population(config, _stream(seed, 0, "population"))
        law = output_marginal_law(bn)
        full_dim = sum(
            node.cardinality if bn.encoding == "one-hot" else 1 for node in bn.nodes
        )
        elapsed = 0.0
        calls = 0
        for i in range(datasets):
            data = project(bn, sample(bn, n, _stream(seed, i, "dataset")))
            counts = dataset_counts(bn, data)
            out_rng = _stream(seed, i, "targets_out")
            half = targets // 2
            picks = out_rng.integers(0, n, size=targets - half)
            ys = encode(bn, np.concatenate([data[picks], project(bn, sample(bn, half, out_rng))]))
            for y in ys:
                start = time.perf_counter()
                engine = PosteriorEngine(law, [counts])
                engine.result(y)
                elapsed += time.perf_counter() - start
                calls += 1
        rows.append(
            BenchRow(
                name, len(bn.nodes), full_dim, len(bn.output_nodes), bn.d,
                elapsed / calls, calls,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Numerical equivalence suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    cases: int
    seconds: float
    note: str = ""
    advisory: bool = False


def _product_net_deviation(p: np.ndarray, n: int, rng: np.random.Generator):
    """Max relative gap between the exact posterior odds and the marginal
    closed form, over every count vector and every target; plus spot checks
    through the public one-call surface."""
    d = len(p)
    bn = make_product(tuple(p))
    law = output_marginal_law(bn)
    shape = (n + 1,) * d
    grid_counts = np.indices(shape).reshape(d, -1).T
    t_prev = sum_log_table(law, n - 1, (n,) * d).log_prob(grid_counts).reshape(shape)
    t_n = sum_log_table(law, n, (n,) * d).log_prob(grid_counts).reshape(shape)
    assert np.all(np.isfinite(t_n)), "every count vector is feasible for interior p"

    grid = np.arange(n + 1) / n
    worst = 0.0
    cases = 0
    for y in itertools.product((0, 1), repeat=d):
        shift_src = tuple(slice(0, n + 1 - b) for b in y)
        shift_dst = tuple(slice(b, n + 1) for b in y)
        log_num = np.full(shape, float("-inf"))
        log_num[shift_dst] = t_prev[shift_src]
        ratio = np.exp(log_num - t_n)
        lam = np.ones(shape)
        for j, b in enumerate(y):
            fac = grid / p[j] if b else (1.0 - grid) / (1.0 - p[j])
            lam = lam * fac.reshape((1,) * j + (n + 1,) + (1,) * (d - j - 1))
        pos = lam > 0.0
        dev = np.abs(ratio[pos] - lam[pos]) / lam[pos]
        worst = max(worst, float(dev.max()) if dev.size else 0.0)
        if not np.all(ratio[~pos] == 0.0):
            worst = math.inf
        cases += lam.size

    for _ in range(10):
        c = tuple(int(x) for x in rng.integers(0, n + 1, size=d))
        y = tuple(int(x) for x in rng.integers(0, 2, size=d))
        counts = ReleasedCounts(c, n)
        lam = closed_form_product_ratio(p, counts, y)
        r = math.exp(posterior_engine(bn, [counts]).result(y))
        if lam == 0.0:
            if r != 0.0:
                worst = math.inf
        else:
            worst = max(worst, abs(r - lam) / lam)
    return worst, cases


def verify_product_equivalence(
    populations: int = 200, seed: int = 20250810
) -> SuiteResult:
    """Posterior odds == marginal ratio statistic on product populations."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for _ in range(populations):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(1, 6))
        p = rng.uniform(0.2, 0.8, size=d)
        dev, count = _product_net_deviation(p, n, rng)
        worst = max(worst, dev)
        cases += count
    return SuiteResult(
        "product_marginal_ratio_equivalence",
        worst, 1e-9, worst <= 1e-9, cases, time.perf_counter() - start,
    )


def _tied_vectors(d: int, side: str, top: int):
    """Every vector over 0..top whose repeated block copies its source: on the
    right side coordinates m+1..d copy coordinate m, on the left side
    coordinates 1..m-1 copy coordinate m (1-based, m = midpoint(d))."""
    m = midpoint(d)
    if side == RIGHT:
        for free in itertools.product(range(top + 1), repeat=m):
            yield free + (free[m - 1],) * (d - m)
    else:
        for free in itertools.product(range(top + 1), repeat=d - m + 1):
            yield (free[0],) * (m - 1) + free


def _clipped_gap(
    bn: BayesianNetwork, counts: ReleasedCounts, ys: np.ndarray, clip: atk.ClipRange
) -> float:
    """Largest |R / lambda - 1| over the targets ys of one release, where R is
    the exact posterior odds under bn and lambda the clipped ratio statistic,
    each scored for the batch of one release in one call; inf when exactly
    one of them is zero for some target.  Raises ImpossibleEvidenceError
    when the release is impossible under bn."""
    r_log = atk.score(atk.BAYES, bn, None, [counts], ys[None])[0]
    lam_log = atk.lrt_clipped_score(attribute_marginals(bn), [counts], ys[None], clip)[0]
    r_zero = r_log == -math.inf
    if np.any(r_zero != (lam_log == -math.inf)):
        return math.inf
    gaps = (r_log[~r_zero] - lam_log[~r_zero]).tolist()
    return max((abs(math.expm1(g)) for g in gaps), default=0.0)


def verify_half_repeated_equivalence(seed: int = 20250810) -> SuiteResult:
    """Posterior odds == the ratio statistic clipped to the independent block,
    on half-repeated populations."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for d in range(2, 8):
        bn = make_half_repeated(d, tuple(rng.uniform(0.2, 0.8, size=midpoint(d))))
        clip = atk.half_clip_range(d)
        ys = np.array(list(_tied_vectors(d, RIGHT, 1)))
        for n in range(1, 5):
            for c in _tied_vectors(d, RIGHT, n):
                worst = max(worst, _clipped_gap(bn, ReleasedCounts(c, n), ys, clip))
                cases += len(ys)
    return SuiteResult(
        "half_repeated_clipped_equivalence",
        worst, 1e-9, worst <= 1e-9, cases, time.perf_counter() - start,
    )


def verify_lr_pure_side_equivalence(seed: int = 20250810) -> SuiteResult:
    """Posterior odds == the side-clipped ratio statistic when the population
    itself is a single fixed side (no hidden coin).  This is the substance of
    the side-clipping equivalence."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for d in (4, 6):
        m = midpoint(d)
        for side in (RIGHT, LEFT):
            size = m if side == RIGHT else d - m + 2
            bn = make_lr_side(d, tuple(rng.uniform(0.2, 0.8, size=size)), side)
            clip = atk.side_clip_range(d, side)
            ys = np.array(list(_tied_vectors(d, side, 1)))
            for n in range(1, 5):
                for c in _tied_vectors(d, side, n):
                    worst = max(worst, _clipped_gap(bn, ReleasedCounts(c, n), ys, clip))
                    cases += len(ys)
    return SuiteResult(
        "lr_pure_side_equivalence",
        worst, 1e-9, worst <= 1e-9, cases, time.perf_counter() - start,
    )


def verify_lr_single_side_counts(seed: int = 20250810) -> SuiteResult:
    """Posterior odds vs the side-clipped statistic on the hidden-coin mixture
    population, restricted to counts consistent with exactly one side.

    This equality does NOT hold: datasets mixing records of both sides
    contribute to the evidence probability, so the exact posterior departs
    from the single-side closed form.  Kept as an advisory suite documenting
    the measured gap; see notes/decisions.md in the repository root.
    """
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for d in (4, 6):
        m = midpoint(d)
        p_right = tuple(rng.uniform(0.2, 0.8, size=m))
        p_left = tuple(rng.uniform(0.2, 0.8, size=d - m + 2))
        bn = make_lr_repeated(d, p_right, p_left)
        for n in (2, 3):
            for side in (RIGHT, LEFT):
                clip = atk.side_clip_range(d, side)
                ys = np.array(list(_tied_vectors(d, side, 1)))
                for c in _tied_vectors(d, side, n):
                    counts = ReleasedCounts(c, n)
                    if atk.choose_side(counts, d) != side:
                        continue  # ambiguous or the other side
                    try:
                        worst = max(worst, _clipped_gap(bn, counts, ys, clip))
                    except ImpossibleEvidenceError:
                        continue
                    cases += len(ys)
    return SuiteResult(
        "lr_single_side_counts_vs_mixture_posterior",
        worst, 1e-9, worst <= 1e-9, cases, time.perf_counter() - start,
        note="known model-semantics gap: mixed-side datasets contribute to the "
        "evidence, so no tolerance this tight can hold",
        advisory=True,
    )


def verify_binomial_identities(samples: int = 1000, seed: int = 20250810) -> SuiteResult:
    """The per-coordinate closed forms k/(n mu) and (n-k)/(n (1-mu)) against
    the explicit binomial pmf ratio."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(1, 13))
        mu = float(rng.uniform(0.05, 0.95))

        def pmf(nn: int, kk: int) -> float:
            return math.comb(nn, kk) * mu**kk * (1 - mu) ** (nn - kk)

        k = int(rng.integers(1, n + 1))  # set-bit branch needs k >= 1
        lhs = pmf(n - 1, k - 1) / pmf(n, k)
        rhs = k / (n * mu)
        worst = max(worst, abs(lhs - rhs) / rhs)
        k = int(rng.integers(0, n))  # unset-bit branch needs k <= n-1
        lhs = pmf(n - 1, k) / pmf(n, k)
        rhs = (n - k) / (n * (1 - mu))
        worst = max(worst, abs(lhs - rhs) / rhs)
    return SuiteResult(
        "binomial_ratio_identities",
        worst, 1e-12, worst <= 1e-12, 2 * samples, time.perf_counter() - start,
    )


def _theta_in(ratio: float) -> float:
    """The membership posterior under a fair-coin prior, R / (1 + R); 1.0
    for infinite odds."""
    return 1.0 if math.isinf(ratio) else ratio / (1.0 + ratio)


def verify_oracle_agreement(seed: int = 20250810) -> SuiteResult:
    """Convolution posterior vs brute-force enumeration over full network
    instances, exhaustively over all feasible counts and targets.

    Deviation is the larger of the absolute gap in the membership posterior
    (bounded in [0, 1]) and the relative gap in the odds ratio; a raw
    absolute gap on the ratio itself would drop below one float64 ulp as
    soon as the odds exceed ~4, so it cannot distinguish agreement from
    rounding.  Zero ratios must agree exactly.
    """
    from .populations import make_cancer

    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    cases = 0

    nets: list[BayesianNetwork] = []
    for _ in range(3):
        d = int(rng.integers(1, 4))
        nets.append(make_product(tuple(rng.uniform(0.2, 0.8, size=d))))
    nets.append(make_half_repeated(3, tuple(rng.uniform(0.2, 0.8, size=2))))
    nets.append(make_cancer().with_outputs(("Xray", "Dyspnoea"), "raw-binary"))
    nets.append(
        make_cancer().with_outputs(("Cancer", "Xray", "Dyspnoea"), "raw-binary")
    )

    for bn in nets:
        targets = list(itertools.product((0, 1), repeat=bn.d))
        for n in (1, 2, 3):
            if bn.joint_state_count**n > 200_000:
                continue
            for c in itertools.product(range(n + 1), repeat=bn.d):
                counts = ReleasedCounts(c, n)
                cases += len(targets)
                engine = posterior_engine(bn, [counts])
                try:
                    oracle = [brute_force_posterior(bn, counts, y) for y in targets]
                except ImpossibleEvidenceError:
                    oracle = None
                if bool(engine.impossible) != (oracle is None):
                    worst = math.inf
                if engine.impossible or oracle is None:
                    continue
                for y, bf in zip(targets, oracle):
                    dp = math.exp(engine.result(y))
                    if (dp == 0.0) != (bf == 0.0):
                        worst = math.inf
                        continue
                    dev = abs(_theta_in(dp) - _theta_in(bf))
                    if bf > 0.0:
                        dev = max(dev, abs(dp - bf) / bf)
                    worst = max(worst, dev)
    return SuiteResult(
        "oracle_agreement",
        worst, 1e-12, worst <= 1e-12, cases, time.perf_counter() - start,
    )


def verify_count_normalization(seed: int = 20250810) -> SuiteResult:
    """Count distributions sum to 1 over all count vectors, small instances."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    nets = [
        make_product(tuple(rng.uniform(0.2, 0.8, size=2))),
        make_product(tuple(rng.uniform(0.2, 0.8, size=3))),
        make_half_repeated(5, tuple(rng.uniform(0.2, 0.8, size=3))),
    ]
    for bn in nets:
        law = output_marginal_law(bn)
        for n in (1, 2, 3):
            total = math.fsum(
                math.exp(sum_log_table(law, n, c).log_prob([c])[0])
                for c in itertools.product(range(n + 1), repeat=bn.d)
            )
            worst = max(worst, abs(total - 1.0))
            cases += 1
    return SuiteResult(
        "count_distribution_normalization",
        worst, 1e-9, worst <= 1e-9, cases, time.perf_counter() - start,
    )


def law_ratio_deviation(
    bn: BayesianNetwork, n: int, releases: int, rng: np.random.Generator
) -> float:
    """Max |sum_y law(y) R(y) - 1| over releases of n sampled records.

    Summed against the law, the numerator of R gives its denominator, so the
    sum is 1 for any feasible release: a check without the oracle, at sizes
    the oracle cannot reach.
    """
    law = output_marginal_law(bn)
    worst = 0.0
    for _ in range(releases):
        engine = PosteriorEngine(law, [dataset_counts(bn, project(bn, sample(bn, n, rng)))])
        total = math.fsum(law.probs * np.exp(engine.log_ratios(law.vectors[None])[0]))
        worst = max(worst, abs(total - 1.0))
    return worst


def verify_law_ratio_normalization(seed: int = 20250810) -> SuiteResult:
    """sum_y law(y) R(y) = 1 on three releases of every bundled network, n = 4."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = max(
        law_ratio_deviation(load_benchmark(name), 4, 3, rng) for name in BUNDLED_BENCHMARKS
    )
    return SuiteResult(
        "law_weighted_ratio_normalization",
        worst, 1e-12, worst <= 1e-12, 3 * len(BUNDLED_BENCHMARKS), time.perf_counter() - start,
    )


def verify_equivalences(
    product_populations: int = 200,
    identity_samples: int = 1000,
    seed: int = 20250810,
) -> list[SuiteResult]:
    """Run every numerical suite; failures are report entries, not exceptions."""
    return [
        verify_product_equivalence(product_populations, seed),
        verify_half_repeated_equivalence(seed),
        verify_lr_pure_side_equivalence(seed),
        verify_lr_single_side_counts(seed),
        verify_binomial_identities(identity_samples, seed),
        verify_oracle_agreement(seed),
        verify_count_normalization(seed),
        verify_law_ratio_normalization(seed),
    ]
