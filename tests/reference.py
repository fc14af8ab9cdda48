"""Reference implementations that the array paths must match bit for bit:
the one-record ancestral sampler, the dict encoder, the one-proxy fits, the
one-trial draw and score with its own attacker, the pairwise AUC and the
per-outcome convolution step they replaced; the swept ROC curve, whose area
the rank-count AUC must equal; a batch result read trial by trial; two
dict-record helpers, the chain-rule joint probability and a proxy's records;
and the cancer network built by hand, independent of the format parsers."""
from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from bnmia.harness import weighted_auc_rows
from bnmia.learning import chow_liu_structures, cpt_tables, tally_cells
from bnmia.model import ONE_HOT, RAW_BINARY, BayesianNetwork, NodeSpec
from bnmia.model import dataset_counts, encode, project, sample


def make_cancer() -> BayesianNetwork:
    """The five-node cancer network, with all nodes released one-hot (d = 10)."""
    nodes = (
        NodeSpec("Pollution", ("low", "high"), (), {(): (0.9, 0.1)}),
        NodeSpec("Smoker", ("True", "False"), (), {(): (0.3, 0.7)}),
        NodeSpec(
            "Cancer",
            ("True", "False"),
            ("Pollution", "Smoker"),
            {
                # (Pollution, Smoker) -> (True, False)
                (0, 0): (0.03, 0.97),   # low, True
                (0, 1): (0.001, 0.999), # low, False
                (1, 0): (0.05, 0.95),   # high, True
                (1, 1): (0.02, 0.98),   # high, False
            },
        ),
        NodeSpec(
            "Xray",
            ("positive", "negative"),
            ("Cancer",),
            {(0,): (0.9, 0.1), (1,): (0.2, 0.8)},
        ),
        NodeSpec(
            "Dyspnoea",
            ("True", "False"),
            ("Cancer",),
            {(0,): (0.65, 0.35), (1,): (0.3, 0.7)},
        ),
    )
    names = tuple(n.name for n in nodes)
    return BayesianNetwork(nodes, names, ONE_HOT)


def reference_sample(bn, rng: np.random.Generator) -> dict[str, int]:
    """Draw one full record, one uniform per node in topological order."""
    rec: dict[str, int] = {}
    for node in bn.nodes:
        cum = np.cumsum(node.cpt[tuple(rec[p] for p in node.parents)])
        rec[node.name] = int(np.searchsorted(cum, rng.random(), side="right"))
    return rec


def reference_encode(bn, rec: dict[str, int]) -> tuple[int, ...]:
    """Encode one record's output nodes as a bit tuple."""
    if bn.encoding == RAW_BINARY:
        return tuple(rec[v] for v in bn.output_nodes)
    bits: list[int] = []
    for v in bn.output_nodes:
        block = [0] * bn.node(v).cardinality
        block[rec[v]] = 1
        bits.extend(block)
    return tuple(bits)


def mle_fit(structure, proxy, alpha: float = 0.0):
    """Refit every CPT of one proxy's network: `cpt_tables` of its
    `tally_cells`, turned into CPT dicts."""
    tables = cpt_tables(tally_cells([structure], proxy), alpha)
    nodes = tuple(
        NodeSpec(node.name, node.states, node.parents, dict(zip(
            itertools.product(*(range(structure.node(p).cardinality) for p in node.parents)),
            map(tuple, table[0].tolist()),
        )))
        for node, table in zip(structure.nodes, tables)
    )
    return BayesianNetwork(nodes, structure.output_nodes, structure.encoding)


def chow_liu_fit(proxy, alpha: float = 0.0, output_nodes=None, encoding: str = ONE_HOT):
    """Learn a tree-shaped network from one proxy: its `chow_liu_structures`
    tree with CPTs refit by mle_fit."""
    return mle_fit(chow_liu_structures(proxy, alpha, output_nodes, encoding)[0], proxy, alpha)


class TrialScores(NamedTuple):
    """One trial's scores under one attack, its in-targets' and its
    out-targets', and how many of them were flagged as impossible
    evidence."""

    scores_in: list[float]
    scores_out: list[float]
    impossible_evidence: int = 0

    def sorted(self) -> TrialScores:
        """The same scores, each list sorted: the form `batch_trials` gives."""
        return self._replace(scores_in=sorted(self.scores_in), scores_out=sorted(self.scores_out))


def batch_trials(config, groups) -> list[dict[str, TrialScores]]:
    """The trials of a sequence of `harness.BatchScores` groups, group by
    group, attack -> TrialScores: each distinct target's score repeated by
    its in- and by its out-multiplicity, each list sorted, and targets_in +
    targets_out where the trial is flagged."""
    flagged = config.targets_in + config.targets_out
    return [
        {
            name: TrialScores(
                sorted(np.repeat(group.scores[a, t], group.ins[t]).tolist()),
                sorted(np.repeat(group.scores[a, t], group.outs[t]).tolist()),
                flagged * int(group.impossible[a, t]),
            )
            for a, name in enumerate(config.attacks)
        }
        for group in groups
        for t in range(len(group.ins))
    ]


def reference_trial(config, trial_index: int):
    """One trial drawn and scored on its own, as before trials were batched:
    a sample call for the dataset and one for the fresh targets, the release
    by `dataset_counts`, and one encoding of the picked records followed by
    the fresh ones; the attacker from `reference_attacker`, and one
    `attacks.score` call per attack on the batch of its one release, every
    target scored in order."""
    from bnmia import attacks, harness

    def stream(purpose):
        return harness._stream(config.seed, trial_index, purpose)

    bn = harness.resolve_population(config, stream("population"))
    data = project(bn, sample(bn, config.n, stream("dataset")))
    counts = dataset_counts(bn, data)
    picks = stream("targets_in").integers(0, config.n, size=config.targets_in)
    fresh = project(bn, sample(bn, config.targets_out, stream("targets_out")))
    targets = encode(bn, np.concatenate([data[picks], fresh]))
    attacker, mu = reference_attacker(config, trial_index, bn)
    k_in = config.targets_in
    out = {}
    for name in config.attacks:
        (scores,), impossible = attacks.score(name, attacker, mu, [counts], targets[None])
        flagged = len(targets) if impossible else 0
        out[name] = TrialScores(scores[:k_in].tolist(), scores[k_in:].tolist(), flagged)
    return out


def reference_attacker(config, trial_index: int, bn):
    """One trial's attacker law and marginals: the population's own under
    the strong threat, else the law of a network fitted to a proxy sampled
    on its own from the trial's proxy stream (built only when `bayes`, its
    one reader, is among the attacks)."""
    from bnmia import harness
    from bnmia.attacks import BAYES
    from bnmia.learning import ProxyDataset, empirical_marginals
    from bnmia.model import attribute_marginals, output_marginal_law

    if config.threat == harness.STRONG:
        law = output_marginal_law(bn)
        return law, attribute_marginals(law)
    proxy = ProxyDataset.from_network_samples(
        bn, config.m, harness._stream(config.seed, trial_index, "proxy")
    )
    alpha = harness.PROXY_SMOOTHING
    if config.threat == harness.WEAK:
        attacker = mle_fit(bn, proxy, alpha=alpha)
    else:
        attacker = chow_liu_fit(proxy, alpha, bn.output_nodes, bn.encoding)
    law = output_marginal_law(attacker) if BAYES in config.attacks else None
    return law, empirical_marginals(proxy, bn.output_nodes, bn.encoding)


def joint_prob(bn, full: dict[str, int]) -> float:
    """Chain-rule probability of a full assignment."""
    prob = 1.0
    for node in bn.nodes:
        if node.name not in full:
            raise ValueError(f"record does not assign node {node.name}")
        row = node.cpt[tuple(full[p] for p in node.parents)]
        prob *= row[full[node.name]]
    return prob


def proxy_records(proxy) -> tuple[dict[str, int], ...]:
    """A proxy dataset's rows as dict records."""
    return tuple(dict(zip(proxy.nodes, row)) for row in proxy.data.tolist())


def states_of(names, records) -> np.ndarray:
    """The (m, len(names)) state array of dict records."""
    return np.array([[rec[v] for v in names] for rec in records], dtype=np.int64).reshape(
        -1, len(names)
    )


def reference_roc_points(scores_in, scores_out) -> tuple[tuple[float, float], ...]:
    """The ROC points by one sweep per distinct score, largest first."""
    s_in = np.asarray(scores_in, dtype=float)
    s_out = np.asarray(scores_out, dtype=float)
    points = [(0.0, 0.0)]
    for t in np.unique(np.concatenate([s_in, s_out]))[::-1]:
        points.append((float(np.mean(s_out >= t)), float(np.mean(s_in >= t))))
    return tuple(points)


def one_row_auc(scores_in, scores_out) -> float:
    """The AUC eval reports for one trial: `weighted_auc_rows` on one row of
    the in-scores then the out-scores, each of weight 1 on its own side."""
    is_in = np.arange(len(scores_in) + len(scores_out)) < len(scores_in)
    return float(weighted_auc_rows(np.concatenate([scores_in, scores_out]), is_in, ~is_in))


def reference_auc(scores_in, scores_out) -> float:
    """Pairwise AUC from the full (in x out) win and tie matrices."""
    s_in = np.asarray(scores_in, dtype=float)
    s_out = np.asarray(scores_out, dtype=float)
    gt = s_in[:, None] > s_out[None, :]
    eq = s_in[:, None] == s_out[None, :]
    return float((gt.sum() + 0.5 * eq.sum()) / (len(s_in) * len(s_out)))


def reference_sum_log_table(law, k: int, cap) -> tuple[np.ndarray, np.ndarray]:
    """The (keys, log_probs) of `sum_log_table` by one gather per law outcome
    per step: each outcome's live partial sums are those with room under the
    cap at every set bit of the outcome, taken in outcome order."""
    from bnmia.inference import _grouped_logsumexp

    cap = tuple(int(c) for c in cap)
    radix = np.array([c + 1 for c in cap], dtype=np.int64)
    strides = np.ones(len(cap), dtype=np.int64 if np.log2(radix).sum() <= 62 else object)
    for j in range(len(cap) - 2, -1, -1):
        strides[j] = strides[j + 1] * (cap[j + 1] + 1)
    cap_arr = np.array(cap, dtype=np.int64)
    keys = np.zeros(1, dtype=strides.dtype)
    logp = np.zeros(1, dtype=float)
    keep = [
        i for i, vec in enumerate(law.vectors.tolist()) if all(v <= c for v, c in zip(vec, cap))
    ]
    if k > 0 and not keep:
        return keys[:0], logp[:0]
    vecs = law.vectors[keep]
    logp_out = np.log(law.probs[keep])
    offsets = vecs @ strides
    set_bits = [np.flatnonzero(v) for v in vecs]
    for _ in range(k):
        room = (keys[:, None] // strides[None, :]) % radix[None, :] < cap_arr
        chunks_k, chunks_p = [], []
        for i in range(len(offsets)):
            mask = room[:, set_bits[i]].all(axis=1)
            chunks_k.append(keys[mask] + offsets[i])
            chunks_p.append(logp[mask] + logp_out[i])
        keys, logp = np.concatenate(chunks_k), np.concatenate(chunks_p)
        order = np.argsort(keys, kind="stable")
        keys, logp = _grouped_logsumexp(keys[order], logp[order])
    return keys, logp


def _bern_root(name: str, p: float) -> NodeSpec:
    return NodeSpec(name, ("0", "1"), (), {(): (1.0 - p, p)})


def _copy_node(name: str, parent: str) -> NodeSpec:
    return NodeSpec(name, ("0", "1"), (parent,), {(0,): (1.0, 0.0), (1,): (0.0, 1.0)})


def _raw(d: int, nodes) -> BayesianNetwork:
    return BayesianNetwork(tuple(nodes), tuple(f"X{j + 1}" for j in range(d)), RAW_BINARY)


def reference_product(p) -> BayesianNetwork:
    """d independent Bernoulli attributes, written out node by node."""
    return _raw(len(p), [_bern_root(f"X{j + 1}", q) for j, q in enumerate(p)])


def reference_half_repeated(d: int, p) -> BayesianNetwork:
    """X_1..X_m independent, X_{m+1}..X_d copies of X_m (m = d // 2 + 1)."""
    m = d // 2 + 1
    nodes = [_bern_root(f"X{j + 1}", q) for j, q in enumerate(p)]
    nodes += [_copy_node(f"X{j + 1}", f"X{m}") for j in range(m, d)]
    return _raw(d, nodes)


def reference_lr_side(d: int, p, side: str) -> BayesianNetwork:
    """The right side is the half-repeated population; the left side draws
    X_1 with X_2..X_{m-1} copies of it, and X_m..X_d independent."""
    if side == "right":
        return reference_half_repeated(d, p)
    m = d // 2 + 1
    nodes = [_bern_root("X1", p[0])]
    nodes += [_copy_node(f"X{j + 1}", "X1") for j in range(1, m - 1)]
    nodes += [_bern_root(f"X{j + 1}", q) for j, q in zip(range(m - 1, d), p[1:])]
    return _raw(d, nodes)


def reference_lr_repeated(d: int, p_right, p_left) -> BayesianNetwork:
    """The hidden-coin mixture with each attribute's table given the coin
    written out by hand: coin 0 is the right side, coin 1 the left."""
    m = d // 2 + 1

    def mix_root(name, p_r, p_l):
        return NodeSpec(
            name, ("0", "1"), ("side",), {(0,): (1.0 - p_r, p_r), (1,): (1.0 - p_l, p_l)}
        )

    def mix_copy_or_root(name, copy_of, copy_when, p_other):
        rows = {}
        for c in (0, 1):
            for s in (0, 1):
                if c == copy_when:
                    rows[(c, s)] = (1.0, 0.0) if s == 0 else (0.0, 1.0)
                else:
                    rows[(c, s)] = (1.0 - p_other, p_other)
        return NodeSpec(name, ("0", "1"), ("side", copy_of), rows)

    nodes = [NodeSpec("side", ("right", "left"), (), {(): (0.5, 0.5)})]
    nodes.append(mix_root("X1", p_right[0], p_left[0]))
    for j in range(1, m - 1):
        nodes.append(mix_copy_or_root(f"X{j + 1}", "X1", copy_when=1, p_other=p_right[j]))
    nodes.append(mix_root(f"X{m}", p_right[m - 1], p_left[1]))
    for j in range(m, d):
        nodes.append(
            mix_copy_or_root(f"X{j + 1}", f"X{m}", copy_when=0, p_other=p_left[j - m + 2])
        )
    return _raw(d, nodes)
