"""Exact posterior odds that a target record is in the private dataset.

The evidence is the released integer count vector c = n * mean.  The odds are

    R = P(sum of n-1 fresh draws = c - encode(y)) / P(sum of n draws = c),

computed exactly from the population's output law by iterated convolution
into a table of feasible partial-sum vectors and their log probabilities,
pruning any partial sum that exceeds the released counts in some
coordinate.  A brute-force enumeration over full network instances provides
an independent oracle for the same quantity.
"""
from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from .model import (
    BayesianNetwork,
    EncodedVector,
    ModelSizeError,
    ReleasedCounts,
    SupportDistribution,
    encode,
    enumerate_full_records,
    output_marginal_law,
)

LOG_ZERO = float("-inf")


class ImpossibleEvidenceError(ValueError):
    """The released counts have probability zero under the attacker's model.

    Distinct from a ratio of zero (which is a valid result meaning the target
    cannot be in the dataset): this signals model mismatch.
    """


@dataclass(frozen=True)
class PosteriorResult:
    """Posterior odds and the fair-coin-prior membership posterior."""

    ratio: float
    log_numerator: float
    log_denominator: float

    @property
    def log_ratio(self) -> float:
        if self.log_numerator == LOG_ZERO:
            return LOG_ZERO
        return self.log_numerator - self.log_denominator

    @property
    def theta_in(self) -> float:
        if math.isinf(self.ratio):
            return 1.0
        return self.ratio / (1.0 + self.ratio)


def _logsumexp(values) -> float:
    values = [v for v in values if v != LOG_ZERO]
    if not values:
        return LOG_ZERO
    m = max(values)
    return m + math.log(math.fsum(math.exp(v - m) for v in values))


@dataclass(frozen=True)
class CountTable:
    """log P(V_1 + ... + V_k = t) for every reachable count vector t <= cap.

    Each t is packed into one integer key (mixed radix cap_j + 1, C order);
    keys are sorted and unique.  The packing is internal: look entries up
    with `log_prob`.
    """

    cap: tuple[int, ...]
    strides: np.ndarray
    keys: np.ndarray
    log_probs: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    def log_prob(self, targets) -> np.ndarray:
        """log P for each row of targets; -inf where a target is unreachable,
        negative, or outside the cap."""
        t = _rows(targets, len(self.cap))
        inside = np.all((t >= 0) & (t <= np.array(self.cap, dtype=np.int64)), axis=1)
        packed = t[inside] @ self.strides
        pos = np.searchsorted(self.keys, packed)
        hit = pos < len(self.keys)
        hit[hit] = self.keys[pos[hit]] == packed[hit]
        out = np.full(len(t), LOG_ZERO)
        out[np.flatnonzero(inside)[hit]] = self.log_probs[pos[hit]]
        return out


def _rows(targets, d: int) -> np.ndarray:
    t = np.asarray(targets, dtype=np.int64)
    if t.ndim != 2 or t.shape[1] != d:
        raise ValueError("target has the wrong dimension")
    return t


def sum_log_table(law: SupportDistribution, k: int, cap: tuple[int, ...]) -> CountTable:
    """The table of log P(V_1 + ... + V_k = t) for t <= cap, V_i iid ~ law.

    Convolution states are pruned against cap coordinatewise, which is sound
    for any query target <= cap.  Outcomes and states are processed in a fixed
    sorted order, so results are bitwise deterministic.  Keys are int64 when
    they fit in 62 bits and Python ints (an object array) otherwise.
    """
    d = law.d
    cap = tuple(int(c) for c in cap)
    radix = np.array([c + 1 for c in cap], dtype=np.int64)
    key_dtype = np.int64 if float(np.sum(np.log2(radix))) <= 62 else object
    strides = np.ones(d, dtype=key_dtype)
    for j in range(d - 2, -1, -1):
        strides[j] = strides[j + 1] * (cap[j + 1] + 1)

    keys = np.zeros(1, dtype=key_dtype)
    logp = np.zeros(1, dtype=float)
    keep = [i for i, (vec, _) in enumerate(law.outcomes) if all(v <= c for v, c in zip(vec, cap))]
    if k > 0 and not keep:
        return CountTable(cap, strides, keys[:0], logp[:0])
    vecs = law.vectors()[keep]
    logp_out = np.log(law.probs()[keep])
    offsets = vecs @ strides
    cap_arr = np.array(cap, dtype=np.int64)

    for _ in range(k):
        digits = (keys[:, None] // strides[None, :]) % radix[None, :]
        chunks_k, chunks_p = [], []
        for i in range(len(offsets)):
            set_bits = np.flatnonzero(vecs[i])
            mask = None
            for j in set_bits:
                cond = digits[:, j] < cap_arr[j]
                mask = cond if mask is None else (mask & cond)
            if mask is None:
                chunks_k.append(keys + offsets[i])
                chunks_p.append(logp + logp_out[i])
            else:
                chunks_k.append(keys[mask] + offsets[i])
                chunks_p.append(logp[mask] + logp_out[i])
        cand_k = np.concatenate(chunks_k)
        cand_p = np.concatenate(chunks_p)
        keys, logp = _grouped_logsumexp(cand_k, cand_p)
    return CountTable(cap, strides, keys, logp)


def _grouped_logsumexp(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if not len(keys):
        return keys, vals  # no partial sum stays under the cap
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    v = vals[order]
    new_group = np.concatenate(([True], k[1:] != k[:-1]))
    starts = np.flatnonzero(new_group)
    gidx = np.cumsum(new_group) - 1
    m = np.maximum.reduceat(v, starts)
    sums = np.add.reduceat(np.exp(v - m[gidx]), starts)
    return k[starts], m + np.log(sums)


def sum_count_prob(law: SupportDistribution, k: int, target) -> float:
    """Exact P(V_1 + ... + V_k = target) for V_i iid ~ law."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    target = tuple(int(t) for t in target)
    if len(target) != law.d:
        raise ValueError(f"target has length {len(target)}, expected {law.d}")
    if any(t < 0 or t > k for t in target):
        return 0.0
    return math.exp(sum_log_table(law, k, target).log_prob([target])[0])


class PosteriorEngine:
    """Posterior odds for many targets against one released count vector.

    Builds the (n-1)-fold convolution table once; each target then costs a
    table lookup.  The denominator is the table convolved one more step with
    the law, evaluated at the released counts.
    """

    def __init__(self, law: SupportDistribution, counts: ReleasedCounts):
        if counts.n < 1:
            raise ValueError("need at least one record")
        if len(counts.counts) != law.d:
            raise ValueError("released counts have the wrong dimension")
        if any(c < 0 or c > counts.n for c in counts.counts):
            raise ValueError("released counts must lie in [0, n]")
        self.law = law
        self.counts = counts
        c = counts.counts
        self._table = sum_log_table(law, counts.n - 1, c)
        self._c = np.array(c, dtype=np.int64)
        table_lps = self._table.log_prob(self._c - law.vectors()).tolist()
        self.log_denominator = _logsumexp(
            lp + math.log(p) for lp, (_, p) in zip(table_lps, law.outcomes)
        )
        if self.log_denominator == LOG_ZERO:
            raise ImpossibleEvidenceError(
                "impossible evidence: released counts have probability zero under BN"
            )

    def _log_numerators(self, targets) -> np.ndarray:
        return self._table.log_prob(self._c - _rows(targets, self.law.d))

    def log_ratios(self, targets) -> np.ndarray:
        """log R for each row of targets, in one table lookup; -inf where the
        target cannot be in the dataset."""
        return self._log_numerators(targets) - self.log_denominator

    def result(self, y: EncodedVector) -> PosteriorResult:
        log_num = float(self._log_numerators([y])[0])
        ratio = 0.0 if log_num == LOG_ZERO else math.exp(log_num - self.log_denominator)
        return PosteriorResult(ratio, log_num, self.log_denominator)


_ENGINE_CACHE: WeakKeyDictionary = WeakKeyDictionary()
_ENGINE_CACHE_SIZE = 8


def posterior_engine(law: SupportDistribution, counts: ReleasedCounts) -> PosteriorEngine:
    """Engine for (law, counts), cached so repeated targets share the table."""
    per_law = _ENGINE_CACHE.get(law)
    if per_law is None:
        per_law = OrderedDict()
        _ENGINE_CACHE[law] = per_law
    key = (counts.n, counts.counts)
    engine = per_law.get(key)
    if engine is None:
        engine = PosteriorEngine(law, counts)
        per_law[key] = engine
        while len(per_law) > _ENGINE_CACHE_SIZE:
            per_law.popitem(last=False)
    else:
        per_law.move_to_end(key)
    return engine


def posterior_ratio(
    bn: BayesianNetwork, counts: ReleasedCounts, y: EncodedVector
) -> PosteriorResult:
    """Exact membership odds for one target under the given network."""
    law = output_marginal_law(bn)
    return posterior_engine(law, counts).result(y)


def closed_form_product_ratio(mu, counts: ReleasedCounts, y: EncodedVector) -> float:
    """The per-coordinate binomial closed form, valid for product populations.

    Each coordinate contributes mean_j / mu_j when the target bit is set and
    (1 - mean_j) / (1 - mu_j) otherwise; evaluated in log space.
    """
    mu = tuple(float(q) for q in mu)
    if any(not (0.0 < q < 1.0) for q in mu):
        raise ValueError("population marginals must lie strictly inside (0, 1)")
    n = counts.n
    log_total = 0.0
    for c_j, mu_j, y_j in zip(counts.counts, mu, y):
        xbar = c_j / n
        num = xbar if y_j else 1.0 - xbar
        den = mu_j if y_j else 1.0 - mu_j
        if num == 0.0:
            return 0.0
        log_total += math.log(num) - math.log(den)
    return math.exp(log_total)


_BRUTE_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def _brute_sum_table(bn: BayesianNetwork, k: int) -> dict[EncodedVector, float]:
    """P(sum of k encoded draws = t) by enumerating every tuple of full
    network instances and summing joint probabilities in linear space."""
    per_net = _BRUTE_CACHE.setdefault(bn, {})
    table = per_net.get(k)
    if table is not None:
        return table
    records = list(enumerate_full_records(bn))
    states = [[rec[v] for v in bn.output_nodes] for rec, _ in records]
    instances = list(zip(map(tuple, encode(bn, states).tolist()), (p for _, p in records)))
    d = bn.d
    table = {}
    for combo in itertools.product(instances, repeat=k):
        total = [0] * d
        prob = 1.0
        for vec, p in combo:
            prob *= p
            for j, b in enumerate(vec):
                total[j] += b
        key = tuple(total)
        table[key] = table.get(key, 0.0) + prob
    per_net[k] = table
    return table


def brute_force_posterior(
    bn: BayesianNetwork,
    counts: ReleasedCounts,
    y: EncodedVector,
    guard: int = 10_000_000,
) -> PosteriorResult:
    """Oracle: enumerate every assignment of n independent network instances.

    Sums the joint probabilities of the assignments satisfying each branch's
    evidence directly, with no convolution, pruning, or log-space tricks.
    """
    n = counts.n
    if bn.joint_state_count ** n > guard:
        raise ModelSizeError(
            f"brute force would enumerate {bn.joint_state_count}^{n} assignments"
        )
    y = tuple(int(b) for b in y)
    c = counts.counts
    denominator = _brute_sum_table(bn, n).get(c, 0.0)
    diff = tuple(a - b for a, b in zip(c, y))
    numerator = 0.0 if any(x < 0 for x in diff) else _brute_sum_table(bn, n - 1).get(diff, 0.0)
    if denominator == 0.0:
        raise ImpossibleEvidenceError(
            "impossible evidence: released counts have probability zero under BN"
        )
    log_num = math.log(numerator) if numerator > 0.0 else LOG_ZERO
    return PosteriorResult(
        numerator / denominator, log_num, math.log(denominator)
    )
