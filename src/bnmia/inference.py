"""Exact posterior odds that a target record is in the private dataset.

The evidence is the released integer count vector c = n * mean.  The odds are

    R = P(sum of n-1 fresh draws = c - encode(y)) / P(sum of n draws = c),

computed exactly from the population's output law by iterated convolution
into a table of feasible partial-sum vectors and their log probabilities,
pruning any partial sum that exceeds the released counts in some
coordinate.  Scoring takes a batch: a sequence of R releases of one size n
and (R, T, d) targets, one release being the batch of one.  The releases of
a batch share one table: each release's partial sums are keyed under its own
index, pruned against its own counts and convolved with its own law (each
distinct law object logged once), so every release gets the bits it would
get alone.  A brute-force enumeration over full network instances, one
release at a time, provides an independent oracle for the same quantity.
"""
from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple
from weakref import WeakKeyDictionary

import numpy as np

from . import model
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


_IMPOSSIBLE = "impossible evidence: released counts have probability zero under BN"


class ImpossibleEvidenceError(ValueError):
    """The released counts have probability zero under the attacker's model.

    Distinct from a ratio of zero (which is a valid result meaning the target
    cannot be in the dataset): this signals model mismatch.  Raised for a
    batch of releases, `releases` holds the indices of the impossible ones
    and `scores` the batch's scores, -inf on their rows.
    """

    def __init__(self, message: str, releases=(), scores=None):
        super().__init__(message)
        self.releases = tuple(releases)
        self.scores = scores


class _Part(NamedTuple):
    """Releases first .. first + size - 1 of a stack, packed with common
    strides taken from their elementwise-max cap `top` (unsigned); `span`
    is the key distance between consecutive releases.  keys are sorted and
    unique.  `outcomes` are the outcomes of the part's law vectors under
    some release's cap, and fits[r, i] is whether outcomes[i] is under
    release r's cap."""

    first: int
    size: int
    outcomes: np.ndarray
    fits: np.ndarray
    top: np.ndarray
    strides: np.ndarray
    span: int
    keys: np.ndarray
    log_probs: np.ndarray


@dataclass(frozen=True)
class CountTable:
    """log P(V_1 + ... + V_k = t) for every reachable count vector t <= caps[r],
    for each release r of an (R, d) stack of caps.

    The stack is held in parts of consecutive releases whose laws share
    their outcome vectors.  Within a part, (r, t) is packed into one integer
    key: the release's place in the part is the most significant digit, then
    t in mixed radix (the part's elementwise-max cap + 1, C order).  The
    packing is internal: look entries up with `log_prob`.
    """

    caps: np.ndarray
    parts: tuple[_Part, ...]

    def __len__(self) -> int:
        return sum(len(part.keys) for part in self.parts)

    def fitting_outcomes(self) -> tuple[np.ndarray, np.ndarray]:
        """The (release, law outcome) index pairs with the outcome under the
        release's cap, release by release and in law order within one."""
        pairs = [np.nonzero(part.fits) for part in self.parts]
        return (
            _joined([part.first + r for part, (r, _) in zip(self.parts, pairs)], None),
            _joined([part.outcomes[i] for part, (_, i) in zip(self.parts, pairs)], None),
        )

    def log_prob(self, targets, releases=0) -> np.ndarray:
        """log P for each row of targets in the table of its release (one
        index for every row, or one per row); -inf where a target is
        unreachable, negative, or outside that release's cap.  Raises
        ValueError for a release index outside [0, R)."""
        t = _rows(targets, self.caps.shape[1])
        r = np.asarray(releases, dtype=np.int64)
        if ((r < 0) | (r >= len(self.caps))).any():
            raise ValueError("release index outside the table's releases")
        out = np.full(len(t), LOG_ZERO)
        for part in self.parts:
            # Digits up to the part's top cap cannot carry into the next one,
            # so a target over its own release's cap just misses the keys.
            # As unsigned, a negative entry is huge: one comparison checks
            # 0 <= t <= top.
            inside = ~(t.view(np.uint64) > part.top).any(axis=1)
            inside &= (r >= part.first) & (r < part.first + part.size)
            rows = np.flatnonzero(inside)
            packed = (t @ part.strides)[rows]
            if part.size > 1:
                packed += (np.broadcast_to(r, len(t))[rows] - part.first) * part.span
            pos = np.searchsorted(part.keys, packed)
            hit = pos < len(part.keys)
            hit[hit] = part.keys[pos[hit]] == packed[hit]
            out[rows[hit]] = part.log_probs[pos[hit]]
        return out


def _rows(targets, d: int) -> np.ndarray:
    t = np.asarray(targets, dtype=np.int64)
    if t.ndim != 2 or t.shape[1] != d:
        raise ValueError("target has the wrong dimension")
    return t


def _stack(releases) -> tuple[np.ndarray, int]:
    """The (R, d) counts and the common size n of a sequence of R releases."""
    sizes = {r.n for r in releases}
    if len(sizes) != 1:
        raise ValueError("a batch needs at least one release, all of one size n")
    return np.array([r.counts for r in releases], dtype=np.int64), sizes.pop()


def _stacked_targets(targets, releases: int, d: int) -> np.ndarray:
    """A batch's targets as an (R, T, d) int array, one row of targets per
    release."""
    t = np.asarray(targets, dtype=np.int64)
    if t.ndim != 3 or t.shape[2] != d:
        raise ValueError("target has the wrong dimension")
    if t.shape[0] != releases:
        raise ValueError("a batch's targets must be a (releases, targets, d) array")
    return t


# Byte budget of one dense (outcomes x live partial sums) block in a
# convolution step: the step takes as many outcomes at a time as fit in it,
# and at least one.
_BLOCK_BYTES = 256 * 1024
# Byte budget of the live partial sums (8 bytes each) in one range of a
# convolution step: the step takes as many consecutive releases at a time as
# fit in it, and at least one.
_RANGE_BYTES = 2 * 1024
# The most candidate sums one range of a convolution step may gather (16
# bytes each, key and log probability: 512 MiB; as many as fit in those bytes
# for object keys); past it, ModelSizeError.
_CANDIDATE_BUDGET = 2**25


def _key_bits(top: np.ndarray, size: int) -> float:
    """Bits of the keys of `size` releases packed under the elementwise-max
    cap top."""
    return float(np.sum(np.log2(top + 1))) + math.log2(size)


def sum_log_table(law, k: int, caps) -> CountTable:
    """The table of log P(V_1 + ... + V_k = t) for t <= caps[r], V_i iid ~
    release r's law, for each release r of caps: an (R, d) array, or one cap
    of length d.  `law` is one SupportDistribution for every release, or a
    sequence of R of them, one per release.

    Convolution states are pruned against their release's cap coordinatewise,
    which is sound for any query target <= that cap.  Consecutive releases
    share a part (`CountTable`) while their laws have the same outcome vectors
    and the part's keys fit in 62 bits; a single release past 62 bits gets
    Python-int keys (an object array).  A part logs each distinct law object
    once, as one column, and each candidate sum takes its outcome's log
    probability from its release's column.  Each step walks a part's live keys
    in release-aligned ranges sized to a fixed budget (`_RANGE_BYTES`, at
    least one release a range), and each range's law outcomes in contiguous
    blocks sized to another (`_BLOCK_BYTES`): per block, one matrix product
    marks the live partial sums with room under their release's cap for every
    set bit of each outcome, and one boolean gather takes the candidate sums
    outcome by outcome.  A range's candidates are grouped before the next
    range starts.  So no step materializes a whole (outcomes x live) matrix,
    and every (release, partial sum) group sees the same candidates in the
    same order as in a table of its release alone, whatever the budgets;
    results are bitwise deterministic.  A range that gathers more candidates
    than `_CANDIDATE_BUDGET` allows raises ModelSizeError.
    """
    caps = np.atleast_2d(np.asarray(caps, dtype=np.int64))
    if (caps < 0).any():
        raise ValueError("caps must be nonnegative")
    laws = _per_release(law, len(caps))
    parts, first = [], 0
    while first < len(caps):
        top, stop = caps[first], first + 1
        while stop < len(caps) and _same_outcomes(laws[first], laws[stop]):
            grown = np.maximum(top, caps[stop])
            if _key_bits(grown, stop + 1 - first) > 62:
                break
            top, stop = grown, stop + 1
        parts.append(_part_table(laws[first:stop], k, caps[first:stop], first))
        first = stop
    return CountTable(caps, tuple(parts))


def _per_release(law, releases: int) -> list[SupportDistribution]:
    """One law per release: [law] * releases for one SupportDistribution."""
    laws = [law] * releases if isinstance(law, SupportDistribution) else list(law)
    if len(laws) != releases:
        raise ValueError("a batch needs one law for all its releases or one per release")
    return laws


def _same_outcomes(a: SupportDistribution, b: SupportDistribution) -> bool:
    return a.vectors is b.vectors or np.array_equal(a.vectors, b.vectors)


def _part_table(laws: list, k: int, caps: np.ndarray, first: int) -> _Part:
    """The k-fold table of the part whose (size, d) caps are releases first
    .. first + size - 1 of the stack, under one law per release, all with
    the same outcome vectors (see `sum_log_table`)."""
    size, d = caps.shape
    top = caps.max(axis=0)
    unsigned_top = top.astype(np.uint64)
    radix = top + 1
    key_dtype = np.int64 if _key_bits(top, size) <= 62 else object
    strides = np.ones(d, dtype=key_dtype)
    bound = top.tolist()  # Python ints: exact past 64 bits
    for j in range(d - 2, -1, -1):
        strides[j] = strides[j + 1] * (bound[j + 1] + 1)
    span = int(strides[0]) * int(radix[0]) if d else 1
    # Digit j of a key is at its cap exactly when the key modulo
    # stride_j * radix_j reaches cap_j * stride_j: one remainder per digit.
    moduli, cap_keys = strides * radix, caps * strides
    starts = np.arange(size).astype(key_dtype) * span  # each release's first key

    keys = starts
    logp = np.zeros(size, dtype=float)
    # The outcomes under some release's cap, in law order; a range walks
    # only those under the caps of its own releases.
    fits = _fits(laws[0].vectors, caps)
    keep = np.flatnonzero(fits.any(axis=1))
    fit = fits[keep]
    del fits
    vecs = laws[0].vectors[keep]
    # One log column per distinct law object, as for its releases alone:
    # (outcomes, columns), column[r] being release r's.
    distinct: dict = {}  # id of a law object -> (its column, the law)
    column = np.array([distinct.setdefault(id(each), (len(distinct), each))[0] for each in laws])
    logp_out = np.stack([np.log(each.probs[keep]) for _, each in distinct.values()], axis=1)
    offsets = vecs @ strides
    bits = vecs.astype(np.float32)  # 0/1 entries: the products below count set bits exactly
    budget = max(1, _RANGE_BYTES // 8)

    for _ in range(k):
        # release r's live keys are keys[bounds[r]:bounds[r + 1]]
        bounds = np.searchsorted(keys, starts).tolist()
        bounds.append(len(keys))
        out_k, out_p = [], []
        lo_r = 0
        while lo_r < size:
            hi_r = max(lo_r + 1, bisect.bisect_right(bounds, bounds[lo_r] + budget) - 1)
            lo, hi = bounds[lo_r], bounds[hi_r]
            if hi > lo:
                counts = np.diff(bounds[lo_r : hi_r + 1])  # live keys of each release
                # Each live key's column; one entry when they all read the
                # same column, which then broadcasts over the live keys.
                rel = np.repeat(column[lo_r:hi_r], counts)
                if (rel == rel[0]).all():
                    rel = rel[:1]
                outcomes = fit[:, lo_r:hi_r].any(axis=1)
                grouped = _grouped_logsumexp(*_range_candidates(
                    keys[lo:hi], logp[lo:hi], cap_keys[lo_r:hi_r], counts, moduli,
                    offsets[outcomes], logp_out[outcomes], bits[outcomes], rel,
                ))  # only one range's candidates are alive at a time
                out_k.append(grouped[0])
                out_p.append(grouped[1])
            lo_r = hi_r
        keys, logp = _joined(out_k, keys[:0]), _joined(out_p, logp[:0])
    return _Part(first, size, keep, fit.T, unsigned_top, strides, span, keys, logp)


def _fits(vectors: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Whether each 0/1 outcome row of vectors is <= each cap, as an
    (outcomes, caps) array: per block of outcomes under `_BLOCK_BYTES`, one
    float32 matrix product counts the outcome's set bits where the cap is 0."""
    zero = (caps == 0).T.astype(np.float32)
    rows = max(1, _BLOCK_BYTES // (4 * max(vectors.shape[1], len(caps))))
    blocks = range(0, len(vectors), rows)
    return _joined([vectors[lo : lo + rows].astype(np.float32) @ zero == 0 for lo in blocks], None)


def _joined(chunks: list, empty: np.ndarray) -> np.ndarray:
    """The chunks end to end, without a copy when there is only one."""
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks) if chunks else empty


def _range_candidates(live, logp, cap_keys, counts, moduli, offsets, logp_out, bits, rel):
    """Every (outcome, live partial sum) sum with room under the partial sum's
    cap (given as cap_j * stride_j, one row per release of the range, whose
    live keys number counts), gathered outcome by outcome, walking the
    outcomes in blocks of `_BLOCK_BYTES`, and returned stably sorted by key.
    An outcome's log probability for live key i is logp_out[outcome, rel[i]],
    or logp_out[outcome, rel[0]] for every live key when rel has one entry.
    Raises ModelSizeError, naming the limit, once the range has gathered more
    candidates than `_CANDIDATE_BUDGET`'s bytes hold, so at most one block
    past it is ever held.  The blocks are dropped once joined and the unsorted
    arrays once sorted: N int64-key candidates peak near 32N bytes."""
    at_cap = live[:, None] % moduli[None, :] >= np.repeat(cap_keys, counts, axis=0)
    at_cap = at_cap.astype(np.float32)
    rows = max(1, _BLOCK_BYTES // (8 * len(live)))
    # An object key's candidate also holds a Python int past 64 bits.
    extra = sys.getsizeof(2**64) if live.dtype == object else 0
    limit = _CANDIDATE_BUDGET * 16 // (16 + extra)
    chunks_k, chunks_p = [], []
    gathered = 0
    for lo in range(0, len(offsets), rows):
        blk = slice(lo, lo + rows)
        fits = bits[blk] @ at_cap.T == 0  # no set bit of the outcome is at its cap
        chunks_k.append((offsets[blk, None] + live[None, :])[fits])
        gathered += len(chunks_k[-1])
        if gathered > limit:
            raise ModelSizeError(
                f"a convolution step would gather more than {limit} "
                "candidate sums in one range (the candidate budget)"
            )
        chunks_p.append((logp_out[blk][:, rel] + logp[None, :])[fits])
    del at_cap
    keys, vals = _joined(chunks_k, live[:0]), _joined(chunks_p, logp[:0])
    del chunks_k, chunks_p
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    return keys, vals[order]


def _grouped_logsumexp(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of sorted keys, each with the log-sum-exp of its
    run's vals in run order; vals is shifted and exponentiated in place."""
    if not len(keys):
        return keys, vals  # no partial sum stays under the cap
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    m = np.maximum.reduceat(vals, starts)
    vals -= np.repeat(m, np.diff(starts, append=len(keys)))
    sums = np.add.reduceat(np.exp(vals, out=vals), starts)
    return keys[starts], m + np.log(sums)


class PosteriorEngine:
    """Posterior odds for many targets against each release of a batch: a
    sequence of releases of one size n (one release is the batch of one),
    under one law for every release or one law per release.

    Builds one (n-1)-fold convolution table for all the releases
    (`sum_log_table` on their stacked counts); each target then costs a table
    lookup.  A release's denominator is the table convolved one more step
    with its law, evaluated at its counts c_r: one lookup of every pair
    (r, c_r - v), over the outcomes v <= c_r of every release's law at once,
    whose unreachable entries are dropped before each release's log-sum.
    A release whose evidence is impossible under its law never raises here:
    its denominator is -inf, its index is in `impossible`, its targets score
    -inf in `log_ratios`, and `result` raises ImpossibleEvidenceError for
    it.  Nothing caches engines: the caller holds one per batch for as long
    as it scores it.
    """

    def __init__(self, law, counts):
        c, n = _stack(counts)
        laws = _per_release(law, len(c))
        if any(each.d != c.shape[1] for each in laws):
            raise ValueError("released counts have the wrong dimension")
        self._c = c
        self._table = sum_log_table(laws, n - 1, c)
        rel, out = self._table.fitting_outcomes()
        # rel is ascending: release r's pairs are spans[r] .. spans[r + 1] - 1,
        # its outcomes taken from its own law.
        spans = np.searchsorted(rel, np.arange(len(c) + 1)).tolist()
        pairs, probs = c[rel], np.empty(len(out))
        for each, lo, hi in zip(laws, spans, spans[1:]):
            pairs[lo:hi] -= each.vectors[out[lo:hi]]
            probs[lo:hi] = each.probs[out[lo:hi]]
        lps = self._table.log_prob(pairs, rel)
        del pairs
        # A release's denominator is the log-sum-exp of its terms lp + log p:
        # its largest term m plus the log of the fsum of exp(term - m), with
        # math.log and math.exp (np.log and np.exp need not give the same
        # bits); -inf for a release with no term.
        hit = np.flatnonzero(lps != LOG_ZERO)
        terms = lps[hit] + np.fromiter(map(math.log, probs[hit].tolist()), float, len(hit))
        bounds = np.searchsorted(rel[hit], np.arange(len(c) + 1))
        live = np.flatnonzero(np.diff(bounds))
        top = np.full(len(c), LOG_ZERO)
        if len(live):
            top[live] = np.maximum.reduceat(terms, bounds[live])
        shifted = list(map(math.exp, (terms - np.repeat(top, np.diff(bounds))).tolist()))
        self.log_denominators = top
        for r, lo, hi in zip(live.tolist(), bounds[live].tolist(), bounds[live + 1].tolist()):
            top[r] += math.log(math.fsum(shifted[lo:hi]))
        # The releases whose counts have probability zero under the law.
        self.impossible = tuple(np.flatnonzero(self.log_denominators == LOG_ZERO).tolist())

    def log_ratios(self, targets) -> np.ndarray:
        """log R of a batch's (releases, targets, d) targets as a (releases,
        targets) array, in one table lookup.  -inf where the target cannot
        be in the dataset, and on the rows of impossible releases."""
        t = _stacked_targets(targets, len(self._c), self._c.shape[1])
        size, per, d = t.shape
        log_num = self._table.log_prob(
            (self._c[:, None, :] - t).reshape(-1, d), np.repeat(np.arange(size), per)
        ).reshape(size, per)
        # -inf - -inf is nan: an impossible release subtracts 0, then its row is set to -inf.
        den = np.where(self.log_denominators == LOG_ZERO, 0.0, self.log_denominators)
        out = log_num - den[:, None]
        if self.impossible:
            out[list(self.impossible)] = LOG_ZERO
        return out

    def result(self, y: EncodedVector, release: int = 0) -> float:
        """log R of one target against one release of the engine; -inf when
        the target cannot be in the dataset.  Raises ImpossibleEvidenceError
        when the release is impossible evidence."""
        log_den = float(self.log_denominators[release])
        if log_den == LOG_ZERO:
            raise ImpossibleEvidenceError(_IMPOSSIBLE)
        target = self._c[release] - _rows([y], self._c.shape[1])
        return float(self._table.log_prob(target, release)[0]) - log_den


def posterior_engine(bn, counts) -> PosteriorEngine:
    """A new engine for a batch of releases of one size under bn: one
    network (or law) for every release, or a sequence of one network or law
    per release.  The caller holds it while it scores their targets; nothing
    is kept between calls."""
    if isinstance(bn, (BayesianNetwork, SupportDistribution)):
        return PosteriorEngine(_law(bn), counts)
    return PosteriorEngine([_law(each) for each in bn], counts)


def _law(bn) -> SupportDistribution:
    return bn if isinstance(bn, SupportDistribution) else output_marginal_law(bn)


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


def brute_force_posterior(bn: BayesianNetwork, counts: ReleasedCounts, y: EncodedVector) -> float:
    """Oracle for the odds R: enumerate every assignment of n independent
    network instances.

    Sums the joint probabilities of the assignments satisfying each branch's
    evidence directly, with no convolution, pruning, or log-space tricks, and
    divides.  Raises ModelSizeError past `model.STATE_GUARD` assignments.
    """
    n = counts.n
    if bn.joint_state_count ** n > model.STATE_GUARD:
        raise ModelSizeError(
            f"brute force would enumerate {bn.joint_state_count}^{n} assignments"
        )
    y = tuple(int(b) for b in y)
    c = counts.counts
    denominator = _brute_sum_table(bn, n).get(c, 0.0)
    diff = tuple(a - b for a, b in zip(c, y))
    numerator = 0.0 if any(x < 0 for x in diff) else _brute_sum_table(bn, n - 1).get(diff, 0.0)
    if denominator == 0.0:
        raise ImpossibleEvidenceError(_IMPOSSIBLE)
    return numerator / denominator
