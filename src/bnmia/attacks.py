"""Decision statistics for the membership game, and the thresholded rule.

Three families: marginal ratio tests (optionally clipped to an index range),
the inner product test, and the exact Bayesian posterior odds.  Ratio scores
are kept in log space; a zero factor dominates and yields -inf, never NaN.
The marginal tests score one target, or a targets x d array of them at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BayesianNetwork, EncodedVector, ReleasedCounts
from .inference import posterior_ratio
from .populations import LEFT, RIGHT, midpoint

IN = "IN"
OUT = "OUT"
AMBIGUOUS = "ambiguous"

LRT = "lrt"
LRT_CLIPPED = "lrt_clipped"
INNER_PRODUCT = "inner_product"
BAYES = "bayes"


@dataclass(frozen=True)
class AttackScore:
    """A comparable decision statistic: log ratio for the ratio attacks,
    the raw inner product otherwise."""

    kind: str
    value: float

    def __post_init__(self):
        if math.isnan(self.value):
            raise ValueError("attack scores must never be NaN")


@dataclass(frozen=True)
class ClipRange:
    """Inclusive 1-based attribute index range an attack is restricted to."""

    lo: int
    hi: int

    def __post_init__(self):
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"bad clip range [{self.lo}, {self.hi}]")

    def indices(self, d: int) -> range:
        if self.hi > d:
            raise ValueError(f"clip range [{self.lo}, {self.hi}] exceeds dimension {d}")
        return range(self.lo - 1, self.hi)


def _scored(kind: str, values: np.ndarray, y):
    """An AttackScore for one target, the float array of scores for a batch."""
    return AttackScore(kind, float(values[0])) if np.ndim(y) == 1 else values


def _log_ratio_terms(mu, counts: ReleasedCounts, y, indices) -> np.ndarray:
    """Log ratio of each target row over the coordinates in `indices`.

    Each coordinate's bit-1 and bit-0 terms are built once with math.log,
    picked by the target bits and summed column by column from the left, the
    order of a one-target loop.  Every marginal in `indices` is checked first,
    even past a coordinate that zeroes a target's numerator.
    """
    ys = np.atleast_2d(y)
    mus = [float(mu[j]) for j in indices]
    if not all(0.0 < mu_j < 1.0 for mu_j in mus):
        raise ValueError("population marginals must lie strictly inside (0, 1)")
    total = np.zeros(len(ys))
    for j, mu_j in zip(indices, mus):
        xbar = counts.counts[j] / counts.n
        one = math.log(xbar) - math.log(mu_j) if xbar != 0.0 else -math.inf
        zero = math.log(1.0 - xbar) - math.log(1.0 - mu_j) if 1.0 - xbar != 0.0 else -math.inf
        total += np.where(ys[:, j] != 0, one, zero)
    return total


def lrt_score(mu, counts: ReleasedCounts, y):
    """Log ratio of the target's probability under the dataset means vs the
    population marginals, treating attributes as independent."""
    return _scored(LRT, _log_ratio_terms(mu, counts, y, range(np.shape(y)[-1])), y)


def lrt_clipped_score(mu, counts: ReleasedCounts, y, clip: ClipRange):
    """The ratio test restricted to the clip range (neutralizes repeated
    attributes when the range excludes the copies)."""
    indices = clip.indices(np.shape(y)[-1])
    return _scored(LRT_CLIPPED, _log_ratio_terms(mu, counts, y, indices), y)


def half_clip_range(d: int) -> ClipRange:
    """Clip that keeps the independent attributes of a half-repeated population."""
    return ClipRange(1, midpoint(d))


def side_clip_range(d: int, side: str) -> ClipRange:
    """Clip for one side of the left/right population: the independent block
    plus one representative of the repeated block."""
    m = midpoint(d)
    if side == RIGHT:
        return ClipRange(1, m)
    if side == LEFT:
        return ClipRange(m - 1, d)
    raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}")


def choose_side(counts: ReleasedCounts, d: int) -> str:
    """Guess which side of the attributes is repeated from the counts alone:
    a constant block of counts betrays the copies."""
    if d % 2 != 0:
        raise ValueError("d must be even")
    m = midpoint(d)
    c = counts.counts
    left_const = len(set(c[: m - 1])) == 1
    right_const = len(set(c[m - 1 :])) == 1
    if right_const and not left_const:
        return RIGHT
    if left_const and not right_const:
        return LEFT
    return AMBIGUOUS


def inner_product_score(mu, counts: ReleasedCounts, y):
    """How much the target shifts the released means away from the population,
    summed column by column from the left like the ratio tests."""
    ys = np.atleast_2d(y)
    total = np.zeros(len(ys))
    for j in range(ys.shape[1]):
        total += (counts.counts[j] / counts.n - float(mu[j])) * ys[:, j]
    return _scored(INNER_PRODUCT, total, y)


def bayes_score(
    attacker_bn: BayesianNetwork, counts: ReleasedCounts, y: EncodedVector
) -> AttackScore:
    """Log posterior odds computed exactly under the attacker's network.

    Impossible evidence (counts with probability zero under the attacker's
    model) propagates as an error; it signals model mismatch, not a score.
    """
    return AttackScore(BAYES, posterior_ratio(attacker_bn, counts, y).log_ratio)


def decide(score: AttackScore, threshold: float) -> str:
    """IN iff the score strictly exceeds the threshold."""
    return IN if score.value > threshold else OUT
