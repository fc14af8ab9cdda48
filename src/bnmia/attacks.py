"""Decision statistics for the membership game, and the thresholded rule.

Three families: marginal ratio tests (optionally clipped to an index range),
the inner product test, and the exact Bayesian posterior odds.  Every scorer
takes a batch: a sequence of R released counts of one size n and an (R, T, d)
array of encoded targets, one row of targets per release, and returns (R, T)
scores; one release is the batch of one.  Ratio scores are kept in log space;
a zero factor dominates and yields -inf, never NaN.  `score` is the one
dispatcher from an attack name to its scores and impossible releases, and
`parse_attack` the one grammar of names: `lrt`, `inner_product`, `bayes`,
`lrt_clipped:LO-HI` (attributes LO..HI, 1-based and inclusive), and
`lrt_clipped_auto` / `lrt_clipped_flip` (the side `choose_side` reads from
each release's counts, the right one when they say nothing, or the other
side).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ReleasedCounts
from .inference import PosteriorEngine, _stack, _stacked_targets
from .populations import LEFT, RIGHT, midpoint

IN = "IN"
OUT = "OUT"
AMBIGUOUS = "ambiguous"

LRT = "lrt"
INNER_PRODUCT = "inner_product"
BAYES = "bayes"


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


def _log_ratio_terms(mu, counts, targets, clip: ClipRange | None) -> np.ndarray:
    """Log ratio of each target over the coordinates in the clip range (all
    of them when clip is None), for each release of a batch, against one
    marginal vector or one per release (see `lrt_score`).

    Each (release, coordinate) pair's bit-1 and bit-0 terms are built once
    with math.log, picked by the target bits and summed column by column from
    the left, the order of a one-target loop.  Every marginal in the range is
    checked first, even past a coordinate that zeroes a target's numerator.
    """
    c, n = _stack(counts)
    indices = range(c.shape[1]) if clip is None else clip.indices(c.shape[1])
    ys = _stacked_targets(targets, len(c), c.shape[1])
    mus = np.broadcast_to(np.asarray(mu, dtype=float), c.shape).T[list(indices)].tolist()
    if not all(0.0 < mu_j < 1.0 for column in mus for mu_j in column):
        raise ValueError("population marginals must lie strictly inside (0, 1)")
    xbars = (c.T[list(indices)] / n).tolist()
    ones = [
        math.log(x) - math.log(mu_j) if x != 0.0 else -math.inf
        for mu_column, column in zip(mus, xbars) for mu_j, x in zip(mu_column, column)
    ]
    zeros = [
        math.log(1.0 - x) - math.log(1.0 - mu_j) if 1.0 - x != 0.0 else -math.inf
        for mu_column, column in zip(mus, xbars) for mu_j, x in zip(mu_column, column)
    ]
    shape = (len(mus), len(c), 1)
    columns = np.where(
        (ys != 0).transpose(2, 0, 1)[list(indices)],
        np.array(ones).reshape(shape),
        np.array(zeros).reshape(shape),
    )
    return _sum_from_left(columns, ys.shape[:2])


def _sum_from_left(columns: np.ndarray, shape) -> np.ndarray:
    """The sum of a stack of (release, target) columns, added one at a time
    from the left: the order of a one-target loop."""
    total = np.zeros(shape)
    for column in columns:
        total += column
    return total


def lrt_score(mu, counts, targets) -> np.ndarray:
    """Log ratio of each target's probability under the dataset means vs the
    population marginals, treating attributes as independent: a (releases,
    targets) array for a sequence of releases of one size and their
    (releases, targets, d) targets.  mu is one length-d marginal vector, or a
    (releases, d) array of one per release."""
    return _log_ratio_terms(mu, counts, targets, None)


def lrt_clipped_score(mu, counts, targets, clip: ClipRange) -> np.ndarray:
    """The ratio test restricted to the clip range (neutralizes repeated
    attributes when the range excludes the copies); shapes as `lrt_score`."""
    return _log_ratio_terms(mu, counts, targets, clip)


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


def inner_product_score(mu, counts, targets) -> np.ndarray:
    """How much each target shifts the released means away from the
    population, summed column by column from the left like the ratio tests;
    shapes as `lrt_score`."""
    c, n = _stack(counts)
    ys = _stacked_targets(targets, len(c), c.shape[1])
    mus = np.broadcast_to(np.asarray(mu, dtype=float), c.shape)
    columns = (c.T / n - mus.T)[:, :, None] * ys.transpose(2, 0, 1)
    return _sum_from_left(columns, ys.shape[:2])


def parse_attack(name: str) -> ClipRange | None:
    """Check an attack name against the grammar in the module docstring:
    the range of `lrt_clipped:LO-HI`, None for the other names, and a
    ValueError naming the attack for anything else."""
    if name in (LRT, INNER_PRODUCT, BAYES, "lrt_clipped_auto", "lrt_clipped_flip"):
        return None
    kind, _, lo_hi = name.partition(":")
    lo, _, hi = lo_hi.partition("-")
    if kind != "lrt_clipped" or not (lo.isdecimal() and hi.isdecimal()):
        raise ValueError(f"unknown attack {name!r}")
    try:
        return ClipRange(int(lo), int(hi))
    except ValueError as err:
        raise ValueError(f"attack {name!r}: {err}") from None


def score(name: str, attacker, mu, counts, targets) -> tuple[np.ndarray, tuple[int, ...]]:
    """The (releases, targets) scores of attack `name` for a sequence of
    releases of one size and their (releases, targets, d) targets, and the
    indices of the releases impossible under the attacker's law: a model
    mismatch rather than a score, each scored -inf on its row.  The marginal
    tests read the marginals mu (one length-d vector, or a (releases, d)
    array of one per release) and find none impossible; bayes reads the
    output law (one SupportDistribution for all releases, or a sequence of
    one per release)."""
    clip = parse_attack(name)
    c, _ = _stack(counts)
    ys = _stacked_targets(targets, len(c), c.shape[1])
    impossible = ()
    if name == BAYES:
        engine = PosteriorEngine(attacker, counts)
        out, impossible = engine.log_ratios(ys), engine.impossible
    elif name == LRT:
        out = lrt_score(mu, counts, ys)
    elif name == INNER_PRODUCT:
        out = inner_product_score(mu, counts, ys)
    else:
        clips = [clip or _auto_clip(name, release) for release in counts]
        out = np.empty(ys.shape[:2])
        for each in dict.fromkeys(clips):
            rows = [r for r, other in enumerate(clips) if other == each]
            mu_rows = mu if np.ndim(mu) == 1 else np.asarray(mu)[rows]
            out[rows] = lrt_clipped_score(mu_rows, [counts[r] for r in rows], ys[rows], each)
    if np.isnan(out).any():
        raise ValueError("attack scores must never be NaN")
    return out, impossible


def _auto_clip(name: str, counts: ReleasedCounts) -> ClipRange:
    """The side clip `lrt_clipped_auto` (or, flipped, `lrt_clipped_flip`)
    reads from one release's counts."""
    d = len(counts.counts)
    side = choose_side(counts, d)
    if side == AMBIGUOUS:
        side = RIGHT  # documented default when the counts say nothing
    if name == "lrt_clipped_flip":
        side = LEFT if side == RIGHT else RIGHT
    return side_clip_range(d, side)


def decide(value: float, threshold: float) -> str:
    """IN iff the score strictly exceeds the threshold."""
    return IN if value > threshold else OUT
