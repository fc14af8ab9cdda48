"""The numerical equivalence suites behind `bnmia verify` and the posterior
timing behind `bnmia bench`.

Each suite checks one closed form of the paper against the exact posterior
(or the posterior against the brute-force oracle) on seeded instances and
reports its largest deviation against its tolerance; a failure is a report
entry, not an exception.  A suite is a generator of (deviation, cases)
checks that `_suite` runs, and it scores the releases of one network and
one size as one batch.
"""
from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import attacks as atk
from .harness import _stream
from .inference import (
    ImpossibleEvidenceError,
    PosteriorEngine,
    brute_force_posterior,
    closed_form_product_ratio,
    posterior_engine,
    sum_log_table,
)
from .model import (
    BayesianNetwork,
    ReleasedCounts,
    attribute_marginals,
    dataset_counts,
    encode,
    output_marginal_law,
    project,
    sample,
)
from .populations import (
    BUNDLED_BENCHMARKS,
    LEFT,
    RIGHT,
    _copy_layout,
    _side_params,
    make_lr_side,
    resolve_network,
)


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
    if n < 1:
        raise ValueError("n must be at least 1")
    if datasets < 1 or targets < 1:
        raise ValueError("datasets and targets must be at least 1")
    rows = []
    for name in populations:
        bn = resolve_network(name, _stream(seed, 0, "population"))
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


def _suite(name: str, tolerance: float, note: str = "", advisory: bool = False):
    """Make a generator of (deviation, cases) checks into a suite: running it
    times the checks, keeps their largest deviation and their case total,
    and reports them against the tolerance as a SuiteResult."""

    def wrap(checks):
        @functools.wraps(checks)
        def run(*args, **kwargs) -> SuiteResult:
            start = time.perf_counter()
            worst, cases = 0.0, 0
            for deviation, count in checks(*args, **kwargs):
                worst, cases = max(worst, deviation), cases + count
            seconds = time.perf_counter() - start
            return SuiteResult(
                name, worst, tolerance, worst <= tolerance, cases, seconds, note, advisory
            )

        return run

    return wrap


def _product_net_checks(bn: BayesianNetwork, n: int, rng: np.random.Generator):
    """The relative gap between the exact posterior odds and the marginal
    closed form on a product population, one check per target over every
    count vector; then ten spot checks through the public surface, scored as
    one batch, that add no cases."""
    p = np.array([node.cpt[()][1] for node in bn.nodes])  # each root's P(X_j = 1)
    d = len(p)
    law = output_marginal_law(bn)
    shape = (n + 1,) * d
    grid_counts = np.indices(shape).reshape(d, -1).T
    t_prev = sum_log_table(law, n - 1, (n,) * d).log_prob(grid_counts).reshape(shape)
    t_n = sum_log_table(law, n, (n,) * d).log_prob(grid_counts).reshape(shape)
    assert np.all(np.isfinite(t_n)), "every count vector is feasible for interior p"

    grid = np.arange(n + 1) / n
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
        if not np.all(ratio[~pos] == 0.0):
            yield math.inf, lam.size
        else:
            yield (float(dev.max()) if dev.size else 0.0), lam.size

    spots = [
        (tuple(int(x) for x in rng.integers(0, n + 1, size=d)),
         tuple(int(x) for x in rng.integers(0, 2, size=d)))
        for _ in range(10)
    ]
    releases = [ReleasedCounts(c, n) for c, _ in spots]
    log_r = posterior_engine(bn, releases).log_ratios([[y] for _, y in spots])[:, 0]
    for counts, (_, y), r in zip(releases, spots, map(math.exp, log_r.tolist())):
        lam = closed_form_product_ratio(p, counts, y)
        if lam == 0.0:
            yield (math.inf if r != 0.0 else 0.0), 0
        else:
            yield abs(r - lam) / lam, 0


@_suite("product_marginal_ratio_equivalence", 1e-9)
def verify_product_equivalence(populations: int = 200, seed: int = 20250810):
    """Posterior odds == marginal ratio statistic on product populations."""
    rng = np.random.default_rng(seed)
    for _ in range(populations):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(1, 6))
        yield from _product_net_checks(resolve_network(f"product:{d}", rng), n, rng)


def _tied_vectors(d: int, side: str, top: int):
    """Every vector over 0..top that is constant on each copy block of the
    side's copy layout: the roots' values run over the product in order, and
    each copy repeats its source's."""
    layout = _copy_layout(d, side)
    roots = sorted(set(layout))
    for free in itertools.product(range(top + 1), repeat=len(roots)):
        value = dict(zip(roots, free))
        yield tuple(value[s] for s in layout)


def _clipped_gap(
    bn: BayesianNetwork,
    releases: Sequence[ReleasedCounts],
    ys: np.ndarray,
    clip: atk.ClipRange,
) -> tuple[float, int]:
    """Largest |R / lambda - 1| over the targets ys of every release of a
    batch of one size, where R is the exact posterior odds under bn and
    lambda the clipped ratio statistic, each scored for the whole batch in
    one call; inf when exactly one of them is zero for some target.  Also
    the number of (release, target) pairs compared: a release impossible
    under bn is skipped, its rows neither compared nor counted."""
    targets = np.broadcast_to(ys, (len(releases), *ys.shape))
    possible = np.ones(len(releases), dtype=bool)
    try:
        r_log = atk.score(atk.BAYES, bn, None, releases, targets)
    except ImpossibleEvidenceError as err:
        r_log = err.scores
        possible[list(err.releases)] = False
    lam_log = atk.lrt_clipped_score(attribute_marginals(bn), releases, targets, clip)
    r_log, lam_log = r_log[possible], lam_log[possible]
    r_zero = r_log == -math.inf
    if np.any(r_zero != (lam_log == -math.inf)):
        return math.inf, r_log.size
    gaps = (r_log[~r_zero] - lam_log[~r_zero]).tolist()
    return max((abs(math.expm1(g)) for g in gaps), default=0.0), r_log.size


def _tied_releases(d: int, side: str, n: int) -> list[ReleasedCounts]:
    return [ReleasedCounts(c, n) for c in _tied_vectors(d, side, n)]


@_suite("half_repeated_clipped_equivalence", 1e-9)
def verify_half_repeated_equivalence(seed: int = 20250810):
    """Posterior odds == the ratio statistic clipped to the independent block,
    on half-repeated populations."""
    rng = np.random.default_rng(seed)
    for d in range(2, 8):
        bn = resolve_network(f"half:{d}", rng)
        clip = atk.half_clip_range(d)
        ys = np.array(list(_tied_vectors(d, RIGHT, 1)))
        for n in range(1, 5):
            yield _clipped_gap(bn, _tied_releases(d, RIGHT, n), ys, clip)


@_suite("lr_pure_side_equivalence", 1e-9)
def verify_lr_pure_side_equivalence(seed: int = 20250810):
    """Posterior odds == the side-clipped ratio statistic when the population
    itself is a single fixed side (no hidden coin).  This is the substance of
    the side-clipping equivalence."""
    rng = np.random.default_rng(seed)
    for d in (4, 6):
        for side in (RIGHT, LEFT):
            bn = make_lr_side(d, _side_params(d, side, rng), side)
            clip = atk.side_clip_range(d, side)
            ys = np.array(list(_tied_vectors(d, side, 1)))
            for n in range(1, 5):
                yield _clipped_gap(bn, _tied_releases(d, side, n), ys, clip)


@_suite(
    "lr_single_side_counts_vs_mixture_posterior", 1e-9,
    note="known model-semantics gap: mixed-side datasets contribute to the "
    "evidence, so no tolerance this tight can hold",
    advisory=True,
)
def verify_lr_single_side_counts(seed: int = 20250810):
    """Posterior odds vs the side-clipped statistic on the hidden-coin mixture
    population, restricted to counts consistent with exactly one side.

    This equality does NOT hold: datasets mixing records of both sides
    contribute to the evidence probability, so the exact posterior departs
    from the single-side closed form.  Kept as an advisory suite documenting
    the measured gap; see notes/decisions.md in the repository root.
    """
    rng = np.random.default_rng(seed)
    for d in (4, 6):
        bn = resolve_network(f"lr:{d}", rng)
        for n in (2, 3):
            for side in (RIGHT, LEFT):
                # only the counts that read as this side, not ambiguous or the other
                releases = [
                    counts for counts in _tied_releases(d, side, n)
                    if atk.choose_side(counts, d) == side
                ]
                ys = np.array(list(_tied_vectors(d, side, 1)))
                yield _clipped_gap(bn, releases, ys, atk.side_clip_range(d, side))


@_suite("binomial_ratio_identities", 1e-12)
def verify_binomial_identities(samples: int = 1000, seed: int = 20250810):
    """The per-coordinate closed forms k/(n mu) and (n-k)/(n (1-mu)) against
    the explicit binomial pmf ratio."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        n = int(rng.integers(1, 13))
        mu = float(rng.uniform(0.05, 0.95))

        def pmf(nn: int, kk: int) -> float:
            return math.comb(nn, kk) * mu**kk * (1 - mu) ** (nn - kk)

        k = int(rng.integers(1, n + 1))  # set-bit branch needs k >= 1
        lhs = pmf(n - 1, k - 1) / pmf(n, k)
        rhs = k / (n * mu)
        yield abs(lhs - rhs) / rhs, 1
        k = int(rng.integers(0, n))  # unset-bit branch needs k <= n-1
        lhs = pmf(n - 1, k) / pmf(n, k)
        rhs = (n - k) / (n * (1 - mu))
        yield abs(lhs - rhs) / rhs, 1


def _theta_in(ratio: float) -> float:
    """The membership posterior under a fair-coin prior, R / (1 + R); 1.0
    for infinite odds."""
    return 1.0 if math.isinf(ratio) else ratio / (1.0 + ratio)


@_suite("oracle_agreement", 1e-12)
def verify_oracle_agreement(seed: int = 20250810):
    """Convolution posterior vs brute-force enumeration over full network
    instances, exhaustively over all feasible counts and targets; one engine
    scores every count vector of a network and a size.

    Deviation is the larger of the absolute gap in the membership posterior
    (bounded in [0, 1]) and the relative gap in the odds ratio; a raw
    absolute gap on the ratio itself would drop below one float64 ulp as
    soon as the odds exceed ~4, so it cannot distinguish agreement from
    rounding.  Zero ratios must agree exactly.
    """
    rng = np.random.default_rng(seed)
    nets = [resolve_network(f"product:{int(rng.integers(1, 4))}", rng) for _ in range(3)]
    nets.append(resolve_network("half:3", rng))
    cancer = resolve_network("cancer", None)
    nets.append(cancer.with_outputs(("Xray", "Dyspnoea"), "raw-binary"))
    nets.append(cancer.with_outputs(("Cancer", "Xray", "Dyspnoea"), "raw-binary"))

    for bn in nets:
        targets = list(itertools.product((0, 1), repeat=bn.d))
        for n in (1, 2, 3):
            if bn.joint_state_count**n > 200_000:
                continue
            releases = [ReleasedCounts(c, n) for c in itertools.product(range(n + 1), repeat=bn.d)]
            engine = posterior_engine(bn, releases)
            batch = np.broadcast_to(targets, (len(releases), len(targets), bn.d))
            log_r = engine.log_ratios(batch).tolist()
            for r, counts in enumerate(releases):
                try:
                    oracle = [brute_force_posterior(bn, counts, y) for y in targets]
                except ImpossibleEvidenceError:
                    oracle = None
                impossible = r in engine.impossible
                if impossible or oracle is None:
                    yield (math.inf if impossible != (oracle is None) else 0.0), len(targets)
                    continue
                for bf, dp in zip(oracle, map(math.exp, log_r[r])):
                    dev = abs(_theta_in(dp) - _theta_in(bf))
                    if (dp == 0.0) != (bf == 0.0):
                        dev = math.inf
                    elif bf > 0.0:
                        dev = max(dev, abs(dp - bf) / bf)
                    yield dev, 1


@_suite("count_distribution_normalization", 1e-9)
def verify_count_normalization(seed: int = 20250810):
    """Count distributions sum to 1 over all count vectors, small instances;
    one stacked table holds every count vector of a network and a size."""
    rng = np.random.default_rng(seed)
    for bn in [resolve_network(name, rng) for name in ("product:2", "product:3", "half:5")]:
        law = output_marginal_law(bn)
        for n in (1, 2, 3):
            caps = np.array(list(itertools.product(range(n + 1), repeat=bn.d)))
            log_p = sum_log_table(law, n, caps).log_prob(caps, np.arange(len(caps)))
            yield abs(math.fsum(map(math.exp, log_p.tolist())) - 1.0), 1


def law_ratio_deviation(
    bn: BayesianNetwork, n: int, releases: int, rng: np.random.Generator
) -> float:
    """Max |sum_y law(y) R(y) - 1| over releases of n sampled records, scored
    as one batch.

    Summed against the law, the numerator of R gives its denominator, so the
    sum is 1 for any feasible release: a check without the oracle, at sizes
    the oracle cannot reach.
    """
    law = output_marginal_law(bn)
    batch = [dataset_counts(bn, project(bn, sample(bn, n, rng))) for _ in range(releases)]
    log_r = PosteriorEngine(law, batch).log_ratios(
        np.broadcast_to(law.vectors, (releases, *law.vectors.shape))
    )
    return max(abs(math.fsum(law.probs * np.exp(row)) - 1.0) for row in log_r)


@_suite("law_weighted_ratio_normalization", 1e-12)
def verify_law_ratio_normalization(seed: int = 20250810):
    """sum_y law(y) R(y) = 1 on three releases of every bundled network, n = 4."""
    rng = np.random.default_rng(seed)
    for name in BUNDLED_BENCHMARKS:
        yield law_ratio_deviation(resolve_network(name, None), 4, 3, rng), 3


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
