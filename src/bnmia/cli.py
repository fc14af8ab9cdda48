"""Command-line interface: sample datasets, score targets, run experiments,
verify the numerical equivalences, and time the posterior.  Networks resolve
through `populations.resolve_network`, attack names through `attacks.score`.

Exit codes: 0 success, 1 usage error (an unknown attack name among them),
2 data/format error (an invalid network among them), 3 verification failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import attacks as atk
from . import harness
from .formats import NetworkFormatError
from .inference import _IMPOSSIBLE, ImpossibleEvidenceError
from .learning import ProxyDataset
from .model import (
    InvalidNetworkError, ModelSizeError, ReleasedCounts, attribute_marginals, output_marginal_law
)
from .populations import resolve_network

USAGE_ERROR = 1
DATA_ERROR = 2
VERIFY_FAILURE = 3


class DataError(ValueError):
    """A release or target the `attack` command cannot use: counts or bits
    of the wrong length or range.  Exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _listed(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(","))


def _integers(text: str, option: str) -> tuple[int, ...]:
    """The comma-separated ASCII decimal integers of an `attack` option; a
    DataError naming the first entry that is not one."""
    entries = _listed(text)
    for entry in entries:
        digits = entry[1:] if entry.startswith("-") else entry
        if not (digits.isascii() and digits.isdigit()):
            raise DataError(f"{option} entry {entry!r} is not an integer")
    return tuple(int(entry) for entry in entries)


def _cmd_sample(args) -> int:
    rng = np.random.default_rng(args.seed)
    bn = resolve_network(args.network, rng, args.outputs, args.encoding)
    proxy = ProxyDataset.from_network_samples(bn, args.n, rng)
    text = proxy.to_csv()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_attack(args) -> int:
    atk.parse_attack(args.attack)
    bn = resolve_network(args.network, np.random.default_rng(0), args.outputs, args.encoding)
    counts_vec = _integers(args.counts, "--counts")
    y = _integers(args.target, "--target")
    if len(y) != bn.d or len(counts_vec) != bn.d:
        raise DataError(f"counts and target must have length d={bn.d}")
    if any(b not in (0, 1) for b in y):
        raise DataError("target entries must be 0 or 1")
    try:
        counts = ReleasedCounts(counts_vec, args.n)
    except ValueError as err:
        raise DataError(str(err)) from None
    law = output_marginal_law(bn)
    scores, impossible = atk.score(args.attack, law, attribute_marginals(law), [counts], [[y]])
    if impossible:
        raise ImpossibleEvidenceError(_IMPOSSIBLE)
    value = float(scores[0, 0])
    print(f"{args.attack} {value:.12g}")
    if args.threshold is not None:
        print(atk.decide(value, args.threshold))
    return 0


def _cmd_eval(args) -> int:
    config = harness.ExperimentConfig(
        population=args.network,
        n=args.n,
        output_nodes=args.outputs,
        encoding=args.encoding,
        trials=args.trials,
        targets_in=args.targets_in,
        targets_out=args.targets_out,
        threat=args.threat,
        m=args.m,
        attacks=args.attacks,
        seed=args.seed,
        workers=args.workers,
    )
    out = Path(args.out)
    summary_path = out.with_name(out.stem + ".summary" + out.suffix)
    # Both outputs are opened before the experiment runs, so a path that
    # cannot be written fails at once; a run that fails removes them.
    opened = []
    try:
        with out.open("w", encoding="utf-8") as rows_file:
            opened.append(out)
            with summary_path.open("w", encoding="utf-8") as summary_file:
                opened.append(summary_path)
                result = harness.run_experiment(config)
                rows_file.write(result.rows_csv())
                summary_file.write(result.summary_csv())
    except BaseException:
        for path in opened:
            path.unlink()
        raise
    for row in result.summary:
        flagged = result.impossible_evidence.get(row.attack, 0)
        extra = f"  [impossible evidence on {flagged} scores]" if flagged else ""
        print(
            f"{row.population} n={row.n} {row.threat} {row.attack}: "
            f"AUC {row.mean_auc:.3f} +/- {row.std_auc:.3f} over {row.trials} trials{extra}"
        )
    print(f"wrote {out} and {summary_path}")
    return 0


def _cmd_verify(args) -> int:
    from . import suites  # only verify and bench load the suites

    results = suites.verify_equivalences(
        product_populations=args.populations, identity_samples=args.samples, seed=args.seed
    )
    failed = False
    for s in results:
        status = "PASS" if s.passed else ("FAIL (known gap)" if s.advisory else "FAIL")
        print(
            f"{status:16s} {s.name}: max deviation {s.max_deviation:.3e} "
            f"(tolerance {s.tolerance:.0e}, {s.cases} cases, {s.seconds:.1f}s)"
        )
        if s.note:
            print(f"{'':16s} note: {s.note}")
        failed = failed or (not s.passed and not s.advisory)
    return VERIFY_FAILURE if failed else 0


def _cmd_bench(args) -> int:
    from . import suites

    rows = suites.bench_posterior(
        args.networks,
        n=args.n,
        datasets=args.datasets,
        targets=args.targets,
        seed=args.seed,
    )
    print(f"{'population':>16s} {'nodes':>6s} {'dims':>5s} {'out':>4s} {'d':>4s} {'sec/call':>10s}")
    for r in rows:
        print(
            f"{r.population:>16s} {r.num_nodes:>6d} {r.param_dim:>5d} "
            f"{r.num_output_nodes:>4d} {r.output_dim:>4d} {r.mean_seconds:>10.4f}"
        )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="bnmia", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common_net = argparse.ArgumentParser(add_help=False)
    common_net.add_argument("--network", required=True,
                            help="builtin population name or a network file path")
    common_net.add_argument("--outputs", type=_listed, help="comma-separated output node names")
    common_net.add_argument("--encoding", choices=("raw-binary", "one-hot"))

    p = sub.add_parser("sample", parents=[common_net],
                       help="emit a dataset CSV sampled from a network")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("attack", parents=[common_net], help="score one target")
    p.add_argument("--counts", required=True, help="comma-separated released counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", required=True, help="comma-separated encoded target bits")
    p.add_argument("--attack", required=True,
                   help="lrt, inner_product, bayes, lrt_clipped:LO-HI, lrt_clipped_auto or _flip")
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("eval", parents=[common_net], help="run a full experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--targets-in", type=int, default=20)
    p.add_argument("--targets-out", type=int, default=20)
    p.add_argument("--threat", choices=harness.THREATS, default=harness.STRONG)
    p.add_argument("--m", type=int)
    p.add_argument("--attacks", type=_listed, default=harness.DEFAULT_ATTACKS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="results.csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="run the numerical equivalence suites")
    p.add_argument("--populations", type=int, default=200)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=20250810)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time the posterior computation")
    p.add_argument("--networks", type=_listed, default=("product:10", "cancer", "asia"))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--datasets", type=int, default=20)
    p.add_argument("--targets", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, InvalidNetworkError, NetworkFormatError, ModelSizeError,
            ImpossibleEvidenceError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return DATA_ERROR
    except MemoryError as err:
        detail = f": {err}" if str(err) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
