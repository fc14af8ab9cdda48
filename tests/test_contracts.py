"""Contracts of the command-line tool, each run as its own process, most
under an operating-system limit, as a user would meet them."""
import os
import re
import resource
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import bnmia

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bnmia.__file__)))
GIB = 2**30

# name: (command line, address-space cap in bytes or None), longest first.
RUNS = {
    # asia at n = 50 packs a release past 62 bits, so its keys are Python
    # ints, and a range passes the smaller limit the candidate budget's bytes
    # give such keys.
    "asia50": (["eval", "--network", "asia", "--n", "50", "--trials", "2"], 2 * GIB),
    # Some release of product:11 at 40 trials gathers past the 2^25
    # candidate sums of inference._CANDIDATE_BUDGET in one range, after the
    # releases before it have built their tables.
    "product11": (["eval", "--network", "product:11", "--n", "4", "--trials", "40"], 2 * GIB),
    "product18": (["eval", "--network", "product:18", "--n", "2", "--trials", "40"], 3 * GIB // 2),
    "sachs-w1": (["eval", "--network", "sachs", "--n", "4", "--trials", "40", "--workers", "1"],
                 2 * GIB),
    "verify": (["verify"], None),
    "bench": (["bench", "--networks", "product:10,sachs", "--datasets", "4", "--targets", "2"],
              2 * GIB),
    "sachs-w2": (["eval", "--network", "sachs", "--n", "4", "--trials", "40", "--workers", "2"],
                 2 * GIB),
    # product:12 at n = 4 gathers about 63 million candidate sums in one
    # range of a convolution step.
    "product12": (["eval", "--network", "product:12", "--n", "4", "--trials", "2"], 2 * GIB),
}


def run_capped(args: list[str], address_bytes: int | None = None,
               cwd: str | None = None) -> subprocess.CompletedProcess:
    """`python -m bnmia.cli <args>` in `cwd`, with its address space capped,
    as `ulimit -v` would, when `address_bytes` is given."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_bytes, address_bytes))

    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "bnmia.cli", *args], env=env, cwd=cwd,
        preexec_fn=None if address_bytes is None else cap,
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every run of RUNS, each in its own directory (where `eval` writes
    results.csv and results.summary.csv), two processes at a time, all
    started at once: name -> (future of its completed process, directory)."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        started = {}
        for name, (args, address_bytes) in RUNS.items():
            cwd = tmp_path_factory.mktemp(name)
            started[name] = (pool.submit(run_capped, args, address_bytes, str(cwd)), cwd)
        yield started


def test_verify_reports_every_suite_and_its_cases(runs):
    # Deviations are checked against each suite's tolerance, not pinned.  The
    # two lr counts cover the left side's whole support (X_mid free, not tied
    # to X_1..X_{mid-1}): they were 19448 and 6264 while the suites' left
    # vectors missed half of it.
    done = runs["verify"][0].result()
    assert done.returncode == 0, done.stdout + done.stderr
    suites = re.findall(r"^.* ([a-z_]*): max deviation .*, ([0-9]*) cases, .*$", done.stdout, re.M)
    assert suites == [
        ("product_marginal_ratio_equivalence", "31741224"),
        ("half_repeated_clipped_equivalence", "35312"),
        ("lr_pure_side_equivalence", "34880"),
        ("lr_single_side_counts_vs_mixture_posterior", "11040"),
        ("binomial_ratio_identities", "2000"),
        ("oracle_agreement", "1950"),
        ("count_distribution_normalization", "9"),
        ("law_weighted_ratio_normalization", "30"),
    ]


@pytest.mark.parametrize("name", ["product12", "product11", "asia50"])
def test_convolution_past_its_budget_exits_2_within_2_gib(runs, name):
    # The run must stop with ModelSizeError, exit 2 with a one-line error
    # that names the budget, before it runs out of memory.
    done = runs[name][0].result()
    assert done.returncode == 2, done.stderr
    assert re.fullmatch(r"error: [^\n]*\(the candidate budget\)\n", done.stderr), done.stderr
    assert "out of memory" not in done.stderr


def test_stacked_scoring_within_2_gib(runs):
    # Plain sachs has a 177,147-outcome law.  With one worker all 40 releases
    # fall in one batch, scored from one stacked table; the run must fit in
    # 2 GiB of address space, and its CSVs must not depend on how the trials
    # are batched.
    (one, one_dir), (two, two_dir) = runs["sachs-w1"], runs["sachs-w2"]
    for done in (one.result(), two.result()):
        assert done.returncode == 0, done.stderr
    for name in ("results.csv", "results.summary.csv"):
        assert (one_dir / name).read_bytes() == (two_dir / name).read_bytes()


def test_toy_population_laws_within_1_5_gib(runs):
    # Each product:18 trial draws its own parameters, so each has its own
    # 2^18-outcome law; the laws of a scoring group share one outcome array
    # (36 MiB) instead of holding one copy a trial.  The run peaks near
    # 420 MiB; while every network kept its law it reached 1.8 GiB and exited
    # 2 with "out of memory" under this cap.
    done = runs["product18"][0].result()
    assert done.returncode == 0, done.stderr


def test_posterior_bench_within_2_gib_of_address_space(runs):
    # The posterior bench of product:10 and plain sachs must complete in
    # 2 GiB of address space.  Ranges of at most _RANGE_BYTES of live keys
    # already bound a step's dense blocks, so one block per range
    # (_BLOCK_BYTES = 10**12) still passes here.
    done = runs["bench"][0].result()
    assert done.returncode == 0, done.stderr
