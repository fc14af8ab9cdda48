"""Resource contracts of the command-line tool, each run as its own process
under an operating-system limit, as a user would meet them."""
import os
import resource
import subprocess
import sys

import bnmia

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bnmia.__file__)))


def run_capped(args: list[str], address_bytes: int) -> subprocess.CompletedProcess:
    """`python -m bnmia.cli <args>` with its address space capped, as
    `ulimit -v` would."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_bytes, address_bytes))

    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "bnmia.cli", *args],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=300,
    )


def test_posterior_bench_within_2_gib_of_address_space():
    # The posterior bench of product:10 and plain sachs must complete in
    # 2 GiB of address space.  Ranges of at most _RANGE_BYTES of live keys
    # already bound a step's dense blocks, so one block per range
    # (_BLOCK_BYTES = 10**12) still passes here.
    done = run_capped(
        ["bench", "--networks", "product:10,sachs", "--datasets", "4", "--targets", "2"], 2 * 2**30
    )
    assert done.returncode == 0, done.stderr
