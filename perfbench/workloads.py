"""Workload table and the output gate.

A workload is a list of CLI invocations that one iteration runs, in order,
through ``fglops.cli.main``.  Every invocation's exit code and stdout digest
were recorded at the seed commit in ``reference.json``; ``check_call`` holds a
call's outcome against that record.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Every cli-small command passes --threads 2 explicitly: that is the default
# on the 2-core reference box, and it keeps the process count of a run
# independent of the host's core count.
CLI_SMALL = [
    "verify --suite p2",
    "verify --suite p3",
    "verify --suite p5",
    "log -p 3 -k 40",
    "exp -p 2 -k 24 --format json",
    "pseries -p 3 --basis v",
    "reduced-pseries -p 2 -k 14 --basis v --ideal v2,v3",
    "reduced-pseries -p 5 --format json",
    "power-op-coeffs -p 2 -k 7 --max-i 2 --reduced",
    "power-op-coeffs -p 3 --reduced",
    "mc -p 2 --n 5 --format json",
    "mc -p 3 --n 4 --show-raw",
    "mc -p 5 --n 8",
    "mc -p 5 --n 6",
    "mc -p 5 --n 6 --force-full",
]


class Workload:
    """Commands of one iteration, the fewest iterations a run makes, and why."""

    def __init__(self, name: str, commands: list, min_iterations: int, why: str):
        self.name = name
        self.commands = [c.split() for c in commands]
        self.min_iterations = min_iterations
        self.why = why

    def iteration(self, rng: random.Random) -> list:
        """Argv lists of one iteration, in an order drawn from ``rng``."""
        argvs = [list(a) for a in self.commands]
        rng.shuffle(argvs)
        return argvs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-deep", ["mc -p 5 -k 76 --n 24 --format json --threads 1"], 2,
            "2203 summands on small series, one thread; the obstruction sum "
            "dominates, single-threaded baseline of the mc layer",
        ),
        Workload(
            "context-p2", ["reduced-pseries -p 2 -k 56 --basis v --format json"], 2,
            "FglContext build, n-series and l->v substitution over five generators; "
            "only workload where the fgl and poly layers do the work",
        ),
        Workload(
            "cli-small", [c + " --threads 2" for c in CLI_SMALL], 7,
            "15 short commands in seeded order, 105+ calls; per-call overhead "
            "(context, render, golden, argparse, pool start-up) dominates",
        ),
    )
}


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_call(argv: list, rc, stdout: str, reference: dict) -> str | None:
    """Why a call failed against its recorded reference, or None if it passed.

    A call fails on an exception (rc is None), a non-zero exit, a stdout
    digest other than the recorded one, and, for verify, on a missing
    ``suite pN: ok`` line.  The reference only holds calls that exited 0.
    """
    key = " ".join(argv)
    want = reference.get(key)
    if want is None:
        return f"no reference recorded for {key!r}"
    if rc is None:
        return "exception"
    if rc != 0:
        return f"exit code {rc}"
    if digest(stdout) != want["sha256"]:
        return "stdout digest differs from the reference"
    if argv[0] == "verify":
        suite = argv[argv.index("--suite") + 1]
        if f"suite {suite}: ok" not in stdout.splitlines():
            return f"no 'suite {suite}: ok' line"
    return None
