"""Embedded golden tables and the verify machinery.

Each suite file (golden/p<prime>.json) records the published series in the
JSON wire format: the reduced p-series where available, and the reduced
obstruction series for the listed n.  A table's "validity" is the published
display order; a computed series matches when

  * its validity reaches past the table's last nonzero exponent, and
  * every coefficient strictly below min(computed validity, table validity)
    agrees exactly (absent coefficients are zero).

The golden directory can be overridden with the FGLOPS_GOLDEN_DIR
environment variable.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .fgl import MR_BOUND, is_prime
from .poly import MAX_TRUNCATION
from .render import poly_text, series_from_obj
from .series import Series

ENV_GOLDEN_DIR = "FGLOPS_GOLDEN_DIR"

SUITES = ("p2", "p3", "p5", "p7", "p11", "p13")


def golden_dir() -> Path:
    override = os.environ.get(ENV_GOLDEN_DIR)
    if override:
        return Path(override)
    return Path(__file__).parent / "golden"


class GoldenFileError(ValueError):
    """A golden suite file is missing, unreadable, not valid JSON or of the wrong shape."""


def load_suite(name: str) -> dict:
    path = golden_dir() / f"{name}.json"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            suite = json.load(fh)
    except FileNotFoundError:
        raise GoldenFileError(f"no golden suite {name!r} at {path}") from None
    except (OSError, ValueError) as exc:
        raise GoldenFileError(f"cannot read golden suite {name!r} at {path}: {exc}") from exc
    problem = _suite_problem(suite)
    if problem:
        raise GoldenFileError(f"golden suite {name!r} at {path} {problem}")
    return suite


def _suite_problem(suite) -> str | None:
    """Why verify_suite cannot run on a parsed suite file, or None if it can."""
    if not _is_suite(suite):
        return ("is not an object with an integer prime and truncation and a list of "
                "tables with a kind (mc or reduced-pseries), a series and, but for the "
                "reduced p-series, an n")
    p, k = suite["prime"], suite["truncation"]
    if p >= MR_BOUND:
        return f"has prime {p}, but primality is only decided below {MR_BOUND}"
    if not is_prime(p):
        return f"has prime {p}, which is not prime"
    if not 1 <= k <= MAX_TRUNCATION:
        return f"has truncation {k}, but it must lie in 1..{MAX_TRUNCATION}"
    for t in suite["tables"]:
        if t["kind"] == "mc" and not 0 <= t["n"] <= k:
            return f"has an MC_{t['n']} table, but n must lie in 0..truncation = {k}"
        try:
            readable = isinstance(series_from_obj(t["series"]).validity, int)
        except (AttributeError, KeyError, TypeError, ValueError):
            readable = False
        if not readable:
            return f"has a table of kind {t['kind']!r} whose series is not in the wire format"
    return None


def _is_suite(suite) -> bool:
    """The shape verify_suite reads; every table but the p-series names its n."""
    return (isinstance(suite, dict)
            and isinstance(suite.get("prime"), int)
            and isinstance(suite.get("truncation"), int)
            and isinstance(suite.get("tables"), list)
            and all(isinstance(t, dict) and {"kind", "series"} <= t.keys()
                    and (t["kind"] == "reduced-pseries"
                         or t["kind"] == "mc" and isinstance(t.get("n"), int))
                    for t in suite["tables"]))


class Mismatch:
    __slots__ = ("table", "exponent", "got", "want")

    def __init__(self, table, exponent, got, want):
        self.table = table
        self.exponent = exponent
        self.got = got
        self.want = want

    def describe(self, prime: int) -> str:
        if self.exponent is None:
            return f"{self.table}: {self.want}"
        return (
            f"{self.table}: first mismatch at xi^{self.exponent}: "
            f"computed {poly_text(self.got, prime)}, table has {poly_text(self.want, prime)}"
        )


def compare_series(label: str, computed: Series, table: Series) -> list:
    """First mismatching coefficient against a golden table, if any."""
    last_nonzero = max((e[0] for e in table.coeffs), default=-1)
    if computed.validity <= last_nonzero:
        return [Mismatch(label, None, None,
                         f"computed validity {computed.validity} cannot certify the "
                         f"table's xi^{last_nonzero} coefficient")]
    lim = min(computed.validity, table.validity)
    for j in range(lim):
        got = computed.coefficient(j)
        want = table.coefficient(j)
        if got != want:
            return [Mismatch(label, j, got, want)]
    return []


def verify_suite(name: str, progress=None) -> list:
    """Run the computations a suite describes and compare; returns mismatches."""
    from .fgl import FglContext
    from .obstruction import InsufficientTruncationError, mc
    from .powerop import power_operation

    suite = load_suite(name)
    p = suite["prime"]
    k = suite["truncation"]
    ctx = FglContext(p, k)
    mismatches = []

    tables = suite["tables"]
    mc_ns = [t["n"] for t in tables if t["kind"] == "mc"]
    data = None
    if mc_ns:
        data = power_operation(ctx, x_cap=max(mc_ns))

    for t in tables:
        want = series_from_obj(t["series"])
        if t["kind"] == "reduced-pseries":
            got = ctx.reduced_p_series("v")
            label = f"p={p} reduced-pseries"
        else:
            n = t["n"]
            try:
                result = mc(ctx, data, n, progress=progress)
            except InsufficientTruncationError as exc:
                raise GoldenFileError(
                    f"golden suite {name!r} at {golden_dir() / f'{name}.json'}: "
                    f"its truncation {k} is too small: {exc}"
                ) from exc
            got = result.reduced.series
            label = f"p={p} MC_{n}"
        mismatches.extend(compare_series(label, got, want))
    return mismatches
