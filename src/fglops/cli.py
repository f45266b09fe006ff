"""Command-line surface.

Subcommands: log, exp, pseries, reduced-pseries, power-op-coeffs, mc, verify.
Results go to stdout (text by default, --format json for the wire format);
progress checkpoints for long runs go to stderr and never change the output
bytes.  Exit codes: 0 success, 1 invalid configuration (a usage error
included, as one `error:` line), 2 golden mismatch.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .fgl import MR_BOUND, FglContext, is_prime
from .golden import SUITES, GoldenFileError, verify_suite
from .obstruction import InsufficientTruncationError, check_truncation, mc, sparse_mc
from .poly import MAX_TRUNCATION
from .powerop import power_operation, reduce_a_mod_p_series
from .render import poly_text, series_text, series_to_json, to_json
from .series import Series

# smallest truncation orders that make every published table coefficient valid
DEFAULT_TRUNCATION = {2: 14, 3: 25, 5: 76, 7: 162, 11: 370, 13: 504}

# accepted so that existing command lines keep parsing
THREADS_HELP = "no effect: the kernel runs in one process"


class _Parser(argparse.ArgumentParser):
    """A usage error is one `error:` line and exit 1, as for any invalid configuration.

    argparse would print the usage lines and exit 2, the code of a golden
    mismatch.  The subcommand parsers are of this class too (parser_class).
    """

    def error(self, message):
        raise SystemExit(_fail(message))


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole command line; `main` builds one per process."""
    ap = _Parser(
        prog="fglops",
        description="Exact truncated formal-group-law series, power-operation "
                    "coefficients, and obstruction series over the Brown-Peterson "
                    "coefficient ring.",
    )
    sp = ap.add_subparsers(dest="command", required=True)
    # the options of every series subcommand, as a parent: argparse copies a
    # parent's actions without re-checking each one, most of what adding them costs
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", "-p", type=int, required=True)
    common.add_argument("--truncation", "-k", type=int, default=None,
                        help="truncation order; defaults to the table-reproducing order for the prime")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--threads", type=int, help=THREADS_HELP)
    common.add_argument("--ideal", default=None,
                        help="comma-separated generators to kill, e.g. 'v2,v3'; a letter "
                             "must match the printed basis, bare digits mean that basis")

    for name, hlp in (
        ("log", "p-typical logarithm (l-basis)"),
        ("exp", "exponential, the compositional inverse of the logarithm (l-basis)"),
        ("pseries", "the p-series [p]xi"),
        ("reduced-pseries", "the reduced p-series [p]xi / xi"),
    ):
        sub = sp.add_parser(name, help=hlp, parents=[common])
        if name in ("pseries", "reduced-pseries"):
            sub.add_argument("--basis", choices=("l", "v"), default="v")

    sub = sp.add_parser("power-op-coeffs", help="coefficient series a_i of the power operation",
                        parents=[common])
    sub.add_argument("--max-i", type=int, default=None, help="largest i to print")
    sub.add_argument("--reduced", action="store_true",
                     help="reduce each a_i modulo the reduced p-series")

    sub = sp.add_parser("mc", help="obstruction series for a given n", parents=[common])
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--force-full", action="store_true",
                     help="disable the sparseness shortcut at odd primes")
    sub.add_argument("--show-raw", action="store_true", help="also print the raw sum")
    sub.add_argument("--progress", action="store_true",
                     help="emit power-operation and recurrence-step progress to stderr")

    sub = sp.add_parser("verify", help="recompute and compare against the published tables")
    sub.add_argument("--suite", default="all", help="one of %s or 'all'" % (", ".join(SUITES)))
    sub.add_argument("--threads", type=int, help=THREADS_HELP)
    sub.add_argument("--progress", action="store_true")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call and reused by every later one.

    Parsing leaves the parser as it was, and the help width is read each time
    help is printed, so nothing of one call reaches the next.
    """
    return build_parser()


def _parse_ideal(text: str | None, basis: str) -> list:
    """Generator indices to kill; a letter, if given, must name the printed basis."""
    if text is None:
        return []
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk[0] in ("v", "l"):
            if chunk[0] != basis:
                raise SystemExit(_fail(f"ideal generator {chunk!r} is not in the "
                                       f"{basis}-basis of the printed series"))
            chunk = chunk[1:]
        if not chunk.isdigit() or int(chunk) < 1:
            raise SystemExit(_fail(f"bad ideal generator {chunk!r}"))
        out.append(int(chunk))
    if not out:
        raise SystemExit(_fail(f"ideal {text!r} names no generator"))
    return out


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def apply_ideal(series: Series, ideal: list) -> Series:
    """Kill every monomial containing one of the listed generators."""
    return series.kill_generators(ideal) if ideal else series


def _emit_series(series: Series, args, truncation: int) -> None:
    if args.format == "json":
        print(series_to_json(series, truncation))
    else:
        print(series_text(series))


def _truncation(args) -> int:
    """The truncation order k for a checked prime, defaulted from the tables."""
    p = args.prime
    if p >= MR_BOUND:
        raise SystemExit(_fail(f"p must be below {MR_BOUND}, where primality is decided"))
    if not is_prime(p):
        raise SystemExit(_fail(f"{p} is not prime"))
    k = args.truncation
    if k is None:
        k = DEFAULT_TRUNCATION.get(p)
        if k is None:
            raise SystemExit(_fail(f"no default truncation for p={p}; pass --truncation"))
    if not 1 <= k <= MAX_TRUNCATION:
        raise SystemExit(_fail(f"truncation order must be in 1..{MAX_TRUNCATION}"))
    return k


def _progress_printer(enabled: bool, unit: str):
    if not enabled:
        return None

    def emit(done, total):
        print(f"progress: {done}/{total} {unit}", file=sys.stderr, flush=True)

    return emit


def _mc(args, k: int, ideal: list) -> int:
    """The mc subcommand; the sparseness shortcut builds no context and no power operation at k."""
    p, n = args.prime, args.n
    if n < 1:
        return _fail("--n must be >= 1")
    try:
        check_truncation(n, k)
        result = None if args.force_full else sparse_mc(p, k, n)
        if result is None:
            ctx = FglContext(p, k)
            steps = _progress_printer(args.progress, "power-operation steps")
            data = power_operation(ctx, x_cap=n, progress=steps)
            result = mc(ctx, data, n, force_full=args.force_full,
                        progress=_progress_printer(args.progress, "recurrence steps"))
    except (InsufficientTruncationError, ValueError) as exc:
        return _fail(str(exc))
    reduced = apply_ideal(result.reduced.series, ideal)
    annotation = (
        "obstruction index" if result.is_obstruction_index
        else "not an obstruction index (n = p^i - 1)"
    )
    if args.format == "json":
        obj = {
            "prime": p,
            "truncation": k,
            "n": n,
            "reduced": reduced,
            "raw": None if result.raw is None else apply_ideal(result.raw, ideal),
            "certificate": None if result.certificate is None else {
                "xi_exponent": result.certificate[0],
                "leading": poly_text(result.certificate[1], p),
            },
            "obstruction_index": result.is_obstruction_index,
            "sparseness_shortcut": result.used_shortcut,
        }
        print(to_json(obj, k))
    else:
        print(f"MC_{n}(xi) mod <{p}>xi = {series_text(reduced)}")
        if args.show_raw and result.raw is not None:
            print(f"raw = {series_text(apply_ideal(result.raw, ideal))}")
        if result.certificate is not None:
            j, lead = result.certificate
            print(f"certificate: xi^{j} -> {poly_text(lead, p)}")
        else:
            print("certificate: none (zero within validity; inconclusive)")
        if result.used_shortcut:
            print("sparseness shortcut: reduced form vanishes identically")
        print(f"annotation: {annotation}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cmd = args.command
    if args.threads is not None and args.threads < 1:
        return _fail(f"--threads must be >= 1, got {args.threads}")

    if cmd == "verify":
        failures = []
        suites = SUITES if args.suite == "all" else (args.suite,)
        for name in suites:
            if name not in SUITES:
                return _fail(f"unknown suite {name!r}")
            try:
                mism = verify_suite(
                    name, progress=_progress_printer(args.progress, "recurrence steps"),
                    powerop_progress=_progress_printer(args.progress, "power-operation steps"))
            except GoldenFileError as exc:
                return _fail(str(exc))
            if mism:
                suite_prime = int(name[1:])
                for m in mism:
                    print(f"MISMATCH {m.describe(suite_prime)}")
                failures.extend(mism)
            else:
                print(f"suite {name}: ok")
        return 2 if failures else 0

    printed_basis = "l" if cmd in ("log", "exp") else getattr(args, "basis", "v")
    ideal = _parse_ideal(args.ideal, printed_basis)
    k = _truncation(args)
    if cmd == "mc":
        return _mc(args, k, ideal)
    ctx = FglContext(args.prime, k)

    if cmd in ("log", "exp", "pseries", "reduced-pseries"):
        if cmd == "log":
            ser = ctx.log
        elif cmd == "exp":
            ser = ctx.exp
        elif cmd == "pseries":
            ser = ctx.p_series(args.basis)
        else:
            ser = ctx.reduced_p_series(args.basis)
        _emit_series(apply_ideal(ser, ideal), args, ctx.k)
        return 0

    if cmd == "power-op-coeffs":
        cap = args.max_i if args.max_i is not None else min(ctx.k, 16)
        try:
            data = power_operation(ctx, x_cap=cap)
        except ValueError as exc:
            return _fail(str(exc))
        entries = data.a if not args.reduced else [r.series for r in reduce_a_mod_p_series(data)]
        if args.format == "json":
            obj = {"prime": ctx.p, "truncation": ctx.k,
                   "a": [apply_ideal(s, ideal) for s in entries]}
            print(to_json(obj, ctx.k))
        else:
            for i, s in enumerate(entries):
                print(f"a_{i} = {series_text(apply_ideal(s, ideal))}")
        return 0

    return _fail(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
