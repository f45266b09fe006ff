"""Command-line surface.

Subcommands: log, exp, pseries, reduced-pseries, power-op-coeffs, mc, verify.
Results go to stdout (text by default, --format json for the wire format);
progress checkpoints for long runs go to stderr and never change the output
bytes.  Exit codes: 0 success, 1 invalid configuration, 2 golden mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .fgl import MR_BOUND, FglContext, is_prime
from .golden import SUITES, GoldenFileError, verify_suite
from .obstruction import mc, InsufficientTruncationError
from .poly import MAX_TRUNCATION
from .powerop import power_operation, reduce_a_mod_p_series
from .render import poly_text, series_text, series_to_obj
from .series import Series

# smallest truncation orders that make every published table coefficient valid
DEFAULT_TRUNCATION = {2: 14, 3: 25, 5: 76, 7: 162, 11: 370, 13: 504}

PROGRESS_PRIMES = (11, 13)

# accepted so that existing command lines keep parsing
THREADS_HELP = "no effect: the kernel runs in one process"


def _add_common(sub, need_prime=True):
    if need_prime:
        sub.add_argument("--prime", "-p", type=int, required=True)
        sub.add_argument("--truncation", "-k", type=int, default=None,
                         help="truncation order; defaults to the table-reproducing order for the prime")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--threads", type=int, help=THREADS_HELP)
    sub.add_argument("--ideal", default=None,
                     help="comma-separated generators to kill, e.g. 'v2,v3'; a letter "
                          "must match the printed basis, bare digits mean that basis")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fglops",
        description="Exact truncated formal-group-law series, power-operation "
                    "coefficients, and obstruction series over the Brown-Peterson "
                    "coefficient ring.",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    for name, hlp in (
        ("log", "p-typical logarithm (l-basis)"),
        ("exp", "exponential, the compositional inverse of the logarithm (l-basis)"),
        ("pseries", "the p-series [p]xi"),
        ("reduced-pseries", "the reduced p-series [p]xi / xi"),
    ):
        sub = sp.add_parser(name, help=hlp)
        _add_common(sub)
        if name in ("pseries", "reduced-pseries"):
            sub.add_argument("--basis", choices=("l", "v"), default="v")

    sub = sp.add_parser("power-op-coeffs", help="coefficient series a_i of the power operation")
    _add_common(sub)
    sub.add_argument("--max-i", type=int, default=None, help="largest i to print")
    sub.add_argument("--reduced", action="store_true",
                     help="reduce each a_i modulo the reduced p-series")

    sub = sp.add_parser("mc", help="obstruction series for a given n")
    _add_common(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--force-full", action="store_true",
                     help="disable the sparseness shortcut at odd primes")
    sub.add_argument("--show-raw", action="store_true", help="also print the raw sum")
    sub.add_argument("--progress", action="store_true",
                     help="emit recurrence-step progress to stderr")

    sub = sp.add_parser("verify", help="recompute and compare against the published tables")
    sub.add_argument("--suite", default="all", help="one of %s or 'all'" % (", ".join(SUITES)))
    sub.add_argument("--threads", type=int, help=THREADS_HELP)
    sub.add_argument("--progress", action="store_true")
    return ap


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
        print(json.dumps(series_to_obj(series, truncation), indent=2))
    else:
        print(series_text(series))


def _context(args) -> FglContext:
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
    return FglContext(p, k)


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def emit(done, total):
        print(f"progress: {done}/{total} recurrence steps", file=sys.stderr, flush=True)

    return emit


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
                mism = verify_suite(name, progress=_progress_printer(args.progress))
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
    ctx = _context(args)

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
                   "a": [series_to_obj(apply_ideal(s, ideal), ctx.k) for s in entries]}
            print(json.dumps(obj, indent=2))
        else:
            for i, s in enumerate(entries):
                print(f"a_{i} = {series_text(apply_ideal(s, ideal))}")
        return 0

    if cmd == "mc":
        if args.n < 1:
            return _fail("--n must be >= 1")
        progress = _progress_printer(args.progress or ctx.p in PROGRESS_PRIMES)
        try:
            data = power_operation(ctx, x_cap=args.n)
            result = mc(ctx, data, args.n, force_full=args.force_full, progress=progress)
        except (InsufficientTruncationError, ValueError) as exc:
            return _fail(str(exc))
        reduced = apply_ideal(result.reduced.series, ideal)
        annotation = (
            "obstruction index" if result.is_obstruction_index
            else "not an obstruction index (n = p^i - 1)"
        )
        if args.format == "json":
            obj = {
                "prime": ctx.p,
                "truncation": ctx.k,
                "n": args.n,
                "reduced": series_to_obj(reduced, ctx.k),
                "raw": None if result.raw is None
                       else series_to_obj(apply_ideal(result.raw, ideal), ctx.k),
                "certificate": None if result.certificate is None else {
                    "xi_exponent": result.certificate[0],
                    "leading": poly_text(result.certificate[1], ctx.p),
                },
                "obstruction_index": result.is_obstruction_index,
                "sparseness_shortcut": result.used_shortcut,
            }
            print(json.dumps(obj, indent=2))
        else:
            print(f"MC_{args.n}(xi) mod <{ctx.p}>xi = {series_text(reduced)}")
            if args.show_raw and result.raw is not None:
                print(f"raw = {series_text(apply_ideal(result.raw, ideal))}")
            if result.certificate is not None:
                j, lead = result.certificate
                print(f"certificate: xi^{j} -> {poly_text(lead, ctx.p)}")
            else:
                print("certificate: none (zero within validity; inconclusive)")
            if result.used_shortcut:
                print("sparseness shortcut: reduced form vanishes identically")
            print(f"annotation: {annotation}")
        return 0

    return _fail(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
