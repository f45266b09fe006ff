"""The process of one benchmark run: a closed loop of ``fglops.cli.main`` calls.

    python3 -I perfbench/worker.py --probe
    python3 -I perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--spans PATH]

It imports ``fglops.cli`` from the checkout's ``src`` before anything else, so
the monotonic time it reports on import, taken against the time its parent
started it, is the set-up time.  ``--probe`` stops there.  Otherwise it runs
iterations of the workload until both its minimum count and ``--seconds``
have passed, capturing each call's stdout and stderr and holding the outcome
against ``reference.json``.  ``--trace`` then adds two traced iterations.
The last line of its stdout is one JSON object with everything measured.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
import fglops.cli  # noqa: E402  (set-up time ends here)

IMPORTED_AT = time.monotonic()
sys.path.insert(0, HERE)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

from calibrate import kernel_s  # noqa: E402
from tracer import Tracer, layer_metrics, write_spans  # noqa: E402
from workloads import WORKLOADS, check_call, digest, load_reference  # noqa: E402

TRACED_ITERATIONS = 2


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_call(argv: list):
    """(exit code or None on an exception, stdout, seconds, error text)."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = fglops.cli.main(argv)
        rc = 0 if rc is None else rc
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # a crashing call is a failed call; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - start, error


def run_iteration(argvs: list, reference: dict, calls: list, index: int,
                  traced: bool = False) -> dict:
    """Run one iteration's calls, appending a record per call to ``calls``."""
    cpu0 = _cpu_s()
    wall = 0.0
    nbytes = 0
    for argv in argvs:
        rc, stdout, seconds, error = run_call(argv)
        fail = error or check_call(argv, rc, stdout, reference)
        calls.append({
            "argv": " ".join(argv), "iteration": index, "traced": traced,
            "rc": rc, "sha256": digest(stdout), "ms": seconds * 1000.0, "fail": fail,
        })
        wall += seconds
        nbytes += len(stdout.encode("utf-8"))
    return {"wall_s": wall, "cpu_s": _cpu_s() - cpu0, "calls": len(argvs), "bytes": nbytes}


def run(workload, seed: int, seconds: float, reference: dict, trace: bool = False,
        spans_path=None) -> dict:
    """All iterations of one run; traced ones follow the untraced ones.

    The host's speed (``calibrate.kernel_s``) is read before the first
    untraced iteration and after each one.
    """
    rng = random.Random(seed)
    calls: list = []
    iterations = []
    kernel = [kernel_s()]
    began = time.perf_counter()
    while (len(iterations) < workload.min_iterations
           or time.perf_counter() - began < seconds):
        iterations.append(run_iteration(workload.iteration(rng), reference, calls,
                                        len(iterations)))
        kernel.append(kernel_s())
    result = {"iterations": iterations, "calls": calls, "traced": [], "kernel_s": kernel}
    if trace:
        tracer = Tracer()
        with tracer:
            for run_id in range(TRACED_ITERATIONS):
                tracer.run = run_id
                it = run_iteration(workload.iteration(rng), reference, calls,
                                   len(iterations) + run_id, traced=True)
                it["layers"] = layer_metrics(tracer.spans, run_id)
                it["layers"]["render.bytes"] = it["bytes"]
                result["traced"].append(it)
        if spans_path:
            write_spans(spans_path, tracer.spans)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(own, kids) / 1024.0
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    if args.probe:
        print(repr(IMPORTED_AT))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, load_reference(),
                 trace=args.trace, spans_path=args.spans)
    result["imported_at"] = IMPORTED_AT
    result["fglops_file"] = fglops.cli.__file__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
