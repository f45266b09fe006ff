"""Benchmark of the fglops command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One run:

1. times set-up: fresh interpreters that import ``fglops.cli`` and exit,
   after one uncounted warm-up that compiles the bytecode, half of them
   before the worker and half after, plus the worker's own import;
2. starts one fresh worker process (``worker.py``) that calls
   ``fglops.cli.main(argv)`` one call after another, for at least the
   workload's minimum number of iterations and at least ``--seconds``;
3. holds every call's exit code and stdout digest against ``reference.json``
   (and ``verify`` calls to their ``suite pN: ok`` line);
4. scales every time to the reference speed of ``calibrate.py`` by the
   host-speed readings the worker takes before its first iteration and after
   each one; the times as measured are printed beside them;
5. with ``--trace 1``, adds two traced iterations in the same worker,
   reports the per-layer metrics of ``tracer.py`` and the tracing overhead,
   and fails unless both traced iterations give the same counts.

The seed sets the call order within each iteration (only ``cli-small`` has
more than one call); the program only ever sees argv.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it spell out each
metric with its sample count and the machine.  Each run also appends its
record to ``perfbench/out/results.jsonl`` and, when traced, writes its spans
to ``perfbench/out/``.  Exit code 0 means every output was right; 1 means a
call or a count failed its check; 2 means the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S  # noqa: E402
from tracer import COUNT_METRICS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 10
RUN_LIMIT_S = 170.0

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("setup_s", "s"),
]


class RunError(Exception):
    """The run could not be made; no result is printed."""


def _load1() -> float | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _python(args: list, timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, "-I", str(WORKER), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def setup_sample() -> float:
    """Seconds from starting an interpreter to ``fglops.cli`` imported in it."""
    started = time.monotonic()
    proc = _python(["--probe"], timeout=60)
    return float(proc.stdout.split()[-1]) - started


def quantile(values: list, q: int) -> float:
    """q-th percentile, inclusive method; a single value is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result: dict, setup: list) -> dict:
    """End-to-end metrics; times at the reference speed, ``raw`` as measured.

    An iteration and its calls are scaled by the mean of the host-speed
    readings just before and just after it; set-up, timed around the worker,
    by the mean of all of them.
    """
    k = result["kernel_s"]
    scale = [2 * REFERENCE_S / (before + after) for before, after in zip(k, k[1:])]
    iterations = result["iterations"]
    ms = [(c["ms"], scale[c["iteration"]]) for c in result["calls"] if not c["traced"]]
    samples = {
        "wall_s": (statistics.median, [(i["wall_s"], s) for i, s in zip(iterations, scale)]),
        "cpu_s": (statistics.median, [(i["cpu_s"], s) for i, s in zip(iterations, scale)]),
        "call_p50_ms": (lambda v: quantile(v, 50), ms),
        "call_p90_ms": (lambda v: quantile(v, 90), ms),
        "setup_s": (statistics.median, [(s, REFERENCE_S / statistics.fmean(k)) for s in setup]),
    }
    metrics = {}
    for name, unit in END_TO_END:
        if name == "peak_rss_mb":
            metrics[name] = {"value": result["peak_rss_mb"], "unit": unit, "samples": 1}
        else:
            stat, pairs = samples[name]
            metrics[name] = {"value": stat([v * s for v, s in pairs]), "unit": unit,
                             "samples": len(pairs), "raw": stat([v for v, _s in pairs])}
    return metrics


def per_layer(result: dict) -> tuple:
    """Per-layer metrics (medians of the traced iterations) and count mismatches."""
    traced = [t["layers"] for t in result["traced"]]
    mismatched = [n for n in COUNT_METRICS if len({t[n] for t in traced}) != 1]
    metrics = {}
    for name, unit, _better in PER_LAYER:
        if name in COUNT_METRICS:
            value = traced[0][name]
        else:
            value = statistics.median(t[name] for t in traced)
        metrics[name] = {"value": value, "unit": unit, "samples": len(traced)}
    return metrics, mismatched


def summarize(result: dict, setup: list, trace: bool) -> dict:
    """The run's verdict and metrics from the worker's record."""
    calls = result["calls"]
    failures = [f"{c['argv']}: {c['fail']}" for c in calls if c["fail"]]
    e2e = end_to_end(result, setup)
    metrics = e2e
    problems = list(failures)
    if trace:
        metrics, mismatched = per_layer(result)
        problems += [f"count {n} differs between traced iterations" for n in mismatched]
    return {
        "correct": not problems,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": metrics,
        "end_to_end": e2e,
        "problems": problems,
    }


def report(summary: dict, record: dict) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"nproc {m['nproc']}  python {m['python']}  cpu {m['cpu']!r}  "
          f"load1 {m['load1_start']} -> {m['load1_end']}  "
          f"kernel {m['kernel_ms']:.3f} ms (reference {REFERENCE_S * 1000:g} ms)")
    shown = dict(summary["end_to_end"])
    shown.update(summary["metrics"])
    for name, v in shown.items():
        raw = f"  raw {v['raw']!r}" if "raw" in v else ""
        print(f"  {name:32s} {v['value']!r:>24} {v['unit']:6s} (n={v['samples']}){raw}")
    print(f"  {'failed_frac':32s} {summary['failed']}/{summary['attempted']}")
    for problem in summary["problems"][:20]:
        print(f"  FAIL {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    began = time.monotonic()
    try:
        if not (ROOT / "src" / "fglops" / "cli.py").is_file():
            raise RunError(f"no fglops sources under {ROOT / 'src'}")
        load1_start = _load1()
        setup_sample()  # warm-up: compiles the bytecode, not counted
        # half the probes before the worker and half after, so that a slow
        # spell of the machine does not move the median
        setup = [setup_sample() for _ in range(SETUP_PROBES // 2)]
        OUT.mkdir(exist_ok=True)
        worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", repr(args.seconds)]
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            worker_args += ["--trace", "--spans", str(spans)]
        started = time.monotonic()
        proc = _python(worker_args, timeout=RUN_LIMIT_S - (started - began))
        result = json.loads(proc.stdout.splitlines()[-1])
        src = ROOT / "src"
        if Path(result["fglops_file"]).resolve().parents[1] != src:
            raise RunError(f"fglops was imported from {result['fglops_file']}, not {src}")
        setup.append(result["imported_at"] - started)
        setup += [setup_sample() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    summary = summarize(result, setup, bool(args.trace))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "cpu": _cpu_model(), "load1_start": load1_start,
                    "load1_end": _load1(),
                    "kernel_ms": statistics.fmean(result["kernel_s"]) * 1000.0},
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **summary,
    }
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    report(summary, record)
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {n: {"value": v["value"], "unit": v["unit"]}
                    for n, v in summary["metrics"].items()},
    }))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
