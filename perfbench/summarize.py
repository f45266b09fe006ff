"""Spread of the recorded runs, and the trajectory entry built from them.

    python3 perfbench/summarize.py [--since 2026-01-01T00:00:00Z]
    python3 perfbench/summarize.py --label seed --commit <sha> [--since ...]

Reads ``perfbench/out/results.jsonl``.  For each workload and end-to-end
metric of the untraced runs it prints the median and the spread, the
distance between the first and third quartile of ``statistics.quantiles(n=4)``
as a share of the median, next to the metric's bound in ``BENCHMARK.json``,
and the spread of the same times as measured, before scaling to the
reference speed.
With ``--label`` it also writes ``perfbench/trajectory/BENCH_<label>.json``:
those statistics, the per-layer metrics of the latest traced run of each
workload, the seeds and the machines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path: Path, since: str | None) -> list:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if since is None or r["time"] >= since]


def stats(values: list) -> dict:
    med = statistics.median(values)
    out = {"n": len(values), "median": med, "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--since", default=None, help="only runs recorded at or after this UTC time")
    ap.add_argument("--label", default=None)
    ap.add_argument("--commit", default=None)
    args = ap.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    records = load(HERE / "out" / "results.jsonl", args.since)
    workloads = {}
    for w in bench["workloads"]:
        timed = [r for r in records if r["workload"] == w["name"] and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == w["name"] and r["trace"] == 1]
        if not timed and not traced:
            continue
        entry = {
            "seeds": [r["seed"] for r in timed],
            "failed": sum(r["failed"] for r in timed + traced),
            "attempted": sum(r["attempted"] for r in timed + traced),
            "end_to_end": {},
            "end_to_end_raw": {},
        }
        for name in bounds:
            values = [r["end_to_end"][name]["value"] for r in timed]
            if values:
                entry["end_to_end"][name] = stats(values)
            raw = [r["end_to_end"][name]["raw"] for r in timed if "raw" in r["end_to_end"][name]]
            if raw:
                entry["end_to_end_raw"][name] = stats(raw)
        if traced:
            entry["per_layer"] = {n: v["value"] for n, v in traced[-1]["metrics"].items()}
            entry["per_layer_untraced_wall_s"] = traced[-1]["end_to_end"]["wall_s"]["value"]
        workloads[w["name"]] = entry
        print(f"{w['name']}: {len(timed)} runs, failed {entry['failed']}/{entry['attempted']}")
        for name, s in entry["end_to_end"].items():
            spread = s.get("spread")
            flag = "" if spread is None or spread < bounds[name] / 3 else "  <-- above bound/3"
            raw = entry["end_to_end_raw"].get(name, {}).get("spread")
            print(f"  {name:12s} median {s['median']:<14.6g} spread "
                  f"{'-' if spread is None else f'{spread:.4f}':>7} bound {bounds[name]}{flag}"
                  f"{'' if raw is None else f'  (raw spread {raw:.4f})'}")

    if args.label:
        out = HERE / "trajectory" / f"BENCH_{args.label}.json"
        out.parent.mkdir(exist_ok=True)
        doc = {
            "label": args.label,
            "commit": args.commit,
            "run_seconds": bench["run_seconds"],
            "machine": {
                "nproc": sorted({r["machine"]["nproc"] for r in records}),
                "python": sorted({r["machine"]["python"] for r in records}),
                "cpu": sorted({r["machine"]["cpu"] for r in records}),
                "load1": [[r["machine"]["load1_start"], r["machine"]["load1_end"]]
                          for r in records],
            },
            "workloads": workloads,
        }
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
