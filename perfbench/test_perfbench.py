"""Self-test of the benchmark's own code:  python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, check_call, digest, load_reference  # noqa: E402

SMALL = [
    "mc -p 2 --n 5 --format json --threads 2",
    "verify --suite p3 --threads 2",
    "reduced-pseries -p 2 -k 14 --basis v --ideal v2,v3 --threads 2",
    "power-op-coeffs -p 3 --reduced --threads 2",
    "mc -p 5 --n 8 --threads 2",
]


def _fglops_state() -> dict:
    """Every attribute of every fglops module, and of every class they define."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name != "fglops" and not name.startswith("fglops."):
            continue
        for attr, value in vars(module).items():
            state[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for k, v in vars(value).items():
                    state[(name, attr, k)] = v
    return state


def test_traced_digests_equal_untraced_and_reference():
    reference = load_reference()
    plain = [digest(worker.run_call(c.split())[1]) for c in SMALL]
    with Tracer() as tracer:
        traced = [digest(worker.run_call(c.split())[1]) for c in SMALL]
    assert traced == plain
    assert plain == [reference[c]["sha256"] for c in SMALL]
    assert {s[0] for s in tracer.spans} >= {"cli.main", "series.mul", "obstruction.mc",
                                            "golden.verify_suite", "render.series_text"}


def test_every_wrapper_is_removed():
    before = _fglops_state()
    tracer = Tracer()
    tracer.install()
    try:
        during = _fglops_state()
    finally:
        tracer.uninstall()
    after = _fglops_state()
    wrapped = {k for k in before if during[k] is not before[k]}
    assert {("fglops.cli", "main"), ("fglops.cli", "mc"), ("fglops.cli", "power_operation"),
            ("fglops.cli", "series_text"), ("fglops.golden", "series_from_obj"),
            ("fglops.obstruction", "canonical_rep"), ("fglops", "mc"),
            ("fglops.series", "Series", "__mul__"),
            ("fglops.poly", "GradedPoly", "__mul__")} <= wrapped
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_wrong_reference_digest_is_a_failure():
    argv = "log -p 3 -k 40 --threads 2".split()
    key = " ".join(argv)
    rc, stdout, _s, error = worker.run_call(argv)
    reference = load_reference()
    assert error is None and check_call(argv, rc, stdout, reference) is None

    bad = dict(reference)
    bad[key] = dict(reference[key], sha256=digest(stdout + "x"))
    assert check_call(argv, rc, stdout, bad) == "stdout digest differs from the reference"

    result = worker.run(Workload("probe", [key], 2, "self-test"), seed=0, seconds=0,
                        reference=bad)
    summary = run.summarize(result, [0.1], trace=False)
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"] == 2


def test_times_are_scaled_by_the_host_speed_around_them():
    r = calibrate.REFERENCE_S
    result = {
        # the host ran at half the reference speed around iteration 0, at full after
        "kernel_s": [2 * r, 2 * r, r / 2],
        "iterations": [{"wall_s": 2.0, "cpu_s": 1.0}, {"wall_s": 4.0, "cpu_s": 2.0}],
        "calls": [{"ms": 10.0, "iteration": 0, "traced": False},
                  {"ms": 30.0, "iteration": 1, "traced": False}],
        "peak_rss_mb": 20.0,
    }
    m = run.end_to_end(result, [0.2, 0.4, 0.6])
    assert m["wall_s"]["value"] == pytest.approx(2.1) and m["wall_s"]["raw"] == 3.0
    assert m["cpu_s"]["value"] == pytest.approx(1.05)
    assert m["call_p50_ms"]["value"] == pytest.approx(14.5)
    assert m["call_p50_ms"]["raw"] == 20.0
    assert m["setup_s"]["value"] == pytest.approx(0.4 / 1.5) and m["setup_s"]["raw"] == 0.4
    assert m["peak_rss_mb"]["value"] == 20.0


def test_other_failures_are_caught():
    verify = "verify --suite p3 --threads 2".split()
    text = "MISMATCH p=3 MC_2: computed 1, table has 2\n"
    fake = {" ".join(verify): {"rc": 0, "sha256": digest(text)}}
    assert check_call(verify, 0, text, fake) == "no 'suite p3: ok' line"
    assert check_call(verify, None, "", fake) == "exception"
    assert check_call(verify, 2, text, fake) == "exit code 2"
    assert check_call(["log"], 0, "", fake).startswith("no reference")
    rc, _out, _s, error = worker.run_call("mc -p 4 --n 2".split())
    assert rc == 1 and error is None


def test_traced_counts_repeat():
    w = Workload("probe", ["mc -p 5 --n 8 --threads 1", "reduced-pseries -p 2 -k 14"], 1,
                 "self-test")
    reference = {" ".join(a): {"rc": 0, "sha256": ""} for a in w.commands}
    result = worker.run(w, seed=0, seconds=0, reference=reference, trace=True)
    metrics, mismatched = run.per_layer(result)
    assert mismatched == []
    assert list(metrics) == [n for n, _u, _b in PER_LAYER]
    assert 0 < metrics["trace.overhead_s"]["value"] < result["traced"][0]["wall_s"]
    assert metrics["obstruction.mc.summands"]["value"] == 27
    assert metrics["series.mul.mono_pairs"]["value"] > 0


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == PER_LAYER
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        n: w.why for n, w in WORKLOADS.items()}
    assert set(load_reference()) == {" ".join(a) for w in WORKLOADS.values()
                                     for a in w.commands}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
