import argparse
import hashlib
import json
import multiprocessing.process
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fglops.cli
import fglops.golden
import fglops.obstruction
import fglops.powerop
from fglops import FglContext, mc, power_operation, reduce_a_mod_p_series
from fglops.cli import DEFAULT_TRUNCATION, main
from fglops.fgl import MR_BOUND
from fglops.golden import ENV_GOLDEN_DIR, golden_dir
from fglops.reduction import ReducedSeries, nonvanishing_certificate
from fglops.render import (parse_series, poly_text, series_from_obj, series_text, series_to_obj,
                           to_json)
from fglops.series import PackedSeries



def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_log_command(capsys):
    code, out, _ = run(capsys, "log", "-p", "2", "-k", "7")
    assert code == 0
    assert out.strip() == "xi + l1*xi^2 + l2*xi^4 + O(xi)^8"


def test_exp_command_json_text_agree(capsys):
    code, text_out, _ = run(capsys, "exp", "-p", "2", "-k", "7")
    assert code == 0
    code, json_out, _ = run(capsys, "exp", "-p", "2", "-k", "7", "--format", "json")
    assert code == 0
    from_text = parse_series(text_out.strip(), 2, "l")
    from_json = series_from_obj(json.loads(json_out))
    assert from_text.coeffs == from_json.coeffs
    assert from_text.validity == from_json.validity


def test_pseries_factorization(capsys):
    code, out, _ = run(capsys, "pseries", "-p", "2", "-k", "7", "--basis", "l")
    assert code == 0
    ser = parse_series(out.strip(), 2, "l")
    assert ser.coefficient(0) == 0  # [2]xi = 2 xi - 2 l1 xi^2 + ... starts at xi
    assert ser.coefficient(1).constant_term() == 2
    assert ser.val() == 1


def test_reduced_pseries_mod_ideal(capsys):
    code, out, _ = run(capsys, "reduced-pseries", "-p", "2", "-k", "7",
                       "--basis", "v", "--ideal", "v2,v3")
    assert code == 0
    want = "2 - v1*xi + 2*v1^2*xi^2 - 8*v1^3*xi^3 + 26*v1^4*xi^4 - 84*v1^5*xi^5 + 300*v1^6*xi^6 + O(xi)^7"
    assert out.strip() == want


def test_ideal_validation(capsys):
    with pytest.raises(SystemExit):
        run(capsys, "reduced-pseries", "-p", "2", "-k", "7", "--ideal", "bogus")


@pytest.mark.parametrize("argv", [
    ("log", "-p", "2", "-k", "7", "--ideal", "v1"),
    ("exp", "-p", "2", "-k", "7", "--ideal", "l2,v1"),
    ("reduced-pseries", "-p", "2", "-k", "14", "--basis", "v", "--ideal", "l2"),
    ("pseries", "-p", "3", "-k", "9", "--basis", "l", "--ideal", "v1"),
    ("mc", "-p", "2", "-k", "7", "--n", "2", "--ideal", "l2"),
])
def test_ideal_letter_must_match_the_printed_basis(capsys, argv):
    # killing l_m is not reduction mod (v_m): a generator of the other basis is refused
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: ideal generator ")


@pytest.mark.parametrize("cmd,basis,ideals,want", [
    ("log", "l", ("l1", "1"), "xi + l2*xi^4 + O(xi)^8"),
    ("reduced-pseries", "v", ("v2,v3", "2,3", "v2, 3"),
     "2 - v1*xi + 2*v1^2*xi^2 - 8*v1^3*xi^3 + 26*v1^4*xi^4 - 84*v1^5*xi^5"
     " + 300*v1^6*xi^6 + O(xi)^7"),
    ("reduced-pseries", "l", ("l2,l3", "2,3"),
     "2 - 2*l1*xi + 8*l1^2*xi^2 - 36*l1^3*xi^3 + 176*l1^4*xi^4 - 912*l1^5*xi^5"
     " + 4928*l1^6*xi^6 + O(xi)^7"),
])
def test_ideal_accepts_the_printed_basis_and_bare_digits(capsys, cmd, basis, ideals, want):
    extra = () if cmd == "log" else ("--basis", basis)
    for ideal in ideals:
        code, out, _ = run(capsys, cmd, "-p", "2", "-k", "7", *extra, "--ideal", ideal)
        assert code == 0
        assert out.strip() == want


@pytest.mark.parametrize("ideal", [",", " , ", ""])
def test_ideal_naming_no_generator_is_one_error_line(capsys, ideal):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "reduced-pseries", "-p", "2", "-k", "7", "--ideal", ideal)
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: ideal {ideal!r} names no generator\n"


def test_ideal_trailing_comma_and_omitted_ideal_are_kept(capsys):
    argv = ("reduced-pseries", "-p", "2", "-k", "7", "--basis", "v")
    _, reduced, _ = run(capsys, *argv, "--ideal", "v2,v3")
    code, trailing, _ = run(capsys, *argv, "--ideal", "v2,v3,")
    assert code == 0 and trailing == reduced
    code, whole, _ = run(capsys, *argv)
    assert code == 0 and whole != reduced and "v2" in whole


def test_truncation_beyond_the_exponent_bound_is_one_error_line(capsys):
    for k in ("4096", "0"):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "log", "-p", "2", "-k", k)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err == "error: truncation order must be in 1..4095\n"


def test_power_op_coeffs_reduced(capsys):
    code, out, _ = run(capsys, "power-op-coeffs", "-p", "2", "-k", "7",
                       "--max-i", "2", "--reduced", "--ideal", "v2,v3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a_0 = xi + O(xi)^8"
    assert lines[1] == "a_1 = 1 + v1*xi + v1^4*xi^4 + v1^5*xi^5 + v1^6*xi^6 + O(xi)^7"
    assert lines[2] == "a_2 = v1^2*xi + v1^5*xi^4 + O(xi)^6"


def test_mc_command_text(capsys):
    code, out, _ = run(capsys, "mc", "-p", "2", "-k", "7", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "MC_2(xi) mod <2>xi = (v1^6 + v2^2)*xi^6 + O(xi)^7"
    assert lines[1] == "certificate: xi^6 -> v1^6 + v2^2"
    assert lines[2] == "annotation: obstruction index"


def test_mc_command_json(capsys):
    code, out, _ = run(capsys, "mc", "-p", "3", "-k", "13", "--n", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["sparseness_shortcut"] is True
    assert obj["raw"] is None
    assert obj["certificate"] is None
    assert series_from_obj(obj["reduced"]).coeffs == {}


def _json_reference(cmd, p, k, ideal=None, basis="v", reduced=False, n=None):
    """The object a --format json command prints, its series built with series_to_obj."""
    ctx = FglContext(p, k)
    kill = (lambda s: s.kill_generators(ideal)) if ideal else (lambda s: s)
    if cmd in ("log", "exp"):
        return series_to_obj(kill(getattr(ctx, cmd)), k)
    if cmd == "pseries":
        return series_to_obj(kill(ctx.p_series(basis)), k)
    if cmd == "reduced-pseries":
        return series_to_obj(kill(ctx.reduced_p_series(basis)), k)
    if cmd == "power-op-coeffs":
        data = power_operation(ctx, x_cap=min(k, 16))
        entries = [r.series for r in reduce_a_mod_p_series(data)] if reduced else data.a
        return {"prime": p, "truncation": k, "a": [series_to_obj(kill(s), k) for s in entries]}
    result = mc(ctx, power_operation(ctx, x_cap=n), n)
    reduced = kill(result.reduced.series)
    certificate = nonvanishing_certificate(ReducedSeries(reduced))  # of the class printed
    return {
        "prime": p, "truncation": k, "n": n,
        "reduced": series_to_obj(reduced, k),
        "raw": None if result.raw is None else series_to_obj(kill(result.raw), k),
        "certificate": None if certificate is None else {
            "xi_exponent": certificate[0],
            "leading": poly_text(certificate[1], p)},
        "obstruction_index": result.is_obstruction_index,
        "sparseness_shortcut": result.used_shortcut,
    }


@pytest.mark.parametrize("argv,reference", [
    (["log", "-p", "3", "-k", "20"], dict(cmd="log", p=3, k=20)),
    (["exp", "-p", "2", "-k", "12"], dict(cmd="exp", p=2, k=12)),
    (["pseries", "-p", "2", "-k", "9", "--basis", "l"],
     dict(cmd="pseries", p=2, k=9, basis="l")),
    (["pseries", "-p", "3", "-k", "12"], dict(cmd="pseries", p=3, k=12)),
    (["reduced-pseries", "-p", "2", "-k", "14"], dict(cmd="reduced-pseries", p=2, k=14)),
    (["reduced-pseries", "-p", "2", "-k", "14", "--ideal", "v2,v3"],
     dict(cmd="reduced-pseries", p=2, k=14, ideal=[2, 3])),
    (["power-op-coeffs", "-p", "2", "-k", "7"], dict(cmd="power-op-coeffs", p=2, k=7)),
    (["power-op-coeffs", "-p", "3", "-k", "9", "--reduced"],
     dict(cmd="power-op-coeffs", p=3, k=9, reduced=True)),
    (["mc", "-p", "3", "-k", "13", "--n", "3"], dict(cmd="mc", p=3, k=13, n=3)),
    (["mc", "-p", "2", "-k", "9", "--n", "5"], dict(cmd="mc", p=2, k=9, n=5)),
    (["mc", "-p", "3", "-k", "13", "--n", "4", "--ideal", "v2"],
     dict(cmd="mc", p=3, k=13, n=4, ideal=[2])),
    (["mc", "-p", "2", "-k", "7", "--n", "2", "--ideal", "v2"],
     dict(cmd="mc", p=2, k=7, n=2, ideal=[2])),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_json_output_is_json_dumps_of_the_wire_object(capsys, argv, reference):
    # the direct writer against the stdlib encoder on the object built from series_to_obj
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    want = _json_reference(**reference)
    assert out == json.dumps(want, indent=2) + "\n"
    if reference["cmd"] == "mc":
        assert (want["raw"] is None) == (reference["n"] == 3)


@pytest.mark.parametrize("argv,p,k,text,wire", [
    # v2 kills v2^2 in v1^6 + v2^2, the full ring's leading coefficient at xi^6
    (("mc", "-p", "2", "-k", "7", "--n", "2", "--ideal", "v2"), 2, 7,
     "certificate: xi^6 -> v1^6", {"xi_exponent": 6, "leading": "v1^6"}),
    # v1 kills every coefficient of MC_8 below its validity, 3*v1^16 at xi^88 too
    (("mc", "-p", "5", "--n", "8", "--ideal", "v1"), 5, 76,
     "certificate: none (zero within validity; inconclusive)", None),
], ids=["mc -p 2 -k 7 --n 2 --ideal v2", "mc -p 5 --n 8 --ideal v1"])
def test_mc_ideal_certificate_is_read_off_the_printed_class(capsys, argv, p, k, text, wire):
    code, out, _err = run(capsys, *argv)
    assert code == 0 and text in out.splitlines()
    code, out, _err = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["certificate"] == wire
    # the library keeps the certificate of the class in the full ring
    n = int(argv[argv.index("--n") + 1])
    ctx = FglContext(p, k)
    full = mc(ctx, power_operation(ctx, x_cap=n), n).certificate
    assert full is not None and (wire is None or poly_text(full[1], p) != wire["leading"])


def test_mc_rejects_bad_n(capsys):
    assert main(["mc", "-p", "2", "-k", "7", "--n", "0"]) == 1


def test_mc_rejects_unreachable_n(capsys):
    # every MC_n needs a_n, which needs k >= n
    for k, n in ((3, 5), (14, 15), (14, 40)):
        code, out, err = run(capsys, "mc", "-p", "2", "-k", str(k), "--n", str(n))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"k >= n = {n}" in err


def test_mc_refuses_n_beyond_k_before_any_computation(monkeypatch, capsys):
    # the context alone takes about 30 s at k = 120
    def refuse(*args, **kwargs):
        raise AssertionError("computed before n was checked against k")

    monkeypatch.setattr(fglops.cli, "FglContext", refuse)
    monkeypatch.setattr(fglops.cli, "power_operation", refuse)
    code, out, err = run(capsys, "mc", "-p", "2", "--n", "121", "-k", "120")
    assert code == 1 and out == ""
    assert err == "error: MC_121 needs a_121, so the truncation must be k >= n = 121; got k = 120\n"


def test_power_op_coeffs_rejects_negative_max_i(capsys):
    code, out, err = run(capsys, "power-op-coeffs", "-p", "2", "-k", "7", "--max-i", "-1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_prime_rejected(capsys):
    with pytest.raises(SystemExit):
        run(capsys, "log", "-p", "6", "-k", "5")


def test_large_primes_are_decided_at_once(capsys):
    code, out, _ = run(capsys, "log", "-p", str(10**18 + 3), "-k", "5")
    assert code == 0 and out == "xi + O(xi)^6\n"
    with pytest.raises(SystemExit) as exc:
        run(capsys, "log", "-p", str(MR_BOUND), "-k", "5")
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_power_op_coeffs_below_the_euler_degree_are_zero(capsys):
    # p - 1 > k: the product of the p - 1 factors vanishes modulo (xi, x)^(k+1)
    code, out, _ = run(capsys, "power-op-coeffs", "-p", "100003", "-k", "5")
    assert code == 0
    assert out == "".join(f"a_{i} = 0 + O(xi)^{6 - i}\n" for i in range(6))


BILLION_PRIME = str(10**9 + 7)


@pytest.mark.parametrize("argv,code,want_out,want_err", [
    (("mc", "-p", BILLION_PRIME, "-k", "5", "--n", "2"), 1, "",
     f"error: obstruction series would have validity 10 < p = {BILLION_PRIME}\n"),
    (("power-op-coeffs", "-p", BILLION_PRIME, "-k", "5"), 0,
     "".join(f"a_{i} = 0 + O(xi)^{6 - i}\n" for i in range(6)), ""),
], ids=["mc", "power-op-coeffs"])
def test_a_prime_far_above_k_forms_no_factorial_of_p(monkeypatch, capsys, argv, code,
                                                      want_out, want_err):
    # (p-1)! at p = 10^9 + 7 alone runs for minutes; the Euler-class check reads it
    # only when xi^(p-1) lies below a_0's validity k + 1
    real = fglops.powerop.factorial

    def small(n):
        assert n <= 10 ** 4, f"factorial({n})"
        return real(n)

    monkeypatch.setattr(fglops.powerop, "factorial", small)
    assert run(capsys, *argv) == (code, want_out, want_err)


def test_default_truncations():
    assert DEFAULT_TRUNCATION[2] == 14
    assert DEFAULT_TRUNCATION[3] == 25
    assert DEFAULT_TRUNCATION[5] == 76
    assert DEFAULT_TRUNCATION[7] == 162
    assert DEFAULT_TRUNCATION[11] == 370
    assert DEFAULT_TRUNCATION[13] == 504


def test_mc_defaults_the_truncation_outside_the_tables_at_n_2p_2(monkeypatch, capsys):
    # k = (p-1)(3p+2) at n = 2(p-1) for a prime outside DEFAULT_TRUNCATION; the tables'
    # primes keep theirs; k is read off the command line, nothing is computed here
    seen = []
    monkeypatch.setattr(fglops.cli, "_mc", lambda args, k, ideal: seen.append(k) or 0)
    for p, n in ((17, 32), (19, 36), (23, 44), (37, 72), (5, 8), (13, 24)):
        assert main(["mc", "-p", str(p), "--n", str(n)]) == 0
    assert seen == [848, 1062, 1562, 4068, 76, 504]
    # any other n or command keeps the one-line error; at p = 41 the default 5000 is
    # beyond the exponent bound
    for argv, message in (
            (["mc", "-p", "17", "--n", "16"], "no default truncation for p=17; pass --truncation"),
            (["power-op-coeffs", "-p", "17"], "no default truncation for p=17; pass --truncation"),
            (["mc", "-p", "41", "--n", "80"], "truncation order must be in 1..4095")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert len(seen) == 6


def _recorded_sha(command):
    """The stdout digest perfbench/reference.json records for a command."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    return json.loads(path.read_text("utf-8"))[command]["sha256"]


def _record_row_builds(monkeypatch):
    """[(x-degrees, order)] of each row product, and the x-degrees of each substitution of rows."""
    products, substituted = [], []
    product, to_v = fglops.powerop._row_product, FglContext.to_v

    def recording_product(ctx, forms, xs, order):
        products.append((list(xs), order))
        return product(ctx, forms, xs, order)

    def recording_to_v(self, s, integral=False):
        if isinstance(s, PackedSeries):  # rows, keyed by x at their shift
            substituted.append(sorted({key >> s.shift for key, _c in s.terms}))
        return to_v(self, s, integral)

    monkeypatch.setattr(fglops.powerop, "_row_product", recording_product)
    monkeypatch.setattr(FglContext, "to_v", recording_to_v)
    return products, substituted


def test_closed_form_builds_only_class_0(monkeypatch, capsys):
    # mc -p 5 --n 8 prints its text from a_0, a_4 and a_8: one product and one
    # substitution of class 0 at k + 1 = 77, and the valuations of the other rows from
    # one product at order min(k, n + p) + 1 = 14, substituted nowhere
    products, substituted = _record_row_builds(monkeypatch)
    code, out, _err = run(capsys, "mc", "-p", "5", "--n", "8", "--threads", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _recorded_sha("mc -p 5 --n 8 --threads 2")
    assert products == [([0, 4, 8], 77), ([1, 2, 3, 5, 6, 7], 14)]
    assert substituted == [[0, 4, 8]]


def test_each_recorded_command_builds_rows_at_most_once(monkeypatch, capsys):
    # every command of perfbench/reference.json, run in one process, makes at most one
    # row build, so nothing built for one class need be kept for another; the closed
    # form of mc -p 5 --n 8 and of the p5, p7, p11 and p13 suites builds class 0 alone
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    builds = {}
    build = fglops.powerop.PowerOpData._build

    def recording(self, classes):
        builds[command].append(sorted(classes))
        return build(self, classes)

    monkeypatch.setattr(fglops.powerop.PowerOpData, "_build", recording)
    for command, record in json.loads(path.read_text("utf-8")).items():
        builds[command] = []
        code, _out, _err = run(capsys, *command.split())
        assert code == record["rc"]
    assert len(builds) == 17 and all(len(classes) <= 1 for classes in builds.values())
    assert builds["mc -p 5 --n 8 --threads 2"] == [[0]]
    assert builds["verify --suite p5 --threads 2"] == [[0]]
    for suite in ("p7", "p11", "p13"):
        command = f"verify --suite {suite}"
        builds[command] = []
        assert run(capsys, *command.split()) == (0, f"suite {suite}: ok\n", "")
        assert builds[command] == [[0]]


def _rows_read_at_once(ctx, x_cap=None, progress=None):
    """power_operation with every row built before it returns, as one product."""
    data = power_operation(ctx, x_cap=x_cap, progress=progress)
    data.a
    return data


@pytest.mark.parametrize("argv", [
    ("mc", "-p", "5", "--n", "8", "--show-raw"),
    ("mc", "-p", "5", "--n", "8", "--format", "json"),
    ("mc", "-p", "3", "--n", "4", "--show-raw", "--threads", "2"),
], ids=" ".join)
def test_reading_the_raw_sum_builds_every_row_once(monkeypatch, capsys, argv):
    # a command that prints the raw sum builds every row before the closed form:
    # one product at k + 1 and one substitution, no valuation product, and the
    # bytes of the rows built at once
    with monkeypatch.context() as mp:
        mp.setattr(fglops.cli, "power_operation", _rows_read_at_once)
        code, want, _err = run(capsys, *argv)
    assert code == 0
    products, substituted = _record_row_builds(monkeypatch)
    code, out, _err = run(capsys, *argv)
    assert code == 0 and out == want
    p, n = int(argv[2]), int(argv[argv.index("--n") + 1])
    k = DEFAULT_TRUNCATION[p]
    assert products == [(list(range(n + 1)), k + 1)]
    assert substituted == [list(range(n + 1))]
    if argv[-1] == "2":  # a recorded command
        assert hashlib.sha256(out.encode()).hexdigest() == _recorded_sha(" ".join(argv))


def test_every_row_at_once_off_the_closed_form(monkeypatch, capsys):
    # mc-deep's command reads every row in the recurrence: one product, one substitution
    products, substituted = _record_row_builds(monkeypatch)
    code, _out, _err = run(capsys, "mc", "-p", "5", "-k", "76", "--n", "24", "--format", "json")
    assert code == 0
    assert products == [(list(range(25)), 77)]
    assert substituted == [list(range(25))]


def test_verify_suite_ok(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "p2")
    assert code == 0
    assert out.strip() == "suite p2: ok"


def test_verify_parses_each_table_once(monkeypatch):
    parsed = []
    reader = fglops.golden.series_from_obj

    def recording(obj):
        parsed.append(obj)
        return reader(obj)

    monkeypatch.setattr(fglops.golden, "series_from_obj", recording)
    assert fglops.golden.verify_suite("p2") == []
    tables = json.loads((golden_dir() / "p2.json").read_text())["tables"]
    assert parsed == [t["series"] for t in tables]


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "p99"]) == 1


def test_verify_detects_mismatch(tmp_path, monkeypatch, capsys):
    src = golden_dir() / "p2.json"
    data = json.loads(src.read_text())
    # corrupt one published coefficient
    table = data["tables"][0]["series"]["terms"]
    table[3]["poly"][0]["coef"] = "999"
    (tmp_path / "p2.json").write_text(json.dumps(data))
    monkeypatch.setenv(ENV_GOLDEN_DIR, str(tmp_path))
    code, out, _ = run(capsys, "verify", "--suite", "p2")
    assert code == 2
    assert "MISMATCH" in out and "first mismatch at xi^3" in out


def test_golden_dir_env_override(tmp_path, monkeypatch, capsys):
    shutil.copy(golden_dir() / "p3.json", tmp_path / "p3.json")
    monkeypatch.setenv(ENV_GOLDEN_DIR, str(tmp_path))
    code, out, _ = run(capsys, "verify", "--suite", "p3")
    assert code == 0


def _edited(change):
    """The good file's text with `change` applied to its parsed suite."""
    def make(text):
        suite = json.loads(text)
        change(suite)
        return json.dumps(suite)
    return make


BAD_GOLDEN = {  # case -> the file's text made from the good one; None: no file
    "missing": None,
    "truncated": lambda text: text[: len(text) // 2],
    "missing-keys": lambda text: '{"prime": 2}',
    "not-an-object": lambda text: "[]",
    "not-prime": _edited(lambda s: s.update(prime=4)),
    "undecided-prime": _edited(lambda s: s.update(prime=MR_BOUND)),
    "zero-truncation": _edited(lambda s: s.update(truncation=0)),
    "huge-truncation": _edited(lambda s: s.update(truncation=4096)),
    "empty-series": _edited(lambda s: s["tables"][0].update(series={})),
    "generator-beyond-horizon": _edited(
        lambda s: s["tables"][0]["series"]["terms"][1]["poly"][0]["exps"].update({"13": 1})),
    "n-beyond-truncation": _edited(lambda s: s["tables"][-1].update(n=s["truncation"] + 1)),
    "truncation-too-small": _edited(lambda s: s.update(truncation=1, tables=[
        {**s["tables"][1], "n": 1}])),
    # JSON true parses to a bool, which Python counts as the int 1
    "bool-truncation": _edited(lambda s: s.update(truncation=True, tables=s["tables"][:1])),
    "bool-n": _edited(lambda s: s.update(tables=[{**s["tables"][1], "n": True}])),
    "bool-validity": _edited(lambda s: s["tables"][0]["series"].update(validity=True)),
    "bool-xi": _edited(lambda s: s["tables"][0]["series"]["terms"][1].update(xi=True, x=False)),
    "bool-exps": _edited(
        lambda s: s["tables"][0]["series"]["terms"][1]["poly"][0]["exps"].update({"1": True})),
    # a validity below the table's own terms would drop the corrupted xi^3 coefficient
    "term-beyond-validity": _edited(lambda s: (
        s["tables"][0]["series"].update(validity=1),
        s["tables"][0]["series"]["terms"][3]["poly"][0].update(coef="999"))),
    "zero-denominator": _edited(
        lambda s: s["tables"][0]["series"]["terms"][1]["poly"][0].update(coef="1/0")),
    "negative-xi": _edited(lambda s: s["tables"][0]["series"]["terms"][1].update(xi=-1)),
    # a table's series at another prime or basis than the suite computes
    "table-prime": _edited(lambda s: [t["series"].update(prime=3) for t in s["tables"]]),
    "table-basis": _edited(lambda s: s["tables"][0]["series"].update(basis="l")),
}


@pytest.mark.parametrize("case", list(BAD_GOLDEN))
def test_verify_bad_golden_file_is_one_error_line(tmp_path, monkeypatch, capsys, case):
    if BAD_GOLDEN[case] is not None:
        text = (golden_dir() / "p2.json").read_text()
        (tmp_path / "p2.json").write_text(BAD_GOLDEN[case](text))
    monkeypatch.setenv(ENV_GOLDEN_DIR, str(tmp_path))
    code, out, err = run(capsys, "verify", "--suite", "p2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "p2.json") in err
    if case == "generator-beyond-horizon":  # the reader's own complaint names the generator
        assert "13" in err.replace(str(tmp_path), "")
    if case == "term-beyond-validity":
        assert "lies at or beyond validity 1" in err
    if case == "negative-xi":
        assert "xi exponent is -1, not a nonnegative integer" in err
    if case == "table-prime":
        assert "reduced p-series table whose series is at prime 3 in the 'v' basis" in err
    if case == "table-basis":
        assert "reduced p-series table whose series is at prime 2 in the 'l' basis" in err


def test_progress_goes_to_stderr_only(capsys):
    code, quiet_out, quiet_err = run(capsys, "mc", "-p", "3", "-k", "13", "--n", "2")
    code2, loud_out, loud_err = run(capsys, "mc", "-p", "3", "-k", "13", "--n", "2",
                                    "--progress")
    assert code == code2 == 0
    assert quiet_out == loud_out
    assert "progress:" in loud_err and "progress:" not in quiet_err


def test_progress_at_the_closed_form_index_follows_the_raw_series(capsys):
    # at n = 2(p - 1) the recurrence only runs to print the raw series
    argv = ("mc", "-p", "3", "-k", "13", "--n", "4", "--progress")
    code, out, err = run(capsys, *argv)
    assert code == 0 and "raw = " not in out
    assert err.splitlines() == [f"progress: {j}/5 power-operation steps" for j in range(1, 6)]
    code, out, err = run(capsys, *argv, "--show-raw")
    assert code == 0 and "raw = " in out
    assert err.splitlines()[-1] == "progress: 4/4 recurrence steps"


def test_progress_reports_power_operation_steps(capsys):
    # the Euler operator forms P_2q .. P_(q(top+1)) with top = k // (p - 1) - 1: 18 at p = 5,
    # k = 76; at n = 2(p - 1) no recurrence runs, so these are the only lines
    argv = ("mc", "-p", "5", "--n", "8")
    code, quiet_out, quiet_err = run(capsys, *argv)
    code2, loud_out, loud_err = run(capsys, *argv, "--progress")
    assert code == code2 == 0 and quiet_err == ""
    assert loud_out.encode() == quiet_out.encode()
    assert loud_err.splitlines() == [f"progress: {j}/18 power-operation steps"
                                     for j in range(1, 19)]
    # p = 2 reads its one factor off exp: no Euler step, only the recurrence's
    code, _out, err = run(capsys, "mc", "-p", "2", "--n", "3", "--progress")
    assert code == 0
    assert err.splitlines() == [f"progress: {k}/3 recurrence steps" for k in range(1, 4)]


def test_progress_on_the_sparseness_shortcut_is_silent(capsys):
    # the shortcut builds no power operation at k, and no recurrence runs
    code, quiet_out, _err = run(capsys, "mc", "-p", "5", "--n", "6")
    code2, loud_out, loud_err = run(capsys, "mc", "-p", "5", "--n", "6", "--progress")
    assert code == code2 == 0 and loud_out == quiet_out
    assert "sparseness shortcut" in loud_out and loud_err == ""
    _code, _out, err = run(capsys, "mc", "-p", "5", "--n", "6", "--progress", "--force-full")
    assert "power-operation steps" in err


def test_sparseness_shortcut_builds_no_context_at_k(monkeypatch, capsys):
    # the shortcut needs only the context and power operation at k' = n + p = 4, never those at k
    contexts, operations = [], []
    init = FglContext.__init__

    def recording_init(self, p, k, *args, **kwargs):
        contexts.append(k)
        init(self, p, k, *args, **kwargs)

    def recording_power_operation(ctx, *args, **kwargs):
        operations.append(ctx.k)
        return power_operation(ctx, *args, **kwargs)

    monkeypatch.setattr(FglContext, "__init__", recording_init)
    for module in (fglops.cli, fglops.obstruction):
        monkeypatch.setattr(module, "power_operation", recording_power_operation)
    code, out, err = run(capsys, "mc", "-p", "3", "-k", "200", "--n", "1")
    assert code == 0 and err == ""
    assert "sparseness shortcut: reduced form vanishes identically" in out
    assert contexts == operations == [4]


def test_log_builds_no_context(monkeypatch, capsys):
    # log prints from p and k alone: FglContext(p, k).log's bytes at a small k, at once at
    # k = 4095, where a context takes minutes, and the recorded bytes of `log -p 3 -k 40 ...`
    variants = (["--format", "text"], ["--format", "json"], ["--ideal", "l1"])
    ctx = FglContext(2, 40)
    want = [series_text(ctx.log) + "\n", to_json(ctx.log, 40) + "\n",
            series_text(ctx.log.kill_generators([1])) + "\n"]

    def refuse(self, p, k):
        raise AssertionError(f"FglContext({p}, {k}) built")

    monkeypatch.setattr(FglContext, "__init__", refuse)
    assert [run(capsys, "log", "-p", "2", "-k", "40", *v) for v in variants] == [
        (0, out, "") for out in want]
    for v in variants:
        code, out, err = run(capsys, "log", "-p", "2", "-k", "4095", *v)
        assert code == 0 and err == "" and "2048" in out
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                            / "reference.json").read_text("utf-8"))
    command = "log -p 3 -k 40 --threads 2"
    code, out, _err = run(capsys, *command.split())
    assert code == reference[command]["rc"] == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == reference[command]["sha256"]


def test_verify_progress_at_p13_reports_the_power_operation(capsys):
    code, quiet_out, quiet_err = run(capsys, "verify", "--suite", "p13")
    code2, loud_out, loud_err = run(capsys, "verify", "--suite", "p13", "--progress")
    assert code == code2 == 0 and quiet_err == ""
    assert loud_out.encode() == quiet_out.encode() == b"suite p13: ok\n"
    assert loud_err.splitlines() == [f"progress: {j}/41 power-operation steps"
                                     for j in range(1, 42)]


def test_threads_do_not_change_output(capsys):
    base = None
    for t in ("1", "4"):
        code, out, _ = run(capsys, "mc", "-p", "2", "-k", "9", "--n", "2",
                           "--threads", t, "--format", "json")
        assert code == 0
        base = out if base is None else base
        assert out == base


def test_threads_start_no_process(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("fglops must not start a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    code, _, _ = run(capsys, "mc", "-p", "5", "--n", "8", "--threads", "4")
    assert code == 0


@pytest.mark.parametrize("argv", [["mc", "-p", "2", "-k", "9", "--n", "2"],
                                  ["verify", "--suite", "p2"]],
                         ids=["mc", "verify"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_one_error_line(capsys, argv, threads):
    code, out, err = run(capsys, *argv, "--threads", threads)
    assert code == 1 and out == ""
    assert err == f"error: --threads must be >= 1, got {threads}\n"


# -- one parser per process ----------------------------------------------------

def call(capsys, argv):
    """exit code, stdout and stderr of main(argv), argparse's own exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert call(capsys, ["log", "-p", "2", "-k", "7"])[0] == 0
    built.clear()
    assert call(capsys, ["mc", "-p", "3", "--n", "4"])[0] == 0
    assert built == [], "the second call built a parser"
    # build_parser itself still returns a new parser on each call
    assert fglops.cli.build_parser() is not fglops.cli.build_parser()


# pairs that differ in one option, so a value kept from the call before would show
REUSE_SEQUENCE = [
    ["reduced-pseries", "-p", "2", "-k", "14", "--ideal", "v2,v3"],
    ["reduced-pseries", "-p", "2", "-k", "14"],
    ["mc", "-p", "3", "--n", "4", "--format", "json"],
    ["mc", "-p", "3", "--n", "4", "--show-raw"],
    ["mc", "-p", "5"],
    ["mc", "-p", "5"],
    ["log", "-p", "3", "-k", "40", "--threads", "0"],
    ["log", "-p", "3", "-k", "40"],
]


def test_no_state_leaks_between_calls_of_one_process(monkeypatch, capsys):
    # a usage message, were one printed, would wrap at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fglops.cli.__file__)))
    alone = []
    for argv in REUSE_SEQUENCE:
        run_alone = subprocess.run([sys.executable, "-m", "fglops.cli", *argv],
                                   capture_output=True, text=True, env=env, timeout=120)
        alone.append((run_alone.returncode, run_alone.stdout, run_alone.stderr))
    assert [code for code, _, _ in alone] == [0, 0, 0, 0, 1, 1, 1, 0]
    fglops.cli._parser.cache_clear()
    assert [call(capsys, argv) for argv in REUSE_SEQUENCE] == alone


def test_help_follows_the_width_at_call_time(monkeypatch, capsys):
    fglops.cli._parser.cache_clear()
    helps = []
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = call(capsys, ["mc", "--help"])
        assert code == 0
        with pytest.raises(SystemExit):
            fglops.cli.build_parser().parse_args(["mc", "--help"])
        assert out == capsys.readouterr().out
        helps.append(out)
    narrow, wide = helps
    assert narrow.splitlines() != wide.splitlines()
    assert max(map(len, narrow.splitlines())) <= 60 < max(map(len, wide.splitlines()))


# -- usage errors --------------------------------------------------------------

@pytest.mark.parametrize("argv,message", [
    (["verify", "--suite", "p5", "--threads", "x"], "argument --threads: invalid int value: 'x'"),
    (["log", "-p", "3", "-k", "7", "--threads", "abc"],
     "argument --threads: invalid int value: 'abc'"),
    (["log", "-p", "x"], "argument --prime/-p: invalid int value: 'x'"),
    (["mc", "-p", "5"], "the following arguments are required: --n"),
    (["mc", "-p", "5", "--n", "2", "--bogus"], "unrecognized arguments: --bogus"),
    (["curve", "-p", "5"], "argument command: invalid choice: 'curve'"),
    ([], "the following arguments are required: command"),
], ids=["verify-threads", "threads", "prime", "mc-without-n", "unknown-option", "command",
        "no-command"])
def test_usage_errors_are_one_error_line_and_exit_1(capsys, argv, message):
    # exit 2 is a golden mismatch: argparse's own code would read as one
    code, out, err = call(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["mc", "--help"], ["verify", "-h"]):
        code, out, err = call(capsys, argv)
        assert code == 0 and out.startswith("usage: fglops") and err == ""
