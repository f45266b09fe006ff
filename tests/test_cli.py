import json
import multiprocessing.process
import shutil

import pytest

from fglops.cli import DEFAULT_TRUNCATION, main
from fglops.fgl import MR_BOUND
from fglops.golden import ENV_GOLDEN_DIR, golden_dir
from fglops.render import parse_series, series_from_obj



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


def test_mc_rejects_bad_n(capsys):
    assert main(["mc", "-p", "2", "-k", "7", "--n", "0"]) == 1


def test_mc_rejects_unreachable_n(capsys):
    # every MC_n needs a_n, which needs k >= n
    for k, n in ((3, 5), (14, 15), (14, 40)):
        code, out, err = run(capsys, "mc", "-p", "2", "-k", str(k), "--n", str(n))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"k >= n = {n}" in err


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


def test_default_truncations():
    assert DEFAULT_TRUNCATION[2] == 14
    assert DEFAULT_TRUNCATION[3] == 25
    assert DEFAULT_TRUNCATION[5] == 76
    assert DEFAULT_TRUNCATION[7] == 162
    assert DEFAULT_TRUNCATION[11] == 370
    assert DEFAULT_TRUNCATION[13] == 504


def test_verify_suite_ok(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "p2")
    assert code == 0
    assert out.strip() == "suite p2: ok"


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
    "n-beyond-truncation": _edited(lambda s: s["tables"][-1].update(n=s["truncation"] + 1)),
    "truncation-too-small": _edited(lambda s: s.update(truncation=1, tables=[
        {**s["tables"][1], "n": 1}])),
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


def test_progress_goes_to_stderr_only(capsys):
    code, quiet_out, quiet_err = run(capsys, "mc", "-p", "3", "-k", "13", "--n", "2")
    code2, loud_out, loud_err = run(capsys, "mc", "-p", "3", "-k", "13", "--n", "2",
                                    "--progress")
    assert code == code2 == 0
    assert quiet_out == loud_out
    assert "progress:" in loud_err and "progress:" not in quiet_err


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
