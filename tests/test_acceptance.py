"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The large-prime checks carry the `extended` marker and
can be deselected with `-m "not extended"`.
"""

import itertools
import os
import random
import time
from contextlib import contextmanager

import pytest

from fglops import (
    FglContext,
    divide,
    mc,
    mc_explicit_2p2,
    mc_via_inverse,
    mc_via_sum,
    mu,
    power_operation,
    reduce_a_mod_p_series,
)
from fglops.cli import main
from fglops.golden import compare_series, load_suite
from fglops.reduction import canonical_rep, divisible_by_full_p_series
from fglops.render import series_from_obj
from fglops.series import Series

from conftest import P, S, rand_series


@contextmanager
def criterion(num, desc):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} PASS ({dt:.1f}s): {desc}")


def _golden(suite, kind, n=None):
    data = load_suite(suite)
    for t in data["tables"]:
        if t["kind"] == kind and (n is None or t.get("n") == n):
            return series_from_obj(t["series"])
    raise KeyError((suite, kind, n))


def _assert_matches(label, computed, table):
    mism = compare_series(label, computed, table)
    assert not mism, mism[0].describe(computed.prime)


def test_criterion_1_reduced_2_series(ctx214):
    with criterion(1, "p=2 reduced 2-series matches the published table through xi^13"):
        got = ctx214.reduced_p_series("v")
        table = _golden("p2", "reduced-pseries")
        assert got.validity == 14
        _assert_matches("p2 <2>xi", got, table)


def test_criterion_2_mc_tables_p2(ctx214):
    with criterion(2, "p=2 MC_1..MC_5 match the published tables mod <2>xi"):
        data = power_operation(ctx214, x_cap=5)
        for n in range(1, 6):
            res = mc(ctx214, data, n)
            assert res.reduced.validity == 14
            _assert_matches(f"p2 MC_{n}", res.reduced, _golden("p2", "mc", n))
        res5 = mc(ctx214, data, 5)
        assert not res5.reduced.coeffs and res5.reduced.validity == 14


def test_criterion_3_tables_p3(ctx325, data325):
    with criterion(3, "p=3 reduced 3-series through xi^24 and MC_2, MC_4 match"):
        got = ctx325.reduced_p_series("v")
        assert got.validity == 25
        _assert_matches("p3 <3>xi", got, _golden("p3", "reduced-pseries"))
        for n in (2, 4):
            res = mc(ctx325, data325, n)
            _assert_matches(f"p3 MC_{n}", res.reduced, _golden("p3", "mc", n))
        res4 = mc(ctx325, data325, 4)
        assert res4.reduced.coefficient(22) == P("2*v1^9")
        assert res4.reduced.coefficient(24) == P("2*v1^10")


def test_criterion_4_mc8_p5():
    with criterion(4, "p=5 MC_8 matches through xi^96"):
        ctx = FglContext(5, 76)
        data = power_operation(ctx, x_cap=8)
        res = mc(ctx, data, 8)
        assert res.reduced.validity >= 97
        _assert_matches("p5 MC_8", res.reduced, _golden("p5", "mc", 8))
        assert res.certificate == (88, P("3*v1^16"))


def test_criterion_5_mc12_p7():
    with criterion(5, "p=7 MC_12 matches through xi^216"):
        ctx = FglContext(7, 162)
        data = power_operation(ctx, x_cap=12)
        res = mc(ctx, data, 12)
        assert res.reduced.validity >= 217
        _assert_matches("p7 MC_12", res.reduced, _golden("p7", "mc", 12))


@pytest.mark.extended
def test_criterion_6_mc20_p11():
    with criterion("6a", "p=11 MC_20 leading terms match"):
        ctx = FglContext(11, 370)
        data = power_operation(ctx, x_cap=20)
        res = mc(ctx, data, 20)
        assert res.reduced.validity >= 541
        _assert_matches("p11 MC_20", res.reduced, _golden("p11", "mc", 20))
        assert res.certificate == (520, P("9*v1^34"))


@pytest.mark.extended
def test_criterion_6_mc24_p13():
    with criterion("6b", "p=13 MC_24 leading terms match"):
        ctx = FglContext(13, 504)
        data = power_operation(ctx, x_cap=24)
        res = mc(ctx, data, 24)
        assert res.reduced.validity >= 757
        _assert_matches("p13 MC_24", res.reduced, _golden("p13", "mc", 24))
        assert res.certificate == (744, P("11*v1^40"))
        assert res.reduced.coefficient(756) == P("6*v1^41 + 6*v1^27*v2")


def test_criterion_7_worked_example_trace(ctx27, data27):
    with criterion(7, "p=2, k=7 worked-example trace reproduced exactly"):
        # logarithm and exponential
        assert ctx27.log == S("xi + l1*xi^2 + l2*xi^4", 2, "l", validity=8)
        exp_want = S(
            "xi - l1*xi^2 + 2*l1^2*xi^3 + (-5*l1^3 - l2)*xi^4 "
            "+ (14*l1^4 + 6*l1*l2)*xi^5 + (-42*l1^5 - 28*l1^2*l2)*xi^6 "
            "+ (132*l1^6 + 120*l1^3*l2 + 4*l2^2)*xi^7", 2, "l", validity=8)
        assert ctx27.exp.coeffs == exp_want.coeffs

        # reduced 2-series in the l-basis
        pser_l = ctx27.reduced_p_series("l")
        want_l = S(
            "2 - 2*l1*xi + 8*l1^2*xi^2 + (-36*l1^3 - 14*l2)*xi^3 "
            "+ (176*l1^4 + 120*l1*l2)*xi^4 + (-912*l1^5 - 888*l1^2*l2)*xi^5 "
            "+ (4928*l1^6 + 6240*l1^3*l2 + 448*l2^2)*xi^6", 2, "l", validity=7)
        assert pser_l.coeffs == want_l.coeffs and pser_l.validity == 7

        # raw and reduced coefficient series, modulo (v2, v3)
        ideal = [2, 3]
        a0 = data27.a[0]
        assert a0.coeffs == S("xi", 2, "v", validity=8).coeffs
        a1 = data27.a[1].kill_generators(ideal)
        # the xi^6 slot is 6 v1^6; the publication prints v1^6 there, which is
        # inconsistent with its own reduced display (see the decisions ledger)
        assert a1.coeffs == S(
            "1 - v1*xi + v1^2*xi^2 - 2*v1^3*xi^3 + 3*v1^4*xi^4 - 4*v1^5*xi^5 + 6*v1^6*xi^6",
            2, "v", validity=7).coeffs
        a2 = data27.a[2].kill_generators(ideal)
        assert a2.coeffs == S(
            "v1^2*xi - 4*v1^3*xi^2 + 10*v1^4*xi^3 - 21*v1^5*xi^4 + 43*v1^6*xi^5",
            2, "v", validity=6).coeffs

        red = reduce_a_mod_p_series(data27)
        a0r = red[0].kill_generators(ideal)
        a1r = red[1].kill_generators(ideal)
        a2r = red[2].kill_generators(ideal)
        assert a1r.coeffs == S("1 + v1*xi + v1^4*xi^4 + v1^5*xi^5 + v1^6*xi^6",
                               2, "v", validity=7).coeffs
        assert a2r.coeffs == S("v1^2*xi + v1^5*xi^4", 2, "v", validity=6).coeffs

        # assemble 6 a1^2 - 3 a0 a2 - 3 v1 a0 a1 from the reduced series
        v1 = P("v1")
        g = (a1r * a1r).scale(6) - (a0r * a2r).scale(3) - (a0r * a1r).scale_poly(v1).scale(3)
        assert g.validity == 7
        assert g.coeffs == S("6 + 9*v1*xi + 12*v1^4*xi^4 + 18*v1^5*xi^5 + 21*v1^6*xi^6",
                             2, "v", validity=7).coeffs

        # first reduction step subtracts 3 <2>xi (xi^3 slot corrected; ledger)
        pser_v = ctx27.reduced_p_series("v").kill_generators(ideal)
        steps = []
        d, s = divide(g, pser_v, on_step=lambda m, q, snap: steps.append((m, q, snap)))
        assert steps[0][0] == 0 and steps[0][1] == P("3")
        assert steps[0][2].coeffs == S(
            "12*v1*xi - 6*v1^2*xi^2 + 24*v1^3*xi^3 - 66*v1^4*xi^4 "
            "+ 270*v1^5*xi^5 - 879*v1^6*xi^6", 2, "v", validity=7).coeffs
        assert s.coeffs == {(6, 0): P("v1^6")}
        assert s.validity == 7

        # the real pipeline lands on the same class
        res = mc(ctx27, data27, 2)
        assert res.reduced.kill_generators(ideal).coeffs == {(6, 0): P("v1^6")}
        assert res.reduced.coeffs == {(6, 0): P("v1^6 + v2^2")}


@pytest.mark.parametrize("p,k", [(2, 13), (3, 15), (5, 15), (7, 10)])
def test_criterion_8_exp_log_identity(p, k):
    with criterion("8.exp-log", f"exp/log mutually inverse at (p,k)=({p},{k})"):
        ctx = FglContext(p, k)
        ident = Series.variable(p, "l", k + 1)
        assert ctx.exp.compose(ctx.log).agrees_with(ident)
        assert ctx.log.compose(ctx.exp).agrees_with(ident)


@pytest.mark.parametrize("p,k", [(2, 9), (3, 9)])
def test_criterion_8_homogeneity_scan(p, k):
    with criterion("8.weights", f"homogeneity scan of every produced series (p={p})"):
        ctx = FglContext(p, k)
        for s in (ctx.log, ctx.exp, ctx.n_series(2)):
            s.assert_weight(-1)
        for basis in ("l", "v"):
            ctx.reduced_p_series(basis).assert_weight(0)
        data = power_operation(ctx)
        for i, ai in enumerate(data.a):
            ai.assert_weight(i + 1 - p)
        for n in (1, 2):
            res = mc(ctx, data, n, force_full=True)
            res.raw.assert_weight(-n * (p - 2))
            res.reduced.assert_weight(-n * (p - 2))


@pytest.mark.parametrize("p,n,k,xcap", [(2, 2, 9, 2), (3, 4, 13, 4), (5, 8, 30, 8)])
def test_criterion_8_route_equivalence(p, n, k, xcap):
    with criterion("8.routes", f"route equivalence at (p,n,k)=({p},{n},{k})"):
        ctx = FglContext(p, k)
        data = power_operation(ctx, x_cap=xcap)
        res = mc(ctx, data, n, force_full=True)
        assert res.raw == mc_via_sum(ctx, data, n)
        inv = mc_via_inverse(ctx, data, n)
        assert res.raw.agrees_with(inv)
        if p == 2:
            assert res.raw.agrees_with(mc_explicit_2p2(ctx, data))
        # the reduced class comes from the closed form at n = 2(p - 1)
        assert canonical_rep(res.raw, ctx.reduced_p_series("v")) == res.reduced


def test_criterion_8_division_reconstruction(ctx27):
    with criterion("8.division", "reconstruction on 100 random integral series"):
        rng = random.Random(88)
        pser = ctx27.reduced_p_series("v")
        for _ in range(100):
            g = rand_series(rng, validity=rng.randrange(2, 8))
            d, s = divide(g, pser)
            assert (d * pser + s).agrees_with(g)
            for c in s.coeffs.values():
                assert all(0 <= x < 2 for x in c.terms.values())


def test_criterion_8_sparseness_full_route(ctx313, data313):
    with criterion("8.sparseness", "full-route vanishing at p=3, n in {1,3,5}, k=13"):
        for n in (1, 3, 5):
            res = mc(ctx313, data313, n, force_full=True)
            assert not res.reduced.coeffs


def test_criterion_8_a_series_divisibility(ctx313, data313):
    with criterion("8.a-divisibility", "a_i divisible by the full p-series at p=3, i in {1,3}"):
        pser = ctx313.reduced_p_series("v")
        for i in (1, 3):
            assert divisible_by_full_p_series(data313.a[i], pser)


def test_criterion_8_mu_oracle():
    with criterion("8.mu", "mu against the expansion oracle, |abar|' <= 6, -8 <= n <= 8"):
        from test_obstruction import _mu_oracle_table

        top = 6
        exps = [e for e in itertools.product(*(range(7) for _ in range(top)))
                if sum(i * x for i, x in enumerate(e, start=1)) <= top]
        for n in range(-8, 9):
            table = _mu_oracle_table(n, top)
            for e in exps:
                abar = list(e)
                while abar and abar[-1] == 0:
                    abar.pop()
                assert mu(n, tuple(abar)) == table.get(e, 0)


def _cli_bytes(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_criterion_9_thread_determinism(capsys):
    with criterion(9, "byte-identical output for --threads 1 vs max on the table runs"):
        maxt = str(os.cpu_count() or 2)
        commands = [
            ["reduced-pseries", "-p", "2", "--format", "json"],
            ["reduced-pseries", "-p", "3", "--format", "json"],
        ]
        for n in range(1, 6):
            commands.append(["mc", "-p", "2", "--n", str(n), "--format", "json"])
        for n in (2, 4):
            commands.append(["mc", "-p", "3", "--n", str(n), "--format", "json"])
        commands.append(["mc", "-p", "5", "--n", "8", "--format", "json"])
        for cmd in commands:
            one = _cli_bytes(capsys, cmd + ["--threads", "1"])
            many = _cli_bytes(capsys, cmd + ["--threads", maxt])
            assert one == many, f"output differs across thread counts for {cmd}"
