import math
import random

import pytest

from fglops import FglContext, HorizonError, IntegralityError, NotPrimeError, mc, power_operation
from fglops.fgl import MR_BOUND, is_prime
from fglops.poly import MAX_EXP, MAX_TRUNCATION, mono_weight
from fglops.series import Series

from conftest import P, S, rand_series


def test_log_display_p2(ctx27):
    want = S("xi + l1*xi^2 + l2*xi^4", 2, "l", validity=8, weight=-1)
    assert ctx27.log == want


def test_log_p3():
    ctx = FglContext(3, 8)
    want = S("xi + l1*xi^3", 3, "l", validity=9)
    assert ctx.log.coeffs == want.coeffs
    assert ctx.log.validity == 9


@pytest.mark.parametrize("p,k", [(2, 5), (3, 7), (5, 6), (7, 9)])
def test_log_leading_coefficient(p, k):
    assert FglContext(p, k).log.coefficient(1) == P("1", "l")


def test_not_prime_rejected():
    with pytest.raises(NotPrimeError):
        FglContext(4, 5)
    with pytest.raises(NotPrimeError):
        FglContext(1, 5)


def test_is_prime_matches_trial_division_and_refuses_undecided_n():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == trial(n) for n in range(-3, 3000))
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)
    # strong pseudoprimes to every prime base up to 23 and up to 37
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ValueError):
        is_prime(MR_BOUND)


def test_exp_display_p2(ctx27):
    want = S(
        "xi - l1*xi^2 + 2*l1^2*xi^3 + (-5*l1^3 - l2)*xi^4 "
        "+ (14*l1^4 + 6*l1*l2)*xi^5 + (-42*l1^5 - 28*l1^2*l2)*xi^6 "
        "+ (132*l1^6 + 120*l1^3*l2 + 4*l2^2)*xi^7",
        2, "l", validity=8,
    )
    assert ctx27.exp.coeffs == want.coeffs
    assert ctx27.exp.validity == 8


def test_exp_p3_modulo_l2():
    ctx = FglContext(3, 6)
    got = ctx.exp.kill_generators([2])
    want = S("xi - l1*xi^3 + 3*l1^2*xi^5", 3, "l", validity=7)
    assert got.agrees_with(want)


@pytest.mark.parametrize("p,k", [(2, 13), (3, 15), (5, 15), (7, 10)])
def test_exp_log_are_mutually_inverse(p, k):
    ctx = FglContext(p, k)
    ident = Series.variable(p, "l", k + 1)
    assert ctx.exp.compose(ctx.log).agrees_with(ident)
    assert ctx.log.compose(ctx.exp).agrees_with(ident)


@pytest.mark.parametrize("p,k", [(2, 16), (3, 20), (5, 30), (7, 50)])
def test_log_ratio_power_matches_series_powers(p, k):
    ctx = FglContext(p, k)
    ratio = ctx.log.shift_xi(-1)
    inverse = ratio.reciprocal()
    for r in range(-6, 7):
        want = ratio ** r if r >= 0 else inverse ** -r
        assert want.validity == k
        for d in range(k):
            assert ctx.log_ratio_power(r, d) == want.coefficient(d), (r, d)


def test_hazewinkel_table_values():
    ctx2 = FglContext(2, 7)
    assert ctx2.ell[0] == P("1")
    assert ctx2.ell[1].scale(2) == P("v1")
    assert ctx2.ell[2].scale(4) == P("v1^3 + 2*v2")
    ctx3 = FglContext(3, 8)
    assert ctx3.ell[1].scale(3) == P("v1")


@pytest.mark.parametrize("p,k", [(2, 15), (3, 26), (5, 30)])
def test_projective_class_images_integral(p, k):
    ctx = FglContext(p, k)
    for m in range(ctx.horizon + 1):
        poly = ctx.cp_image(p ** m - 1)
        assert poly.is_integral()
        if m:
            assert poly.is_homogeneous(p, p ** m - 1)


def test_formal_sum_with_zero(ctx27):
    xi = Series.variable(2, "l", 8)
    zero = Series.zero(2, "l", 8)
    got = ctx27.formal_sum(xi, zero)
    assert got.agrees_with(xi)


def test_formal_sum_rejects_constant_term(ctx27):
    xi = Series.variable(2, "l", 8)
    bad = S("1 + xi", 2, "l", validity=8)
    with pytest.raises(ValueError):
        ctx27.formal_sum(xi, bad)


def test_formal_sum_degree_two(ctx27):
    xi = Series.variable(2, "l", 8)
    x = Series.variable(2, "l", 8, var="x")
    got = ctx27.formal_sum(xi, x).truncate(3)
    want = S("xi + x - 2*l1*xi*x", 2, "l", validity=3)
    assert got.coeffs == want.coeffs


def test_formal_sum_commutative_and_associative(ctx27):
    rng = random.Random(5)
    for _ in range(5):
        s = rand_series(rng, basis="l", validity=8, terms=3)
        t = rand_series(rng, basis="l", validity=8, terms=3)
        u = rand_series(rng, basis="l", validity=8, terms=3)
        for a in (s, t, u):
            a.coeffs.pop((0, 0), None)
        st = ctx27.formal_sum(s, t)
        assert st.agrees_with(ctx27.formal_sum(t, s))
        left = ctx27.formal_sum(st, u)
        right = ctx27.formal_sum(s, ctx27.formal_sum(t, u))
        assert left.agrees_with(right)


def test_n_series_basics(ctx27):
    assert ctx27.n_series(1).coeffs == Series.variable(2, "l", 8).coeffs
    assert not ctx27.n_series(0).coeffs
    # [2]xi = xi * <2>xi
    lhs = ctx27.n_series(2)
    rhs = ctx27.reduced_p_series("l").shift_xi(1)
    assert lhs.agrees_with(rhs)


def test_n_series_matches_iterated_formal_sum():
    ctx = FglContext(3, 9)
    xi = Series.variable(3, "l", 10)
    two = ctx.formal_sum(xi, xi)
    assert ctx.n_series(2).agrees_with(two)
    three = ctx.formal_sum(two, xi)
    assert ctx.n_series(3).agrees_with(three)


def test_n_series_multiplicativity():
    ctx = FglContext(2, 9)
    for m, n in ((2, 2), (2, 3), (3, 2)):
        composed = ctx.n_series(m).compose(ctx.n_series(n))
        assert ctx.n_series(m * n).agrees_with(composed)


@pytest.mark.parametrize("p,k", [(3, 13), (5, 12)])
def test_n_series_supported_on_allowed_exponents(p, k):
    ctx = FglContext(p, k)
    for n in range(2, p + 1):
        for (j, _z) in ctx.n_series(n).coeffs:
            assert j % (p - 1) == 1 % (p - 1)


def test_reduced_p_series_l_display(ctx27):
    want = S(
        "2 - 2*l1*xi + 8*l1^2*xi^2 + (-36*l1^3 - 14*l2)*xi^3 "
        "+ (176*l1^4 + 120*l1*l2)*xi^4 + (-912*l1^5 - 888*l1^2*l2)*xi^5 "
        "+ (4928*l1^6 + 6240*l1^3*l2 + 448*l2^2)*xi^6",
        2, "l", validity=7,
    )
    got = ctx27.reduced_p_series("l")
    assert got.coeffs == want.coeffs
    assert got.validity == 7
    assert got.constant_term() == 2


def test_reduced_p_series_v_display(ctx27):
    want = S(
        "2 - v1*xi + 2*v1^2*xi^2 + (-8*v1^3 - 7*v2)*xi^3 "
        "+ (26*v1^4 + 30*v1*v2)*xi^4 + (-84*v1^5 - 111*v1^2*v2)*xi^5 "
        "+ (300*v1^6 + 502*v1^3*v2 + 112*v2^2)*xi^6",
        2, "v", validity=7,
    )
    got = ctx27.reduced_p_series("v")
    assert got.coeffs == want.coeffs


def test_reduced_p_series_v_display_p3(ctx325):
    got = ctx325.reduced_p_series("v")
    assert got.coefficient(0) == P("3")
    assert got.coefficient(2) == P("-8*v1")
    assert got.coefficient(4) == P("72*v1^2")
    assert got.coefficient(6) == P("-840*v1^3")
    assert got.coefficient(8) == P("9000*v1^4 - 6560*v2")


@pytest.mark.parametrize("p,k", [(2, 9), (3, 10), (5, 8)])
def test_reduced_p_series_contract(p, k):
    ctx = FglContext(p, k)
    got = ctx.reduced_p_series("v")
    assert got.validity == k
    assert got.constant_term() == p
    assert got.is_integral()
    assert got.weight == 0
    got.assert_weight()


def test_substitution_horizon(ctx27):
    # horizon at p=2, k=7 covers l_1..l_3 (weights 1, 3, 7); l_4 is out
    assert ctx27.horizon == 3
    assert ctx27.to_v(S("l3*xi^7", 2, "l", validity=9)).is_integral() is False
    with pytest.raises(HorizonError):
        ctx27.to_v(S("l4*xi^15", 2, "l", validity=16))


def test_integrality_violation_detected(ctx27):
    bad = S("1/3*l1*xi", 2, "l", validity=4)
    with pytest.raises(IntegralityError):
        ctx27.to_v(bad, integral=True)
    # without the flag the substitution succeeds with rational output
    assert not ctx27.to_v(bad).is_integral()


def test_validity_soundness_across_truncations():
    # a larger truncation never contradicts a smaller one below the smaller validity
    for p, ks in ((2, (1, 5, 9, 13, 20)), (3, (2, 4, 9, 14, 20))):
        for k_lo, k_hi in zip(ks, ks[1:]):
            lo, hi = FglContext(p, k_lo), FglContext(p, k_hi)
            assert hi.log.agrees_with(lo.log)
            assert hi.exp.agrees_with(lo.exp)
            assert hi.reduced_p_series("v").agrees_with(lo.reduced_p_series("v"))
            a_lo = power_operation(lo).a
            a_hi = power_operation(hi, x_cap=k_lo).a
            assert len(a_lo) == len(a_hi) == k_lo + 1
            for i, (x, y) in enumerate(zip(a_lo, a_hi)):
                assert x.validity == k_lo + 1 - i < y.validity
                assert y.agrees_with(x), (p, k_lo, k_hi, i)


def test_truncation_beyond_the_exponent_bound_is_refused():
    # the packed-monomial bound: a weight of 8k must still fit in one field
    assert 8 * MAX_TRUNCATION <= MAX_EXP
    with pytest.raises(ValueError, match=str(MAX_TRUNCATION)):
        FglContext(2, MAX_TRUNCATION + 1)


@pytest.mark.parametrize("p,k,ns", [(2, 14, range(1, 7)), (3, 13, range(1, 7))])
def test_monomial_weights_stay_within_twice_the_truncation(p, k, ns):
    # the premise of MAX_TRUNCATION: no monomial the pipeline builds weighs 2k or more
    ctx = FglContext(p, k)
    data = power_operation(ctx, x_cap=max(ns))
    series = [ctx.exp, ctx.reduced_p_series("v"), *data.a]
    series += [mc(ctx, data, n, force_full=True).raw for n in ns]
    heaviest = max(mono_weight(m, p) for s in series for c in s.coeffs.values() for m in c.terms)
    assert 0 < heaviest < 2 * k
