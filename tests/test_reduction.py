import random

import pytest

from fglops import FglContext, canonical_rep, divide, nonvanishing_certificate
from fglops.poly import GradedPoly
from fglops.reduction import NonIntegralError, divisible_by_full_p_series
from fglops.series import Series

from conftest import P, S, rand_series


def _pser(ctx):
    return ctx.reduced_p_series("v")


def test_divide_pseries_by_itself(ctx27):
    pser = _pser(ctx27)
    d, s = divide(pser, pser)
    assert d.coeffs == {(0, 0): P("1")}
    assert not s.coeffs


def test_worked_reduction_steps(ctx27):
    # the assembled obstruction from the reduced coefficients, before reduction
    g = S("6 + 9*v1*xi + 12*v1^4*xi^4 + 18*v1^5*xi^5 + 21*v1^6*xi^6",
          2, "v", validity=7)
    pser = _pser(ctx27).kill_generators([2, 3])
    steps = []
    d, s = divide(g, pser, on_step=lambda m, q, snap: steps.append((m, q, snap)))
    m0, q0, snap0 = steps[0]
    assert m0 == 0 and q0 == P("3")
    # the published intermediate display carries a typo at xi^3 (it prints
    # v1^3 where only 24 v1^3 reconstructs); the exact step is frozen here
    want = S("12*v1*xi - 6*v1^2*xi^2 + 24*v1^3*xi^3 - 66*v1^4*xi^4 "
             "+ 270*v1^5*xi^5 - 879*v1^6*xi^6", 2, "v", validity=7)
    assert snap0.coeffs == want.coeffs
    assert s.coeffs == {(6, 0): P("v1^6")}
    # reconstruction closes the loop on the corrected step
    assert (d * pser + s).agrees_with(g)


def test_reduction_step_valuations_increase(ctx27):
    rng = random.Random(21)
    pser = _pser(ctx27)
    for _ in range(20):
        g = rand_series(rng, validity=7)
        ms = []
        divide(g, pser, on_step=lambda m, q, snap: ms.append(m))
        assert ms == sorted(set(ms))


def test_reconstruction_randomized(ctx27):
    rng = random.Random(2026)
    pser = _pser(ctx27)
    for _ in range(100):
        g = rand_series(rng, validity=rng.randrange(2, 8))
        d, s = divide(g, pser)
        assert (d * pser + s).agrees_with(g)
        for c in s.coeffs.values():
            assert all(type(x) is int and 0 <= x < 2 for x in c.terms.values())


@pytest.mark.parametrize("p,k", [(3, 25), (5, 76)])
def test_reconstruction_randomized_at_odd_primes(ctx325, p, k):
    # negative coefficients throughout; every other dividend is d*pser + s with
    # s canonical, so the subtractions cancel whole coefficients and (d, s) come back
    rng = random.Random(2027 + p)
    pser = _pser(ctx325 if p == 3 else FglContext(p, k))
    for trial in range(60):
        v = rng.randrange(2, 20)
        g = rand_series(rng, prime=p, validity=v)
        if trial % 2:
            d0 = rand_series(rng, prime=p, validity=v)
            s0 = rand_series(rng, prime=p, validity=v).map_polys(
                lambda c: GradedPoly({m: x % p for m, x in c.terms.items()}))
            g = d0 * pser + s0
        d, s = divide(g, pser)
        assert (d * pser + s).agrees_with(g)
        if trial % 2:
            assert d.agrees_with(d0) and s.agrees_with(s0)
        for c in s.coeffs.values():
            assert c.terms
            assert all(type(x) is int and 0 < x < p for x in c.terms.values())


def test_canonical_rep_idempotent(ctx27):
    rng = random.Random(17)
    pser = _pser(ctx27)
    for _ in range(25):
        g = rand_series(rng, validity=7)
        s = canonical_rep(g, pser)
        again = canonical_rep(s, pser)
        assert again == s


def test_uniqueness_by_perturbing_the_quotient(ctx27):
    rng = random.Random(23)
    pser = _pser(ctx27)
    g = rand_series(rng, validity=7)
    d, s = divide(g, pser)
    h = rand_series(rng, validity=7)
    # any other decomposition g = (d + h) pser + s' forces s' = s - h*pser,
    # which is not normalized unless h = 0
    s_prime = s - h * pser
    back = canonical_rep(s_prime, pser)
    assert back.agrees_with(s)


def test_congruence_soundness(ctx27):
    rng = random.Random(29)
    pser = _pser(ctx27)
    for _ in range(25):
        g = rand_series(rng, validity=7)
        h = rand_series(rng, validity=7)
        other = g + h * pser
        a = canonical_rep(g, pser)
        b = canonical_rep(other, pser)
        assert a.agrees_with(b)


def test_multiple_of_p_reduces_to_zero(ctx27):
    pser = _pser(ctx27)
    assert not canonical_rep(pser.scale(2), pser).coeffs
    g = S("2*v1*xi + 4*v2*xi^3", 2, "v", validity=7)
    s = canonical_rep(g, pser)
    # not a multiple of the divisor, so nonzero remainder remains
    assert s.coeffs


def test_negative_coefficients_normalize_via_floor(ctx27):
    pser = _pser(ctx27)
    s = canonical_rep(S("-v1*xi", 2, "v", validity=7), pser)
    for c in s.coeffs.values():
        assert all(0 <= x < 2 for x in c.terms.values())


def test_non_integral_rejected(ctx27):
    pser = _pser(ctx27)
    with pytest.raises(NonIntegralError):
        divide(S("1/2*v1*xi", 2, "v", validity=7), pser)


def test_certificate(ctx27):
    s = S("v1^6*xi^6 + v1^7*xi^7", 2, "v", validity=9)
    assert nonvanishing_certificate(s) == (6, P("v1^6"))
    assert nonvanishing_certificate(Series.zero(2, "v", 9)) is None


def test_divisible_by_full_p_series(ctx27):
    pser = _pser(ctx27)
    full = pser.shift_xi(1)  # [p]xi
    assert divisible_by_full_p_series(full, pser)
    assert divisible_by_full_p_series(full * full, pser)
    assert not divisible_by_full_p_series(S("xi", 2, "v", validity=7), pser)
    assert not divisible_by_full_p_series(S("2", 2, "v", validity=7), pser)


def test_division_validity_uses_dividend_valuation():
    # dividend valuation shifts where the divisor's validity starts to matter
    ctx = FglContext(3, 25)
    pser = _pser(ctx)
    g = S("48*v1*xi^2", 3, "v", validity=26)
    d, s = divide(g, pser)
    assert s.validity == min(26, 2 + pser.validity) == 26


@pytest.mark.parametrize("g_text,m0", [("3", 0), ("2*xi^3 + v1*xi^4", 3), ("xi + 5*v1^2*xi^2", 2)])
def test_divide_caps_validity_at_first_subtraction(ctx27, g_text, m0):
    # g is known far beyond the divisor: the first nonzero quotient digit, at
    # xi^m0, brings in pser's error term, so d and s are only valid below m0 + V
    pser = _pser(ctx27)
    g = S(g_text, 2, "v", validity=pser.validity + m0 + 9)
    d, s = divide(g, pser)
    assert min(d.coeffs)[0] == m0
    assert d.validity == s.validity == m0 + pser.validity
    assert (d * pser + s).agrees_with(g)


def test_divide_without_subtraction_keeps_validity(ctx27):
    g = S("1 + v1*xi + v2*xi^3", 2, "v", validity=30)
    d, s = divide(g, _pser(ctx27))
    assert not d.coeffs
    assert d.validity == s.validity == 30
    assert s == g
