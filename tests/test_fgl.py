import math
import random
from fractions import Fraction

import pytest

import fglops.fgl
import fglops.poly
import fglops.powerop
import fglops.series
from fglops import FglContext, HorizonError, IntegralityError, NotPrimeError, mc, power_operation
from fglops.cli import DEFAULT_TRUNCATION
from fglops.fgl import MR_BOUND, is_prime
from fglops.poly import MAX_EXP, MAX_TRUNCATION, GradedPoly, mono_exps, mono_pack, mono_weight
from fglops.series import Series

from conftest import P, S, rand_series


def test_log_display_p2(ctx27):
    want = S("xi + l1*xi^2 + l2*xi^4", 2, "l", validity=8)
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


@pytest.mark.parametrize("p,k,j,added", [
    *(pytest.param(p, k, j, 1, id=f"{p}-{k}-{j}") for p, k, j in
      [(2, 9, 1), (2, 9, 5), (2, 9, 9), (3, 10, 1), (3, 10, 4), (3, 10, 9)]),
    # the t = 1 digit of the pass's accumulator must hold this without a carry into [p]xi,
    # at 3-10-9 through the largest binomial weights C(j, s) of the Horner pass
    pytest.param(2, 9, 5, 2 ** 512, id="2-9-5-huge"),
    pytest.param(3, 10, 9, 2 ** 512, id="3-10-9-huge"),
])
def test_identity_check_fires_on_a_corrupted_exp(monkeypatch, p, k, j, added):
    # j = 4 at p = 3 is off the support j = 1 mod p-1 that the shared pass reads
    build = FglContext._build_exp

    def corrupted(self):
        exp = build(self)
        coeffs = dict(exp.coeffs)
        coeffs[(j, 0)] = coeffs.get((j, 0), P("0", "l")) + P("1", "l").scale(added)
        return Series(p, "l", coeffs, exp.validity)

    monkeypatch.setattr(FglContext, "_build_exp", corrupted)
    with pytest.raises(AssertionError, match="exp is not inverse to log"):
        FglContext(p, k)


@pytest.mark.parametrize("p,k", [(2, 12), (2, 13), (3, 14), (3, 15), (5, 20)])
def test_shared_pass_forms_each_product_below_the_truncation_once(monkeypatch, p, k):
    # H_s = sum over s' >= s of r^(s'-s) E_s', read here from Series powers of
    # r = log/xi - 1; the pass forms r x H_(s+1) only below k+1-s(p-1), once for
    # both multipliers 1 and p, and never multiplies E_s
    handed = []
    real = fglops.series.sum_products

    def counting(tgt, triples):
        triples = list(triples)
        handed.extend(len(t1) * len(t2) for _c, t1, t2 in triples)
        return real(tgt, triples)

    monkeypatch.setattr(fglops.series, "sum_products", counting)
    ctx = FglContext(p, k)
    ctx.n_series(p)  # cached by the construction pass
    got = sum(handed)
    q = p - 1
    r = ctx.log.shift_xi(-1) - Series.from_const(1, p, "l", k)

    def h_ref(s, t):  # H_s for the multiplier t alone
        cut = k + 1 - s * q
        out = Series.zero(p, "l", cut)
        for s2 in range(s, k // p + 1):
            e = Series(p, "l", {(j, 0): c.scale(math.comb(j, s2) * t ** j)
                                for (j, _z), c in ctx.exp.coeffs.items() if j >= s2}, k + 1)
            out = out + (e if s2 == s else r ** (s2 - s) * e)
        assert out.validity == cut
        return out.truncate(cut)

    want = 0
    for s in range(k // p):
        cut = k + 1 - s * q
        held = {(j, mono) for t in (1, p) for (j, _z), c in h_ref(s + 1, t).coeffs.items()
                for mono in c.terms}
        want += sum(len(c.terms) * sum(j < cut - d for j, _mono in held)
                    for (d, _z), c in r.coeffs.items())
    assert got == want
    # fewer pairs than forming every e_j [xi^d] R^j, j + d <= k, from the powers R^j
    chain = sum(len(e.terms) * len(ctx.log_ratio_power(j, d).terms)
                for (j, _z), e in ctx.exp.coeffs.items() for d in range(k + 1 - j))
    assert want < chain


# r = log/xi - 1 has no term when p > k; the CLI tests build a context at p = 10**18 + 3
EDGE_CASES = {(7, 3), (13, 5), (13, 1), (10**18 + 3, 5), (10**18 + 3, 1)}


@pytest.mark.parametrize("p,k", sorted({(p, k) for p in (2, 3, 5, 7) for k in (1, p - 1, 2 * p, 20)}
                                        | {(2, 30)} | EDGE_CASES))
def test_packed_multipliers_are_exact(p, k):
    # the pair (1, p) shares one accumulator; each multiplier alone is not packed
    ctx = FglContext(p, k)
    pair = ctx._exp_of_log_multiples((1, p))
    alone = [ctx._exp_of_log_multiples((t,))[0] for t in (1, p)]
    for got, want in zip(pair, alone):
        assert got.coeffs == want.coeffs
        assert got.validity == want.validity == k + 1
        got.assert_weight(-1)


@pytest.mark.parametrize("p,k,j", [(3, 8, 5), (5, 24, 9)])
def test_packed_multipliers_are_exact_for_a_corrupted_exp(p, k, j):
    # below k only l_1 is present, so ||r||_1 = 1 and ||R||_1 = 2: 2^512 added to e_j
    # meets C(j, s) >= 5 in R^j, a t = 1 digit a width taken from ||r||_1 cannot hold
    ctx = FglContext(p, k)
    coeffs = dict(ctx.exp.coeffs)
    coeffs[(j, 0)] = coeffs[(j, 0)] + P("1", "l").scale(2 ** 512)
    ctx.exp = Series(p, "l", coeffs, ctx.exp.validity)
    for got, t in zip(ctx._exp_of_log_multiples((1, p)), (1, p)):
        want = ctx.exp.compose(ctx.log.scale(t))
        assert got.coeffs == want.coeffs and got.validity == want.validity == k + 1


@pytest.mark.parametrize("p,k", [(2, 20), (3, 26), (5, 40)])
def test_context_makes_no_series_product(monkeypatch, p, k):
    # H_0 comes from packed products of r = log/xi - 1, never from the closed form
    # mu(-j; b) that builds the exp it checks
    def refuse(*_args):
        raise AssertionError("a Series product in the context")

    read = []
    closed_form = FglContext._monomials

    def recording(self, d, r):
        read.append(r)
        return closed_form(self, d, r)

    monkeypatch.setattr(Series, "sum_of_products", refuse)
    monkeypatch.setattr(FglContext, "_monomials", recording)
    ctx = FglContext(p, k)
    ctx.n_series(p + 1)
    ctx.reduced_p_series("v")
    assert read and max(read) < 0


N_SERIES_GRID = sorted(
    {(p, k, n) for p in (2, 3, 5, 7) for k in (1, p - 2, p - 1, 2 * p, 20) if k >= 1
     for n in (2, 3, p, p + 1)}
    | {(p, k, n) for p, k in EDGE_CASES for n in (2, 3, p, p + 1)}
    | {(p, DEFAULT_TRUNCATION[p], p) for p in (11, 13)})


@pytest.mark.parametrize("p,k,n", N_SERIES_GRID)
def test_n_series_matches_composition(p, k, n):
    # the shared pass against the Horner composition of the library
    ctx = FglContext(p, k)
    got = ctx.n_series(n)
    want = ctx.exp.compose(ctx.log.scale(n))
    assert got == want
    assert got.validity == want.validity == k + 1
    got.assert_weight(-1)


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


@pytest.mark.parametrize("p,k", [*DEFAULT_TRUNCATION.items(), (2, 56)])
def test_generator_table_meets_the_hazewinkel_recursion(p, k):
    # the context's table held against statements that do not repeat its
    # construction: l_1 and l_2 in closed form, and p l_n = sum_i l_i v_(n-i)^(p^i)
    # with each power taken by GradedPoly.__pow__, at every golden prime (and
    # p = 2, k = 56, whose table reaches l_5)
    ctx = FglContext(p, k)
    ell, v1, v2 = ctx.ell, GradedPoly.gen(1), GradedPoly.gen(2)
    assert len(ell) == ctx.horizon + 1 >= 3
    assert ell[1] == v1.scale(Fraction(1, p))
    assert ell[2] == v2.scale(Fraction(1, p)) + (v1 ** (p + 1)).scale(Fraction(1, p * p))
    for n in range(1, len(ell)):
        rhs = GradedPoly.zero("v")
        for i in range(n):
            rhs = rhs + ell[i] * GradedPoly.gen(n - i) ** (p ** i)
        assert ell[n].scale(p) == rhs, n


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
    got.assert_weight(0)


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


def test_to_v_substitutes_the_whole_series_in_one_call(monkeypatch):
    # p=2, k=56: one substitution by generator for the whole series; a cache of
    # head and tail images per context took 126,220 pairs, the per-monomial power
    # chain 360,973
    handed, calls = [], []
    real = fglops.poly.sum_products
    substitute = GradedPoly.substitute

    def counting(tgt, triples):
        triples = list(triples)
        handed.extend(len(t1) * len(t2) for _c, t1, t2 in triples)
        return real(tgt, triples)

    def recording(self, *args):
        calls.append(len(self.terms))
        return substitute(self, *args)

    ctx = FglContext(2, 56)
    pser = ctx.reduced_p_series("l")
    monkeypatch.setattr(fglops.poly, "sum_products", counting)
    monkeypatch.setattr(GradedPoly, "substitute", recording)
    first = ctx.to_v(pser, integral=True)
    pairs = sum(handed)
    assert pairs <= 65_000
    assert calls == [sum(len(c.terms) for c in pser.coeffs.values())]
    # no state carries from one call to the next: the second makes the same pairs
    handed.clear()
    assert ctx.to_v(pser, integral=True) == first
    assert sum(handed) == pairs


@pytest.mark.parametrize("p,k", [(2, 56), (3, 40), (5, 76)])
def test_to_v_of_a_whole_series_matches_each_coefficient_alone(p, k):
    # one substitution with the exponents packed below and above the monomials
    ctx = FglContext(p, k)
    rng = random.Random(p * k)
    bivariate = Series(p, "l", {(j - j % 3, j % 3): c for (j, _z), c in ctx.exp.coeffs.items()},
                       k + 1)
    # the shift by k puts exponents past k, so the degree field follows the validity
    cases = [ctx.exp, ctx.reduced_p_series("l"), ctx.n_series(p).shift_xi(k), bivariate]
    cases += [rand_series(rng, prime=p, basis="l", validity=k, terms=8, integral=False)
              .kill_generators(range(ctx.horizon + 1, 4)) for _ in range(5)]
    for s in cases:
        got = ctx.to_v(s)
        want = s.map_polys(lambda c: c.substitute(ctx._ell_table, "v"), basis="v")
        assert got == want and got.coeffs == want.coeffs


@pytest.mark.parametrize("p,k,cap", [(2, 20, 8), (3, 25, 6), (5, 40, 10)])
def test_power_operation_rows_match_each_coefficient_alone(p, k, cap):
    # power_operation substitutes the packed product once; each row alone agrees
    ctx = FglContext(p, k)
    data = power_operation(ctx, x_cap=cap)
    for s, row in enumerate(fglops.powerop.product_rows(ctx, cap)):
        want = row.map_polys(lambda c: c.substitute(ctx._ell_table, "v"), basis="v")
        assert data.a[s].coeffs == want.coeffs
        assert data.a[s].validity == want.validity == k + 1 - s


GOLDEN_CONTEXTS = sorted(DEFAULT_TRUNCATION.items()) + [(2, 80)]


@pytest.mark.parametrize("p,k", GOLDEN_CONTEXTS)
def test_exp_matches_the_lagrange_coefficients(p, k):
    # the flat walk of exp against (1/j) [xi^(j-1)] (log/xi)^(-j), term by term
    ctx = FglContext(p, k)
    for j in range(1, k + 1):
        want = ctx.log_ratio_power(-j, j - 1)
        assert all(c % j == 0 for c in want.terms.values())
        assert ctx.exp.coefficient(j) == GradedPoly({m: c // j for m, c in want.terms.items()}, "l")


@pytest.mark.parametrize("p,k", [(2, 80), (3, 40), (5, 76), (7, 162), (13, 30), (13, 5)])
def test_monomial_walk_matches_the_partitions(p, k):
    # every l-monomial of each weight once, as the recursive enumerator finds them
    ctx = FglContext(p, k)
    for d in range(k + 1):
        got = [mono for mono, _c in ctx._monomials(d, -1)]
        want = {mono_pack(b): b for b in fglops.fgl.partitions(d, ctx._log_parts)}
        assert sorted(got) == sorted(want)
        assert all(mono_exps(mono) == want[mono] for mono in got)


@pytest.mark.parametrize("p,k", [(2, 80), (3, 40), (5, 76), (13, 504)])
def test_carried_multinomial_matches_mu_per_monomial(p, k):
    # the odometer's carried multinomial against one mu(r; b) per monomial, for exp
    # (r = -j, exact division by j) and for every r from -k to k, 0 and r > 0 included
    ctx = FglContext(p, k)
    parts = [list(fglops.fgl.partitions(d, ctx._log_parts)) for d in range(k + 1)]
    for j in range(1, k + 1):
        want = {}
        for b in parts[j - 1]:
            want[mono_pack(b)], rem = divmod(fglops.fgl.mu(-j, b), j)
            assert rem == 0
        assert ctx.exp.coefficient(j) == GradedPoly(want, "l"), j
    for r in range(-k, k + 1):
        for d in range(0, k + 1, p - 1):  # the weights with monomials
            if p == 2 and d % 8 != r % 8:  # at p = 2 each r meets every eighth weight
                continue
            want = {mono_pack(b): fglops.fgl.mu(r, b) for b in parts[d]}
            assert dict(ctx._monomials(d, r)) == want, (r, d)
            assert ctx.log_ratio_power(r, d) == GradedPoly(want, "l"), (r, d)


def test_exp_refuses_an_indivisible_lagrange_coefficient(monkeypatch):
    # [xi^2] exp = (1/2) [xi] (log/xi)^(-2) = (1/2) mu(-2; (1)) l_1; one more in the
    # carried multinomial leaves a remainder
    walk = FglContext._monomials
    monkeypatch.setattr(FglContext, "_monomials", lambda self, d, r: (
        (mono, c + (r == -2)) for mono, c in walk(self, d, r)))
    with pytest.raises(IntegralityError, match=r"xi\^2"):
        FglContext(2, 7)


def _partitions_by_nested_generators(t, parts):
    """The reference enumerator: one generator frame per part, padded on the way out."""
    def rec(n, rest):
        if rest == 0:
            yield ()
            return
        if n == 0:
            return
        part = parts[n - 1]
        for c in range(rest // part, -1, -1):
            for head in rec(n - 1, rest - c * part):
                yield head + (0,) * (n - 1 - len(head)) + (c,) if c else head

    return rec(len(parts), t)


@pytest.mark.parametrize("t", range(0, 19))
def test_partitions_match_the_nested_generator_enumerator(t):
    for parts in [(2,), (4, 24), (1, 3, 7, 15, 31), (3, 1, 2), tuple(range(1, t + 1))]:
        assert (list(fglops.fgl.partitions(t, parts))
                == list(_partitions_by_nested_generators(t, parts)))


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
