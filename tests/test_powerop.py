import math

import pytest

from fglops import FglContext, IntegralityError, power_operation, reduce_a_mod_p_series
from fglops import powerop
from fglops.powerop import EulerClassError, _check_euler_class, product_rows, product_rows_by_fold
from fglops.reduction import divisible_by_full_p_series
from fglops.series import Series

from conftest import P, S


def test_a0_is_euler_class(data27):
    # p = 2: a_0 = [1]xi = xi on the nose
    a0 = data27.a[0]
    assert a0.validity == 8
    assert a0.coeffs == S("xi", 2, "v", validity=8).coeffs


def test_a1_a2_raw_displays(data27):
    a1 = data27.a[1].kill_generators([2, 3])
    # published display shows v1^6 at xi^6; the computed coefficient is 6 v1^6,
    # the only value consistent with the reduced display and the final answer
    want1 = S("1 - v1*xi + v1^2*xi^2 - 2*v1^3*xi^3 + 3*v1^4*xi^4 - 4*v1^5*xi^5 + 6*v1^6*xi^6",
              2, "v", validity=7)
    assert a1.coeffs == want1.coeffs
    assert a1.validity == 7
    a2 = data27.a[2].kill_generators([2, 3])
    want2 = S("v1^2*xi - 4*v1^3*xi^2 + 10*v1^4*xi^3 - 21*v1^5*xi^4 + 43*v1^6*xi^5",
              2, "v", validity=6)
    assert a2.coeffs == want2.coeffs
    assert a2.validity == 6


def test_reduced_a_displays(data27):
    red = reduce_a_mod_p_series(data27)
    a1 = red[1].series.kill_generators([2, 3])
    assert a1.coeffs == S("1 + v1*xi + v1^4*xi^4 + v1^5*xi^5 + v1^6*xi^6",
                          2, "v", validity=7).coeffs
    a2 = red[2].series.kill_generators([2, 3])
    assert a2.coeffs == S("v1^2*xi + v1^5*xi^4", 2, "v", validity=6).coeffs
    # reduction preserves validity, and reducing a raw a_i matches the goldens
    assert red[1].validity == data27.a[1].validity
    assert red[0].series.agrees_with(data27.a[0])


def test_validity_ladder(data27):
    for i, ai in enumerate(data27.a):
        assert ai.validity == data27.ctx.k + 1 - i


@pytest.mark.parametrize("p,k", [(2, 7), (3, 9), (5, 8)])
def test_euler_congruence(p, k):
    data = power_operation(FglContext(p, k), x_cap=3)
    a0 = data.a[0]
    fact = math.factorial(p - 1)
    assert a0.coefficient(p - 1) == P(str(fact))
    for j in range(p - 1):
        assert a0.coefficient(j) == 0


def test_euler_check_fires_on_bad_series():
    bad = S("7*xi", 2, "v", validity=5)
    with pytest.raises(EulerClassError):
        _check_euler_class(bad, 2, 1)


def test_product_divisible_by_x_and_xi_zero_column(data27):
    prod = data27.product
    assert all(jx >= 1 for (_j, jx) in prod.coeffs)
    # setting xi = 0 leaves x^p
    col = {jx: c for (j, jx), c in prod.coeffs.items() if j == 0}
    assert col == {2: P("1")}


def test_product_weight_and_validity(data27):
    prod = data27.product
    assert prod.validity == data27.ctx.k + 2
    assert prod.weight == -2
    prod.assert_weight()
    for i, ai in enumerate(data27.a):
        assert ai.weight == i + 1 - 2
        ai.assert_weight()


def test_reassembly(data27):
    total = None
    for i, ai in enumerate(data27.a):
        term = ai.shift_x(i + 1)
        total = term if total is None else total + term
    assert total.agrees_with(data27.product)


def _oracle_product(ctx, x_cap):
    """Direct left-to-right product of formal sums; independent of the row pipeline."""
    p, k = ctx.p, ctx.k
    x = Series.variable(p, "l", k + 1, var="x")
    factors = [ctx.formal_sum(ctx.n_series(i), x) for i in range(1, p)]
    acc = Series.variable(p, "l", k + 2, var="x")
    for f in factors:
        acc = (acc * f).truncate(k + 2)
    return ctx.to_v(acc, integral=True)


@pytest.mark.parametrize("p,k", [(2, 7), (3, 9), (5, 7)])
def test_product_matches_formal_sum_oracle(p, k):
    ctx = FglContext(p, k)
    data = power_operation(ctx)
    oracle = _oracle_product(ctx, k)
    assert data.product.agrees_with(oracle)


def test_product_factor_order_oracle():
    # exact product commutativity: reversed factor order gives identical bits
    ctx = FglContext(5, 7)
    p, k = ctx.p, ctx.k
    x = Series.variable(p, "l", k + 1, var="x")
    factors = [ctx.formal_sum(ctx.n_series(i), x) for i in range(1, p)]
    fwd = Series.variable(p, "l", k + 2, var="x")
    for f in factors:
        fwd = (fwd * f).truncate(k + 2)
    rev = Series.variable(p, "l", k + 2, var="x")
    for f in reversed(factors):
        rev = (rev * f).truncate(k + 2)
    assert fwd.coeffs == rev.coeffs and fwd.validity == rev.validity


def test_a0_lowest_term_p3():
    data = power_operation(FglContext(3, 6), x_cap=2)
    assert data.a[0].coefficient(2) == P("2")
    assert data.a[0].val() == 2


def test_a_list_bounded_by_truncation():
    ctx = FglContext(2, 5)
    data = power_operation(ctx)
    assert len(data.a) == ctx.k + 1
    assert data.a[-1].validity == 1


def test_sparseness_divisibility_of_a(ctx313, data313):
    # odd p, i not divisible by p-1: a_i lies in ([p]xi) within validity
    pser = ctx313.reduced_p_series("v")
    for i in (1, 3):
        assert divisible_by_full_p_series(data313.a[i], pser)
    # a_2 is a unit-led series and must not be divisible
    assert not divisible_by_full_p_series(data313.a[2], pser)


def test_validity_soundness_across_truncations():
    lo = power_operation(FglContext(3, 9), x_cap=4)
    hi = power_operation(FglContext(3, 13), x_cap=4)
    for alo, ahi in zip(lo.a, hi.a):
        assert ahi.agrees_with(alo)


# k < p - 1 at (5, 3) and (7, 4): every row vanishes below its validity
FOLD_GRID = [(2, 9), (3, 13), (5, 3), (5, 20), (7, 4), (7, 18)]


@pytest.mark.parametrize("p,k", FOLD_GRID)
def test_power_sum_exponential_matches_the_fold(p, k):
    ctx = FglContext(p, k)
    for cap in (0, k // 2, k):
        rows = product_rows(ctx, cap)
        assert len(rows) == cap + 1
        assert rows == product_rows_by_fold(ctx, cap)  # coefficients and validity


def test_inexact_division_raises(monkeypatch):
    # a wrong binomial in the power-sum forms B_d leaves a remainder mod q^j j!
    monkeypatch.setattr(powerop, "comb", lambda n, r: math.comb(n, r) + (r == 1))
    with pytest.raises(IntegralityError):
        product_rows(FglContext(3, 13), 6)
