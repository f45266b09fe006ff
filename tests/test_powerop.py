import math

import pytest

from fglops import FglContext, IntegralityError, power_operation, reduce_a_mod_p_series
import fglops.series
from fglops import powerop
from fglops.poly import GradedPoly, add_products, sum_products
from fglops.powerop import (EulerClassError, _check_euler_class, _factor_forms, _rows,
                            product_rows, product_rows_by_fold)
from fglops.reduction import divisible_by_full_p_series
from fglops.series import PackedSeries, Series

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
        _check_euler_class(bad, 2)


def _product(data) -> Series:
    """The power-operation product sum a_i x^(i+1), built from data.a; valid mod (xi, x)^(k+2)."""
    total = data.a[0].shift_x(1)
    for i, ai in enumerate(data.a[1:], start=2):
        total = total + ai.shift_x(i)
    return total


def test_product_divisible_by_x_and_xi_zero_column(data27):
    prod = _product(data27)
    assert all(jx >= 1 for (_j, jx) in prod.coeffs)
    # setting xi = 0 leaves x^p
    col = {jx: c for (j, jx), c in prod.coeffs.items() if j == 0}
    assert col == {2: P("1")}


def test_product_weight_and_validity(data27):
    prod = _product(data27)
    assert prod.validity == data27.ctx.k + 2
    prod.assert_weight(-2)
    for i, ai in enumerate(data27.a):
        ai.assert_weight(i + 1 - 2)


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
    assert _product(data).agrees_with(oracle)


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


def _as_dicts(ctx, forms, cap):
    """The forms as dicts[a][b] = {mono: coefficient}, the coefficient of X^a L^b."""
    width = (ctx.k + 1).bit_length()
    dicts = [{} for _a in range(cap + 1)]
    for d, runs in forms:
        for a, terms in runs:
            assert d - a not in dicts[a], "two forms share a coefficient"
            dicts[a][d - a] = {key >> width: x for key, x in terms}
            assert len(dicts[a][d - a]) == len(terms) and all(key == key >> width << width
                                                              for key, _x in terms)
    return dicts


def _rows_by_closed_form(ctx, forms, cap):
    """Rows and inner sums W_a from the partition closed form of [xi^d] (log/xi)^r.

    Independent of the series kernel: term dicts and add_products only.
    """
    k, q = ctx.k, ctx.p - 1
    forms = _as_dicts(ctx, forms, cap)
    ws = []  # ws[a] = sum_b forms[a][b] xi^b R^b as {xi degree: terms}, valid mod xi^(k+1-a)
    for a in range(cap + 1):
        w = {}
        for b, c in forms[a].items():
            for t in range(0, k + 1 - a - b, q):  # R^b only has terms xi^t with q | t
                add_products(w.setdefault(b + t, {}), c, ctx.log_ratio_power(b, t).terms)
        ws.append(w)
    rows = []
    for s in range(cap + 1):
        row = {}
        for a in range(s + 1):
            c = ctx.log_ratio_power(a, s - a).terms  # [x^s] L(x)^a
            for d, terms in ws[a].items():
                if d < k + 1 - s:
                    add_products(row.setdefault(d, {}), terms, c)
        rows.append(Series(ctx.p, "l", {(d, 0): GradedPoly(t, "l") for d, t in row.items()},
                           k + 1 - s))
    return rows, ws


# in a degree field of (k + 1).bit_length() bits, degree k leaves the top bit unused
# at k = 15 and 31 and needs it at k = 16 and 32; at (5, 3, 3) every form of the
# product is empty (q > k), and (3, 25, 0) converts one row
ROWS_GRID = [(2, 20, 8), (3, 25, 6), (5, 40, 10), (2, 15, 8), (2, 16, 8), (3, 31, 10),
             (3, 32, 10), (7, 30, 30), (5, 3, 3), (3, 25, 0)]


def _forms_of(ctx, cap):
    """The forms product_rows converts, and those of the single factor i = 2 if p > 2."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(powerop, "_rows", lambda ctx, forms, cap: seen.append(forms))
        product_rows(ctx, cap)
    return seen + ([_factor_forms(ctx, 2, cap)] if ctx.p > 2 else [])


@pytest.mark.parametrize("p,k,cap", ROWS_GRID)
def test_rows_match_the_closed_form(p, k, cap):
    ctx = FglContext(p, k)
    for forms in _forms_of(ctx, cap):
        assert _rows(ctx, forms, cap) == _rows_by_closed_form(ctx, forms, cap)[0]


@pytest.mark.parametrize("p,k,cap", ROWS_GRID)
def test_rows_hand_the_kernel_only_pairs_below_each_validity(monkeypatch, p, k, cap):
    # L^b = L L^(b-1) mod xi^(k+1), W_a mod xi^(k+1-a), row s mod xi^(k+1-s):
    # a factor left above the validity of its product changes no row, only this count
    ctx = FglContext(p, k)
    handed = []

    def counting(tgt, triples):
        triples = list(triples)
        handed.extend(len(t1) * len(t2) for _c, t1, t2 in triples)
        return sum_products(tgt, triples)

    monkeypatch.setattr(powerop, "sum_products", counting)  # L^b and W_a
    monkeypatch.setattr(fglops.series, "sum_products", counting)  # the rows' product

    def size(r, e):  # terms of [xi^e] L^r = [xi^(e-r)] R^r
        return len(ctx.log_ratio_power(r, e - r).terms) if e >= r else 0

    for packed in _forms_of(ctx, cap):
        handed.clear()
        _rows(ctx, packed, cap)
        ws = _rows_by_closed_form(ctx, packed, cap)[1]
        forms = _as_dicts(ctx, packed, cap)
        top = max([cap] + [b for f in forms for b in f])
        want = sum(size(1, f) * size(b - 1, e) for b in range(2, top + 1)
                   for f in range(1, k + 1) for e in range(k + 1 - f))
        want += sum(len(c) * size(b, e) for a, f in enumerate(forms) for b, c in f.items()
                    for e in range(k + 1 - a))
        want += sum(size(a, s) * len(t) for s in range(cap + 1) for a in range(s + 1)
                    for d, t in ws[a].items() if d < k + 1 - s)
        assert sum(handed) == want


@pytest.mark.parametrize("p,k,cap", ROWS_GRID)
def test_rows_are_one_product_after_the_powers_and_forms(monkeypatch, p, k, cap):
    # L^2 .. L^top, then W_0 .. W_cap, one kernel pass each, then every row in
    # one product at order k+1, the only PackedSeries product
    ctx = FglContext(p, k)
    calls = []
    product = PackedSeries.sum_of_products

    def counting(triples, order=None):
        calls.append(("product", order))
        return product(triples, order)

    def kernel(tgt, triples):
        calls.append(("pass", len(tgt)))
        return sum_products(tgt, triples)

    for packed in _forms_of(ctx, cap):
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(PackedSeries, "sum_of_products", staticmethod(counting))
            mp.setattr(powerop, "sum_products", kernel)
            _rows(ctx, packed, cap)
        forms = _as_dicts(ctx, packed, cap)
        top = max([cap] + [b for f in forms for b in f])
        # every pass starts from an empty accumulator of its own
        assert calls == [("pass", 0)] * (max(top - 1, 0) + cap + 1) + [("product", k + 1)]


# cap < q(j+1) for the later steps of the first two, cap >= q(j+1) for every step of the
# next two, and cap = 0
EULER_GRID = [(3, 20, 5), (5, 40, 10), (7, 30, 30), (3, 25, 25), (5, 30, 0)]


@pytest.mark.parametrize("p,k,cap", EULER_GRID)
def test_euler_step_hands_the_kernel_only_pairs_below_each_validity(monkeypatch, p, k, cap):
    # B_d[a1] X^a1 meets the terms of N_(j-i) of X-degree e only for a1 + e <= min(cap, q(j+1)),
    # and d h_d meets every key that convolution formed, a cancelled one included
    ctx = FglContext(p, k)
    q, handed = p - 1, []

    def counting(tgt, triples):
        triples = list(triples)
        handed.extend(len(t1) * len(t2) for _c, t1, t2 in triples)
        return sum_products(tgt, triples)

    monkeypatch.setattr(powerop, "sum_products", counting)
    monkeypatch.setattr(powerop, "_rows", lambda ctx, forms, cap: None)
    product_rows(ctx, cap)
    # the same recurrence on plain dicts keyed (monomial, X-degree)
    top = k // q - 1
    stirling = [1]
    for i in range(1, q + 1):
        stirling = [x + i * y for x, y in zip([0] + stirling, stirling + [0])]
    n = [{(0, a): c for a, c in enumerate(stirling[:cap + 1])}]
    want = 0
    for j in range(1, top + 1):
        nj, scale = {}, 1
        for i in range(1, j + 1):
            d, part = q * i, {}
            for a1 in range(min(d, cap) + 1):
                b = math.comb(d, a1) * sum(t ** (d - a1) for t in range(1, q + 1))
                for (m, e), x in n[j - i].items():
                    if a1 + e <= min(cap, q * (j + 1)):
                        want += 1
                        part[(m, a1 + e)] = part.get((m, a1 + e), 0) + b * x
            g = ctx.log_ratio_power(-d, d).terms
            want += len(g) * len(part)
            for (m, e), x in part.items():
                for gm, gx in g.items():
                    nj[(m + gm, e)] = nj.get((m + gm, e), 0) + scale * gx * x
            scale *= q * (j - i)
        n.append({key: x for key, x in nj.items() if x})
    assert sum(handed) == want


@pytest.mark.parametrize("p,k,cap", [(5, 40, 10), (3, 25, 25)])
def test_each_euler_step_is_at_most_two_kernel_passes(monkeypatch, p, k, cap):
    # one pass for every B_(qi) N_(j-i) of step j, one for N_j from those parts
    passes, per_step = [0], []

    def counting(tgt, triples):
        passes[0] += 1
        return sum_products(tgt, triples)

    def progress(j, top):
        per_step.append(passes[0])
        passes[0] = 0

    ctx = FglContext(p, k)
    monkeypatch.setattr(powerop, "sum_products", counting)
    monkeypatch.setattr(fglops.series, "sum_products", counting)
    powerop.product_forms(ctx, cap, progress)
    assert len(per_step) == k // (p - 1) - 1 and passes == [0]
    assert all(n <= 2 for n in per_step), per_step
