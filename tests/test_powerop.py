import functools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from fglops import FglContext, IntegralityError, power_operation, reduce_a_mod_p_series
import fglops.poly
import fglops.series
from fglops import powerop
from fglops.poly import UNIT_MONO, GradedPoly, add_products, sum_products
from fglops.powerop import (EulerClassError, PowerOpData, _check_euler_class, _euler_columns,
                            _factor_forms, _rows, product_rows, product_rows_by_fold)
from fglops.reduction import divisible_by_full_p_series
from fglops.series import PackedSeries, Series

from conftest import Counted, P, S


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
    # the sparseness shortcut reads val(a_i) at a small k' near n + p: every a_i
    # there must agree with the run at a larger k below the smaller validity
    lo = power_operation(FglContext(3, 9), x_cap=4)
    hi = power_operation(FglContext(3, 13), x_cap=4)
    for alo, ahi in zip(lo.a, hi.a):
        assert ahi.agrees_with(alo)
    for p, k in [(3, 25), (5, 76), (7, 120), (11, 120)]:
        ns = {1, p - 2, p, 2 * p + 1}
        hi = power_operation(FglContext(p, k), x_cap=max(ns))
        for n in ns:
            for k_lo in (n + p - 1, n + p, n + 2 * p):
                lo = power_operation(FglContext(p, k_lo), x_cap=n)
                assert len(lo.a) == n + 1
                for i, (alo, ahi) in enumerate(zip(lo.a, hi.a)):
                    assert alo.validity == k_lo + 1 - i < ahi.validity
                    assert ahi.agrees_with(alo), (p, k_lo, n, i)


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
    # a wrong binomial in the power-sum forms B_d leaves a remainder mod q j at some Euler step
    monkeypatch.setattr(powerop, "comb", lambda n, r: math.comb(n, r) + (r == 1))
    with pytest.raises(IntegralityError):
        product_rows(FglContext(3, 13), 6)


def _as_dicts(ctx, forms, cap):
    """The forms as dicts[a][b] = {mono: coefficient}, the coefficient of X^a L^b."""
    dicts = [{} for _a in range(cap + 1)]
    for d, cols in forms:
        assert all(len(col) == min(cap, d) + 1 for col in cols.values())
        for a in range(min(cap, d) + 1):
            assert d - a not in dicts[a], "two forms share a coefficient"
            if c := {m: col[a] for m, col in cols.items() if col[a]}:
                dicts[a][d - a] = c
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
# next two, cap = 0, no column cut by cap (3, 40, 40), and a golden cap (11, 370, 20)
EULER_GRID = [(3, 20, 5), (5, 40, 10), (7, 30, 30), (3, 25, 25), (5, 30, 0), (3, 40, 40),
              (11, 370, 20)]


@functools.cache
def _euler_reference(p, k, cap):
    """N_0 .. N_top as plain dicts keyed (monomial, X-degree), and the pairs B_d[a1] X^a1 * term.

    N_j = q^j j! P_(q(j+1)) comes from the scaled recurrence, which makes no division,
    N_j = sum_i q^(i-1) (j-1)!/(j-i)! (qi h_(qi)) B_(qi) N_(j-i),
    one term at a time: B_d[a1] X^a1 meets a term of N_(j-i) of
    X-degree e only for a1 + e <= min(cap, q(j+1)), and the zeros are dropped.
    """
    ctx, q = FglContext(p, k), p - 1
    top = k // q - 1
    stirling = [1]
    for i in range(1, q + 1):
        stirling = [x + i * y for x, y in zip([0] + stirling, stirling + [0])]
    n = [{(0, a): c for a, c in enumerate(stirling[:cap + 1])}]
    pairs = 0
    for j in range(1, top + 1):
        nj, scale = {}, 1
        for i in range(1, j + 1):
            d, part = q * i, {}
            for a1 in range(min(d, cap) + 1):
                b = math.comb(d, a1) * sum(t ** (d - a1) for t in range(1, q + 1))
                for (m, e), x in n[j - i].items():
                    if a1 + e <= min(cap, q * (j + 1)):
                        pairs += 1
                        part[(m, a1 + e)] = part.get((m, a1 + e), 0) + b * x
            g = ctx.log_ratio_power(-d, d).terms
            for (m, e), x in part.items():
                for gm, gx in g.items():
                    nj[(m + gm, e)] = nj.get((m + gm, e), 0) + scale * gx * x
            scale *= q * (j - i)
        n.append({key: x for key, x in nj.items() if x})
    return n, pairs


@pytest.mark.parametrize("p,k,cap", EULER_GRID)
def test_euler_columns_equal_the_dict_reference(p, k, cap):
    # every P_(q(j+1)) is the reference's N_j divided exactly by q^j j!, and so are the forms
    q = p - 1
    n, _pairs = _euler_reference(p, k, cap)
    want = []
    for j, nj in enumerate(n):
        den = q ** j * math.factorial(j)
        assert all(x % den == 0 for x in nj.values())
        want.append({key: x // den for key, x in nj.items()})
    columns = powerop._euler_columns(FglContext(p, k), cap)
    assert [{(m, e): x for m, col in pj.items() for e, x in enumerate(col) if x}
            for pj in columns] == want
    forms = {}
    for d, cols in powerop.product_forms(FglContext(p, k), cap):
        for m, col in cols.items():
            for a, x in enumerate(col):
                if x:
                    forms.setdefault((d, a), {})[m] = x
    want_forms = {}
    for j, pj in enumerate(want):
        for (m, e), x in pj.items():
            want_forms.setdefault((q * (j + 1), e), {})[m] = x
    assert forms == want_forms


@pytest.mark.parametrize("p,k,cap", EULER_GRID)
def test_euler_columns_have_the_length_of_their_step(p, k, cap):
    q = p - 1
    columns = powerop._euler_columns(FglContext(p, k), cap)
    assert len(columns) == k // q
    assert list(columns[0]) == [0] and len(columns[0][0]) == min(cap, q) + 1
    for j, nj in enumerate(columns):
        assert nj and all(len(col) == min(cap, q * (j + 1)) + 1 and any(col)
                          for col in nj.values())


def test_euler_columns_that_cancel_are_dropped(monkeypatch):
    # with every part zero, P_2q .. P_(q(top+1)) keep no column, and only P_q has forms
    ctx, cap = FglContext(5, 40), 10
    monkeypatch.setattr(powerop, "convolve", lambda out, c, b, col: out)
    columns = powerop._euler_columns(ctx, cap)
    assert len(columns) == 10 and columns[1:] == [{}] * 9
    forms = powerop.product_forms(ctx, cap)
    assert [d for d, _cols in forms] == list(range(4, 44, 4))
    assert all(cols == {} for _d, cols in forms[1:])
    assert list(forms[0][1]) == [UNIT_MONO] and len(forms[0][1][UNIT_MONO]) == 5
    assert all(forms[0][1][UNIT_MONO])


@pytest.mark.parametrize("p,k,cap", EULER_GRID)
def test_euler_convolutions_make_only_pairs_below_each_validity(monkeypatch, p, k, cap):
    # the multiply-adds of every B_(qi) P_(q(j+1-i)) are the reference's pairs, no more
    convolve = powerop.convolve
    monkeypatch.setattr(powerop, "convolve",
                        lambda out, c, b, col: convolve(out, c, [Counted(y) for y in b], col))
    Counted.products = 0
    powerop.product_forms(FglContext(p, k), cap)
    assert Counted.products == _euler_reference(p, k, cap)[1]


def test_convolve_is_cut_at_its_length_and_skips_zeros():
    Counted.products = 0
    got = powerop.convolve([0] * 4, 1, [Counted(y) for y in (1, 2, 3)], [4, 0, 5])
    assert got == [4, 8, 12 + 5, 10] and type(got[0]) is int
    assert Counted.products == 3 + 2  # 4 meets 1, 2, 3; 5 meets 1, 2 below X^4
    # it adds c X^lo times the product into out
    Counted.products = 0
    out = [1, 1, 1, 1, 1]
    assert powerop.convolve(out, -2, [Counted(3), Counted(1)], [0, 5, 7], 2) is out
    assert out == [1, 1, 1, 1 - 30, 1 - 10 - 42]
    assert Counted.products == 2 + 1  # 5 meets 3, 1; 7 meets 3 below X^5


@pytest.mark.parametrize("p,k,cap", EULER_GRID)
def test_euler_loop_makes_no_kernel_pass(monkeypatch, p, k, cap):
    # no poly.sum_products call, and one progress report after each step
    ctx, passes, steps = FglContext(p, k), [], []

    def counting(tgt, triples):
        passes.append(tgt)
        return sum_products(tgt, triples)

    for module in (powerop, fglops.series, fglops.poly):  # every importer reachable from here
        monkeypatch.setattr(module, "sum_products", counting)
    powerop.product_forms(ctx, cap, lambda j, top: steps.append((j, top)))
    top = k // (p - 1) - 1
    assert passes == [] and steps == [(j, top) for j in range(1, top + 1)]


@pytest.mark.parametrize("p,k,cap", [(3, 20, 5), (5, 40, 10), (7, 30, 30), (3, 40, 40)])
@pytest.mark.parametrize("i", [1, 2])
def test_corrupted_log_ratio_is_an_inexact_division(p, k, cap, i):
    # one more l_1^i in d h_d at d = qi: the division by q j at step i leaves a remainder,
    # never a wrong form
    ctx, d = FglContext(p, k), (p - 1) * i
    good = ctx.log_ratio_power

    def corrupted(r, e):
        c = good(r, e)
        return c + GradedPoly({i: 1}, "l") if (r, e) == (-d, d) else c

    ctx.log_ratio_power = corrupted
    with pytest.raises(IntegralityError):
        powerop.product_forms(ctx, cap)


@pytest.mark.parametrize("p,k,cap,i", [(3, 20, 5, 3), (5, 76, 8, 2), (7, 30, 30, 1)])
def test_corrupted_log_ratio_names_the_euler_step(p, k, cap, i):
    # one more l_1^i in d h_d at d = qi: step i, the first to read it, fails its division
    # by q i, and only the steps before it report progress
    ctx, q, steps = FglContext(p, k), p - 1, []
    good = ctx.log_ratio_power

    def corrupted(r, e):
        c = good(r, e)
        return c + GradedPoly({i: 1}, "l") if (r, e) == (-q * i, q * i) else c

    ctx.log_ratio_power = corrupted
    with pytest.raises(IntegralityError,
                       match=f"^step {i} of the Euler loop is not divisible by {q * i}$"):
        powerop.product_forms(ctx, cap, lambda j, top: steps.append(j))
    assert steps == list(range(1, i))


@st.composite
def _row_class_cases(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    k = draw(st.integers(p - 1, 5 * p))
    return p, k, draw(st.integers(0, k))


# at k = cap = p, a_p (of class 1 mod p - 1) is zero below its validity 1: its
# valuation is that validity, read at the order k + 1
@settings(max_examples=40, deadline=None)
@given(_row_class_cases())
@example((3, 3, 3))
@example((5, 5, 5))
@example((13, 13, 13))
@example((5, 76, 8))
@example((13, 60, 24))
def test_rows_by_residue_class_equal_the_full_rows(case):
    # X^a = L(x)^a feeds only the rows s = a mod p - 1: class 0 built alone equals the
    # rows built all at once, and the valuations read off l-basis rows at a low order
    # equal those of the v-basis rows, before and after class 0 is built
    p, k, cap = case
    ctx, q = FglContext(p, k), p - 1
    full = power_operation(ctx, x_cap=cap).a
    vals = [ai.val() for ai in full]
    lazy = power_operation(ctx, x_cap=cap)
    assert lazy.valuations(cap) == vals
    assert [lazy.row(i) for i in range(0, cap + 1, q)] == full[::q]  # == compares validity
    assert lazy.valuations(cap) == vals
    assert [lazy.valuations(top) for top in range(cap + 1)] == [vals[:t + 1] for t in range(cap + 1)]
    assert lazy.a == full


def test_row_and_valuations_refuse_an_index_outside_the_rows(monkeypatch):
    # at x-cap 3 there is no a_-1 (row -1 would be a_3) and no a_4 or beyond: each read
    # is refused before any row product, and the rows that exist still build
    want = [ai.val() for ai in power_operation(FglContext(5, 30), x_cap=3).a]
    data = power_operation(FglContext(5, 30), x_cap=3)
    products = []
    product = powerop._row_product
    monkeypatch.setattr(powerop, "_row_product",
                        lambda *args: products.append(args[2:]) or product(*args))
    for read, i in ((data.row, -1), (data.row, 4), (data.row, 7),
                    (data.valuations, -1), (data.valuations, 4), (data.valuations, 6)):
        with pytest.raises(IndexError, match=f"^a_{i} is outside a_0..a_3$"):
            read(i)
    assert products == []
    assert data.valuations(3) == want and data.row(3).val() == want[3]
    assert [(list(xs), order) for xs, order in products] == [([0, 1, 2, 3], 9), ([3], 31)]


@pytest.mark.parametrize("k", [7, 14, 24])
def test_euler_loop_at_p2_equals_the_single_factor(k):
    # product_forms reads p = 2 off the single factor exp(X + L); the Euler loop run at
    # q = 1 gives the same rows, only slower
    ctx = FglContext(2, k)
    for cap in sorted({0, 1, 3, k // 2, k}):
        euler = [(j + 1, pj) for j, pj in enumerate(_euler_columns(ctx, cap))]
        assert _rows(ctx, euler, cap) == _rows(ctx, _factor_forms(ctx, 1, cap), cap)


def test_valuations_double_the_order_until_every_pending_row_shows(monkeypatch):
    # with the forms of degree below 38 cut away, row s has no term below xi^(38 - s): the
    # order o doubles, o - 1 = 9 (top + p), 18, 36 and 40 = k, and each valuation is that
    # of the l-basis row built whole at k + 1
    p, k, cap = 3, 40, 6
    ctx = FglContext(p, k)
    forms = [f for f in powerop.product_forms(ctx, cap) if f[0] >= 38]
    want = [row.val() for row in _rows(ctx, forms, cap)]
    orders = []
    product = powerop._row_product

    def recording(ctx, forms, xs, order):
        orders.append((list(xs), order))
        return product(ctx, forms, xs, order)

    monkeypatch.setattr(powerop, "_row_product", recording)
    assert PowerOpData(ctx, [None] * (cap + 1), forms).valuations(cap) == want
    assert orders == [(list(range(cap + 1)), o) for o in (10, 19, 37, 41)]
