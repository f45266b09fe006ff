import functools
import itertools
import random
import tracemalloc
import types

import pytest
from hypothesis import event, given, settings, strategies as st

from fglops import (
    FglContext,
    InsufficientTruncationError,
    enumerate_indices,
    mc,
    mc_explicit_2p2,
    mc_via_inverse,
    mc_via_sum,
    mu,
    power_operation,
    sparse_mc,
)
import fglops.obstruction
import fglops.series
from fglops.fgl import IntegralityError
from fglops.golden import SUITES, compare_series, load_suite
from fglops.obstruction import _power_recurrence, _sum_validity, _validities, multi_weighted_size
from fglops.poly import MAX_EXP, UNIT_MONO, GradedPoly, mono_weight
from fglops.powerop import EulerClassError, PowerOpData, product_rows, product_rows_by_fold
from fglops.reduction import canonical_rep, nonvanishing_certificate
from fglops.render import series_from_obj
from fglops.series import ColumnSeries, PackedSeries, Series

from conftest import Counted, P, rand_poly


# -- modified multinomial coefficients ----------------------------------------

def test_mu_trivial_and_published():
    assert mu(5, ()) == 1
    assert mu(-7, ()) == 1
    assert mu(-3, (1,)) == -3
    assert mu(-3, (2,)) == 6
    assert mu(-3, (0, 1)) == -3
    assert mu(2, (1, 1)) == 2
    assert mu(2, (3,)) == 0  # |abar| > n with n >= 0


def _mu_oracle_table(n, top=6):
    """Expand (1 + b_1 + ... + b_top)^n with b_i graded by i, truncated past top."""
    one = {(0,) * top: 1}
    base = dict(one)
    for i in range(1, top + 1):
        e = [0] * top
        e[i - 1] = 1
        base[tuple(e)] = 1

    def mul(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if sum(i * x for i, x in enumerate(e, start=1)) > top:
                    continue
                out[e] = out.get(e, 0) + ca * cb
        return {e: c for e, c in out.items() if c}

    power = dict(one)
    for _ in range(abs(n)):
        power = mul(power, base)
    if n < 0:
        # reciprocal of a unit series, truncated beyond weighted degree `top`
        delta = dict(power)
        delta.pop((0,) * top)
        inv = dict(one)
        term = dict(one)
        for _ in range(top):
            term = mul(term, {e: -c for e, c in delta.items()})
            for e, c in term.items():
                inv[e] = inv.get(e, 0) + c
        power = {e: c for e, c in inv.items() if c}
    return power


@pytest.mark.parametrize("n", range(-8, 9))
def test_mu_against_expansion_oracle(n):
    top = 6
    table = _mu_oracle_table(n, top)
    exps = [e for e in itertools.product(*(range(7) for _ in range(top)))
            if sum(i * x for i, x in enumerate(e, start=1)) <= top]
    for e in exps:
        abar = list(e)
        while abar and abar[-1] == 0:
            abar.pop()
        assert mu(n, tuple(abar)) == table.get(e, 0), (n, e)


# -- index enumeration ---------------------------------------------------------

def test_enumerate_indices_trivial():
    assert list(enumerate_indices(0, 2)) == [((), 0)]


def test_enumerate_indices_n2_p2():
    got = list(enumerate_indices(2, 2))
    assert (((1,), 1)) in got  # |abar|' = 1, n - 1 = 1 = 2^1 - 1
    assert (((2,), 0)) in got
    assert (((0, 1), 0)) in got
    assert len(got) == 3


def _brute_force_indices(n, p, top=12):
    out = set()
    powers = set()
    q = 1
    while q - 1 <= n:
        powers.add(q - 1)
        q *= p
    for e in itertools.product(*(range(n + 1) for _ in range(top))):
        if sum(e) > n:
            continue
        wp = sum(i * x for i, x in enumerate(e, start=1))
        if wp > n or (n - wp) not in powers:
            continue
        abar = list(e)
        while abar and abar[-1] == 0:
            abar.pop()
        out.add(tuple(abar))
    return out


@pytest.mark.parametrize("n,p", [(4, 3), (5, 2), (6, 5)])
def test_enumerate_indices_against_brute_force(n, p):
    got = {ab for ab, _m in enumerate_indices(n, p)}
    assert got == _brute_force_indices(n, p, top=n)
    # the cp power matches the defect n - |abar|'
    for ab, m in enumerate_indices(n, p):
        assert p ** m - 1 == n - sum(i * a for i, a in enumerate(ab, start=1))


def test_enumerate_indices_streams():
    # 14,610 indices at n = 30; holding them, as a sorted batch per target
    # did, peaks above 1 MB
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_indices(30, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 14610
    assert peak < 200_000


def test_enumeration_order_is_deterministic():
    a = list(enumerate_indices(6, 3))
    b = list(enumerate_indices(6, 3))
    assert a == b
    keys = [sum(i * x for i, x in enumerate(ab, start=1)) for ab, _m in a]
    assert keys == sorted(keys)


# -- projective class images ---------------------------------------------------

def test_cp_image_values(ctx27, ctx325):
    assert ctx27.cp_image(0) == P("1")
    assert ctx27.cp_image(1) == P("v1")
    assert ctx27.cp_image(2) == 0
    assert ctx27.cp_image(3) == P("v1^3 + 2*v2")
    assert ctx325.cp_image(2) == P("v1")
    assert ctx325.cp_image(8) == P("v1^4 + 3*v2")


# -- obstruction series ---------------------------------------------------------

def test_mc2_worked_example(ctx27, data27):
    r = mc(ctx27, data27, 2)
    assert r.reduced.series.coeffs == {(6, 0): P("v1^6 + v2^2")}
    assert r.reduced.validity == 7
    assert r.certificate == (6, P("v1^6 + v2^2"))
    assert r.is_obstruction_index
    assert not r.used_shortcut
    r.raw.assert_weight(0)


def test_mc_annotation(ctx27, data27):
    assert not mc(ctx27, data27, 1).is_obstruction_index  # 1 = 2^1 - 1
    assert not mc(ctx27, data27, 3).is_obstruction_index  # 3 = 2^2 - 1
    assert mc(ctx27, data27, 2).is_obstruction_index


def test_mc_zero_index_degenerate(ctx27, data27):
    r = mc(ctx27, data27, 0)
    assert r.raw.coeffs == {(0, 0): P("1")}
    inv = mc_via_inverse(ctx27, data27, 0)
    assert inv.agrees_with(r.raw)


@pytest.mark.parametrize("p,k,n,i", [
    pytest.param(3, 13, 4, 2, id="closed-form"),  # n = 2(p-1) reads a_(p-1)
    pytest.param(2, 9, 3, 1, id="recurrence"),
])
def test_mc_refuses_a_series_of_the_wrong_weight(monkeypatch, p, k, n, i):
    # a_i gains v1 (weight p - 1) at its valuation xi^j, where it has weight i + 1 - p + j
    if n == 2 * (p - 1):  # the closed form alone must see it
        monkeypatch.setattr(fglops.obstruction, "_power_recurrence", None)
    ctx = FglContext(p, k)
    data = power_operation(ctx, x_cap=n)
    ai = data.a[i]
    j = ai.val()
    assert i + 1 - p + j != p - 1
    data.a[i] = ai + Series(p, "v", {(j, 0): GradedPoly.gen(1, "v")}, ai.validity)
    with pytest.raises(AssertionError, match="not homogeneous"):
        mc(ctx, data, n)


def test_sparseness_shortcut_and_full_route():
    # every n of the shortcut (p - 1 not dividing n) at three odd primes
    for p, k, ns in [(3, 13, (1, 3, 5)), (5, 20, (1, 2, 3, 5, 6, 7)),
                     (7, 24, (1, 2, 3, 4, 5, 7, 8))]:
        ctx = FglContext(p, k)
        data = power_operation(ctx, x_cap=max(ns))
        for n in ns:
            quick = mc(ctx, data, n)
            assert quick.used_shortcut and quick.reduced.is_zero()
            assert mc(ctx, PowerOpData(ctx, []), n).reduced == quick.reduced  # data is not read
            lazy = sparse_mc(p, k, n)  # the valuations from the least truncation
            assert lazy.used_shortcut and lazy.reduced.is_zero()
            full = mc(ctx, data, n, force_full=True)
            assert not full.used_shortcut
            assert full.reduced.is_zero(), f"MC_{n} must vanish mod the reduced p-series"
            assert full.raw.coeffs, "the raw sum itself is nonzero"
            # the shortcut's zero series carries the validity of the full raw sum
            assert quick.reduced.validity == lazy.reduced.validity == full.raw.validity, (p, n)


def test_sparse_mc_is_none_off_the_shortcut():
    # p - 1 dividing n, which takes in every n at p = 2; a bad n is refused first
    assert [n for n in range(6) if sparse_mc(2, 14, n) is not None] == []
    assert [n for n in range(13) if sparse_mc(5, 20, n) is None] == [0, 4, 8, 12]
    with pytest.raises(ValueError, match="nonnegative"):
        sparse_mc(3, 13, -1)
    with pytest.raises(InsufficientTruncationError, match="k >= n = 14; got k = 13"):
        sparse_mc(3, 13, 14)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lazy_shortcut_validity_at_the_default_truncation(p):
    # every n of the shortcut up to 30 at the table-reproducing k: the valuations
    # read at the least truncation give the knapsack's validity on the run at k
    k = {3: 25, 5: 76, 7: 162}[p]
    ctx = FglContext(p, k)
    ns = [n for n in range(1, min(k, 30) + 1) if n % (p - 1)]
    data = power_operation(ctx, x_cap=max(ns))
    for n in ns:
        lazy = sparse_mc(p, k, n)
        assert lazy.used_shortcut and lazy.reduced.is_zero()
        assert lazy.reduced.validity == _sum_validity(ctx, *_validities(data, n), n), n


def _recording_power_operation(monkeypatch, hide=None):
    """Record the k of each power operation sparse_mc builds; hide=(i, k) zeroes a_i below k."""
    built = []

    def record(ctx, x_cap=None, progress=None):
        built.append(ctx.k)
        data = power_operation(ctx, x_cap=x_cap, progress=progress)
        if hide is not None and ctx.k < hide[1]:
            i = hide[0]
            data.a[i] = Series.zero(ctx.p, "v", data.a[i].validity)
        return data

    monkeypatch.setattr(fglops.obstruction, "power_operation", record)
    return built


def test_lazy_shortcut_builds_no_power_operation_at_k(monkeypatch):
    built = _recording_power_operation(monkeypatch)
    for p, k, n in [(5, 76, 6), (7, 162, 5), (13, 504, 7), (3, 25, 1)]:
        built.clear()
        result = sparse_mc(p, k, n)
        assert result.used_shortcut and result.reduced.is_zero()
        assert built == [n + p], (p, built)


def test_lazy_shortcut_substitutes_no_row(monkeypatch):
    # the valuations come from the l-basis rows: to_v is injective, so it is not needed
    def refuse(self, s, integral=False):
        raise AssertionError("the sparseness shortcut substituted a row")

    monkeypatch.setattr(FglContext, "to_v", refuse)
    for p, k, n in [(5, 76, 6), (3, 25, 1), (13, 504, 7)]:
        result = sparse_mc(p, k, n)
        assert result.used_shortcut and result.reduced.is_zero()


def test_lazy_shortcut_doubles_up_to_k(monkeypatch):
    # a_3 shows no coefficient below k at any smaller truncation, so the
    # valuations come from the run at k itself, k' = 8, 16, 32, 64, 76
    p, k, n = 5, 76, 3
    ctx = FglContext(p, k)
    data = power_operation(ctx, x_cap=n)
    built = _recording_power_operation(monkeypatch, hide=(3, k))
    lazy = sparse_mc(p, k, n)
    assert built == [8, 16, 32, 64, 76]
    assert lazy.reduced.validity == mc(ctx, data, n, force_full=True).raw.validity


def test_sparseness_shortcut_reads_no_reduced_p_series(monkeypatch):
    # the shortcut's zero needs no <p>xi; mc -p 5 --n 6 used to reduce it to the v-basis anyway
    ctx = FglContext(5, 76)
    data = power_operation(ctx, x_cap=6)

    def refuse(self, basis="l"):
        raise AssertionError("the sparseness shortcut read the reduced p-series")

    monkeypatch.setattr(FglContext, "reduced_p_series", refuse)
    result = mc(ctx, data, 6)
    assert result.used_shortcut and result.reduced.is_zero()

# every table n of p = 2, 3, 5, 7 at small truncations, plus the seed's cases,
# and n = 0, 1 at p = 3, 5
ROUTE_GRID = (
    [(2, 2, 9, 2), (3, 4, 13, 4), (5, 8, 30, 8)]
    + [(2, n, 14, n) for n in range(1, 6)]
    + [(3, n, 20, n) for n in (2, 4, 8)]
    + [(5, 8, 40, 8), (5, 12, 40, 12), (7, 12, 40, 12)]
    + [(3, 0, 13, 0), (3, 1, 13, 1), (5, 0, 30, 0), (5, 1, 30, 1)]
)

# (p, n, k) -> the validity of mc_via_inverse when it inverted a_0 over Laurent
# series in xi, as that route computed it
INVERSE_VALIDITY = {
    (2, 2, 9): 9, (3, 4, 13): 16, (5, 8, 30): 51,
    (2, 1, 14): 14, (2, 2, 14): 14, (2, 3, 14): 14, (2, 4, 14): 14, (2, 5, 14): 14,
    (3, 2, 20): 21, (3, 4, 20): 23, (3, 8, 20): 27,
    (5, 8, 40): 61, (5, 12, 40): 73, (7, 12, 40): 95,
    (3, 0, 13): 14, (3, 1, 13): 13, (5, 0, 30): 31, (5, 1, 30): 30,
}


@pytest.mark.parametrize("p,n,k,xcap", ROUTE_GRID)
def test_route_equivalence(p, n, k, xcap):
    ctx = FglContext(p, k)
    data = power_operation(ctx, x_cap=xcap)
    r = mc(ctx, data, n, force_full=True)
    # == compares validity too, so the recurrence loses no certified order
    assert r.raw == mc_via_sum(ctx, data, n), "recurrence must equal the multi-index sum"
    inv = mc_via_inverse(ctx, data, n)
    assert r.raw.agrees_with(inv), "localized route must agree exactly on the raw series"
    # factoring xi^(p-1) out of a_0 loses no certified order
    assert inv.validity == INVERSE_VALIDITY[(p, n, k)]
    # mc reduces the recurrence's raw sum, or, at n = 2(p - 1), the closed
    # form; == compares validity too
    assert canonical_rep(r.raw, ctx.reduced_p_series("v")) == r.reduced
    if p == 2 and n == 2:
        assert r.raw.agrees_with(mc_explicit_2p2(ctx, data))


@functools.lru_cache(maxsize=None)
def _closed_form_data(p, k):
    return power_operation(FglContext(p, k), x_cap=2 * (p - 1))


def _closed_form_by_series(ctx, data):
    """The closed form by Series products, the reference for mc_explicit_2p2's column route."""
    p = ctx.p
    n = 2 * (p - 1)
    a0, ap1, a2p2 = data.a[0], data.a[p - 1], data.a[n]
    c = 2 * p - 1
    bracket = Series.sum_of_products([(-c, a0.scale_poly(GradedPoly.gen(1, "v")), ap1),
                                      (-c, a0, a2p2), (p * c, ap1, ap1)])
    return a0 ** (2 * p - 4) * bracket if p > 2 else bracket


@pytest.mark.parametrize("name", SUITES)
def test_column_closed_form_equals_the_series_route(name):
    # at every golden suite's (p, k): the same coefficients and the same validity
    suite = load_suite(name)
    p = suite["prime"]
    data = _closed_form_data(p, suite["truncation"])
    got = mc_explicit_2p2(data.ctx, data)
    assert got == _closed_form_by_series(data.ctx, data)  # == compares validity too
    assert got.val() < got.validity


@pytest.mark.parametrize("p,k", [(2, 14), (3, 25), (5, 76)])
def test_mc_refuses_a_closed_form_below_the_predicted_validity(monkeypatch, p, k):
    # the closed form sees a_(2p-2) valid one order less than the prediction does
    data = _closed_form_data(p, k)
    n = 2 * (p - 1)
    closed = fglops.obstruction.mc_explicit_2p2

    def lowered(ctx, data):
        a = list(data.a)
        a[n] = a[n].truncate(a[n].validity - 1)
        return closed(ctx, PowerOpData(ctx, a))

    monkeypatch.setattr(fglops.obstruction, "mc_explicit_2p2", lowered)
    with pytest.raises(AssertionError, match=r"closed form has validity \d+ < predicted \d+"):
        mc(data.ctx, data, n)


@st.composite
def _closed_form_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    return p, draw(st.integers(2 * (p - 1), 60))


@settings(max_examples=30, deadline=None)
@given(_closed_form_cases())
def test_closed_form_route_property(case):
    # at n = 2(p - 1) mc reads the reduced class from the closed form; it must
    # be the reduction of the recurrence's raw sum, validity and certificate
    # included, and the closed form must reach the sum's validity unaided
    p, k = case
    data = _closed_form_data(p, k)
    ctx, n = data.ctx, 2 * (p - 1)
    closed = mc_explicit_2p2(ctx, data)
    assert closed == _closed_form_by_series(ctx, data)
    assert closed.validity >= _sum_validity(ctx, *_validities(data, n), n)
    try:
        r = mc(ctx, data, n)
    except InsufficientTruncationError:
        return
    reduced = canonical_rep(r.raw, ctx.reduced_p_series("v"))
    assert reduced == r.reduced
    assert nonvanishing_certificate(reduced) == r.certificate


def _corrupted_forms(monkeypatch, change):
    """Make power_operation read product_forms' forms after change(forms) edits them."""
    forms_of = fglops.powerop.product_forms

    def corrupted(ctx, cap, progress=None):
        forms = forms_of(ctx, cap, progress)
        change(forms)
        return forms

    monkeypatch.setattr(fglops.powerop, "product_forms", corrupted)


def test_closed_form_path_checks_the_euler_class(monkeypatch):
    # C[0][p-1] of P_(p-1) = prod_i (X + iL) is (p-1)!, a_0's coefficient at xi^(p-1).
    # Raised by p^4, it keeps C[0][4] L^4 integral below xi^21 (l_1^4 at most, l_1 = v_1/p):
    # building class 0 for the closed form raises, with no recurrence run
    p, k = 5, 20

    def bump(forms):
        d, cols = forms[0]
        assert d == p - 1 and list(cols) == [UNIT_MONO] and cols[UNIT_MONO][0] == 24
        cols[UNIT_MONO][0] += p ** 4

    _corrupted_forms(monkeypatch, bump)
    monkeypatch.setattr(fglops.obstruction, "_power_recurrence", None)
    ctx = FglContext(p, k)
    data = power_operation(ctx, x_cap=2 * (p - 1))
    with pytest.raises(EulerClassError, match=r"GradedPoly\('649', basis='v'\) at xi\^4$"):
        mc(ctx, data, 2 * (p - 1))


def test_raw_read_checks_the_integrality_of_the_other_classes(monkeypatch):
    # l_1 = v_1 / p added to C[1][7] of P_8 lands in a_1 at xi^7, outside class 0: the
    # closed form neither builds nor needs that row, and reading the raw sum builds it
    # and raises
    p, k, n = 5, 20, 8
    ctx = FglContext(p, k)
    want = mc(ctx, power_operation(ctx, x_cap=n), n)

    def add_l1(forms):
        d, cols = forms[1]
        assert d == 8 and all(len(col) == d + 1 for col in cols.values())
        cols.setdefault(1, [0] * (d + 1))[1] += 1  # l_1, packed as 1

    _corrupted_forms(monkeypatch, add_l1)
    r = mc(ctx, power_operation(ctx, x_cap=n), n)
    assert r.reduced == want.reduced and r.certificate == want.certificate
    with pytest.raises(IntegralityError, match=r"coefficient at exponent \(7, 1\);"):
        r.raw


def test_recurrence_reproduces_the_p11_table():
    # verify reads MC_20 at p = 11 from the closed form; the recurrence's raw
    # sum, reduced, must certify the published table as well
    suite = load_suite("p11")
    (table,) = [t for t in suite["tables"] if t["kind"] == "mc"]
    ctx = FglContext(suite["prime"], suite["truncation"])
    r = mc(ctx, power_operation(ctx, x_cap=table["n"]), table["n"])
    reduced = canonical_rep(r.raw, ctx.reduced_p_series("v"))
    assert reduced == r.reduced
    assert compare_series("p=11 MC_20", reduced.series, series_from_obj(table["series"])) == []


def test_mc_progress_counts(ctx27, data27):
    seen = []

    def progress(done, total):
        seen.append((done, total))

    assert mc(ctx27, data27, 3, progress=progress).raw is not None
    assert seen and seen[-1][0] == seen[-1][1] == len(seen) == 3
    # at n = 2(p - 1) the closed form takes no recurrence step; reading the
    # raw series runs them
    seen.clear()
    r = mc(ctx27, data27, 2, progress=progress)
    assert seen == []
    assert r.raw is not None
    assert seen == [(1, 2), (2, 2)]


@pytest.mark.parametrize("p, n", [(2, 1), (2, 9), (3, 8), (5, 24), (7, 14)])
def test_every_index_is_a_summand(p, n):
    # _sum_validity counts every partition of every |abar|' with a nonzero cp
    # as a summand, so no mu(-(n+1); abar) and no cp of an index may vanish
    ctx = FglContext(p, max(n, 2 * p))
    nonzero = [abar for abar, _m in enumerate_indices(n, p)
               if mu(-(n + 1), abar) and ctx.cp_image(n - multi_weighted_size(abar))]
    assert nonzero == [abar for abar, _m in enumerate_indices(n, p)]


def _enumerated_validity(data, n, p):
    """Least validity of a summand, one multi-index at a time; the reference for _sum_validity.

    A summand prod a_i^(alpha_i), alpha_0 = n - |abar|, is valid to
    min over its factors of (validity - valuation), plus its valuation; the
    empty product (n = 0) is the constant 1, known as far as a_0 is.
    """
    stats = [(ai.validity, ai.val()) for ai in data.a]
    least = None
    for abar, _m in enumerate_indices(n, p):
        factors = [(i, c) for i, c in enumerate((n - sum(abar),) + abar) if c]
        if factors:
            term = (min(stats[i][0] - stats[i][1] for i, _c in factors)
                    + sum(c * stats[i][1] for i, c in factors))
        else:
            term = stats[0][0]
        least = term if least is None else min(least, term)
    return least


@functools.lru_cache(maxsize=None)
def _capped_data(p, k):
    return power_operation(FglContext(p, k), x_cap=min(k, 20))


# every n <= min(k, 14), so n = 0, n = 1 at p = 2 and, at odd p, every n of
# the sparseness shortcut (p - 1 not dividing n) are among them
@pytest.mark.parametrize("p, k", [(2, 1), (2, 9), (2, 27), (3, 4), (3, 20), (5, 2), (5, 8),
                                  (5, 30), (7, 6), (7, 40)])
def test_sum_validity_equals_the_enumeration(p, k):
    data = _capped_data(p, k)
    for n in range(min(k, 14) + 1):
        want = _enumerated_validity(data, n, p)
        assert _sum_validity(data.ctx, *_validities(data, n), n) == want, n


@st.composite
def _validity_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(1, 40))
    return p, k, draw(st.integers(0, min(k, 20)))


@settings(max_examples=40, deadline=None)
@given(_validity_cases())
def test_sum_validity_property(case):
    p, k, n = case
    data = _capped_data(p, k)
    assert _sum_validity(data.ctx, *_validities(data, n), n) == _enumerated_validity(data, n, p)


@st.composite
def _drawn_factors(draw):
    """a_0..a_n as one-term series of drawn validity and valuation; some are zero."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    a = []
    for _ in range(draw(st.integers(0, 12)) + 1):
        validity = draw(st.integers(1, 30))
        val = draw(st.integers(0, validity))  # at the validity the series is zero
        a.append(Series(p, "v", {(val, 0): GradedPoly.const(1, "v")}, validity))
    return p, a


@settings(max_examples=150, deadline=None)
@given(_drawn_factors())
def test_sum_validity_property_on_drawn_factors(case):
    # on the real a_i some factors never set the minimum (a_0, for one), so
    # the knapsack is also held to the enumeration on arbitrary factors
    p, a = case
    n = len(a) - 1
    data = types.SimpleNamespace(a=a)
    want = _enumerated_validity(data, n, p)
    assert _sum_validity(FglContext(p, 12), *_validities(data, n), n) == want


def test_mc_enumerates_no_index(monkeypatch, ctx313, data313):
    def refuse(n, p):
        raise AssertionError("the multi-indices were enumerated")

    monkeypatch.setattr(fglops.obstruction, "enumerate_indices", refuse)
    assert mc(ctx313, data313, 3).used_shortcut
    assert not mc(ctx313, data313, 4).used_shortcut
    assert not mc(ctx313, data313, 3, force_full=True).used_shortcut
    with pytest.raises(AssertionError, match="enumerated"):  # the patch is in force
        mc_via_sum(ctx313, data313, 4)


@pytest.mark.parametrize("route", [mc, mc_via_sum, mc_via_inverse])
def test_routes_refuse_the_same_bad_n(route, ctx27):
    data = power_operation(ctx27, x_cap=3)
    with pytest.raises(ValueError, match="nonnegative"):
        route(ctx27, data, -1)
    with pytest.raises(InsufficientTruncationError, match="k >= n = 8; got k = 7"):
        route(ctx27, data, 8)
    with pytest.raises(ValueError, match=r"only a_0\.\.a_3 were computed") as info:
        route(ctx27, data, 4)
    assert not isinstance(info.value, InsufficientTruncationError)


def test_inexact_recurrence_step_raises(monkeypatch, ctx313, data313):
    # at n = 2(p - 1) the recurrence runs when the raw series is read; from
    # then on every product is one too large in its constant term (entry 0
    # of the unit monomial's column at c = 0), which leaves an odd constant
    # in 2 F_2
    result = mc(ctx313, data313, 4)
    product = ColumnSeries.sum_of_products

    def off_by_one(triples):
        got = product(triples)
        got.columns.setdefault((UNIT_MONO, 0), [0])[0] += 1
        return got

    monkeypatch.setattr(ColumnSeries, "sum_of_products", staticmethod(off_by_one))
    with pytest.raises(IntegralityError, match="step 2 of the power recurrence"):
        result.raw


def _pairs_below(x: Series, y: Series, v: int) -> int:
    """Monomial pairs of x y whose xi-degree is below v."""
    return sum(len(cx.terms) * len(cy.terms) for (d, _z), cx in x.coeffs.items()
               for (e, _z2), cy in y.coeffs.items() if d + e < v)


@pytest.mark.parametrize("p, k, n", [(2, 14, 6), (3, 25, 5), (3, 13, 4), (5, 40, 8), (7, 30, 7)])
def test_recurrence_hands_the_kernel_only_pairs_below_each_validity(monkeypatch, p, k, n):
    # every product of the recurrence, each step's sum and the final sum is
    # cut below its validity, and each multiply its convolutions make is a
    # pair of nonzero terms: a pair at or above the validity changes no
    # coefficient of raw (a Series drops it), only this count
    ctx = FglContext(p, k)
    data = power_operation(ctx, x_cap=n)
    convolve = fglops.series.convolve
    monkeypatch.setattr(fglops.series, "convolve",
                        lambda out, c, b, col, lo: convolve(out, c, list(map(Counted, b)), col, lo))
    Counted.products = 0
    # the recurrence alone: at n = 2(p - 1) mc's closed form multiplies too
    raw = _power_recurrence(ctx, data, n, None)
    monkeypatch.undo()
    # the same operands by Series arithmetic, each product's pairs counted below its validity
    a = data.a
    one = Series.from_const(1, p, "v", a[0].validity)
    want = 0
    a0_pow = [one, a[0]]
    for _j in range(2, n + 1):
        a0_pow.append(a0_pow[-1] * a[0])
        want += _pairs_below(a[0], a0_pow[-2], a0_pow[-1].validity)
    g = [None, a[1]]
    for i in range(2, n + 1):
        g.append(a[i] * a0_pow[i - 1])
        want += _pairs_below(a[i], a0_pow[i - 1], g[-1].validity)
    f = [one]
    for t in range(1, n + 1):
        step = Series.sum_of_products((-n * i - t, g[i], f[t - i]) for i in range(1, t + 1))
        want += sum(_pairs_below(g[i], f[t - i], step.validity) for i in range(1, t + 1))
        assert all(x % t == 0 for c in step.coeffs.values() for x in c.terms.values())  # exact
        f.append(step.map_polys(lambda c: GradedPoly({m: x // t for m, x in c.terms.items()}, c.basis)))
    for t in range(n + 1):
        if cp := ctx.cp_image(n - t):
            want += sum(len(c.terms) for c in a0_pow[n - t].coeffs.values()) * len(cp.terms)
            want += _pairs_below(a0_pow[n - t].scale_poly(cp), f[t], raw.validity)
    assert Counted.products == want


def _packed_recurrence(ctx: FglContext, data, n: int) -> Series:
    """raw(n) by Miller's recurrence on PackedSeries: the column route's reference.

    Each product is one pass of the monomial loop.  A product's validity is at most V_A + val(B) and at most V_B + val(A),
    val <= V, so with V_max the largest validity of a_0..a_n, a_0^j, G_j and
    F_j (through its pair G_j F_0) stay within j V_max and each summand of
    raw within n V_max: W is the bit length of max(n, 1) V_max.
    """
    a = data.a[:n + 1]
    width = (max(n, 1) * max(ai.validity for ai in a)).bit_length()
    ops = [PackedSeries.from_series(ai, width) for ai in a]
    one = PackedSeries.from_coeffs({0: {UNIT_MONO: 1}}, a[0].validity, width)
    a0_pow, g = [one, ops[0]], [None] + ops[1:2]
    for i in range(2, n + 1):
        a0_pow.append(PackedSeries.sum_of_products(((1, ops[0], a0_pow[-1]),)))
        g.append(PackedSeries.sum_of_products(((1, ops[i], a0_pow[i - 1]),)))
    f = [one]
    for k in range(1, n + 1):
        step = PackedSeries.sum_of_products((-n * i - k, g[i], f[k - i]) for i in range(1, k + 1))
        assert not any(x % k for _key, x in step.terms)
        f.append(step.with_terms([(key, x // k) for key, x in step.terms], step.validity))
    terms = []
    for k in range(n + 1):
        if cp := ctx.cp_image(n - k):
            cp_packed = PackedSeries.from_coeffs({0: cp.terms}, a0_pow[n - k].validity, width)
            terms.append((1, PackedSeries.sum_of_products(((1, cp_packed, a0_pow[n - k]),)), f[k]))
    raw = PackedSeries.sum_of_products(terms)
    return Series(ctx.p, "v", {e: GradedPoly(t, "v") for e, t in raw.decode().items()}, raw.validity)


def _record_column_products(monkeypatch) -> list:
    """Every ColumnSeries.sum_of_products result from here on, in a list."""
    products, product = [], ColumnSeries.sum_of_products

    def recording(triples):
        products.append(product(triples))
        return products[-1]

    monkeypatch.setattr(ColumnSeries, "sum_of_products", staticmethod(recording))
    return products


def _columns_stop_below_the_validity(s: ColumnSeries) -> bool:
    """Each column ends in a nonzero entry whose xi-degree is below s.validity."""
    q = s.prime - 1
    return all(col[-1] and q * (len(col) - 1) + c < s.validity for (_m, c), col in s.columns.items())


# mc-deep's point, p = 2 (short columns), p = 3, p = 7, and p = 11 (long columns)
@pytest.mark.parametrize("p, k, n", [(5, 76, 24), (2, 14, 5), (3, 25, 4), (7, 162, 12),
                                     (11, 370, 20)])
def test_recurrence_equals_the_packed_route(monkeypatch, p, k, n):
    # == compares the validity too; every product of the column route stops
    # below its own validity, so a cut one entry too long shows here as well
    ctx = FglContext(p, k)
    data = power_operation(ctx, x_cap=n)
    products = _record_column_products(monkeypatch)
    raw = _power_recurrence(ctx, data, n, None)
    monkeypatch.undo()
    assert raw == _packed_recurrence(ctx, data, n)
    assert len(products) == 2 * (n - 1) + n + sum(map(bool, map(ctx.cp_image, range(n + 1)))) + 1
    assert all(map(_columns_stop_below_the_validity, products))


# p = 2, 3, 5, 7 with a_i of weight >= 0 (c < 0 from i = p on), and p = 2, k = 56,
# whose a_i reach v_5
COLUMN_GRID = [(2, 14, 14), (3, 25, 25), (5, 76, 24), (7, 162, 12), (2, 56, 2)]


@functools.lru_cache(maxsize=None)
def _column_data(p, k, cap):
    return power_operation(FglContext(p, k), x_cap=cap)


@pytest.mark.parametrize("p, k, cap", COLUMN_GRID)
def test_columns_round_trip_every_a_i(p, k, cap):
    data = _column_data(p, k, cap)
    negative = []
    for i, ai in enumerate(data.a):
        cols = ColumnSeries.from_series(ai)
        assert cols.series() == ai and cols.val() == ai.val()
        # homogeneous of weight w = i + 1 - p: one column per m', at c = wt(m') - w
        assert len({m for m, _c in cols.columns}) == len(cols.columns)
        assert all(m & MAX_EXP == 0 and c == mono_weight(m, p) - (i + 1 - p) and col[-1]
                   for (m, c), col in cols.columns.items())
        if any(c < 0 for _m, c in cols.columns):
            negative.append(i)
    assert negative and min(negative) >= p  # c < 0 needs w > 0


def _mixed_series(p: int, seed: int) -> Series:
    """A v-basis series of no one weight: several columns per m', v_1 powers at xi^0."""
    rng = random.Random(seed)
    return Series(p, "v", {(j, 0): rand_poly(rng, gens=3, terms=5, max_exp=4)
                           for j in rng.sample(range(12), 6)}, 12)


@pytest.mark.parametrize("p, k, cap", COLUMN_GRID[:3])
def test_times_v1_equals_the_series_product_by_v1(p, k, cap):
    # every a_i at p = 2, 3, 5 and two series of mixed weight: v_1 A by moving columns
    # equals the Series product by v_1, held valid as far as A
    for a in _column_data(p, k, cap).a + [_mixed_series(p, seed) for seed in (1, 2)]:
        v1 = Series(p, "v", {(0, 0): GradedPoly.gen(1)}, a.validity)
        got = ColumnSeries.from_series(a).times_v1()
        assert got.series() == a * v1 and got.validity == a.validity
        assert _columns_stop_below_the_validity(got)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_constant_columns_equal_the_one_coefficient_series(p):
    # each cp(i) of the context, a v_1 power, the unit, and polynomials of mixed weight
    ctx = FglContext(p, 2 * p ** 2)
    rng = random.Random(p)
    polys = [ctx.cp_image(p ** m - 1) for m in range(ctx.horizon + 1)]
    polys += [GradedPoly.gen(1, exp=5), GradedPoly.const(-3)]
    polys += [rand_poly(rng, gens=3, terms=6, max_exp=4) for _ in range(5)]
    for poly in polys:
        for validity in (1, 7, 40):
            got = ColumnSeries.constant(poly, validity, p)
            want = ColumnSeries.from_series(Series(p, "v", {(0, 0): poly}, validity))
            assert got.columns == want.columns and got.validity == validity and got.prime == p
            assert got.series() == Series(p, "v", {(0, 0): poly}, validity)


@pytest.mark.parametrize("p, k, cap", COLUMN_GRID[:4])
def test_column_products_equal_series_products(p, k, cap):
    # a sum of two products, and a square of a_i of weight >= 0 (c < 0 from i = p on)
    a = _column_data(p, k, cap).a
    cols = [ColumnSeries.from_series(ai) for ai in a]
    top = len(a) - 1
    for triples in ([(3, 1, top), (-2, 0, top - 1)], [(1, top, top)], [(5, 0, 0), (1, p - 1, 1)]):
        got = ColumnSeries.sum_of_products((c, cols[i], cols[j]) for c, i, j in triples)
        assert got.series() == Series.sum_of_products((c, a[i], a[j]) for c, i, j in triples)
        assert _columns_stop_below_the_validity(got)


# the multi-index sum costs about 15 ms a summand at p = 2, 3 ms at p = 3 and
# 1 ms at p = 5 (k = 30); n <= 8, 14, 18 keeps a draw under about 1 s, where
# n = 20 at p = 2 would take 75 s
_PACKED_N = {2: 8, 3: 14, 5: 18}


@functools.lru_cache(maxsize=None)
def _packed_data(p, k):
    return power_operation(FglContext(p, k), x_cap=min(k, _PACKED_N[p]))


@st.composite
def _packed_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(1, 30))
    return p, k, draw(st.integers(1, min(k, _PACKED_N[p])))


@settings(max_examples=25, deadline=None)
@given(_packed_cases())
def test_packed_routes_equal_their_references(case):
    # Miller's recurrence and the Euler step run on packed term lists; the
    # raw series must be the multi-index sum and the rows the fold's, ==
    # comparing validity, the weight scanned on its own
    p, k, n = case
    data = _packed_data(p, k)
    ctx = data.ctx
    assert product_rows(ctx, n) == product_rows_by_fold(ctx, n)
    try:
        raw = mc(ctx, data, n, force_full=True).raw
    except InsufficientTruncationError:
        event("skipped: insufficient truncation")
        return
    via_sum = mc_via_sum(ctx, data, n)
    assert raw == via_sum
    raw.assert_weight(-n * (p - 2))


def test_insufficient_truncation():
    ctx = FglContext(5, 2)
    data = power_operation(ctx, x_cap=1)
    with pytest.raises(InsufficientTruncationError):
        mc(ctx, data, 1)


def test_missing_a_guard(ctx27):
    data = power_operation(ctx27, x_cap=1)
    with pytest.raises(ValueError):
        mc(ctx27, data, 4)


def test_validity_soundness_across_truncations():
    # recomputing at higher truncation must agree within the lower validity,
    # including coefficients past the lower global cap claimed via valuations
    lo_ctx = FglContext(3, 17)
    lo = mc(lo_ctx, power_operation(lo_ctx, x_cap=4), 4)
    hi_ctx = FglContext(3, 25)
    hi = mc(hi_ctx, power_operation(hi_ctx, x_cap=4), 4)
    assert lo.raw.validity == 17 + 3 * 1
    assert hi.raw.agrees_with(lo.raw)
    assert hi.reduced.series.agrees_with(lo.reduced.series)


@functools.lru_cache(maxsize=None)
def _full_data(p, k):
    return power_operation(FglContext(p, k))


@st.composite
def _retruncation_cases(draw):
    p = draw(st.sampled_from([2, 3]))
    k_hi = draw(st.integers(2, 20))
    k_lo = draw(st.integers(1, k_hi - 1))
    return p, k_lo, k_hi, draw(st.integers(1, k_lo))


@settings(max_examples=30, deadline=None)
@given(_retruncation_cases())
def test_mc_retruncation_property(case):
    # MC_n at a larger truncation never contradicts a smaller one below the
    # smaller validity, for the raw series and for its canonical form
    p, k_lo, k_hi, n = case
    try:
        lo, hi = (mc(d.ctx, d, n, force_full=True)
                  for d in (_full_data(p, k_lo), _full_data(p, k_hi)))
    except InsufficientTruncationError:
        return
    assert hi.raw.agrees_with(lo.raw)
    assert hi.reduced.series.agrees_with(lo.reduced.series)
