"""Obstruction series by a power recurrence, with independent cross-checks.

The paper defines, over the multi-indices abar = (alpha_1, alpha_2, ...) with
|abar| <= n, |abar|' <= n and n - |abar|' of the form p^m - 1,

    raw(n) = sum  mu(-(n+1); abar) * cp(n - |abar|') * a_0^(n - |abar|)
                  * prod a_i^(alpha_i)

where mu(n; abar) is the coefficient of b^abar in (1 + b_1 + b_2 + ...)^n and
cp(i) is the image of the i-th projective-space class (p^m l_m at i = p^m - 1,
zero otherwise).  Grouping the summands by k = |abar|' gives

    raw(n) = sum_k cp(n - k) * a_0^(n - k) * F_k,
    F = (sum_i G_i w^i)^-(n+1),   G_0 = 1,  G_i = a_i * a_0^(i-1),

and the main route computes F by J.C.P. Miller's power recurrence
(Knuth, TAOCP vol. 2, 4.7)

    k F_k = sum_{i=1..k} (-n*i - k) G_i F_(k-i),

whose division by k is exact and runs in integers (a remainder raises
IntegralityError): O(n^2) products of series.ColumnSeries, each pair of
v_1-columns one truncated convolution, no division by a_0, and only the raw
sum becomes a Series (_power_recurrence).
The reduced form modulo the reduced p-series is the obstruction class; its
lowest nonzero coefficient is the nonvanishing certificate.

The validity the recurrence must reach is the least validity of a summand,
min over its factors of (V_i - v_i) plus sum alpha_i v_i, for (V_i, v_i) the
validity and valuation of a_i.  It comes from the same grouping by k, as a
min-plus knapsack over the parts of k with weights v_i - v_0: O(n^2)
integer steps, no summand enumerated.

At n = 2(p-1), the index of every published table at p >= 5 and of every
certificate, the reduced class comes from the paper's closed form

    (2p-1) a_0^(2p-4) (-v_1 a_0 a_(p-1) - a_0 a_(2p-2) + p a_(p-1)^2),

which needs three of the a_i, all of x-degree 0 mod p-1, so only that
residue class of rows is built for it (powerop docstring).  They are held
as the recurrence holds them, in v_1-columns: v_1 a_0 is each column of a_0
moved up one entry (ColumnSeries.times_v1), the bracket, with 2p-1
multiplied in, is one ColumnSeries.sum_of_products, and a power of a_0,
from column squarings, multiplies it.  It is not the raw sum: the summands
it drops are 0 modulo <p>xi, so the raw sum minus the closed form vanishes
there and both have the same canonical representative.
Its validity is checked, not assumed: it must reach the validity the sum
predicts, and it is truncated to exactly that, so the reduced class carries
the same validity the recurrence would give.  That prediction takes
V_i = k+1-i and every v_i, i <= n, those of the rows not built from their
l-basis rows at a low order (PowerOpData.valuations), with no substitution.
The raw sum is then computed by the recurrence only when it is read, as the
closed form's cross-check, and reading it builds the other classes.

Cross-check routes (exact agreement within joint validity):
  * the paper's multi-index sum, one product chain per summand (the only
    route that enumerates the multi-indices),
  * a localized rearrangement through the inverse of sum a_i z^i, with
    xi^(p-1) factored out of a_0 so that every series stays a power series, and
  * at n = 2(p-1), the recurrence's raw sum, reduced.

For odd p with n not divisible by p-1 the reduced class vanishes identically,
and sparse_mc returns that zero from (p, k, n) alone, unless a full
computation is forced.  The zero carries the validity the raw sum would
have, which needs only V_i = k+1-i and the valuation of each a_i, i <= n:
they come from the l-basis rows of the power operation, substituted
nowhere, at the least k' of a doubling sequence from min(k, n + p) whose
a_i each show a nonzero coefficient below k'+1-i (_shortcut_valuations),
k' = k at worst.  Neither the context nor the power operation at k is
built.
"""

from __future__ import annotations

import functools
import math
import operator

from .fgl import FglContext, IntegralityError, mu, partitions
from .poly import GradedPoly
from .powerop import PowerOpData, power_operation
from .reduction import ReducedSeries, canonical_rep, nonvanishing_certificate
from .series import ColumnSeries, Series


class InsufficientTruncationError(ValueError):
    """The requested result has too little validity to mean anything."""


def multi_weighted_size(abar) -> int:
    return sum(i * a for i, a in enumerate(abar, start=1))


def enumerate_indices(n: int, p: int):
    """Stream (abar, m) with n - |abar|' = p^m - 1, by ascending |abar|'.

    Within one |abar|' the partitions come in the order fgl.partitions makes
    them.  |abar| <= n holds without a filter, as |abar| <= |abar|' <= n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    targets = []
    q = 1
    m = 0
    while q - 1 <= n:
        targets.append((n - (q - 1), m))
        q *= p
        m += 1
    for t, mm in sorted(targets):
        for ab in partitions(t, range(1, t + 1)):
            yield ab, mm


class ObstructionResult:
    """MC_n, raw and reduced.  A raw series given as a function is computed on first read."""

    __slots__ = ("n", "_raw", "reduced", "certificate", "is_obstruction_index",
                 "used_shortcut")

    def __init__(self, n, raw, reduced, certificate, is_obstruction_index,
                 used_shortcut):
        self.n = n
        self._raw = raw
        self.reduced = reduced
        self.certificate = certificate
        self.is_obstruction_index = is_obstruction_index
        self.used_shortcut = used_shortcut

    @property
    def raw(self):
        if callable(self._raw):
            self._raw = self._raw()
        return self._raw


def check_truncation(n: int, k: int) -> None:
    """Refuse a negative n or an n beyond the truncation k, before anything is computed."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > k:
        # the summand with alpha_n = 1 needs a_n, which is valid mod xi^(k-n+1)
        raise InsufficientTruncationError(
            f"MC_{n} needs a_{n}, so the truncation must be k >= n = {n}; got k = {k}"
        )


def _check_inputs(ctx: FglContext, data: PowerOpData, n: int) -> None:
    """Refuse an n that no route can sum: negative, beyond k, or beyond the computed a_i."""
    check_truncation(n, ctx.k)
    if n >= len(data):  # for n >= 1 the summand with alpha_n = 1 needs a_n
        raise ValueError(
            f"need a_{n} but only a_0..a_{len(data) - 1} were computed; "
            f"raise the x order of the power operation"
        )


def _validities(data: PowerOpData, n: int) -> tuple:
    """The validities V_i and valuations v_i of a_0..a_n, as two lists; every row is built."""
    return [ai.validity for ai in data.a[:n + 1]], [ai.val() for ai in data.a[:n + 1]]


def _shortcut_valuations(p: int, k: int, n: int) -> tuple:
    """The context at k' and val(a_0..a_n) at k, from the least truncation k' that shows them.

    a_i at k' agrees with a_i at k below its validity k'+1-i, so once every
    a_i has a nonzero coefficient there, its lowest is the one at k.  k'
    starts at min(k, n + p), where a_n is valid mod xi^(p+1) and every val(a_i)
    met at p <= 17 is below p, and doubles up to k, where the run is the full one.
    The valuations come from the l-basis rows (PowerOpData.valuations), so no
    row is substituted; a row with no term there reads k'+1-i.
    """
    kk = min(k, n + p)
    while True:
        ctx = FglContext(p, kk)
        v = power_operation(ctx, x_cap=n).valuations(n)
        if kk == k or all(vi < kk + 1 - i for i, vi in enumerate(v)):
            return ctx, v
        kk = min(k, 2 * kk)


def _sum_validity(ctx: FglContext, big_v: list, v: list, n: int) -> int:
    """Least validity of a summand of the paper's sum, by a min-plus knapsack.

    With (V_i, v_i) = (big_v[i], v[i]) the validity and valuation of a_i and
    alpha_0 = n - |abar|, the summand prod a_i^(alpha_i) is valid to the
    least V_i - v_i of its factors plus sum alpha_i v_i
    = n v_0 + sum_{i>=1} alpha_i w_i, where w_i = v_i - v_0.  best[t] is the
    least sum alpha_i w_i over the partitions of t.  Each t = |abar|' with cp(n - t) != 0 takes as the factor that sets
    the least V_i - v_i a part f, or a_0, which only the all-ones partition
    of n lacks.  Every index is a summand, since mu(-(n+1); abar) never vanishes.
    """
    if n == 0:  # the empty product, known as far as a_0 is
        return big_v[0]
    w = [vi - v[0] for vi in v]
    best = [0]
    for t in range(1, n + 1):
        best.append(min(w[i] + best[t - i] for i in range(1, t + 1)))
    least = math.inf
    for t in range(n + 1):
        if ctx.cp_image(n - t):
            rest = best[t] if t < n else min((w[f] + best[n - f] for f in range(2, n + 1)),
                                             default=math.inf)
            least = min(least, big_v[0] - v[0] + rest,
                        *(big_v[f] - v[f] + w[f] + best[t - f] for f in range(1, t + 1)))
    return n * v[0] + least


def _one(ctx: FglContext, data: PowerOpData) -> Series:
    """The empty product, known as far as a_0 is."""
    return Series.from_const(1, ctx.p, "v", data.a[0].validity)


def sparse_mc(p: int, k: int, n: int) -> ObstructionResult | None:
    """MC_n by the sparseness shortcut, from (p, k, n) alone; None off it.

    Off the shortcut means p - 1 dividing n, every n at p = 2.  On it the
    reduced class vanishes identically, and the zero carries the validity
    the raw sum would have: V_i = k+1-i and the valuations of a_0..a_n from
    the least truncation k' that shows them (_shortcut_valuations), whose
    context also gives every cp(n - t), as k' >= min(k, n + p) >= n.
    """
    check_truncation(n, k)
    if n % (p - 1) == 0:
        return None
    ctx, v = _shortcut_valuations(p, k, n)
    predicted = _sum_validity(ctx, [k + 1 - i for i in range(n + 1)], v, n)
    if predicted < p:
        raise InsufficientTruncationError(
            f"obstruction series would have validity {predicted} < p = {p}"
        )
    # identically zero in the quotient, so any validity claim is sound;
    # report the one the raw sum would have carried
    reduced = ReducedSeries(Series.zero(p, "v", predicted))
    return ObstructionResult(n, None, reduced, None, not ctx.cp_image(n), True)


def mc(ctx: FglContext, data: PowerOpData, n: int, force_full: bool = False,
       progress=None) -> ObstructionResult:
    """The n-th obstruction series, raw and reduced modulo the reduced p-series.

    Unless force_full, the sparseness shortcut (sparse_mc) answers where it
    applies, and `data` is not read.  `progress(k, n)` is called after each
    of the n recurrence steps; at n = 2(p-1) they run when the raw series is
    first read.
    """
    if not force_full and (result := sparse_mc(ctx.p, ctx.k, n)) is not None:
        return result
    p, k = ctx.p, ctx.k
    _check_inputs(ctx, data, n)
    pser = ctx.reduced_p_series("v")

    def recurrence():
        series = _power_recurrence(ctx, data, n, progress)
        if series.validity != predicted:
            raise AssertionError(
                f"validity bookkeeping mismatch: {series.validity} != predicted {predicted}"
            )
        return _checked(series, n)

    if n == 2 * (p - 1):
        closed = mc_explicit_2p2(ctx, data)  # builds the rows of class 0 alone
        predicted = _sum_validity(ctx, [k + 1 - i for i in range(n + 1)], data.valuations(n), n)
        if closed.validity < predicted:
            raise AssertionError(
                f"closed form has validity {closed.validity} < predicted {predicted}"
            )
        reduced = canonical_rep(_checked(closed.truncate(predicted), n), pser)
        raw = recurrence  # the cross-check, run when the raw series is read
    else:
        predicted = _sum_validity(ctx, *_validities(data, n), n)
        raw = recurrence()
        reduced = canonical_rep(raw, pser)
    if reduced.validity < p:
        raise InsufficientTruncationError(
            f"reduced obstruction has validity {reduced.validity} < p = {p}"
        )
    cert = nonvanishing_certificate(reduced)
    return ObstructionResult(n, raw, reduced, cert, not ctx.cp_image(n), False)


def _checked(series: Series, n: int) -> Series:
    """series, which must be homogeneous of MC_n's weight -n(p-2) and integral."""
    series.assert_weight(-n * (series.prime - 2))
    if not series.is_integral():
        raise AssertionError("obstruction series is not integral")
    return series


def _power_recurrence(ctx: FglContext, data: PowerOpData, n: int, progress) -> Series:
    """raw(n) = sum_k cp(n-k) a_0^(n-k) F_k, with F_k from Miller's recurrence.

    Every operand is a ColumnSeries: a_0..a_n, the powers of a_0, the G_i,
    each F_k and cp(n-k) a_0^(n-k), the constant cp(n-k) taken into columns
    by ColumnSeries.constant; only the raw sum becomes a Series.
    """
    p = ctx.p
    a = [ColumnSeries.from_series(ai) for ai in data.a[:n + 1]]
    one = ColumnSeries.constant(GradedPoly.const(1, "v"), data.a[0].validity, p)
    a0_pow, g = [one, a[0]], [None] + a[1:2]  # a0_pow[j] = a_0^j, g[i] = G_i
    for i in range(2, n + 1):
        a0_pow.append(ColumnSeries.sum_of_products(((1, a[0], a0_pow[-1]),)))
        g.append(ColumnSeries.sum_of_products(((1, a[i], a0_pow[i - 1]),)))
    f = [one]
    for k in range(1, n + 1):
        step = ColumnSeries.sum_of_products((-n * i - k, g[i], f[k - i]) for i in range(1, k + 1))
        for col in step.columns.values():  # k F_k -> F_k
            for e, x in enumerate(col):
                col[e], r = divmod(x, k)
                if r:
                    raise IntegralityError(f"step {k} of the power recurrence is not divisible by {k}")
        f.append(step)
        if progress is not None:
            progress(k, n)
    terms = []
    for k in range(n + 1):
        if cp := ctx.cp_image(n - k):
            power = a0_pow[n - k]
            cp_cols = ColumnSeries.constant(cp, power.validity, p)
            terms.append((1, ColumnSeries.sum_of_products(((1, cp_cols, power),)), f[k]))
    return ColumnSeries.sum_of_products(terms).series()


def mc_via_sum(ctx: FglContext, data: PowerOpData, n: int) -> Series:
    """The paper's multi-index sum, one product chain per summand; cross-check route."""
    _check_inputs(ctx, data, n)
    raw = None
    for abar, _m in enumerate_indices(n, ctx.p):
        factors = [data.a[i] ** e for i, e in enumerate((n - sum(abar),) + abar) if e]
        term = functools.reduce(operator.mul, factors) if factors else _one(ctx, data)
        cp = ctx.cp_image(n - multi_weighted_size(abar))
        term = term.scale(mu(-(n + 1), abar)).scale_poly(cp)
        raw = term if raw is None else raw + term
    return raw


def mc_via_inverse(ctx: FglContext, data: PowerOpData, n: int) -> Series:
    """Localized cross-check: a_0^n * sum_k cp(n-k) * (sum a_i z^i)^-(n+1) [z^k].

    With a_0 = xi^(p-1) u, u a unit of constant term (p-1)!, and
    V = sum_{i>=1} (a_i / u) z^i, the t-th power of U = sum_{i>=1} (a_i / a_0) z^i
    is xi^(-t(p-1)) V^t, so a_0^n [z^k] U^t is xi^((n-t)(p-1)) u^n [z^k] V^t,
    and t <= k <= n keeps every exponent >= 0.  Agrees exactly with the raw
    sum within joint validity.  Cross-check route only.
    """
    _check_inputs(ctx, data, n)
    p = ctx.p
    d = p - 1
    u = data.a[0].shift_xi(-d)
    inv = u.reciprocal()
    # V = sum_{i>=1} V_i z^i; z-coefficient lists have slots 0..n
    v = [None] * (n + 1)
    for i in range(1, n + 1):
        v[i] = data.a[i] * inv
    vpow = [None]  # vpow[t][kk] = [z^kk] V^t
    cur = None
    for _t in range(1, n + 1):
        if cur is None:
            cur = list(v)
            cur[0] = None
        else:
            nxt = [None] * (n + 1)
            for za, sa in enumerate(cur):
                if sa is None:
                    continue
                for zb in range(1, n - za + 1):
                    sb = v[zb]
                    if sb is None:
                        continue
                    prod = sa * sb
                    nxt[za + zb] = prod if nxt[za + zb] is None else nxt[za + zb] + prod
            cur = nxt
        vpow.append(list(cur))
    acc = None
    un = u ** n
    a0n = un.shift_xi(n * d) if n else _one(ctx, data)
    for kk in range(0, n + 1):
        cp = ctx.cp_image(n - kk)
        if not cp:
            continue
        if kk == 0:
            # [z^0] (1+U)^-(n+1) = 1
            term = a0n.scale_poly(cp)
        else:
            # [z^kk] (1+U)^-(n+1) = sum_t binom(-(n+1), t) U^t [z^kk]
            wk = None
            for t in range(1, n + 1):
                part = vpow[t][kk]
                if part is None:
                    continue
                c = (-1) ** t * math.comb(n + t, t)
                term_t = part.scale(c).shift_xi((n - t) * d)
                wk = term_t if wk is None else wk + term_t
            if wk is None:
                continue
            term = (un * wk).scale_poly(cp)
        acc = term if acc is None else acc + term
    if acc is None:
        return Series.zero(p, "v", data.a[0].validity)
    return acc


def mc_explicit_2p2(ctx: FglContext, data: PowerOpData) -> Series:
    """Closed form of the obstruction at n = 2(p-1), equal to MC_n modulo <p>xi.

    a_0, a_(p-1) and a_(2p-2) are held in v_1-columns, and v_1 a_0 is
    ColumnSeries.times_v1, each column of a_0 moved up one entry; the
    bracket is one ColumnSeries.sum_of_products and a_0^(2p-4) the same
    squarings and products as Series.__pow__, so every validity is the one
    the Series products would give.  The power times the bracket stays one
    Series product: perfbench's trace sees the mc layer's products only
    through Series.__mul__ (series.mul), and its self-tests expect some in
    mc -p 5 --n 8.
    """
    p = ctx.p
    n = 2 * (p - 1)
    if len(data) <= n or data.row(n).validity < 1:
        raise InsufficientTruncationError(f"a_{n} is not available at this truncation")
    a0, ap1, a2p2 = (ColumnSeries.from_series(data.row(i)) for i in (0, p - 1, n))
    c = 2 * p - 1
    bracket = ColumnSeries.sum_of_products([(-c, a0.times_v1(), ap1), (-c, a0, a2p2),
                                            (p * c, ap1, ap1)])
    if p == 2:
        return bracket.series()
    power, base, e = None, a0, 2 * p - 4
    while e:
        if e & 1:
            power = base if power is None else ColumnSeries.sum_of_products(((1, power, base),))
        if e > 1:
            base = ColumnSeries.sum_of_products(((1, base, base),))
        e >>= 1
    return power.series() * bracket.series()
