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
IntegralityError): O(n^2) series products, no division by a_0.
The reduced form modulo the reduced p-series is the obstruction class; its
lowest nonzero coefficient is the nonvanishing certificate.

Cross-check routes (exact agreement within joint validity):
  * the paper's multi-index sum, one product chain per summand,
  * a localized rearrangement through the inverse of sum a_i z^i, computed
    over Laurent series in xi, and
  * the closed form at n = 2(p-1):
      (2p-1) a_0^(2p-4) (-v_1 a_0 a_(p-1) - a_0 a_(2p-2) + p a_(p-1)^2).

For odd p with n not divisible by p-1 the reduced class vanishes identically,
and the recurrence is skipped unless a full computation is forced.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple

from .fgl import FglContext, IntegralityError, mu, partitions
from .poly import GradedPoly
from .powerop import PowerOpData
from .reduction import ReducedSeries, canonical_rep, nonvanishing_certificate
from .series import Series


class InsufficientTruncationError(ValueError):
    """The requested result has too little validity to mean anything."""


def multi_size(abar) -> int:
    return sum(abar)


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
    __slots__ = ("n", "raw", "reduced", "certificate", "is_obstruction_index",
                 "used_shortcut")

    def __init__(self, n, raw, reduced, certificate, is_obstruction_index,
                 used_shortcut):
        self.n = n
        self.raw = raw
        self.reduced = reduced
        self.certificate = certificate
        self.is_obstruction_index = is_obstruction_index
        self.used_shortcut = used_shortcut


def _is_q_power_minus_one(n: int, p: int) -> bool:
    q = 1
    while q - 1 < n:
        q *= p
    return q - 1 == n


_TermPlan = namedtuple("_TermPlan", "abar alpha0")


def _plan_terms(ctx: FglContext, data: PowerOpData, n: int):
    """Stream the summands of the paper's sum; checks first that a_0..a_n were computed.

    Every index enumerate_indices yields is a summand: mu(-(n+1); abar) and
    cp(p^m - 1) = p^m l_m never vanish, and m is within the horizon since
    p^m - 1 <= n <= k.  mc needs only the validities, so both factors are
    left to mc_via_sum, the one route that multiplies by them.
    """
    if n > ctx.k:
        # the summand with alpha_n = 1 needs a_n, which is valid mod xi^(k-n+1)
        raise InsufficientTruncationError(
            f"MC_{n} needs a_{n}, so the truncation must be k >= n = {n}; got k = {ctx.k}"
        )
    if n >= len(data.a):  # for n >= 1 the summand with alpha_n = 1 needs a_n
        raise ValueError(
            f"need a_{n} but only a_0..a_{len(data.a) - 1} were computed; "
            f"raise the x order of the power operation"
        )
    return (_TermPlan(abar, n - multi_size(abar)) for abar, _m in enumerate_indices(n, ctx.p))


def _term_validity(plan: _TermPlan, stats: list) -> int:
    """Validity of one summand from the (validity, valuation) of each factor."""
    factors = [(i, c) for i, c in enumerate((plan.alpha0,) + plan.abar) if c]
    if not factors:  # empty product: the exact constant 1
        return stats[0][0]
    return (min(stats[i][0] - stats[i][1] for i, _c in factors)
            + sum(c * stats[i][1] for i, c in factors))


def _one(ctx: FglContext, data: PowerOpData) -> Series:
    """The empty product, known as far as a_0 is."""
    return Series.from_const(1, ctx.p, "v", data.a[0].validity)


def mc(ctx: FglContext, data: PowerOpData, n: int, force_full: bool = False,
       progress=None) -> ObstructionResult:
    """The n-th obstruction series, raw and reduced modulo the reduced p-series.

    `progress(k, n)` is called after each of the n recurrence steps.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = ctx.p
    stats = [(ai.validity, ai.val()) for ai in data.a]
    predicted = min((_term_validity(pl, stats) for pl in _plan_terms(ctx, data, n)),
                    default=ctx.k + 1)
    pser = ctx.reduced_p_series("v")
    is_obstruction = not _is_q_power_minus_one(n, p)

    if p > 2 and n % (p - 1) != 0 and not force_full:
        if predicted < p:
            raise InsufficientTruncationError(
                f"obstruction series would have validity {predicted} < p = {p}"
            )
        # identically zero in the quotient, so any validity claim is sound;
        # report the one the raw sum would have carried
        reduced = ReducedSeries(Series.zero(p, "v", predicted, weight=-n * (p - 2)))
        return ObstructionResult(n, None, reduced, None, is_obstruction, True)

    raw = _power_recurrence(ctx, data, n, progress)
    if raw.validity != predicted:
        raise AssertionError(
            f"validity bookkeeping mismatch: {raw.validity} != predicted {predicted}"
        )
    raw.weight = -n * (p - 2)
    raw.assert_weight()
    if not raw.is_integral():
        raise AssertionError("raw obstruction series is not integral")

    reduced = canonical_rep(raw, pser)
    if reduced.validity < p:
        raise InsufficientTruncationError(
            f"reduced obstruction has validity {reduced.validity} < p = {p}"
        )
    cert = nonvanishing_certificate(reduced)
    return ObstructionResult(n, raw, reduced, cert, is_obstruction, False)


def _power_recurrence(ctx: FglContext, data: PowerOpData, n: int, progress) -> Series:
    """raw(n) = sum_k cp(n-k) a_0^(n-k) F_k, with F_k from Miller's recurrence."""
    a = data.a
    one = _one(ctx, data)
    a0_pow = [one, a[0]]  # a0_pow[j] = a_0^j
    for _ in range(2, n + 1):
        a0_pow.append(a0_pow[-1] * a[0])
    g = [None] + [a[1] if i == 1 else a[i] * a0_pow[i - 1] for i in range(1, n + 1)]
    f = [one]
    for k in range(1, n + 1):
        fk = Series.sum_of_products((-n * i - k, g[i], f[k - i]) for i in range(1, k + 1))
        f.append(fk.map_polys(lambda c: _divide_exactly(c, k)))
        if progress is not None:
            progress(k, n)
    terms = []
    for k in range(n + 1):
        cp = ctx.cp_image(n - k)
        if cp:
            terms.append((1, a0_pow[n - k].scale_poly(cp), f[k]))
    return Series.sum_of_products(terms)


def _divide_exactly(c: GradedPoly, k: int) -> GradedPoly:
    """c / k for a coefficient of k F_k, which the recurrence makes divisible by k."""
    q, r = c.divmod_int(k)
    if r:
        raise IntegralityError(f"step {k} of the power recurrence is not divisible by {k}")
    return q


def mc_via_sum(ctx: FglContext, data: PowerOpData, n: int) -> Series:
    """The paper's multi-index sum, one product chain per summand; cross-check route."""
    raw = None
    for plan in _plan_terms(ctx, data, n):
        factors = [data.a[i] ** e for i, e in enumerate((plan.alpha0,) + plan.abar) if e]
        term = functools.reduce(operator.mul, factors) if factors else _one(ctx, data)
        cp = ctx.cp_image(n - multi_weighted_size(plan.abar))
        term = term.scale(mu(-(n + 1), plan.abar)).scale_poly(cp)
        raw = term if raw is None else raw + term
    return raw


def mc_via_inverse(ctx: FglContext, data: PowerOpData, n: int) -> Series:
    """Localized cross-check: a_0^n * sum_k cp(n-k) * (sum a_i z^i)^-(n+1) [z^k].

    Evaluated over Laurent series where a_0 is invertible; agrees exactly with
    the raw sum within joint validity.  Cross-check route only.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n >= len(data.a):
        raise ValueError(f"need a_{n} but only a_0..a_{len(data.a) - 1} were computed")
    p = ctx.p
    a0 = data.a[0]
    inv0 = a0.reciprocal()
    # U = sum_{i>=1} (a_i / a_0) z^i; z-coefficient lists have slots 0..n
    u = [None] * (n + 1)
    for i in range(1, n + 1):
        u[i] = data.a[i] * inv0
    upow = [None]  # upow[t][kk] = [z^kk] U^t
    cur = None
    for _t in range(1, n + 1):
        if cur is None:
            cur = list(u)
            cur[0] = None
        else:
            nxt = [None] * (n + 1)
            for za, sa in enumerate(cur):
                if sa is None:
                    continue
                for zb in range(1, n - za + 1):
                    sb = u[zb]
                    if sb is None:
                        continue
                    prod = sa * sb
                    nxt[za + zb] = prod if nxt[za + zb] is None else nxt[za + zb] + prod
            cur = nxt
        upow.append(list(cur))
    acc = None
    a0n = a0 ** n if n else None
    for kk in range(0, n + 1):
        cp = ctx.cp_image(n - kk)
        if not cp:
            continue
        if kk == 0:
            # [z^0] (1+U)^-(n+1) = 1
            term = a0n.scale_poly(cp) if a0n is not None else None
            if term is None:
                from_c = Series.from_const(1, p, "v", a0.validity)
                term = from_c.scale_poly(cp)
        else:
            # [z^kk] (1+U)^-(n+1) = sum_t binom(-(n+1), t) U^t [z^kk]
            wk = None
            for t in range(1, n + 1):
                part = upow[t][kk]
                if part is None:
                    continue
                c = (-1) ** t * math.comb(n + t, t)
                term_t = part.scale(c)
                wk = term_t if wk is None else wk + term_t
            if wk is None:
                continue
            term = (a0n * wk).scale_poly(cp) if a0n is not None else wk.scale_poly(cp)
        acc = term if acc is None else acc + term
    if acc is None:
        return Series.zero(p, "v", data.a[0].validity, weight=-n * (p - 2))
    if acc.coeffs and acc.val() < 0:
        raise AssertionError("localized route left negative exponents")
    return acc


def mc_explicit_2p2(ctx: FglContext, data: PowerOpData) -> Series:
    """Closed form of the obstruction at n = 2(p-1); cross-check route."""
    p = ctx.p
    n = 2 * (p - 1)
    if len(data.a) <= n or data.a[n].validity < 1:
        raise InsufficientTruncationError(f"a_{n} is not available at this truncation")
    a0, ap1, a2p2 = data.a[0], data.a[p - 1], data.a[n]
    v1 = GradedPoly.gen(1, "v")
    inner = (a0 * ap1).scale_poly(v1).scale(-1) - a0 * a2p2 + (ap1 * ap1).scale(p)
    if 2 * p - 4 > 0:
        inner = a0 ** (2 * p - 4) * inner
    return inner.scale(2 * p - 1)
