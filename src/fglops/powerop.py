"""The total power operation on the orientation class and its coefficients.

The product  P(xi, x) = prod over i in 0..p-1 of ([i]xi +_F x),  truncated
modulo (xi, x)^(k+1) after factoring out the i = 0 factor x, expands as

    P = a_0 x + a_1 x^2 + a_2 x^3 + ...

Each a_i is a series in xi alone, correct modulo xi^(k-i+1), homogeneous of
weight i + 1 - p, and a_0 is the Euler class: a_0 = (p-1)! xi^(p-1) + ...

Factors are built from the splitting  exp(t1 + t2) = sum_r L(x2)^r U_r(t1)
with  U_r(t) = sum_j binom(j, r) e_j t^(j-r),  which reduces the bivariate
product to rows of univariate series: row s of  [i]xi +_F x  is

    sum_r  [x^s] L(x)^r  *  U_r(i L(xi)),      L = log.

Both factors are closed forms in the powers of L(xi)/xi, which
FglContext.log_ratio_power reads off partitions, so no series is composed:

    [x^s] L(x)^r  = [x^(s-r)] (L(x)/x)^r,
    U_r(i L(xi))  = sum_m binom(m+r, r) e_(m+r) i^m xi^m (L(xi)/xi)^m.

The row pipeline stays in the l-basis where the series are sparsest; one
substitution at the end lands in the v-basis, where every coefficient must
be an integer.
"""

from __future__ import annotations

from math import comb, factorial

from .fgl import FglContext
from .poly import GradedPoly, add_products
from .series import Series


class EulerClassError(AssertionError):
    """The x-linear coefficient fails its forced congruence; internal bug signal."""


class PowerOpData:
    """Product series and extracted coefficient list for one context."""

    __slots__ = ("ctx", "product", "a", "x_order")

    def __init__(self, ctx: FglContext, product: Series, a: list, x_order: int):
        self.ctx = ctx
        self.product = product
        self.a = a
        self.x_order = x_order


def _factor_rows(ctx: FglContext, i: int, x_cap: int) -> list:
    """Rows (in x) of the factor [i]xi +_F x, as l-basis series in xi."""
    k = ctx.k
    ws = []  # ws[r] = U_r(i L(xi)) as {xi degree: terms}, valid mod xi^(k+1-r)
    for r in range(x_cap + 1):
        w: dict = {}
        for (j, _z), e in ctx.exp.coeffs.items():
            m = j - r
            if m < 0:
                continue
            # (L/xi)^m only has terms xi^t with p-1 | t
            for t in range(0, k + 1 - j, ctx.p - 1):
                c = ctx.log_ratio_power(m, t)
                if c:
                    add_products(w.setdefault(m + t, {}), e.terms, c.terms, comb(j, r) * i ** m)
        ws.append(w)
    rows = []
    for s in range(x_cap + 1):
        row: dict = {}
        for r in range(s + 1):
            c = ctx.log_ratio_power(r, s - r)  # [x^s] L(x)^r
            if c:
                for d, terms in ws[r].items():
                    if d < k + 1 - s:
                        add_products(row.setdefault(d, {}), terms, c.terms)
        rows.append(Series(ctx.p, "l", {(d, 0): GradedPoly(t, "l") for d, t in row.items()},
                           k + 1 - s))
    return rows


def power_operation(ctx: FglContext, x_cap: int | None = None) -> PowerOpData:
    """Build the truncated power-operation product and extract every a_i."""
    p, k = ctx.p, ctx.k
    if x_cap is not None and x_cap < 0:
        raise ValueError(f"the largest i of a_i must be >= 0, got {x_cap}")
    cap = k if x_cap is None else min(x_cap, k)

    rows = _factor_rows(ctx, 1, cap)
    for i in range(2, p):
        rb = _factor_rows(ctx, i, cap)
        rows = [Series.sum_of_products((1, rows[t], rb[s - t]) for t in range(s + 1))
                .truncate(k + 1 - s) for s in range(cap + 1)]

    coeffs = {}
    a = []
    fact = factorial(p - 1)
    for s, row in enumerate(rows):
        row_v = ctx.to_v(row, integral=True)
        a.append(Series(ctx.p, "v", row_v.coeffs, k + 1 - s, weight=s + 1 - p))
        for (j, _z), c in row_v.coeffs.items():
            coeffs[(j, s + 1)] = c

    product = Series(p, "v", coeffs, k + 2, weight=-p)
    _check_euler_class(a[0], p, fact)
    return PowerOpData(ctx, product, a, cap)


def _check_euler_class(a0: Series, p: int, fact: int):
    # a_0 = (p-1)! xi^(p-1) mod xi^p
    lim = min(p, a0.validity)
    for j in range(lim):
        c = a0.coefficient(j)
        want = GradedPoly.const(fact, "v") if j == p - 1 else GradedPoly.zero("v")
        if c != want:
            raise EulerClassError(f"a_0 has coefficient {c!r} at xi^{j}")


def reduce_a_mod_p_series(data: PowerOpData):
    """Canonical representatives of every a_i modulo the reduced p-series."""
    from .reduction import canonical_rep

    pser = data.ctx.reduced_p_series("v")
    return [canonical_rep(ai, pser) for ai in data.a]
