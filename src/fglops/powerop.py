"""The total power operation on the orientation class and its coefficients.

The product  P(xi, x) = prod over i in 0..p-1 of ([i]xi +_F x),  truncated
modulo (xi, x)^(k+1) after factoring out the i = 0 factor x, expands as

    P = a_0 x + a_1 x^2 + a_2 x^3 + ...

Each a_i is a series in xi alone, correct modulo xi^(k-i+1), homogeneous of
weight i + 1 - p, and a_0 is the Euler class: a_0 = (p-1)! xi^(p-1) + ...

With X = log(x), L = log(xi) and q = p - 1, the factor [i]xi +_F x is
exp(X + iL).  Write exp(y) = y u(y), h = ln u (the ordinary logarithm;
h_d = 0 unless q | d) and S_c = sum_i i^c.  Then

    prod_{i=1..q} exp(X + iL) = prod_i (X + iL) * exp(sum_d Lam_d),
    d Lam_d = (d h_d) sum_a B_d[a] X^a L^(d-a),   B_d[a] = binom(d, a) S_(d-a),

and the Euler operator gives  D P_(q+D) = sum_d (d Lam_d) P_(q+D-d),  P_m the
part of total degree m, from the Stirling form P_q = prod_i (X + iL).  It
runs in integers: d h_d = [xi^d] (log(xi)/xi)^(-d) by Lagrange inversion, and
P_(q(j+1)) = N_j / (q^j j!) with integral
N_j = sum_i q^(i-1) (j-1)!/(j-i)! (qi h_(qi)) B_(qi) N_(j-i).  The division
is exact, P having coefficients in Z[l] like exp (the inverse of a series
with leading coefficient 1); a remainder raises IntegralityError.
Truncation mod (X, L)^(k+1) is truncation mod (xi, x)^(k+1), and X^a feeds
only x^s with s >= a, so X-degrees above the largest i asked for are dropped.

Forms sum C[a][b] X^a L^b become rows in xi by closed forms from
FglContext.log_ratio_power, so no series is composed:
row s = sum_a [x^s] log(x)^a * sum_b C[a][b] xi^b (log(xi)/xi)^b.  One factor has
C[a][b] = binom(a+b, a) e_(a+b) i^b for exp = sum e_j xi^j; at p = 2 it is
the whole product, and the left fold of the p - 2 products of single-factor
rows is the cross-check route product_rows_by_fold.  Rows stay in the
l-basis; one substitution lands in the v-basis, where every coefficient
must be an integer.
"""

from __future__ import annotations

from math import comb, factorial

from .fgl import FglContext, IntegralityError
from .poly import UNIT_MONO, GradedPoly, add_products
from .series import Series


class EulerClassError(AssertionError):
    """The x-linear coefficient fails its forced congruence; internal bug signal."""


class PowerOpData:
    """Product series and extracted coefficient list for one context."""

    __slots__ = ("ctx", "product", "a")

    def __init__(self, ctx: FglContext, product: Series, a: list):
        self.ctx = ctx
        self.product = product
        self.a = a


def _rows(ctx: FglContext, forms: list, cap: int) -> list:
    """Rows 0..cap (in x) of the forms forms[a][b] X^a L^b, as l-basis series in xi."""
    k, q = ctx.k, ctx.p - 1
    ws = []  # ws[a] = sum_b forms[a][b] xi^b (L/xi)^b as {xi degree: terms}, valid mod xi^(k+1-a)
    for a in range(cap + 1):
        w: dict = {}
        for b, c in forms[a].items():
            # (L/xi)^b only has terms xi^t with q | t
            for t in range(0, k + 1 - a - b, q):
                r = ctx.log_ratio_power(b, t)
                if r:
                    add_products(w.setdefault(b + t, {}), c, r.terms)
        ws.append(w)
    rows = []
    for s in range(cap + 1):
        row: dict = {}
        for a in range(s + 1):
            c = ctx.log_ratio_power(a, s - a)  # [x^s] L(x)^a
            if c:
                for d, terms in ws[a].items():
                    if d < k + 1 - s:
                        add_products(row.setdefault(d, {}), terms, c.terms)
        rows.append(Series(ctx.p, "l", {(d, 0): GradedPoly(t, "l") for d, t in row.items()},
                           k + 1 - s))
    return rows


def _factor_forms(ctx: FglContext, i: int, cap: int) -> list:
    """exp(X + iL) = sum_j e_j (X + iL)^j as forms[a][b], the coefficient of X^a L^b."""
    forms = [{} for _ in range(cap + 1)]
    for (j, _z), e in ctx.exp.coeffs.items():
        for a in range(min(j, cap) + 1):
            c = comb(j, a) * i ** (j - a)
            forms[a][j - a] = {m: c * v for m, v in e.terms.items()}
    return forms


def product_rows(ctx: FglContext, cap: int) -> list:
    """Rows 0..cap (in x) of prod_{i=1..p-1} ([i]xi +_F x) by the exponential of power sums."""
    k, q = ctx.k, ctx.p - 1
    if q == 1:
        return _rows(ctx, _factor_forms(ctx, 1, cap), cap)
    forms = [{} for _ in range(cap + 1)]  # forms[a][b]: X^a L^b
    if q > k:  # P has degree >= q: every row vanishes below its validity
        return _rows(ctx, forms, cap)
    top = k // q - 1  # P_(q(j+1)) is needed for j <= top
    g = {d: ctx.log_ratio_power(-d, d).terms for d in range(q, q * top + 1, q)}  # d h_d
    bform = {d: [comb(d, a) * sum(i ** (d - a) for i in range(1, q + 1))  # B_d
                 for a in range(min(d, cap) + 1)] for d in g}
    stirling = [1]  # prod_i (X + iL), by X-degree
    for i in range(1, q + 1):
        stirling = [x + i * y for x, y in zip([0] + stirling, stirling + [0])]
    n = [[{UNIT_MONO: c} for c in stirling[:cap + 1]]]  # n[j][a]: X^a L^(q(j+1)-a) in N_j
    for j in range(1, top + 1):
        nj = [{} for _ in range(min(cap, q * (j + 1)) + 1)]
        scale = 1  # q^(i-1) (j-1)! / (j-i)!
        for i in range(1, j + 1):
            d = q * i
            part = [{} for _ in nj]  # B_d N_(j-i), integer scalars only
            for a2, terms in enumerate(n[j - i]):
                for a1, b in enumerate(bform[d][:len(nj) - a2]):
                    tgt = part[a1 + a2]
                    for m, v in terms.items():
                        tgt[m] = tgt.get(m, 0) + b * v
            for a, t in enumerate(part):
                add_products(nj[a], g[d], {m: v for m, v in t.items() if v}, scale)
            scale *= q * (j - i)
        n.append(nj)
    for j, nj in enumerate(n):
        den = q ** j * factorial(j)
        for a, t in enumerate(nj):
            if any(v % den for v in t.values()):
                raise IntegralityError(f"X^{a} L^{q * (j + 1) - a} of the product is not integral")
            if t:
                forms[a][q * (j + 1) - a] = {m: v // den for m, v in t.items()}
    return _rows(ctx, forms, cap)


def product_rows_by_fold(ctx: FglContext, cap: int) -> list:
    """The same rows as a left fold of p-2 products of single-factor rows (cross-check route)."""
    k = ctx.k
    rows = _rows(ctx, _factor_forms(ctx, 1, cap), cap)
    for i in range(2, ctx.p):
        rb = _rows(ctx, _factor_forms(ctx, i, cap), cap)
        rows = [Series.sum_of_products((1, rows[t], rb[s - t]) for t in range(s + 1))
                .truncate(k + 1 - s) for s in range(cap + 1)]
    return rows


def power_operation(ctx: FglContext, x_cap: int | None = None) -> PowerOpData:
    """Build the truncated power-operation product and extract every a_i."""
    p, k = ctx.p, ctx.k
    if x_cap is not None and x_cap < 0:
        raise ValueError(f"the largest i of a_i must be >= 0, got {x_cap}")
    cap = k if x_cap is None else min(x_cap, k)

    coeffs = {}
    a = []
    fact = factorial(p - 1)
    for s, row in enumerate(product_rows(ctx, cap)):
        row_v = ctx.to_v(row, integral=True)
        a.append(Series(ctx.p, "v", row_v.coeffs, k + 1 - s, weight=s + 1 - p))
        for (j, _z), c in row_v.coeffs.items():
            coeffs[(j, s + 1)] = c

    product = Series(p, "v", coeffs, k + 2, weight=-p)
    _check_euler_class(a[0], p, fact)
    return PowerOpData(ctx, product, a)


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
