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

Each N_j is a series.PackedSeries in X, put in order of X-degree once, when
it is formed.  Each Euler step is two passes of the monomial loop, straight
into poly.sum_products with no product object: one forms every
B_(qi) N_(j-i) into one accumulator, each key of part i carrying i in a
field above the keys of N, and the other forms N_j from those parts and the
d h_d, whose keys take the tag away again (product_forms).

A form is the part of total degree D in X and L, as (D, runs), runs the
(a, C[a][D-a]) by ascending X-degree a, each coefficient C[a][b] an
l-polynomial as packed (mono << W, coefficient) items, W the bit length of
k + 1.  product_forms and _factor_forms return a list of forms, and the rows
read it.  Forms become rows in xi with no series composed: with
L = log(xi), X^a = L(x)^a, and the rows are one product of packed series,
sum_a X^a W_a with W_a = sum_b C[a][b] L^b, whose part at x^s is row s
(_row_product).  One factor has
C[a][b] = binom(a+b, a) e_(a+b) i^b for exp = sum e_j xi^j; at p = 2 it is
the whole product, and the left fold of the p - 2 products of single-factor
rows is the cross-check route product_rows_by_fold.  Rows stay in the
l-basis, packed: power_operation hands the product to one substitution
(FglContext.to_v), which lands every row in the v-basis, where every
coefficient must be an integer, and only then do the a_i become series.
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb, factorial
from operator import itemgetter

from .fgl import FglContext, IntegralityError
from .poly import W as EXP_BITS
from .poly import UNIT_MONO, GradedPoly, sum_products
from .series import PackedSeries, Series


class EulerClassError(AssertionError):
    """The x-linear coefficient fails its forced congruence; internal bug signal."""


class PowerOpData:
    """The coefficients a_i of the power operation for one context."""

    __slots__ = ("ctx", "a")

    def __init__(self, ctx: FglContext, a: list):
        self.ctx = ctx
        self.a = a


def _row_product(ctx: FglContext, forms: list, cap: int) -> tuple:
    """Rows 0..cap (in x) of the forms (module docstring), a + b <= k, as one packed product.

    L^b = L L^(b-1) at order k+1 and W_a = sum_b C[a][b] L^b at order k+1-a
    are each one pass of the monomial loop into an accumulator of its own,
    cut by hand: every operand of them is valid mod xi^(k+1), so their
    validity is the order, with no rule to apply.  All the rows are one
    product at order k+1,
    sum_a X^a W_a with X = L(x) below x^(cap+1).  Its part at x^s is row s,
    valid mod xi^(k+1-s) by the term a = s, [x^s] X^s being 1.  No validity
    exceeds k+1, hence W.  Returns the product, keyed
    x << shift | mono << W | degree, and shift.
    """
    k = ctx.k
    width = (k + 1).bit_length()
    by_a = [[] for _a in range(cap + 1)]  # by_a[a]: (b, C[a][b])
    for d, runs in forms:
        for a, terms in runs:
            by_a[a].append((d - a, terms))
    log = PackedSeries.from_series(ctx.log, width)
    powers = [PackedSeries.from_coeffs({0: {UNIT_MONO: 1}}, k + 1, width), log]
    for _b in range(2, max([cap] + [b for pairs in by_a for b, _t in pairs]) + 1):
        prev = powers[-1]
        acc = sum_products({}, ((1, run, prev.below(k + 1 - d)) for d, run in log.groups()))
        powers.append(PackedSeries.from_terms(acc.items(), k + 1, width))
    ws = [PackedSeries.from_terms(sum_products({}, ((1, c, powers[b].below(k + 1 - a))
                                                   for b, c in pairs)).items(), k + 1 - a, width)
          for a, pairs in enumerate(by_a)]
    shift = PackedSeries.x_shift(width, powers[:cap + 1] + ws)
    return PackedSeries.sum_of_products(((1, powers[a].in_x(cap + 1, shift), w)
                                         for a, w in enumerate(ws)), k + 1), shift


def _rows(ctx: FglContext, forms: list, cap: int) -> list:
    """The rows of _row_product as l-basis series in xi, row s valid mod xi^(k+1-s)."""
    product, shift = _row_product(ctx, forms, cap)
    rows = [{} for _s in range(cap + 1)]
    for (e, s), t in product.split_bivariate(shift).items():
        rows[s][(e, 0)] = GradedPoly(t, "l")
    return [Series(ctx.p, "l", coeffs, ctx.k + 1 - s) for s, coeffs in enumerate(rows)]


def _factor_forms(ctx: FglContext, i: int, cap: int) -> list:
    """exp(X + iL) = sum_j e_j (X + iL)^j as forms (module docstring), e_j (X + iL)^j of degree j."""
    width = (ctx.k + 1).bit_length()
    forms = []
    for (j, _z), e in ctx.exp.coeffs.items():
        runs = []
        for a in range(min(j, cap) + 1):
            c = comb(j, a) * i ** (j - a)
            runs.append((a, [(m << width, c * v) for m, v in e.terms.items()]))
        forms.append((j, runs))
    return forms


def product_rows(ctx: FglContext, cap: int, progress=None) -> list:
    """Rows 0..cap (in x) of prod_{i=1..p-1} ([i]xi +_F x), as l-basis series in xi."""
    return _rows(ctx, product_forms(ctx, cap, progress), cap)


def product_forms(ctx: FglContext, cap: int, progress=None) -> list:
    """prod_{i=1..p-1} ([i]xi +_F x) as forms (module docstring), by the exponential of power sums.

    `progress(j, top)` is called after each of the top Euler steps, which
    form N_1 .. N_top; p = 2 and p - 1 > k take none.

    Each step is two passes of poly.sum_products, called directly, not two
    PackedSeries.sum_of_products calls: the first pass's parts share one
    accumulator, which a PackedSeries would not hand on apart, and each
    call pays for a validity rule, a sort and a new object around a few
    dozen pairs.  At p=5, k=76, cap 8 that is 36 passes for the 15,390
    pairs that one product per convolution formed in 189 calls.  No
    validity rule is needed: every N_j is a series in X mod X^(cap+1), and
    so is each part and each B_d, so cap+1 is every validity and every
    order, and the cuts are made by hand.
    """
    k, q = ctx.k, ctx.p - 1
    if q == 1:
        return _factor_forms(ctx, 1, cap)
    # P has degree >= q, so for q > k every row vanishes below its validity;
    # returning here also skips the Stirling product, O(q^2) big-int work
    if q > k:
        return []
    top = k // q - 1  # P_(q(j+1)) is needed for j <= top
    # N_j is keyed mono << width | X-degree, and the field from tag up marks
    # part i of a step with i.  N_j has weight qj < k, so the exponent of the
    # horizon's l_h in it is at most k // (p^h - 1), which bounds mono.
    width, h = cap.bit_length(), ctx.horizon
    tag = width + EXP_BITS * (h - 1) + (k // (ctx.p ** h - 1)).bit_length()
    sums = [sum(i ** c for i in range(1, q + 1)) for c in range(q * top + 1)]  # S_c
    # B_(qi)[a] X^a, keyed i << tag | a, one term each, and the bound cap + 1 - a
    # on the X-degree of the terms of N_(j-i) it meets
    bform = {i: [(cap + 1 - a, [(i << tag | a, comb(q * i, a) * sums[q * i - a])])
                 for a in range(min(q * i, cap) + 1)] for i in range(1, top + 1)}
    # d h_d at d = qi, keyed so that adding it to a key of part i takes the tag away
    g = {i: [((m << width) - (i << tag), x) for m, x in ctx.log_ratio_power(-q * i, q * i).terms.items()]
         for i in range(1, top + 1)}
    stirling = [1]  # prod_i (X + iL), by X-degree
    for i in range(1, q + 1):
        stirling = [x + i * y for x, y in zip([0] + stirling, stirling + [0])]
    n = [PackedSeries.from_terms(enumerate(stirling[:cap + 1]), cap + 1, width)]
    below = [[n[0].below(e) for e in range(cap + 2)]]  # below[m][e]: N_m below X^e
    for j in range(1, top + 1):
        parts = list(sum_products({}, [(1, b, below[j - i][e]) for i in range(1, j + 1)
                                       for e, b in bform[i]]).items())
        # a key of part i is first formed by a triple of i, and the triples come
        # by ascending i, so the accumulator holds the parts in order of their tags
        cuts = [bisect_left(parts, i << tag, key=itemgetter(0)) for i in range(1, j + 2)]
        triples, scale = [], 1  # scale = q^(i-1) (j-1)! / (j-i)!
        for i in range(1, j + 1):
            triples.append((scale, g[i], parts[cuts[i - 1]:cuts[i]]))
            scale *= q * (j - i)
        n.append(PackedSeries.from_terms(sum_products({}, triples).items(), cap + 1, width))
        below.append([n[j].below(e) for e in range(cap + 2)])
        if progress is not None:
            progress(j, top)
    forms, form_width = [], (k + 1).bit_length()
    for j, nj in enumerate(n):
        den = q ** j * factorial(j)
        runs = []
        for a, run in nj.groups():
            exact = []
            for key, v in run:
                x, r = divmod(v, den)
                if r:
                    raise IntegralityError(f"X^{a} L^{q * (j + 1) - a} of the product is not integral")
                exact.append((key >> width << form_width, x))
            runs.append((a, exact))
        forms.append((q * (j + 1), runs))
    return forms


def product_rows_by_fold(ctx: FglContext, cap: int) -> list:
    """The same rows as a left fold of p-2 products of single-factor rows (cross-check route)."""
    k = ctx.k
    rows = _rows(ctx, _factor_forms(ctx, 1, cap), cap)
    for i in range(2, ctx.p):
        rb = _rows(ctx, _factor_forms(ctx, i, cap), cap)
        rows = [Series.sum_of_products((1, rows[t], rb[s - t]) for t in range(s + 1))
                .truncate(k + 1 - s) for s in range(cap + 1)]
    return rows


def power_operation(ctx: FglContext, x_cap: int | None = None, progress=None) -> PowerOpData:
    """Build the truncated power-operation product and extract every a_i.

    `progress` is handed to product_forms, which reports its Euler steps.
    """
    p, k = ctx.p, ctx.k
    if x_cap is not None and x_cap < 0:
        raise ValueError(f"the largest i of a_i must be >= 0, got {x_cap}")
    cap = k if x_cap is None else min(x_cap, k)

    # every row in one substitution, straight from the packed product: x^s is row s
    packed, shift = _row_product(ctx, product_forms(ctx, cap, progress), cap)
    rows = ctx.to_v(packed, integral=True, shift=shift)
    a = [{} for _s in range(cap + 1)]
    for (j, s), c in rows.coeffs.items():
        a[s][(j, 0)] = c
    a = [Series(p, "v", row, k + 1 - s) for s, row in enumerate(a)]
    _check_euler_class(a[0], p)
    return PowerOpData(ctx, a)


def _check_euler_class(a0: Series, p: int):
    # a_0 = (p-1)! xi^(p-1) mod xi^p; (p-1)! is formed only when xi^(p-1) lies below
    # the validity: at p = 10^9 + 7 it alone runs for minutes
    for j in range(min(p, a0.validity)):
        c = a0.coefficient(j)
        want = GradedPoly.const(factorial(p - 1), "v") if j == p - 1 else GradedPoly.zero("v")
        if c != want:
            raise EulerClassError(f"a_0 has coefficient {c!r} at xi^{j}")


def reduce_a_mod_p_series(data: PowerOpData):
    """Canonical representatives of every a_i modulo the reduced p-series."""
    from .reduction import canonical_rep

    pser = data.ctx.reduced_p_series("v")
    return [canonical_rep(ai, pser) for ai in data.a]
