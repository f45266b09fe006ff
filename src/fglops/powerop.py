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
step j forms  q j P_(q(j+1)) = sum_{i=1..j} (qi h_(qi)) B_(qi) P_(q(j+1-i))
and divides every coefficient by q j.  The division is exact, P having
coefficients in Z[l] like exp (the inverse of a series with leading
coefficient 1); a remainder raises IntegralityError naming the step.
Truncation mod (X, L)^(k+1) is truncation mod (xi, x)^(k+1), and X^a feeds
only x^s with s >= a, so X-degrees above the largest i asked for are dropped.

Each P_(q(j+1)) is held dense in X: {l-monomial: its column}, the column
the coefficients at X^0 .. X^min(cap, q(j+1)), P_q the Stirling column.
Each part B_(qi) P_(q(j+1-i)) is one truncated convolution of two int lists
per l-monomial of P_(q(j+1-i)) (series.convolve), added times each term of
d h_d into the column of step j at the sum of the monomials; no key is
hashed per pair, and the Euler loop (_euler_columns) makes no pass of
poly.sum_products.

A form is the part of total degree D in X and L as the Euler loop holds
it, (D, {l-monomial: X-column}): col[a] at monomial m is the coefficient
of m in C[a][D-a], the l-polynomial at X^a L^(D-a).  product_forms and
_factor_forms return a list of forms, and the rows read it.  Forms become
rows in xi with no series composed: with L = log(xi), X^a = L(x)^a, and the
rows are one product of packed series, sum_a X^a W_a with
W_a = sum_b C[a][b] L^b, whose part at x^s is row s (_row_product).  One
factor has C[a][b] = binom(a+b, a) e_(a+b) i^b for exp = sum e_j xi^j; at
p = 2 it is the whole product, and the left fold of the p - 2 products of
single-factor rows is the cross-check route product_rows_by_fold.  Rows
stay in the l-basis, packed, until one substitution (FglContext.to_v)
lands them in the v-basis, where every coefficient must be an integer, and
only then do the a_i become series.

The rows split into p - 1 residue classes by x-degree mod p - 1: L(x) =
x (1 + sum_m l_m x^(p^m - 1)) and every p^m - 1 is a multiple of p - 1, so
X^a feeds only the rows s = a mod p - 1, and sum_a X^a W_a never mixes
classes.  power_operation runs the Euler loop and keeps its forms in a
PowerOpData, which builds rows when they are read, a class at a time: the
closed form at n = 2(p-1) reads a_0, a_(p-1) and a_(2p-2), class 0 alone,
one product and one substitution; a reader of every row (Miller's
recurrence, power-op-coeffs, --reduced, the raw cross-check) builds every
class still pending in one more, so no row is built twice.
"""

from __future__ import annotations

from math import comb, factorial
from operator import add

from .fgl import FglContext, IntegralityError
from .poly import UNIT_MONO, GradedPoly, sum_products
from .reduction import canonical_rep
from .series import PackedSeries, Series, convolve


class EulerClassError(AssertionError):
    """The x-linear coefficient fails its forced congruence; internal bug signal."""


class PowerOpData:
    """The coefficients a_i of the power operation for one context.

    a[i] is a_i.  Given the forms (D, {l-monomial: X-column}) of
    product_forms, an a[i] left None is built when it is read, by residue
    class of i mod p - 1 (module docstring): row(i) builds the class of i
    alone, reading a builds every class still pending in one product and one
    substitution, and no row is built twice.  The last build lets go of the
    forms.
    """

    __slots__ = ("ctx", "_a", "_forms", "_pending")

    def __init__(self, ctx: FglContext, a: list, forms: list | None = None):
        self.ctx = ctx
        self._a = a
        self._forms = forms
        self._pending = {i % (ctx.p - 1) for i, ai in enumerate(a) if ai is None}

    def __len__(self) -> int:
        return len(self._a)

    @property
    def a(self) -> list:
        if self._pending:
            self._build(self._pending)
        return self._a

    def row(self, i: int) -> Series:
        """a_i, its residue class built alone if it is pending."""
        if not 0 <= i < len(self._a):
            raise IndexError(f"a_{i} is outside a_0..a_{len(self._a) - 1}")
        if (r := i % (self.ctx.p - 1)) in self._pending:
            self._build({r})
        return self._a[i]

    def _build(self, classes: set):
        """The rows of the classes, as one packed product and one substitution (FglContext.to_v)."""
        ctx, q = self.ctx, self.ctx.p - 1
        xs = [s for s in range(len(self._a)) if s % q in classes]
        packed = _row_product(ctx, self._forms, xs)
        if classes == self._pending:  # the last build: let go of the forms before to_v
            self._forms = None
        rows = {s: {} for s in xs}
        for (j, s), c in ctx.to_v(packed, integral=True).coeffs.items():
            rows[s][(j, 0)] = c
        for s, row in rows.items():
            self._a[s] = Series(ctx.p, "v", row, ctx.k + 1 - s)
        if 0 in classes:
            _check_euler_class(self._a[0], ctx.p)
        self._pending = self._pending - classes


def _row_product(ctx: FglContext, forms: list, xs: list) -> PackedSeries:
    """Rows xs (in x) of the forms (module docstring), a + b <= k, as one packed product.

    xs holds whole residue classes mod p - 1 below some cap: X^a feeds only
    the rows s = a mod p - 1, so the product is sum of X^a W_a over a in xs,
    and C[a][D-a] is read off each form's columns, col[a], for those a alone.
    L^b = L L^(b-1) at the order k+1 and W_a = sum_b C[a][b] L^b at order - a
    are each one pass of the monomial loop into an accumulator of its own,
    cut by hand: every operand of them is valid to the order, so their
    validity is the order, with no rule to apply.  The rows are one product
    at the order, X = L(x) below x^(max(xs)+1).  Its part at x^s is row s,
    valid mod xi^(order-s) by the term a = s, [x^s] X^s being 1.  No
    validity exceeds k+1, hence W.  Every series of it is in the layout of
    log packed (PackedSeries.with_terms), whose x offset covers the
    generators of the stored log, and so every monomial of the forms
    (FglContext._monomials); the product is keyed x << S | mono << W | degree.
    """
    order = ctx.k + 1
    width = order.bit_length()
    by_a = {a: [] for a in xs}  # by_a[a]: (b, C[a][b])
    for d, cols in forms:
        if d < order:
            for a, pairs in by_a.items():
                run = [(m << width, col[a]) for m, col in cols.items() if a < len(col) and col[a]]
                if run:
                    pairs.append((d - a, run))
    cap = max(xs)
    top = max([cap] + [b for pairs in by_a.values() for b, _t in pairs])
    log = PackedSeries.from_series(ctx.log, width)
    powers = [log.with_terms([(UNIT_MONO, 1)], order), log]
    for _b in range(2, top + 1):
        prev = powers[-1]
        acc = sum_products({}, ((1, run, prev.below(order - d)) for d, run in log.groups()))
        powers.append(log.with_terms(acc.items(), order))
    ws = [log.with_terms(sum_products({}, ((1, c, powers[b].below(order - a))
                                          for b, c in by_a[a])).items(), order - a)
          for a in xs]
    return PackedSeries.sum_of_products(((1, powers[a].in_x(cap + 1), w)
                                         for a, w in zip(xs, ws)), order)


def _rows(ctx: FglContext, forms: list, cap: int) -> list:
    """The rows 0..cap of _row_product as l-basis series in xi, row s valid mod xi^(k+1-s)."""
    rows = [{} for _s in range(cap + 1)]
    for (e, s), t in _row_product(ctx, forms, range(cap + 1)).decode().items():
        rows[s][(e, 0)] = GradedPoly(t, "l")
    return [Series(ctx.p, "l", coeffs, ctx.k + 1 - s) for s, coeffs in enumerate(rows)]


def _factor_forms(ctx: FglContext, i: int, cap: int) -> list:
    """exp(X + iL) = sum_j e_j (X + iL)^j as forms (module docstring), e_j (X + iL)^j of degree j."""
    forms = []
    for (j, _z), e in ctx.exp.coeffs.items():
        binoms = [comb(j, a) * i ** (j - a) for a in range(min(j, cap) + 1)]
        forms.append((j, {m: [b * v for b in binoms] for m, v in e.terms.items()}))
    return forms


def _euler_columns(ctx: FglContext, cap: int, progress=None) -> list:
    """P_q .. P_(q(top+1)) (module docstring) as {l-monomial: column}, for 1 <= q <= k.

    Step j sums products of series in X mod X^(cap+1), homogeneous of degree
    q(j+1) in X and L, so every column of P_(q(j+1)) has min(cap, q(j+1)) + 1
    entries and each B_(qi) P_(q(j+1-i)) is cut there by hand, with no
    validity rule.  A column that cancels to zero is dropped.
    """
    q = ctx.p - 1
    top = ctx.k // q - 1  # P_(q(j+1)) is needed for j <= top
    sums = [sum(i ** c for i in range(1, q + 1)) for c in range(q * top + 1)]  # S_c
    bcol = {i: [comb(q * i, a) * sums[q * i - a] for a in range(min(q * i, cap) + 1)]
            for i in range(1, top + 1)}  # B_(qi) below X^(cap+1)
    g = {i: ctx.log_ratio_power(-q * i, q * i).terms.items() for i in range(1, top + 1)}  # d h_d
    stirling = [1]  # prod_i (X + iL), by X-degree
    for i in range(1, q + 1):
        stirling = [x + i * y for x, y in zip([0] + stirling, stirling + [0])]
    parts = [{UNIT_MONO: stirling[:cap + 1]}]
    for j in range(1, top + 1):
        length, pj = min(cap, q * (j + 1)) + 1, {}
        for i in range(1, j + 1):
            for m, col in parts[j - i].items():
                conv = convolve([0] * length, 1, bcol[i], col)
                for gm, c in g[i]:
                    got = pj.get(m + gm)
                    pj[m + gm] = (list(map(c.__mul__, conv)) if got is None
                                  else list(map(add, got, map(c.__mul__, conv))))
        for col in pj.values():  # q j P_(q(j+1)) -> P_(q(j+1))
            for a, x in enumerate(col):
                col[a], r = divmod(x, q * j)
                if r:
                    raise IntegralityError(f"step {j} of the Euler loop is not divisible by {q * j}")
        parts.append({m: col for m, col in pj.items() if any(col)})
        if progress is not None:
            progress(j, top)
    return parts


def product_forms(ctx: FglContext, cap: int, progress=None) -> list:
    """prod_{i=1..p-1} ([i]xi +_F x) as forms (module docstring), by the exponential of power sums.

    The forms are _euler_columns' parts as they are, P_(q(j+1)) of degree
    q(j+1).  `progress(j, top)` is called after each of the top Euler steps,
    which form P_2q .. P_(q(top+1)); p = 2 and p - 1 > k take none.
    """
    k, q = ctx.k, ctx.p - 1
    # at p = 2 the one factor exp(X + L) is the product, read off exp: the Euler loop's
    # k - 1 steps give the same rows in 1.2 ms against 0.09 ms at k = 14, cap 5, and
    # 2.2 s against 4.6 ms at k = 56, cap 16 (process time, 2-vCPU x86-64 host)
    if q == 1:
        return _factor_forms(ctx, 1, cap)
    # P has degree >= q, so for q > k every row vanishes below its validity;
    # returning here also skips the Stirling product, O(q^2) big-int work
    if q > k:
        return []
    return [(q * (j + 1), pj) for j, pj in enumerate(_euler_columns(ctx, cap, progress))]


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
    """The truncated power-operation product, as forms whose rows a_i are built when read.

    `progress` is handed to product_forms, which reports its Euler steps.
    """
    if x_cap is not None and x_cap < 0:
        raise ValueError(f"the largest i of a_i must be >= 0, got {x_cap}")
    cap = ctx.k if x_cap is None else min(x_cap, ctx.k)
    return PowerOpData(ctx, [None] * (cap + 1), product_forms(ctx, cap, progress))


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
    pser = data.ctx.reduced_p_series("v")
    return [canonical_rep(ai, pser) for ai in data.a]
