"""The p-typical formal group law over the Brown-Peterson coefficient ring.

FglContext(p, k) builds, exactly and truncated modulo degree k+1:

  log(xi)  = xi + sum over m with p^m <= k of l_m xi^(p^m)
  exp      = compositional inverse of log, by Lagrange inversion
             [xi^j] exp = (1/j) [xi^(j-1)] (log/xi)^(-j)
             (Stanley, Enumerative Combinatorics 2, 5.4); the division by j
             is exact in integers, since the inverse of a series
             xi + ... with coefficients in Z[l] has them in Z[l] too, so a
             remainder raises IntegralityError
  the generator table expressing each l_m as a rational polynomial in the
  integral generators, via the recursion  p*l_n = sum l_i v_(n-i)^(p^i)

from which it derives formal sums, n-series [n]xi = exp(n log xi), and the
reduced p-series <p>xi = [p]xi / xi, whose integral-generator form must have
integer coefficients (a denominator surviving the substitution signals a
broken generator table and raises IntegralityError).  The substitution
(to_v) packs a whole series into one polynomial, each term's exponents in
bits around its monomial, and substitutes it by generator in one
GradedPoly.substitute call (poly.py).

Every power of log/xi = 1 + sum_m l_m xi^(p^m - 1) has the closed form

  [xi^d] (log/xi)^r = sum over the l-monomials l^b of weight d
                      of mu(r; b) * prod l_m^(b_m),

mu being the generalized multinomial coefficient, for any integer r.  The
monomials of one weight come from one flat loop (FglContext._monomials):
every weight p^m - 1 is a multiple of p - 1, so the exponents of l_2..l_h
run as an odometer and the weight fixes the exponent of l_1.  mu(r; b) is
a product of one generalized binomial per generator, so the loop carries
it: each step updates one factor by an exact division, and each monomial
takes one binomial, no factorial.  The package
reads the closed form only at negative r (Lagrange inversion, and d h_d in
the power operation); the nonnegative powers are never formed (below).

n-series and the identity check are one pass, no composition: with
e_j = [xi^j] exp and R = log/xi = 1 + r,

  [xi^N] exp(t log xi) = sum over j <= N of t^j e_j [xi^(N-j)] R^j.

The binomial expansion R^j = sum_s C(j, s) r^s regroups the sum by powers
of r,

  sum_j t^j e_j xi^j R^j = sum_s r^s E_s,  E_s = sum over j >= s of C(j, s) t^j e_j xi^j,

and the pass evaluates it in Horner's order (Knuth, TAOCP 2, 4.6.4):
H_s = E_s + r H_(s+1) from s = k//p down to 0, the sum being H_0.  r has
valuation p-1, so r^s H_s meets degree k only through the degrees of H_s
below k+1-s(p-1): that is the validity of H_s, the order of its product,
and the cut of E_s.  E_s is empty above k//p, since j >= s and
j + s(p-1) <= k; when p > k, r has no term and H_0 = E_0 takes no product.
Each step is one PackedSeries.sum_of_products (series.py), keyed
mono << W | d with W = bit length of k+1: r against H_(s+1), with the
terms of E_s added into its accumulator.  r has at most one term per
generator, each with coefficient 1, which the monomial loop adds without a
multiplication.  e_j vanishes unless j = 1 mod p-1 and is packed once,
keyed mono << W | j, and scaled once by its scalar (below), for every s;
E_s takes each term times C(j, s), or as it is where C(j, s) = 1.  Since
exp comes from the closed form above, the check crosses two independent
routes.

The context runs t = 1 and t = p together, in one accumulator: e_j carries
the scalar sum over i of t_i^j 2^(S i), and H_0 is read back once, at the
end, as balanced S-bit digits, the last one unbounded.  H_0 is term for
term the sum of the products e_j [xi^d] R^j, so with ||.||_1 the sum of
absolute coefficients and ||AB||_1 <= ||A||_1 ||B||_1, digit i is at most
sum_j |t_i|^j ||e_j||_1 ||R||_1^j, where ||R||_1 = 1 + ||r||_1; S is 2
more than the bit length of the largest such bound over every digit but
the last.  Only H_0 is decoded.  The bound is computed from exp as it
stands, so not even a corrupted exp carries from one output into the next.
The t = 1 output must be xi (else "exp is not inverse to log"), the t = p
output is [p]xi.  The context makes no Series product; formal sums still
compose (Series.compose).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import MAX_TRUNCATION, W, GradedPoly
from .series import PackedSeries, Series, pack_terms


class NotPrimeError(ValueError):
    pass


class HorizonError(ValueError):
    """A generator beyond the truncation-implied horizon was requested."""


class IntegralityError(ArithmeticError):
    """A series that must have integer coefficients (v-basis, power-operation product) does not."""


# Miller-Rabin to the prime bases 2..41 decides primality for every n below
# this bound (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= MR_BOUND, which it cannot decide."""
    if n >= MR_BOUND:
        raise ValueError(f"primality is only decided below {MR_BOUND}, got {n}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mu(n: int, abar) -> int:
    """Coefficient of b^abar in (1 + b_1 + b_2 + ...)^n, any integer n."""
    s = sum(abar)
    multinom = math.factorial(s)
    for a in abar:
        multinom //= math.factorial(a)
    if n >= 0:
        if s > n:
            return 0
        return math.comb(n, s) * multinom
    return (-1) ** s * multinom * math.comb(-n - 1 + s, s)


def partitions(t: int, parts):
    """Multiplicity tuples alpha, no trailing zeros, with sum alpha_i * parts[i] = t.

    The last part's multiplicity runs from its largest value down to 0, then
    the next part's, and so on; one generator frame per nonzero multiplicity.
    """
    parts = tuple(parts)
    alpha = [0] * len(parts)

    def rec(n: int, rest: int, top: int):  # complete alpha[:n]; alpha[top:] is zero
        if rest == 0:
            yield tuple(alpha[:top])
            return
        while n:
            n -= 1
            part = parts[n]
            if part > rest:
                continue
            for c in range(rest // part, 0, -1):
                alpha[n] = c
                yield from rec(n, rest - c * part, top or n + 1)
            alpha[n] = 0

    return rec(len(parts), t, 0)


def hazewinkel_ell(p: int, max_m: int) -> list:
    """l_0..l_max_m as v-basis polynomials over Q: p*l_n = sum l_i v_(n-i)^(p^i)."""
    ell = [GradedPoly.const(1, "v")]
    inv_p = Fraction(1, p)
    for n in range(1, max_m + 1):
        acc = GradedPoly.zero("v")
        q = 1
        for i in range(n):
            acc = acc + ell[i] * GradedPoly.gen(n - i, "v", exp=q)
            q *= p
        ell.append(acc.scale(inv_p))
    return ell


def build_log(p: int, k: int) -> Series:
    """log(xi) = xi + sum l_m xi^(p^m) mod xi^(k+1); needs no context, p and k unchecked."""
    coeffs = {(1, 0): GradedPoly.const(1, "l")}
    m = 1
    while p ** m <= k:
        coeffs[(p ** m, 0)] = GradedPoly.gen(m, "l")
        m += 1
    return Series(p, "l", coeffs, k + 1)


class FglContext:
    """Immutable bundle of prime, truncation order, and cached FGL data."""

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if not 1 <= k <= MAX_TRUNCATION:
            raise ValueError(f"truncation order must be in 1..{MAX_TRUNCATION}")
        self.p = p
        self.k = k

        # generator horizon: include generator m iff its weight p^m - 1 <= k
        m = 0
        while p ** (m + 1) - 1 <= k:
            m += 1
        self.horizon = m
        self.ell = hazewinkel_ell(p, m)
        self._ell_table = {i: self.ell[i] for i in range(1, m + 1)}

        self.log = build_log(p, k)
        self._log_parts = tuple(j - 1 for j, _z in sorted(self.log.coeffs) if j > 1)
        self.exp = self._build_exp()
        ident, pser = self._exp_of_log_multiples((1, p))
        # the pass reads exp only at xi^j with j = 1 mod p-1, where the inverse of log lives
        if (any((j - 1) % (p - 1) for j, _z in self.exp.coeffs)
                or not ident.agrees_with(Series.variable(p, "l", self.k + 1))):
            raise AssertionError("exp is not inverse to log within validity")

        self._n_series: dict = {1: Series.variable(p, "l", k + 1), p: pser}
        self._pser: dict = {}
        self._cp_images: dict = {}

    # -- construction ------------------------------------------------------

    def _build_exp(self) -> Series:
        # Lagrange inversion: [xi^j] exp = (1/j) [xi^(j-1)] (log/xi)^(-j), exact in Z[l]
        coeffs = {}
        for j in range(1, self.k + 1):
            terms = {}
            for mono, c in self._monomials(j - 1, -j):
                terms[mono], rem = divmod(c, j)
                if rem:
                    raise IntegralityError(f"[xi^{j}] exp has the non-integral coefficient "
                                           f"{Fraction(c, j)}; Lagrange inversion is broken")
            coeffs[(j, 0)] = GradedPoly(terms, "l")
        return Series(self.p, "l", coeffs, self.k + 1)

    def log_ratio_power(self, r: int, d: int) -> GradedPoly:
        """[xi^d] (log(xi)/xi)^r for any integer r, straight from the closed form.

        log/xi = 1 + sum_m l_m xi^(p^m - 1), so the coefficient is
        sum mu(r; b) l^b over the l-monomials l^b of weight d in the
        generators of the stored log; it is the true coefficient for d < k.
        """
        return GradedPoly(dict(self._monomials(d, r)), "l")

    def _monomials(self, d: int, r: int):
        """(l^b, mu(r; b)) for each l-monomial l^b of weight d in the stored log's generators.

        One flat loop: p^m - 1 = q c_m with q = p - 1 and c_m = 1 + p + ... + p^(m-1),
        so a weight that q does not divide has none.  The exponents of
        l_2..l_h run as an odometer, lowest first, over every choice with
        sum b_m c_m <= d/q, and the rest d/q - sum b_m c_m is the exponent of l_1.

        The multinomial rides along.  mu(r; b) = r (r-1) ... (r-s+1) / prod b_m!,
        s = sum b_m, is the product of generalized binomials
        C(r, b_h) C(r - b_h, b_(h-1)) ... C(r - b_h - ... - b_2, b_1),
        C(x, e) = x (x-1) ... (x-e+1) / e!.  Each odometer digit keeps the
        product of the binomials from it up; a step that raises a digit
        takes its binomial from C(x, e) to C(x, e+1) = C(x, e) (x - e) / (e+1),
        one exact division, and the digits below restart from its product.
        Each monomial takes one more binomial, for l_1.  Zeros (r >= 0,
        s > r) are yielded too.
        """
        q = self.p - 1
        if d % q or d and not self._log_parts:
            return
        rest, tail = d // q, 0  # the exponent of l_1; l_2^b_2 ... l_h^b_h packed
        steps = [(part // q, 1 << W * m) for m, part in enumerate(self._log_parts[1:], 1)]
        exps = [0] * len(steps)
        above = [1] * (len(steps) + 1)  # the product of the binomials of digit m and up
        x = r  # r - (sum of the digits)
        while True:
            if x >= 0:
                yield tail | rest, above[0] * math.comb(x, rest)
            else:  # C(-y, e) = (-1)^e C(y + e - 1, e)
                n = math.comb(rest - x - 1, rest)
                yield tail | rest, above[0] * (-n if rest & 1 else n)
            for i, (c, unit) in enumerate(steps):
                if rest >= c:  # the lower digits are zero, so x = r - b_h - ... - b_m
                    above[i] = above[i] * x // (exps[i] + 1)
                    exps[i] += 1
                    rest -= c
                    tail += unit
                    x -= 1
                    break
                rest += exps[i] * c
                tail -= exps[i] * unit
                x += exps[i]
                exps[i] = 0
            else:
                return
            for j in range(i):
                above[j] = above[i]

    def _exp_of_log_multiples(self, ts: tuple) -> list:
        """exp(t log xi) for each multiplier t in ts, by one Horner pass (module docstring).

        With R = log/xi = 1 + r, E_s = sum over j >= s of C(j, s) t^j e_j xi^j
        and H_s = E_s + r H_(s+1) for s = k//p down to 0, the sum
        sum_j t^j e_j xi^j R^j is H_0.  H_s has validity k+1-s(p-1), below
        which r^s H_s still reaches degree k; each step is one packed
        product of r and H_(s+1) at that order, E_s summed into its
        accumulator, and only H_0 is decoded into digits.  Only exp's
        coefficients at j = 1 mod p-1 are read.
        """
        p, k = self.p, self.k
        q = p - 1
        width = (k + 1).bit_length()  # a degree j + d <= k fits the field
        r = PackedSeries.from_coeffs({j - 1: c.terms for (j, _z), c in self.log.coeffs.items()
                                      if j > 1}, k, width)
        packed = [(j, pack_terms(e.terms, width, j))  # once, for every s
                  for j in range(1, k + 1, q) if (e := self.exp.coeffs.get((j, 0)))]
        # every digit but the top one is at most sum_j |t|^j ||e_j||_1 ||R||_1^j in size
        top = max((abs(t) for t in ts[:-1]), default=0)
        norm = 1 + sum(abs(x) for _key, x in r.terms)  # R = 1 + r
        bound = sum((top * norm) ** j * sum(abs(x) for _key, x in e) for j, e in packed)
        bits = bound.bit_length() + 2
        scaled = []  # t^j e_j, each term times its scalar once
        for j, e in packed:
            scale = sum(t ** j << bits * i for i, t in enumerate(ts))
            scaled.append((j, [(key, scale * x) for key, x in e]))
        h = None  # H_(s+1)
        for s in range(k // p, -1, -1):
            cut = k + 1 - s * q
            acc = {}  # E_s
            for j, e in scaled:
                if s <= j < cut:
                    if s == 0 or s == j:  # C(j, s) = 1
                        acc.update(e)
                    else:
                        c = math.comb(j, s)
                        for key, x in e:
                            acc[key] = c * x
            h = (r.with_terms(acc.items(), cut) if h is None
                 else PackedSeries.sum_of_products(((1, r, h),), cut, acc))
        digits = [[] for _t in ts]
        half, mask = 1 << bits - 1, (1 << bits) - 1
        for key, x in h.terms:
            for out in digits[:-1]:  # balanced, so a negative digit borrows from the next
                lo = ((x + half) & mask) - half
                out.append((key, lo))
                x = (x - lo) >> bits
            digits[-1].append((key, x))
        decoded = (h.with_terms(out, k + 1).decode() for out in digits)
        return [Series(p, "l", {e: GradedPoly(t, "l") for e, t in d.items()}, k + 1) for d in decoded]

    # -- operations --------------------------------------------------------

    def formal_sum(self, s: Series, t: Series) -> Series:
        """exp(log(s) + log(t)) for series with zero constant term."""
        for a in (s, t):
            if a.validity > 0 and a.coeffs.get((0, 0)):
                raise ValueError("formal sum requires zero constant terms")
        return self.exp.compose(self.log.compose(s) + self.log.compose(t))

    def n_series(self, n: int) -> Series:
        """[n]xi = exp(n log xi), cached."""
        if n < 0:
            raise ValueError("negative n-series is not supported")
        got = self._n_series.get(n)
        if got is None:
            if n == 0:
                got = Series.zero(self.p, "l", self.k + 1)
            else:
                got, = self._exp_of_log_multiples((n,))
            self._n_series[n] = got
        return got

    def p_series(self, basis: str = "l") -> Series:
        ser = self.n_series(self.p)
        return ser if basis == "l" else self.to_v(ser, integral=True)

    def reduced_p_series(self, basis: str = "l") -> Series:
        """<p>xi = [p]xi / xi; constant term p, weight 0, validity k."""
        got = self._pser.get(basis)
        if got is None:
            if basis == "l":
                got = self.n_series(self.p).shift_xi(-1)
            else:
                got = self.to_v(self.reduced_p_series("l"), integral=True)
                if got.constant_term() != self.p:
                    raise AssertionError("reduced p-series constant term is not p")
            self._pser[basis] = got
        return got

    def to_v(self, s, integral: bool = False) -> Series:
        """Substitute every l_m by its v-basis expansion, in one GradedPoly.substitute call.

        s is an l-basis Series, packed here by PackedSeries.from_series with
        w the bit length of its validity, or a PackedSeries (power_operation's
        rows); either way the layout, x << S | mono << w | degree, is the
        PackedSeries' own, and the generator fields between w and S are
        substituted; a field beyond the horizon raises HorizonError.  The
        substitution passes the x and degree fields through, so the result is
        the v-basis Series at the same exponents and validity.
        """
        if not isinstance(s, PackedSeries):
            if s.basis != "l":
                raise ValueError("substitution source must be in the l-basis")
            s = PackedSeries.from_series(s, max(s.validity, 1).bit_length())
        gens = (s.shift - s.width) // W  # for a Series packed here, its highest generator
        if gens > self.horizon:
            raise HorizonError(
                f"series mentions l_{gens} beyond the horizon {self.horizon} for k={self.k}"
            )
        poly = GradedPoly.zero("l")
        poly.terms = dict(s.terms)
        out = poly.substitute(self._ell_table, "v", s.width, gens)
        coeffs = s.with_terms(out.terms.items(), s.validity).decode()
        if integral and not out.is_integral():
            bad = min(e for e, t in coeffs.items() if any(type(c) is not int for c in t.values()))
            raise IntegralityError(
                f"non-integer v-basis coefficient at exponent {bad}; generator table is broken"
            )
        return Series(self.p, "v", {e: GradedPoly(t, "v") for e, t in coeffs.items()}, s.validity)

    def cp_image(self, i: int) -> GradedPoly:
        """Image of the i-th projective-space class: p^m l_m if i = p^m - 1, else 0; cached."""
        if i < 0:
            raise ValueError("negative dimension")
        if i == 0:
            return GradedPoly.const(1, "v")
        m = 0
        q = 1
        while q - 1 < i:
            q *= self.p
            m += 1
        if q - 1 != i:
            return GradedPoly.zero("v")
        if m > self.horizon:
            raise HorizonError(f"l_{m} is beyond the horizon {self.horizon} for k={self.k}")
        out = self._cp_images.get(m)
        if out is None:
            out = self.ell[m].scale(self.p ** m)
            if not out.is_integral():
                raise IntegralityError(f"p^{m} l_{m} is not integral; generator table is broken")
            self._cp_images[m] = out
        return out
