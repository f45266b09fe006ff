"""The p-typical formal group law over the Brown-Peterson coefficient ring.

FglContext(p, k) builds, exactly and truncated modulo degree k+1:

  log(xi)  = xi + sum over m with p^m <= k of l_m xi^(p^m)
  exp      = compositional inverse of log, by Lagrange inversion
             [xi^j] exp = (1/j) [xi^(j-1)] (log/xi)^(-j)
             (Stanley, Enumerative Combinatorics 2, 5.4)
  the generator table expressing each l_m as a rational polynomial in the
  integral generators, via the recursion  p*l_n = sum l_i v_(n-i)^(p^i)

from which it derives formal sums, n-series [n]xi = exp(n log xi), and the
reduced p-series <p>xi = [p]xi / xi, whose integral-generator form must have
integer coefficients (a denominator surviving the substitution signals a
broken generator table and raises IntegralityError).

Every power of log/xi = 1 + sum_m l_m xi^(p^m - 1) has the closed form

  [xi^d] (log/xi)^r = sum over partitions b of d into parts p^m - 1
                      of mu(r; b) * prod l_m^(b_m),

mu being the generalized multinomial coefficient, for any integer r.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import MAX_TRUNCATION, GradedPoly, mono_pack
from .series import Series


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
    """Multiplicity tuples alpha, no trailing zeros, with sum alpha_i * parts[i] = t."""
    def rec(n: int, rest: int):  # partitions of rest into parts[:n]
        if rest == 0:
            yield ()
            return
        if n == 0:
            return
        part = parts[n - 1]
        for c in range(rest // part, -1, -1):
            for head in rec(n - 1, rest - c * part):
                yield head + (0,) * (n - 1 - len(head)) + (c,) if c else head

    return rec(len(parts), t)


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
        self._check_ell_recursion()

        self.log = self._build_log()
        self._log_parts = tuple(j - 1 for j, _z in sorted(self.log.coeffs) if j > 1)
        self._log_ratio_powers: dict = {}
        self.exp = self._build_exp()
        ident = self.exp.compose(self.log)
        if not ident.agrees_with(Series.variable(p, "l", self.k + 1)):
            raise AssertionError("exp is not inverse to log within validity")

        self._n_series: dict = {1: Series.variable(p, "l", k + 1)}
        self._pser: dict = {}
        self._subcache: dict = {}

    # -- construction ------------------------------------------------------

    def _check_ell_recursion(self):
        p, ell = self.p, self.ell
        for n in range(1, len(ell)):
            acc = GradedPoly.zero("v")
            q = 1
            for i in range(n):
                acc = acc + ell[i] * GradedPoly.gen(n - i, "v", exp=q)
                q *= p
            if ell[n].scale(p) - acc:
                raise AssertionError(f"generator table violates the recursion at n={n}")

    def _build_log(self) -> Series:
        p, k = self.p, self.k
        coeffs = {(1, 0): GradedPoly.const(1, "l")}
        m = 1
        while p ** m <= k:
            coeffs[(p ** m, 0)] = GradedPoly.gen(m, "l")
            m += 1
        return Series(p, "l", coeffs, k + 1, weight=-1)

    def _build_exp(self) -> Series:
        # Lagrange inversion: [xi^j] exp = (1/j) [xi^(j-1)] (log/xi)^(-j)
        coeffs = {(j, 0): self.log_ratio_power(-j, j - 1).scale(Fraction(1, j))
                  for j in range(1, self.k + 1)}
        return Series(self.p, "l", coeffs, self.k + 1, weight=-1)

    def log_ratio_power(self, r: int, d: int) -> GradedPoly:
        """[xi^d] (log(xi)/xi)^r for any integer r, straight from the partitions; cached.

        log/xi = 1 + sum_m l_m xi^(p^m - 1), so the coefficient is
        sum mu(r; b) l^b over the partitions b of d into parts p^m - 1 of the
        stored log; it is the true coefficient for d < k.
        """
        got = self._log_ratio_powers.get((r, d))
        if got is None:
            got = GradedPoly({mono_pack(b): mu(r, b) for b in partitions(d, self._log_parts)}, "l")
            self._log_ratio_powers[(r, d)] = got
        return got

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
                got = Series.zero(self.p, "l", self.k + 1, weight=-1)
            else:
                got = self.exp.compose(self.log.scale(n))
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

    def to_v(self, s: Series, integral: bool = False) -> Series:
        """Substitute every l_m by its v-basis expansion; weight is preserved."""
        if s.basis != "l":
            raise ValueError("substitution source must be in the l-basis")
        need = max((c.max_gen_index() for c in s.coeffs.values()), default=0)
        if need > self.horizon:
            raise HorizonError(
                f"series mentions l_{need} beyond the horizon {self.horizon} for k={self.k}"
            )
        out = s.map_polys(
            lambda c: c.substitute(self._ell_table, "v", self._subcache), basis="v"
        )
        if integral and not out.is_integral():
            bad = next(e for e in sorted(out.coeffs) if not out.coeffs[e].is_integral())
            raise IntegralityError(
                f"non-integer v-basis coefficient at exponent {bad}; generator table is broken"
            )
        return out

    def cp_image(self, i: int) -> GradedPoly:
        """Image of the i-th projective-space class: p^m l_m if i = p^m - 1, else 0."""
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
        out = self.ell[m].scale(self.p ** m)
        if not out.is_integral():
            raise IntegralityError(f"p^{m} l_{m} is not integral; generator table is broken")
        return out
