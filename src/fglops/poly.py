"""Exact sparse polynomials in the graded generators v_1, v_2, ... (or l_1, l_2, ...).

A monomial is one non-negative int: the exponent of the m-th generator sits
in the W-bit field at offset W*(m-1), so v_1 is in the lowest bits and the
unit monomial is 0.  Examples (W = 15):

    v_1^3       -> 3
    v_2         -> 1 << 15
    v_1^4 * v_2 -> 4 + (1 << 15)

Multiplying monomials adds their ints, and no field carries into the next
as long as every exponent stays below 2^W.  mono_pack / mono_from_exps
refuse an exponent outside 0..2^W-1; products do not check.  The pipeline
stays below the bound: every polynomial it builds is a coefficient of a
homogeneous series, so a monomial's weight is at most the series' degree
span, about 2k for truncation k (the largest seen is 1.6k, at p=3, k=40),
and the exponent of v_m is at most that weight over p^m - 1.  FglContext
therefore accepts k <= MAX_TRUNCATION = 4095, where even a weight of
8k = 32760, five times the largest seen, stays below 2^15.

Comparing packed ints compares the exponent vectors from the highest
generator down; mono_sort_key orders by weight first, so within a weight
pure v_1 powers come first and higher generators later.  mono_exps decodes
a monomial into its exponent tuple (no trailing zeros) for the edges that
need the exponents: weights and rendering.

A GradedPoly maps monomials to nonzero coefficients (int, or Fraction when a
denominator is genuinely present) and carries a basis tag: "v" for the
integral generators, "l" for the rational logarithm generators.  Arithmetic
is exact; mixing bases raises BasisMismatchError.

The grading assigns generator m the weight p^m - 1 for the ambient prime p,
so weights depend on p and are supplied at the call sites that need them.

GradedPoly.substitute replaces each generator by a polynomial, one
generator at a time over the whole polynomial (Horner's rule in the image
of the highest one, over integers).  A key may carry other fields below and
above its generator fields, which pass through: FglContext.to_v packs a
whole series so, its exponents in those fields, and substitutes it at once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Mono = int  # packed exponents, W bits per generator; coefficients are int | Fraction

W = 15
MAX_EXP = (1 << W) - 1
MAX_TRUNCATION = 4095  # keeps every exponent far below 2^W (module docstring)
MAX_GENERATOR = 12  # the horizon at p = 2, k = MAX_TRUNCATION: 2^12 - 1 <= 4095

UNIT_MONO: Mono = 0


class BasisMismatchError(ValueError):
    """Raised when polynomials or series over different bases are combined."""


def mono_pack(exps) -> Mono:
    """Pack an exponent sequence, entry m-1 the exponent of generator m."""
    mono = 0
    for i, e in enumerate(exps):
        if not 0 <= e <= MAX_EXP:
            raise ValueError(f"exponent {e} of generator {i + 1} is outside 0..{MAX_EXP}")
        mono |= e << (W * i)
    return mono


def mono_exps(mono: Mono) -> tuple:
    """Exponent tuple of a monomial, entry m-1 for generator m, no trailing zeros."""
    out = []
    while mono:
        out.append(mono & MAX_EXP)
        mono >>= W
    return tuple(out)


def mono_weight(mono: Mono, p: int) -> int:
    w = 0
    q = 1
    while mono:
        q *= p
        w += (mono & MAX_EXP) * (q - 1)
        mono >>= W
    return w


def mono_from_exps(exps: dict) -> Mono:
    """Build a monomial from a {generator index: exponent} map (1-based, at most MAX_GENERATOR)."""
    if any(not 1 <= m <= MAX_GENERATOR or e < 0 for m, e in exps.items()):
        raise ValueError(f"bad generator/exponent pair in {exps}; "
                         f"generators run 1..{MAX_GENERATOR}")
    out = [0] * max(exps, default=0)
    for m, e in exps.items():
        out[m - 1] = e
    return mono_pack(out)


def _norm_coef(c):
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def sum_products(tgt: dict, triples) -> dict:
    """tgt += sum of c * t1 * t2 over (c, t1, t2) triples, in place.

    This is the one monomial product loop: every product of polynomials and
    series ends here, except those of the power operation's Euler loop and
    of Miller's recurrence, whose series are dense int lists in X and in v_1
    (series.convolve).  t1 and t2 are
    re-iterable sequences of (key, coefficient) items, such as dict items;
    keys are added, so a key is a monomial, or a monomial packed with series
    exponents (series.PackedSeries).  The scalar c multiplies each term of
    t1 once; where that gives 1, the terms of t2 are added as they are.
    Coefficients are left as summed: a cancelled term stays as a zero and a
    Fraction may have denominator 1; GradedPoly(tgt, basis) drops and
    normalizes them.
    """
    get = tgt.get
    for c, items1, items2 in triples:
        for m1, c1 in items1:
            c1 *= c
            if c1 == 1:  # a unit term, as every term of the context's r is
                for m2, c2 in items2:
                    m = m1 + m2
                    tgt[m] = get(m, 0) + c2
            else:
                for m2, c2 in items2:
                    m = m1 + m2
                    tgt[m] = get(m, 0) + c1 * c2
    return tgt


def mono_sort_key(mono: Mono, p: int):
    # graded first, then the packed int: the exponent vector compared from the
    # highest generator down, which puts pure v_1 powers first within a weight
    return (mono_weight(mono, p), mono)


class GradedPoly:
    """Sparse exact polynomial over int/Fraction coefficients with a basis tag."""

    __slots__ = ("terms", "basis")

    def __init__(self, terms: dict | None = None, basis: str = "v"):
        if basis not in ("v", "l"):
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.terms = {m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                      for m, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, basis: str = "v") -> "GradedPoly":
        return cls(None, basis)

    @classmethod
    def const(cls, c, basis: str = "v") -> "GradedPoly":
        return cls({UNIT_MONO: c}, basis)

    @classmethod
    def gen(cls, m: int, basis: str = "v", exp: int = 1, coef=1) -> "GradedPoly":
        if m < 1:
            raise ValueError("generator indices start at 1")
        return cls({mono_from_exps({m: exp}): coef}, basis)

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, GradedPoly):
            return self.basis == other.basis and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return self.terms == {UNIT_MONO: _norm_coef(other)}
        return NotImplemented

    def __hash__(self):
        return hash((self.basis, frozenset(self.terms.items())))

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.terms.values())

    def constant_term(self):
        return self.terms.get(UNIT_MONO, 0)

    def is_homogeneous(self, p: int, weight: int) -> bool:
        """Every monomial has the given weight at prime p; zero is homogeneous of every weight."""
        return all(mono_weight(m, p) == weight for m in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "GradedPoly"):
        if self.basis != other.basis:
            raise BasisMismatchError(f"cannot mix bases {self.basis!r} and {other.basis!r}")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        r = GradedPoly.zero(self.basis)
        r.terms = {m: _norm_coef(c) for m, c in out.items()}
        return r

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + -other

    def __neg__(self) -> "GradedPoly":
        r = GradedPoly.zero(self.basis)
        r.terms = {m: -c for m, c in self.terms.items()}
        return r

    def __mul__(self, other: "GradedPoly") -> "GradedPoly":
        self._check(other)
        return GradedPoly(sum_products({}, ((1, self.terms.items(), other.terms.items()),)),
                          self.basis)

    def scale(self, c) -> "GradedPoly":
        if not c:
            return GradedPoly.zero(self.basis)
        r = GradedPoly.zero(self.basis)
        r.terms = {m: _norm_coef(c0 * c) for m, c0 in self.terms.items()}
        return r

    def __pow__(self, n: int) -> "GradedPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = GradedPoly.const(1, self.basis)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def sorted_terms(self, p: int) -> list:
        return sorted(self.terms.items(), key=lambda kv: mono_sort_key(kv[0], p))

    def max_gen_index(self) -> int:
        return -(-max(self.terms, default=0).bit_length() // W)

    def kill_generators(self, indices) -> "GradedPoly":
        """Drop every monomial with a positive exponent on any listed generator."""
        top = self.max_gen_index()
        mask = 0
        for i in set(indices):
            if i <= top:  # a generator above the highest present kills nothing
                mask |= MAX_EXP << (W * (i - 1))
        r = GradedPoly.zero(self.basis)
        r.terms = {m: c for m, c in self.terms.items() if not m & mask}
        return r

    def substitute(self, table: dict, basis: str, low: int = 0,
                   gens: int | None = None) -> "GradedPoly":
        """Replace generator m by table[m] (a GradedPoly in `basis`) in every monomial.

        Substitution by generator: with l_h the highest generator present,
        self = sum over e of l_h^e P_e, each P_e free of l_h and substituted
        over l_1..l_(h-1) the same way.  The parts meet by Horner's rule in
        the scaled image T = d phi(l_h), d the least common denominator of
        table[h]: with E the largest e,

            d^E phi(self) = (..(phi(P_E) T + d phi(P_(E-1))) T + ..) T + d^E phi(P_0),

        each step one product of the accumulator by T.  At h = 1 the parts
        are constants, and if T is one term c t, as l_1 = v_1/p is in the
        generator table, each term only moves: l_1^e x goes to
        c^e d^(E-e) t^e x, no product.  The denominators of self are
        cleared once, so every part is integral; every level hands its image
        up as integer terms over one denominator, so the sums run in ints
        and one denominator is divided out at the end: an int where it
        divides, a Fraction otherwise.

        A key may carry bits outside its generator fields, `low` bits below
        them and any above generator `gens` (by default the highest
        present); they pass through unchanged.  FglContext.to_v packs a
        whole series so, with its exponents in those bits, and substitutes
        it in one call.
        """
        gens = self.max_gen_index() if gens is None else gens
        fields = ((1 << W * gens) - 1) << low
        images: dict = {}

        def image(h: int) -> tuple:  # (integer terms of T, d) for generator h
            got = images.get(h)
            if got is None:
                if h not in table:
                    raise KeyError(f"no substitution for generator {h}")
                terms = table[h].terms
                d = lcm(*(c.denominator for c in terms.values()))
                got = images[h] = ({b << low: c.numerator * (d // c.denominator)
                                    for b, c in terms.items()}, d)
            return got

        def sub(terms: dict) -> tuple:  # (integer terms, denominator) of phi(terms), terms integral
            present = 0
            for key in terms:
                present |= key
            bits = ((present & fields) >> low).bit_length()
            if not bits:
                return terms, 1
            h = (bits - 1) // W + 1
            at = low + W * (h - 1)
            t, d = image(h)
            if h == 1 and len(t) == 1:  # T = c t and the parts are constants: each term moves
                ((mono, c),) = t.items()
                top = max(key >> at & MAX_EXP for key in terms)
                factor = [c ** e * d ** (top - e) for e in range(top + 1)]
                out: dict = {}
                for key, x in terms.items():
                    e = key >> at & MAX_EXP
                    key += e * (mono - (1 << at))
                    out[key] = out.get(key, 0) + factor[e] * x
                return out, d ** top
            parts: dict = {}
            for key, c in terms.items():
                e = key >> at & MAX_EXP
                part = parts.get(e)
                if part is None:
                    parts[e] = {key - (e << at): c}
                else:
                    part[key - (e << at)] = c
            parts = {e: sub(part) if h > 1 else (part, 1) for e, part in parts.items()}
            big = lcm(*(den for _n, den in parts.values()))
            top = max(parts)
            acc, den = parts[top]
            acc = {key: c * (big // den) for key, c in acc.items()} if den != big else acc
            scale = 1
            for e in range(top - 1, -1, -1):
                scale *= d
                got = parts.get(e)
                if got is None:
                    acc = sum_products({}, ((1, t.items(), acc.items()),))
                else:
                    num, den = got
                    c = scale * (big // den)
                    acc = sum_products({key: c * x for key, x in num.items()},
                                       ((1, t.items(), acc.items()),))
            return acc, scale * big

        den = lcm(*(c.denominator for c in self.terms.values()))  # cleared once, for every part
        out, d = sub(self.terms if den == 1 else {key: c.numerator * (den // c.denominator)
                                                  for key, c in self.terms.items()})
        den *= d
        if den == 1:
            out = {key: c for key, c in out.items() if c}
        else:
            out = {key: c // den if c % den == 0 else Fraction(c, den)
                   for key, c in out.items() if c}
        r = GradedPoly.zero(basis)
        r.terms = out
        return r

    def __repr__(self) -> str:
        from .render import poly_text

        return f"GradedPoly({poly_text(self, prime=0)!r}, basis={self.basis!r})"
