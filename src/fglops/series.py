"""Truncated power series over GradedPoly coefficients, with validity tracking.

A Series stores a map (j_xi, j_x) -> GradedPoly for the coefficient of
xi^j_xi * x^j_x, together with

  validity V : the series is asserted correct modulo (xi, x)^V; every stored
               exponent pair satisfies j_xi + j_x < V,
  prime, basis : the ambient prime and generator basis.

Homogeneity is not stored: assert_weight(w) checks it against a stated weight w.

Validity propagates through arithmetic:

  add/sub:  min(V_A, V_B)
  mul:      min(V_A + val(B), V_B + val(A))      val = lowest total degree
  sum of products  sum_i c_i A_i B_i  (one pass, one degree cutoff):
            min over i of min(V_Ai + val(B_i), V_Bi + val(A_i)),
            a pair with c_i = 0 included
  compose:  min(V_B + (val(A) - 1) val(B), V_A val(B))

where the valuation of a series with no stored terms is its validity (a zero
series is only known to vanish below its validity).  Series are power
series: no stored exponent is negative, and the constructor refuses one.

Every Series product is a sum of products and every sum of products one
PackedSeries.sum_of_products, one pass of the monomial loop
(poly.sum_products) over lists of packed int keys, so that adding two keys
multiplies two terms; product_validity is the rule above, and a pair is
formed only below it.  Where every operand is valid as far as the product's
order, the rule gives that order, and the power operation calls the loop
itself and cuts by hand (powerop.py).

Series whose coefficients are dense along one variable are multiplied by
the one dense loop instead, convolve: a truncated convolution of two int
lists into a third, in place, the one dense loop of the power operation's
Euler loop, Miller's recurrence and the closed form at n = 2(p-1).  The
Euler loop holds its series so in X (powerop.py); the recurrence and the
closed form (obstruction.py) hold every operand as a ColumnSeries, dense
in v_1: {(m', c): column}, m' a monomial with its v_1 field cleared and
column[e] the coefficient of v_1^e m' xi^((p-1)e + c); multiplying by v_1
moves each column up one entry, to c - (p-1).  Every generator weight
p^m - 1 is a multiple of p - 1, so a homogeneous series has one column per
m'; one that is not only has more keys.  A product of two columns lands at (m'_A + m'_B, c_A + c_B),
cut below the product's validity v, at length ceil((v - c_A - c_B)/(p-1)):
the same rule and the same pairs as a Series product, with no key hashed
per pair.  A column of A enters from its first nonzero entry
(ColumnSeries.runs) and a zero of B's column is skipped, so the zeros
below a column's valuation meet nothing.

A PackedSeries is a series packed once, each term
keyed x << S | mono << W | degree, degree = j_xi + j_x.  The product caps V
at an optional order, cuts each run of A at degree d against B's terms below
V - d, and requires V <= 2^W, so that no degree field of a pair carries; each
caller bounds V to choose W.  Each cut reads the degrees that from_coeffs and
from_series record, never an operand's key, so an operand term at or above V
may overflow its field harmlessly: it meets no term.  S - W is poly.W bits
per generator up to the highest in any operand; no exponent field carries
(poly.py), so no sum of operand monomials reaches 2^(S - W).  A univariate
series, x = 0, is keyed mono << W | degree and needs no S.

Series.sum_of_products packs each distinct operand once; a product's degree
lies in 0 .. V - 1, and W is the bit length of V.  No fixed W would do: V
reaches 781 in the raw MC_24 at p = 13, k = 504.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from .poly import W as EXP_BITS
from .poly import MAX_EXP, BasisMismatchError, GradedPoly, UNIT_MONO, _norm_coef, sum_products


class OutsideValidityError(ValueError):
    """Requested a coefficient at or beyond the series' validity order."""


class NonUnitError(ValueError):
    """Reciprocal of a series whose lowest coefficient is not invertible."""


class Series:
    __slots__ = ("prime", "basis", "coeffs", "validity")

    def __init__(self, prime: int, basis: str, coeffs: dict, validity: int):
        self.prime = prime
        self.basis = basis
        self.validity = validity
        self.coeffs = {
            e: c for e, c in coeffs.items()
            if c and e[0] + e[1] < validity
        }
        if any(e[0] < 0 or e[1] < 0 for e in self.coeffs):
            j, jx = min(self.coeffs, key=min)
            raise ValueError(f"negative exponent at xi^{j}*x^{jx}: a Series is a power series")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, prime: int, basis: str, validity: int) -> "Series":
        return cls(prime, basis, {}, validity)

    @classmethod
    def variable(cls, prime: int, basis: str, validity: int, var: str = "xi") -> "Series":
        e = (1, 0) if var == "xi" else (0, 1)
        return cls(prime, basis, {e: GradedPoly.const(1, basis)}, validity)

    @classmethod
    def from_const(cls, c, prime: int, basis: str, validity: int) -> "Series":
        return cls(prime, basis, {(0, 0): GradedPoly.const(c, basis)}, validity)

    # -- structure ---------------------------------------------------------

    def val(self) -> int:
        """(xi, x)-adic valuation of the stored part; validity if none stored."""
        if not self.coeffs:
            return self.validity
        return min(e[0] + e[1] for e in self.coeffs)

    def is_univariate(self) -> bool:
        return all(e[1] == 0 for e in self.coeffs)

    def coefficient(self, j_xi: int, j_x: int = 0) -> GradedPoly:
        if j_xi + j_x >= self.validity:
            raise OutsideValidityError(
                f"coefficient at ({j_xi},{j_x}) requested but series is only valid mod degree {self.validity}"
            )
        return self.coeffs.get((j_xi, j_x), GradedPoly.zero(self.basis))

    def constant_term(self):
        return self.coefficient(0, 0).constant_term()

    def truncate(self, order: int) -> "Series":
        return Series(self.prime, self.basis,
                      {e: c for e, c in self.coeffs.items() if e[0] + e[1] < order},
                      min(self.validity, order))

    def shift_xi(self, d: int) -> "Series":
        """Multiply by xi^d; a negative d must leave every stored exponent >= 0."""
        coeffs = {(j + d, jx): c for (j, jx), c in self.coeffs.items()}
        return Series(self.prime, self.basis, coeffs, self.validity + d)

    def shift_x(self, d: int) -> "Series":
        """Multiply by x^d; a negative d must leave every stored exponent >= 0."""
        coeffs = {(j, jx + d): c for (j, jx), c in self.coeffs.items()}
        return Series(self.prime, self.basis, coeffs, self.validity + d)

    def map_polys(self, fn, basis: str | None = None) -> "Series":
        out = {}
        for e, c in self.coeffs.items():
            q = fn(c)
            if q:
                out[e] = q
        return Series(self.prime, basis or self.basis, out, self.validity)

    def kill_generators(self, indices) -> "Series":
        return self.map_polys(lambda c: c.kill_generators(indices))

    def is_integral(self) -> bool:
        return all(c.is_integral() for c in self.coeffs.values())

    def assert_weight(self, w: int):
        """Homogeneity scan: the coefficient at (j, jx) has weight w + j + jx (xi, x weigh -1)."""
        for (j, jx), c in self.coeffs.items():
            if not c.is_homogeneous(self.prime, w + j + jx):
                raise AssertionError(
                    f"coefficient at ({j},{jx}) is not homogeneous of weight {w + j + jx}"
                )

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (self.prime == other.prime and self.basis == other.basis
                and self.validity == other.validity and self.coeffs == other.coeffs)

    def agrees_with(self, other: "Series", through: int | None = None) -> bool:
        """Equality of all coefficients below min validity (or below `through`)."""
        lim = min(self.validity, other.validity)
        if through is not None:
            lim = min(lim, through)
        for e in set(self.coeffs) | set(other.coeffs):
            if e[0] + e[1] >= lim:
                continue
            if self.coeffs.get(e, _ZERO.get(self.basis)) != other.coeffs.get(e, _ZERO.get(self.basis)):
                return False
        return True

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Series"):
        if self.prime != other.prime:
            raise ValueError(f"prime mismatch {self.prime} vs {other.prime}")
        if self.basis != other.basis:
            raise BasisMismatchError(f"cannot mix bases {self.basis!r} and {other.basis!r}")

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        v = min(self.validity, other.validity)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return Series(self.prime, self.basis, out, v)

    def __sub__(self, other: "Series") -> "Series":
        return self + -other

    def __neg__(self) -> "Series":
        return self.map_polys(lambda c: -c)

    def __mul__(self, other: "Series") -> "Series":
        return Series.sum_of_products([(1, self, other)])

    @staticmethod
    def sum_of_products(terms) -> "Series":
        """sum of c * A * B over (c, A, B) triples, with one degree cutoff.

        One PackedSeries.sum_of_products call over the operands, each packed
        once (module docstring).  The scalars c are ints or Fractions.
        Validity follows the module docstring.
        """
        terms = list(terms)
        first = terms[0][1]
        for _c, a, b in terms:
            first._check(a)
            a._check(b)
        v = product_validity(terms)
        operands = {id(s): s for _c, a, b in terms for s in (a, b)}
        width = max(v, 1).bit_length()
        shift = _x_shift(width, max((max(c.terms) for s in operands.values()
                                     for c in s.coeffs.values()), default=0))
        packed = {i: PackedSeries.from_series(s, width, shift) for i, s in operands.items()}
        acc = PackedSeries.sum_of_products((c, packed[id(a)], packed[id(b)]) for c, a, b in terms)
        basis = first.basis
        coeffs = {e: GradedPoly(t, basis) for e, t in acc.split_bivariate(shift).items()}
        return Series(first.prime, basis, coeffs, v)

    def scale(self, c) -> "Series":
        if not c:
            return Series.zero(self.prime, self.basis, self.validity)
        return self.map_polys(lambda q: q.scale(c))

    def scale_poly(self, poly: GradedPoly) -> "Series":
        """Multiply every coefficient by a fixed polynomial."""
        if self.basis != poly.basis:
            raise BasisMismatchError(f"cannot mix bases {self.basis!r} and {poly.basis!r}")
        if not poly:
            return Series.zero(self.prime, self.basis, self.validity)
        out = {}
        for e, c in self.coeffs.items():
            q = c * poly
            if q:
                out[e] = q
        return Series(self.prime, self.basis, out, self.validity)

    def __pow__(self, n: int) -> "Series":
        if n < 0:
            raise ValueError("negative series power; use reciprocal")
        if n == 0:
            return Series.from_const(1, self.prime, self.basis, self.validity)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    # -- composition and reciprocal ---------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """self(inner) for univariate self; inner must have zero constant term."""
        if not self.is_univariate():
            raise ValueError("outer series of a composition must be univariate")
        if inner.validity > 0 and inner.coeffs.get((0, 0)):
            raise ValueError("inner series must have zero constant term")
        self._check(inner)

        terms = sorted(
            ((j, c) for (j, _z), c in self.coeffs.items() if j > 0),
            reverse=True,
        )
        const = self.coeffs.get((0, 0))
        dB = inner.val()
        vA = min((j for j, _c in terms), default=self.validity)
        v = min(inner.validity + (vA - 1) * dB, self.validity * dB)

        if not terms:
            out = Series.zero(self.prime, self.basis, v)
        else:
            pow_cache: dict = {}

            def inner_pow(e: int) -> "Series":
                pw = pow_cache.get(e)
                if pw is None:
                    pw = inner ** e
                    pow_cache[e] = pw
                return pw

            # Horner over the nonzero outer exponents, highest first
            acc = None
            prev_exp = None
            for j, c in terms:
                cpoly = Series(self.prime, self.basis, {(0, 0): c}, v - j * dB)
                if acc is None:
                    acc = cpoly
                else:
                    acc = (acc * inner_pow(prev_exp - j)).truncate(v - j * dB) + cpoly
                prev_exp = j
            out = (acc * inner_pow(prev_exp)).truncate(v)

        if const:
            out = out + Series(self.prime, self.basis, {(0, 0): const}, v)
        return out

    def reciprocal(self) -> "Series":
        """Multiplicative inverse of a unit: its coefficient at xi^0 is a nonzero constant."""
        if not self.is_univariate():
            raise ValueError("reciprocal implemented for univariate series only")
        lead = self.coeffs.get((0, 0))
        if lead is None or set(lead.terms) != {UNIT_MONO}:
            raise NonUnitError("constant term is not a nonzero constant")
        inv0 = Fraction(1) / Fraction(lead.constant_term())
        out = {(0, 0): GradedPoly.const(_norm_coef(inv0), self.basis)}
        src = self.coeffs
        neg = _norm_coef(-inv0)
        for j in range(1, self.validity):
            acc = GradedPoly(sum_products({}, (
                (neg, ui.terms.items(), rj.terms.items()) for i in range(1, j + 1)
                if (ui := src.get((i, 0))) is not None and (rj := out.get((j - i, 0))) is not None
            )), self.basis)
            if acc:
                out[(j, 0)] = acc
        return Series(self.prime, self.basis, out, self.validity)

    def __repr__(self) -> str:
        from .render import series_text

        return f"Series({series_text(self)!r}, p={self.prime}, basis={self.basis!r})"


def pack_terms(terms: dict, shift: int, field: int) -> list:
    """A coefficient's terms as (mono << shift | field, coefficient) items."""
    return [(mono << shift | field, x) for mono, x in terms.items()]


def product_validity(triples, order: int | None = None) -> int:
    """The validity of sum c A B over (c, A, B) triples, at most order (module docstring)."""
    rule = [min(a.validity + b.val(), b.validity + a.val()) for _c, a, b in triples]
    return min(rule if order is None else rule + [order])


class PackedSeries:
    """A series as one packed term list, keyed x << S | mono << W | degree (module docstring).

    terms are (key, coefficient) items, nonzero, each degree below validity.
    A product's terms stay in its dict's order until a read that needs
    degree order sorts them.
    """

    __slots__ = ("terms", "degrees", "validity", "width", "_groups")

    def __init__(self, terms, validity: int, width: int, degrees: list | None = None,
                 groups: list | None = None):
        self.terms = terms
        self.degrees = degrees  # None until sorted
        self.validity = validity
        self.width = width
        self._groups = groups

    @classmethod
    def from_coeffs(cls, coeffs: dict, validity: int, width: int) -> "PackedSeries":
        """{degree: {mono: coefficient}} packed, in degree order."""
        terms, degrees, groups = [], [], []
        for d in sorted(coeffs):
            t = pack_terms(coeffs[d], width, d)
            groups.append((d, t))
            terms += t
            degrees += [d] * len(t)
        return cls(terms, validity, width, degrees, groups)

    @classmethod
    def from_terms(cls, items, validity: int, width: int) -> "PackedSeries":
        """Packed (key, coefficient) items, such as a kernel accumulator's, with the zeros dropped."""
        return cls(list(filter(itemgetter(1), items)), validity, width)

    @classmethod
    def from_series(cls, s: Series, width: int, shift: int = 0) -> "PackedSeries":
        """s with x = j_x at shift and degree j_xi + j_x."""
        coeffs: dict = {}
        for (j, m), c in s.coeffs.items():
            x = m << shift >> width  # above the monomial once packed at width
            t = {x | mono: v for mono, v in c.terms.items()} if x else c.terms
            d = j + m
            coeffs[d] = {**coeffs[d], **t} if d in coeffs else t
        return cls.from_coeffs(coeffs, s.validity, width)

    @staticmethod
    def x_shift(width: int, operands) -> int:
        """S for products of univariate operands keyed mono << width | degree (module docstring)."""
        top = max((max(map(itemgetter(0), o.terms), default=0) for o in operands), default=0)
        return _x_shift(width, top >> width)

    def _sort(self):
        low = (1 << self.width) - 1
        self.terms = sorted(self.terms, key=lambda kx: kx[0] & low)
        self.degrees = [key & low for key, _x in self.terms]

    def val(self) -> int:
        if self.degrees is None:
            self._sort()
        return self.degrees[0] if self.degrees else self.validity

    def below(self, v: int) -> list:
        """The terms of degree < v; all of them, as they stand, if v reaches the validity."""
        if v >= self.validity:
            return self.terms
        if self.degrees is None:
            self._sort()
        return self.terms[:bisect_left(self.degrees, v)]

    def in_x(self, below: int, shift: int) -> "PackedSeries":
        """sum of [xi^d] self x^d over d < below, keyed with x-field shift, at this validity.

        A product's part at x^s, s < below, is as exact as its validity says;
        the terms at x^below and above are left out, not zero.
        """
        if self.degrees is None:
            self._sort()
        degrees = self.degrees[:bisect_left(self.degrees, below)]
        return PackedSeries([(d << shift | key, x) for d, (key, x) in zip(degrees, self.terms)],
                            self.validity, self.width, degrees)

    def groups(self) -> list:
        """The runs (degree, terms of that degree), found on the first call."""
        if self._groups is None:  # an operand meets many right-hand series
            if self.degrees is None:
                self._sort()
            self._groups = [(d, [kx for _d, kx in run])
                            for d, run in groupby(zip(self.degrees, self.terms), key=itemgetter(0))]
        return self._groups

    def split_bivariate(self, shift: int) -> dict:
        """{(j_xi, j_x): terms} from x = j_x at shift and degree = j_xi + j_x."""
        width = self.width
        low, monos = (1 << width) - 1, (1 << shift - width) - 1
        out: dict = {}
        for key, c in self.terms:
            x = key >> shift
            got = out.get(e := ((key & low) - x, x))
            if got is None:
                out[e] = {key >> width & monos: c}
            else:
                got[key >> width & monos] = c
        return out

    @staticmethod
    def sum_of_products(triples, order: int | None = None, acc: dict | None = None) -> "PackedSeries":
        """sum of c A B over (c, A, B) triples of PackedSeries, cut as the module docstring says.

        Given acc, a dict of packed terms below the cut, the products are
        summed into it in place and its terms join no pair; acc needs at
        least one triple, which gives the width.
        """
        triples = list(triples)
        # degrees are >= 0, so a pair whose validities both reach the order cannot lower it
        rated = triples if order is None else [t for t in triples
                                               if t[1].validity < order or t[2].validity < order]
        v = product_validity(rated, order)
        if not triples:
            return PackedSeries([], v, 0, [])
        width = triples[0][1].width
        if v > 1 << width:
            raise OverflowError(f"validity {v} does not fit a degree field of {width} bits")
        acc = sum_products({} if acc is None else acc,
                           ((c, left, b.below(v - d))
                            for c, a, b in triples if c for d, left in a.groups() if d < v))
        terms = acc.items() if all(acc.values()) else list(filter(itemgetter(1), acc.items()))
        return PackedSeries(terms, v, width)


def convolve(out: list, c, b: list, col: list, lo: int = 0) -> list:
    """out += c X^lo (sum_a b[a] X^a)(sum_e col[e] X^e) below X^len(out), in place.

    The one dense product loop (module docstring); col has at most
    len(out) - lo entries.  A zero of col meets no b[a], so where b has no
    zero, each multiply is a pair of nonzero entries.
    """
    length = len(out)
    for e, x in enumerate(col, lo):
        if x:
            if c != 1:
                x *= c
            for a, y in enumerate(b[:length - e], e):
                out[a] += x * y
    return out


class ColumnSeries:
    """A univariate v-basis series as dense v_1-columns (module docstring).

    columns maps (m', c) to a column, column[e] the coefficient of
    v_1^e m' xi^((p-1)e + c); no column is empty or ends in a zero.
    validity and val() are a Series', so product_validity reads them.
    """

    __slots__ = ("columns", "validity", "prime", "_runs", "_val")

    def __init__(self, columns: dict, validity: int, prime: int):
        self.columns = columns
        self.validity = validity
        self.prime = prime
        self._runs = None
        self._val = None

    @classmethod
    def from_series(cls, s: Series) -> "ColumnSeries":
        """The columns of a univariate v-basis Series."""
        q, columns = s.prime - 1, {}
        for (j, _z), poly in s.coeffs.items():
            for mono, x in poly.terms.items():
                e = mono & MAX_EXP
                col = columns.get(key := (mono - e, j - q * e))
                if col is None:
                    col = columns[key] = []
                if len(col) <= e:
                    col += [0] * (e + 1 - len(col))
                col[e] = x
        return cls(columns, s.validity, s.prime)

    def series(self) -> Series:
        """The Series these columns hold, at their validity."""
        q, coeffs = self.prime - 1, {}
        for (m, c), col in self.columns.items():
            for e, x in enumerate(col):
                if x:
                    got = coeffs.get(j := q * e + c)
                    if got is None:
                        coeffs[j] = {m + e: x}
                    else:
                        got[m + e] = x
        return Series(self.prime, "v", {(j, 0): GradedPoly(t, "v") for j, t in coeffs.items()},
                      self.validity)

    def runs(self) -> list:
        """(m', c, lo, column[lo:]) per column, lo its first nonzero index; found on the first call."""
        if self._runs is None:  # an operand meets many others
            self._runs = []
            for (m, c), col in self.columns.items():
                lo = next(e for e, x in enumerate(col) if x)
                self._runs.append((m, c, lo, col[lo:]))
        return self._runs

    def val(self) -> int:
        """The least xi-degree of a nonzero entry; validity if none."""
        if self._val is None:
            q = self.prime - 1
            self._val = min((q * lo + c for _m, c, lo, _run in self.runs()), default=self.validity)
        return self._val

    @staticmethod
    def sum_of_products(triples) -> "ColumnSeries":
        """sum of c A B over (c, A, B) triples, each pair of columns one convolve below product_validity."""
        triples = list(triples)
        v = product_validity(triples)
        prime = triples[0][1].prime
        q, acc = prime - 1, {}
        for c, a, b in triples:
            if c:
                a_runs = a.runs()
                for (mb, cb), col in b.columns.items():
                    top = v - cb + q - 1
                    for ma, ca, lo, run in a_runs:
                        length = (top - ca) // q  # ceil((v - ca - cb) / q)
                        if length > lo:
                            out = acc.get(key := (ma + mb, ca + cb))
                            if out is None:
                                out = acc[key] = [0] * length
                            convolve(out, c, run, col[:length - lo], lo)
        columns = {}
        for key, col in acc.items():
            while col and not col[-1]:
                col.pop()
            if col:
                columns[key] = col
        return ColumnSeries(columns, v, prime)


def split_packed(items, shift: int) -> dict:
    """{field: {mono: coefficient}} from (mono << shift | field, coefficient) items, zeros dropped."""
    fields = (1 << shift) - 1
    out: dict = {}
    for key, x in items:
        if x:
            got = out.get(f := key & fields)
            if got is None:
                out[f] = {key >> shift: x}
            else:
                got[key >> shift] = x
    return out


def _x_shift(width: int, top_mono: int) -> int:
    """S: width plus poly.W bits per generator up to the highest in top_mono (module docstring)."""
    return width + EXP_BITS * -(-top_mono.bit_length() // EXP_BITS)


_ZERO = {"v": GradedPoly.zero("v"), "l": GradedPoly.zero("l")}
