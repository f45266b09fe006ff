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
together record, never an operand's key, so an operand term at or above V
may overflow its field harmlessly: it meets no term.  S is fixed when a
series is packed: W plus poly.W bits per generator up to the highest in it
(from_coeffs), or in any of the series packed together (together), so one
product's operands share it; no exponent field carries (poly.py), so no sum
of operand monomials reaches 2^(S - W).  A univariate series, x = 0, is
keyed mono << W | degree, and its S only bounds its monomials.

Each layout has one owner.  PackedSeries owns the packed keys: with_terms,
in_x and a product carry W and S to what they build, and decode reads a
series back as {(j_xi, j_x): terms}, so the context's Horner pass
(fgl.py), FglContext.to_v, the power operation's rows (powerop.py) and
Series.sum_of_products neither compute S nor pass it.  ColumnSeries owns
the keys (m', c): from_series, constant and series() convert, and times_v1
multiplies by v_1, so Miller's recurrence and the closed form
(obstruction.py) build no key.  The Euler loop's X-columns are plain lists
per l-monomial, held by powerop.py alone.

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
        once, with one x offset (PackedSeries.together).  The scalars c are
        ints or Fractions.  Validity follows the module docstring.
        """
        terms = list(terms)
        first = terms[0][1]
        for _c, a, b in terms:
            first._check(a)
            a._check(b)
        v = product_validity(terms)
        operands = {id(s): s for _c, a, b in terms for s in (a, b)}
        packed = dict(zip(operands, PackedSeries.together(operands.values(), max(v, 1).bit_length())))
        acc = PackedSeries.sum_of_products((c, packed[id(a)], packed[id(b)]) for c, a, b in terms)
        basis = first.basis
        coeffs = {e: GradedPoly(t, basis) for e, t in acc.decode().items()}
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
    """A series as one packed term list, keyed x << shift | mono << width | degree (module docstring).

    terms are (key, coefficient) items, nonzero, each degree below validity.
    shift, S, the offset of the x field, is fixed when a series is packed
    (from_coeffs, together); with_terms, in_x and a product carry it, and
    decode reads it.  A product's terms stay in its dict's order until a
    read that needs degree order sorts them.
    """

    __slots__ = ("terms", "degrees", "validity", "width", "shift", "_groups")

    def __init__(self, terms, validity: int, width: int, shift: int, degrees: list | None = None,
                 groups: list | None = None):
        self.terms = terms
        self.degrees = degrees  # None until sorted
        self.validity = validity
        self.width = width
        self.shift = shift
        self._groups = groups

    @classmethod
    def from_coeffs(cls, coeffs: dict, validity: int, width: int) -> "PackedSeries":
        """{degree: {mono: coefficient}} packed, in degree order, S from its highest generator."""
        top = max((max(t) for t in coeffs.values() if t), default=0)
        return cls._grouped(coeffs, validity, width, cls._offset(width, top))

    @classmethod
    def _grouped(cls, coeffs: dict, validity: int, width: int, shift: int) -> "PackedSeries":
        terms, degrees, groups = [], [], []
        for d in sorted(coeffs):
            t = pack_terms(coeffs[d], width, d)
            groups.append((d, t))
            terms += t
            degrees += [d] * len(t)
        return cls(terms, validity, width, shift, degrees, groups)

    @classmethod
    def together(cls, series, width: int) -> list:
        """The series packed, x = j_x at one S from their highest generator and degree j_xi + j_x."""
        top = max((max(c.terms) for s in series for c in s.coeffs.values()), default=0)
        shift, out = cls._offset(width, top), []
        for s in series:
            coeffs: dict = {}
            for (j, m), c in s.coeffs.items():
                x = m << shift >> width  # above the monomial once packed at width
                t = {x | mono: v for mono, v in c.terms.items()} if x else c.terms
                d = j + m
                coeffs[d] = {**coeffs[d], **t} if d in coeffs else t
            out.append(cls._grouped(coeffs, s.validity, width, shift))
        return out

    @classmethod
    def from_series(cls, s: Series, width: int) -> "PackedSeries":
        """s packed alone (together)."""
        return cls.together((s,), width)[0]

    @staticmethod
    def _offset(width: int, top: int) -> int:
        """S: width plus poly.W bits per generator up to the highest in the monomial top."""
        return width + EXP_BITS * -(-top.bit_length() // EXP_BITS)

    def with_terms(self, items, validity: int) -> "PackedSeries":
        """Packed (key, coefficient) items in this W and S, such as an accumulator's, zeros dropped."""
        return PackedSeries(list(filter(itemgetter(1), items)), validity, self.width, self.shift)

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

    def in_x(self, below: int) -> "PackedSeries":
        """sum of [xi^d] self x^d over d < below, its x field at this series' shift and validity.

        A product's part at x^s, s < below, is as exact as its validity says;
        the terms at x^below and above are left out, not zero.
        """
        if self.degrees is None:
            self._sort()
        degrees = self.degrees[:bisect_left(self.degrees, below)]
        return PackedSeries([(d << self.shift | key, x) for d, (key, x) in zip(degrees, self.terms)],
                            self.validity, self.width, self.shift, degrees)

    def groups(self) -> list:
        """The runs (degree, terms of that degree), found on the first call."""
        if self._groups is None:  # an operand meets many right-hand series
            if self.degrees is None:
                self._sort()
            self._groups = [(d, [kx for _d, kx in run])
                            for d, run in groupby(zip(self.degrees, self.terms), key=itemgetter(0))]
        return self._groups

    def decode(self) -> dict:
        """{(j_xi, j_x): {mono: coefficient}}, from x = j_x at shift and degree = j_xi + j_x."""
        width, shift = self.width, self.shift
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

        The result takes the width of the first operand and the largest
        shift of any: the one shift of operands packed together (together,
        in_x), and one that every monomial fits where none has an x term.
        Given acc, a dict of packed terms below the cut, the products are
        summed into it in place and its terms join no pair; acc needs at
        least one triple, which gives the layout.
        """
        triples = list(triples)
        # degrees are >= 0, so a pair whose validities both reach the order cannot lower it
        rated = triples if order is None else [t for t in triples
                                               if t[1].validity < order or t[2].validity < order]
        v = product_validity(rated, order)
        if not triples:
            return PackedSeries([], v, 0, 0, [])
        width = triples[0][1].width
        if v > 1 << width:
            raise OverflowError(f"validity {v} does not fit a degree field of {width} bits")
        acc = sum_products({} if acc is None else acc,
                           ((c, left, b.below(v - d))
                            for c, a, b in triples if c for d, left in a.groups() if d < v))
        terms = acc.items() if all(acc.values()) else list(filter(itemgetter(1), acc.items()))
        return PackedSeries(terms, v, width, max(s.shift for t in triples for s in t[1:]))


def convolve(out: list, c, b: list, col: list, lo: int = 0) -> list:
    """out += c X^lo (sum_a b[a] X^a)(sum_e col[e] X^e) below X^len(out), in place.

    The one dense product loop (module docstring); col has at most
    len(out) - lo entries.  A zero of col meets no b[a], so where b has no
    zero, each multiply is a pair of nonzero entries.  Both indices are plain
    ints stepped by hand: unpacking enumerate's tuples costs more per pair.
    """
    length = len(out)
    e = lo
    for x in col:
        if x:
            if c != 1:
                x *= c
            a = e
            for y in b[:length - e]:
                out[a] += x * y
                a += 1
        e += 1
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

    @classmethod
    def constant(cls, poly: GradedPoly, validity: int, prime: int) -> "ColumnSeries":
        """The constant series poly as columns: v_1^e m' on the column (m', -(p-1)e), entry e."""
        q = prime - 1
        return cls({(mono - (e := mono & MAX_EXP), -q * e): [0] * e + [x]
                    for mono, x in poly.terms.items()}, validity, prime)

    def times_v1(self) -> "ColumnSeries":
        """v_1 times these columns: each moves up one entry, to c - (p-1), at this validity."""
        q = self.prime - 1
        return ColumnSeries({(m, c - q): [0] + col for (m, c), col in self.columns.items()},
                            self.validity, self.prime)

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


_ZERO = {"v": GradedPoly.zero("v"), "l": GradedPoly.zero("l")}
