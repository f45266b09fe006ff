"""Exact sparse polynomials in the graded generators v_1, v_2, ... (or l_1, l_2, ...).

A monomial is a tuple of exponents, entry m-1 holding the exponent of the
m-th generator, with no trailing zeros.  The unit monomial is ().  Examples:

    v_1^3       -> (3,)
    v_2         -> (0, 1)
    v_1^4 * v_2 -> (4, 1)

A GradedPoly maps monomials to nonzero coefficients (int, or Fraction when a
denominator is genuinely present) and carries a basis tag: "v" for the
integral generators, "l" for the rational logarithm generators.  Arithmetic
is exact; mixing bases raises BasisMismatchError.

The grading assigns generator m the weight p^m - 1 for the ambient prime p,
so weights depend on p and are supplied at the call sites that need them.
"""

from __future__ import annotations

from fractions import Fraction

Mono = tuple  # exponent tuple, no trailing zeros; coefficients are int | Fraction

UNIT_MONO: Mono = ()
_UNIT_TERMS = {UNIT_MONO: 1}


class BasisMismatchError(ValueError):
    """Raised when polynomials or series over different bases are combined."""


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    nb = len(b)
    return tuple(a[i] + b[i] if i < nb else a[i] for i in range(len(a)))


def mono_weight(mono: Mono, p: int) -> int:
    w = 0
    q = 1
    for e in mono:
        q *= p
        if e:
            w += e * (q - 1)
    return w


def mono_from_exps(exps: dict) -> Mono:
    """Build a monomial from a {generator index: exponent} map (1-based)."""
    if not exps:
        return UNIT_MONO
    top = max(exps)
    out = [0] * top
    for m, e in exps.items():
        if m < 1 or e < 0:
            raise ValueError(f"bad generator/exponent pair {m}:{e}")
        if e:
            out[m - 1] = e
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _norm_coef(c):
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def add_products(tgt: dict, t1: dict, t2: dict, c=1) -> dict:
    """tgt += c * t1 * t2 on term dicts, in place; cancelled terms are removed.

    This is the one monomial product loop: every product of polynomials and
    series ends here.  Coefficients are left unnormalized (a Fraction may have
    denominator 1); GradedPoly(tgt, basis) normalizes them.
    """
    if not c:  # the del below relies on a nonzero product
        return tgt
    if c != 1:
        t1 = {m1: c1 * c for m1, c1 in t1.items()}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = mono_mul(m1, m2)
            s = tgt.get(m, 0) + c1 * c2
            if s:
                tgt[m] = s
            else:
                del tgt[m]
    return tgt


def mono_sort_key(mono: Mono, p: int, pad: int):
    # graded first, then lexicographic on the reversed exponent vector; this
    # puts pure v_1 powers first and higher generators later within a weight
    rev = tuple(mono[i] if i < len(mono) else 0 for i in range(pad - 1, -1, -1))
    return (mono_weight(mono, p), rev)


class GradedPoly:
    """Sparse exact polynomial over int/Fraction coefficients with a basis tag."""

    __slots__ = ("terms", "basis")

    def __init__(self, terms: dict | None = None, basis: str = "v"):
        if basis not in ("v", "l"):
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        if terms:
            self.terms = {m: c for m, c in ((m, _norm_coef(c)) for m, c in terms.items()) if c}
        else:
            self.terms = {}

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

    def is_homogeneous(self, p: int, weight: int | None = None) -> bool:
        """Zero is homogeneous of every weight."""
        ws = {mono_weight(m, p) for m in self.terms}
        if not ws:
            return True
        if len(ws) > 1:
            return False
        return weight is None or ws == {weight}

    def weight(self, p: int) -> int | None:
        """Common weight of all monomials; None for the zero polynomial."""
        ws = {mono_weight(m, p) for m in self.terms}
        if not ws:
            return None
        if len(ws) > 1:
            raise ValueError(f"polynomial is not homogeneous: weights {sorted(ws)}")
        return ws.pop()

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
        return GradedPoly(add_products({}, self.terms, other.terms), self.basis)

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
        pad = max((len(m) for m in self.terms), default=0)
        return sorted(self.terms.items(), key=lambda kv: mono_sort_key(kv[0], p, pad))

    def max_gen_index(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def kill_generators(self, indices) -> "GradedPoly":
        """Drop every monomial with a positive exponent on any listed generator."""
        kill = set(indices)
        r = GradedPoly.zero(self.basis)
        r.terms = {
            m: c
            for m, c in self.terms.items()
            if not any(m[i - 1] for i in kill if i <= len(m))
        }
        return r

    def substitute(self, table: dict, basis: str, _powcache: dict | None = None) -> "GradedPoly":
        """Replace generator m by table[m] (a GradedPoly in `basis`) in every monomial."""
        out: dict = {}
        cache = _powcache if _powcache is not None else {}
        for mono, c in self.terms.items():
            acc = _UNIT_TERMS
            for i, e in enumerate(mono):
                if not e:
                    continue
                m = i + 1
                if m not in table:
                    raise KeyError(f"no substitution for generator {m}")
                key = (m, e)
                pw = cache.get(key)
                if pw is None:
                    pw = table[m] ** e
                    cache[key] = pw
                acc = pw.terms if acc is _UNIT_TERMS else add_products({}, acc, pw.terms)
            add_products(out, _UNIT_TERMS, acc, c)
        return GradedPoly(out, basis)

    def divmod_int(self, p: int) -> tuple:
        """Coefficient-wise floor divmod by p; remainders land in {0, ..., p-1}.

        Requires integer coefficients.
        """
        q = GradedPoly.zero(self.basis)
        r = GradedPoly.zero(self.basis)
        for m, c in self.terms.items():
            if type(c) is not int:
                raise ValueError(f"non-integer coefficient {c} in divmod_int")
            qq, rr = divmod(c, p)
            if qq:
                q.terms[m] = qq
            if rr:
                r.terms[m] = rr
        return q, r

    def __repr__(self) -> str:
        from .render import poly_text

        return f"GradedPoly({poly_text(self, prime=0)!r}, basis={self.basis!r})"
