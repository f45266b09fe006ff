"""Division with remainder by the reduced p-series and canonical forms.

For integral univariate g and the reduced p-series  pser = p + xi(...)  in
the v-basis, there are unique d and s with

    g = d * pser + s

where every integer coefficient of every polynomial of s lies in
{0, ..., p-1}.  The iteration runs degree by degree: at xi^m, floor-divide
the current coefficient polynomial by p, keep the remainder digit, and
subtract q * xi^m * pser, which only disturbs strictly higher degrees.  The
running coefficients are term dicts, and the subtraction adds -q * [xi^j] pser
into the one at xi^(m+j) in place, one pass of the monomial loop
(poly.sum_products) per j; a term it cancels stays as a zero until its
degree is read or the remainder is built.  The remainder's validity is
min(V_g, m0 + V_pser) where m0 is the first degree that needed a
subtraction.

divide returns d and s as two v-basis Series, and canonical_rep returns s
alone, the canonical representative of g.  A canonical representative is
nonzero iff it is nonzero modulo p, so its lowest nonzero coefficient
certifies nonvanishing in the quotient (nonvanishing_certificate, which
reads a Series with no terms as zero); a zero representative is
inconclusive beyond the validity order.
"""

from __future__ import annotations

from .poly import GradedPoly, sum_products
from .series import Series


class NonIntegralError(ValueError):
    """Division input must have integer coefficients in the v-basis."""


def _check_division_inputs(g: Series, pser: Series):
    if g.prime != pser.prime:
        raise ValueError("prime mismatch")
    if g.basis != "v" or pser.basis != "v":
        raise ValueError("division runs in the v-basis")
    if not g.is_univariate() or not pser.is_univariate():
        raise ValueError("division requires univariate power series")
    if not g.is_integral():
        raise NonIntegralError("dividend has non-integer coefficients")
    if pser.constant_term() != g.prime:
        raise ValueError("divisor is not a reduced p-series (constant term != p)")
    if not pser.is_integral():
        raise NonIntegralError("divisor has non-integer coefficients")


def divide(g: Series, pser: Series, on_step=None):
    """Return (d, s) with g = d*pser + s and s in canonical form.

    on_step, if given, is called as on_step(m, q, snapshot) after each degree
    m whose quotient digit q was nonzero; snapshot is the running series with
    all digits below m already reduced.
    """
    _check_division_inputs(g, pser)
    p = g.prime
    higher = [(j, c.terms.items()) for (j, _z), c in sorted(pser.coeffs.items()) if j > 0]
    work = {j: dict(c.terms) for (j, _z), c in g.coeffs.items()}  # degree -> terms, zeros kept
    d: dict = {}
    validity = g.validity
    m = 0
    while m < validity:
        c = work.pop(m, None)
        if c:
            q, r = {}, {}
            for mono, x in c.items():
                qq, rr = divmod(x, p)
                if qq:
                    q[mono] = qq
                if rr:
                    r[mono] = rr
            if r:
                work[m] = r
            if q:
                d[(m, 0)] = GradedPoly(q, "v")
                validity = min(validity, m + pser.validity)
                q_items = q.items()
                for j, p_j_items in higher:
                    t = m + j
                    if t >= validity:
                        break
                    sum_products(work.setdefault(t, {}), ((-1, q_items, p_j_items),))
                if on_step is not None:
                    on_step(m, d[(m, 0)], _series(work, p, validity))
        m += 1
    return Series(p, "v", d, validity), _series(work, p, validity)


def _series(work: dict, p: int, validity: int) -> Series:
    """The running terms as a Series, zeros dropped."""
    return Series(p, "v", {(j, 0): GradedPoly(t, "v") for j, t in work.items()}, validity)


def canonical_rep(g: Series, pser: Series) -> Series:
    """The remainder s of divide(g, pser): g's canonical representative."""
    return divide(g, pser)[1]


def nonvanishing_certificate(s: Series):
    """Lowest nonzero coefficient (exponent, polynomial) of a canonical s, or None if zero.

    None is inconclusive: the class may still be nonzero beyond the validity.
    """
    if not s.coeffs:
        return None
    j = min(e[0] for e in s.coeffs)
    return j, s.coeffs[(j, 0)]


def divisible_by_full_p_series(g: Series, pser: Series) -> bool:
    """Whether g lies in ([p]xi) = (xi * pser) within validity.

    Two stages: the xi-valuation must be >= 1, and the xi-quotient must
    reduce to zero modulo pser.
    """
    if g.coeffs and g.val() < 1:
        return False
    if g.validity < 1:
        return True
    return not canonical_rep(g.shift_xi(-1), pser).coeffs
