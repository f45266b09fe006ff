import random
from fractions import Fraction

import pytest

from fglops.poly import GradedPoly
from fglops.render import parse_series, series_from_json, series_text, series_to_json
from fglops.series import NonUnitError, OutsideValidityError, Series

from conftest import P, S, rand_series


def test_add_validity_min():
    a = S("xi", 2, "l", validity=8)
    b = S("l1*xi^2", 2, "l", validity=5)
    assert (a + b).validity == 5


def test_add_zero_keeps_validity():
    a = S("xi + l1*xi^2", 2, "l", validity=8)
    z = Series.zero(2, "l", 8)
    assert (a + z).validity == 8
    assert (a + z).coeffs == a.coeffs


def test_mul_validity_published_example():
    # validity 8 with valuation 1 times validity 6 with valuation 1 -> 7
    a0 = S("xi", 2, "v", validity=8)
    a2 = S("v1^2*xi", 2, "v", validity=6)
    assert (a0 * a2).validity == 7


def test_mul_validity_derived_example():
    a = S("xi + l1*xi^2", 2, "l", validity=5)
    b = S("xi", 2, "l", validity=9)
    got = a * b
    assert got.validity == 6
    assert got.coeffs == S("xi^2 + l1*xi^3", 2, "l", validity=6).coeffs


def test_mul_empty_series_valuation_is_validity():
    z = Series.zero(2, "v", 3)  # only known to vanish below degree 3
    a = S("1 + v1*xi", 2, "v", validity=10)
    assert (z * a).validity == min(3 + a.val(), 10 + 3) == 3


def _product_chain(terms) -> Series:
    """sum of c * A * B as separate products, scalings and additions."""
    acc = None
    for c, a, b in terms:
        t = (a * b).scale(c)
        acc = t if acc is None else acc + t
    return acc


def _weighted(s: Series, w) -> Series:
    s.weight = w
    return s


@pytest.mark.parametrize("seed", range(40))
def test_sum_of_products_matches_product_chain(seed):
    rng = random.Random(seed)
    weight = rng.randrange(-3, 4)
    terms = []
    for _ in range(rng.randrange(1, 5)):
        a, b = (rand_series(rng, validity=rng.randrange(1, 10), integral=rng.random() < 0.7)
                for _ in range(2))
        if rng.random() < 0.3:
            a = a.shift_xi(-rng.randrange(1, 3))  # Laurent operand
        wa = rng.randrange(-4, 5)
        c = rng.choice([1, -1, 3, Fraction(2, 3), 0])
        terms.append((c, _weighted(a, wa), _weighted(b, weight - wa)))
    if rng.random() < 0.3:
        c, a, b = terms[-1]
        terms.append((-c, a, b))  # cancels the last pair
    got = Series.sum_of_products(terms)
    want = _product_chain(terms)
    assert got == want
    assert (got.weight, got.laurent) == (want.weight, want.laurent)


def test_sum_of_products_cancelling_pairs_keep_validity():
    a = S("1 + v1*xi", 2, "v", validity=6)
    b = S("xi^2 + v2*xi^3", 2, "v", validity=5)
    got = Series.sum_of_products([(2, a, b), (-1, b, a), (-1, a, b)])
    assert got.coeffs == {}
    assert got.validity == (a * b).validity == 5


def test_sum_of_products_weight_and_laurent():
    a = S("xi + v1*xi^2", 2, "v", validity=6, weight=-1)
    b = S("1 + v1*xi", 2, "v", validity=6, weight=0)
    single = Series.sum_of_products([(1, a, b)])
    assert single == a * b and single.weight == -1 and not single.laurent
    assert Series.sum_of_products([(1, a, b), (1, a, a)]).weight is None
    assert Series.sum_of_products([(1, a, b), (1, b, Series.variable(2, "v", 6))]).weight == -1
    b.weight = None
    assert Series.sum_of_products([(1, a, b), (1, b, a)]).weight is None
    lau = Series.sum_of_products([(1, a, b), (1, a.shift_xi(-2), b)])
    assert lau.laurent and lau == a * b + a.shift_xi(-2) * b


def test_compose_identity():
    b = S("xi + l1*xi^3", 3, "l", validity=7)
    ident = Series.variable(3, "l", 9)
    assert ident.compose(b).coeffs == b.coeffs


def test_compose_derived_example():
    a = S("xi + l1*xi^2", 2, "l", validity=5)
    got = a.compose(a)
    want = S("xi + 2*l1*xi^2 + 2*l1^2*xi^3 + l1^3*xi^4", 2, "l", validity=5)
    assert got.agrees_with(want)
    assert got.validity == 5


def test_compose_rejects_constant_term():
    a = S("xi", 2, "l", validity=5)
    b = S("1 + xi", 2, "l", validity=5)
    with pytest.raises(ValueError):
        a.compose(b)


def test_reciprocal_trivial():
    one = Series.from_const(1, 2, "v", 6)
    assert one.reciprocal().coeffs == one.coeffs


def test_reciprocal_geometric():
    a = S("1 - xi", 2, "v", validity=5)
    r = a.reciprocal()
    assert r.coeffs == S("1 + xi + xi^2 + xi^3 + xi^4", 2, "v", validity=5).coeffs


def test_reciprocal_cubed_published_example():
    # (1 + b_1 z + b_2 z^2)^-3 = 1 - 3 b_1 z + (-3 b_2 + 6 b_1^2) z^2 + O(z^3)
    a = S("1 + v1*xi + v2*xi^2", 2, "v", validity=3)
    inv = a.reciprocal()
    cubed = inv * inv * inv
    want = S("1 - 3*v1*xi + (6*v1^2 - 3*v2)*xi^2", 2, "v", validity=3)
    assert cubed.agrees_with(want)


def test_reciprocal_randomized_inverse_property():
    rng = random.Random(99)
    for _ in range(25):
        a = rand_series(rng, validity=7, unit_constant=True)
        r = a.reciprocal()
        prod = a * r
        one = Series.from_const(1, 2, "v", prod.validity)
        assert prod.agrees_with(one)


def test_reciprocal_requires_unit():
    with pytest.raises(NonUnitError):
        S("v1 + xi", 2, "v", validity=4).reciprocal()
    with pytest.raises(NonUnitError):
        Series.zero(2, "v", 4).reciprocal()


def test_coefficient_access():
    a = S("xi + l1*xi^2", 2, "l", validity=5)
    assert a.coefficient(2) == GradedPoly.gen(1, "l")
    assert a.coefficient(3) == 0
    with pytest.raises(OutsideValidityError):
        a.coefficient(5)


def test_validity_soundness_under_retruncation():
    rng = random.Random(4)
    for _ in range(25):
        a_hi = rand_series(rng, validity=12, terms=6)
        b_hi = rand_series(rng, validity=12, terms=6)
        a_lo = a_hi.truncate(7)
        b_lo = b_hi.truncate(9)
        hi = a_hi * b_hi
        lo = a_lo * b_lo
        assert hi.agrees_with(lo)
        assert (a_hi + b_hi).agrees_with(a_lo + b_lo)


def test_shift_and_rows():
    a = S("2*xi + v1*xi^2", 2, "v", validity=6, weight=0)
    down = a.shift_xi(-1)
    assert down.validity == 5
    assert down.coefficient(0) == P("2")
    assert down.weight == 1
    b = a.shift_x(1)
    assert b.validity == 7
    assert b.x_row(1).coeffs == a.coeffs


def test_weight_scan():
    good = S("2 - v1*xi + 2*v1^2*xi^2", 2, "v", validity=3, weight=0)
    good.assert_weight()
    bad = S("2 - v2*xi", 2, "v", validity=3, weight=0)
    with pytest.raises(AssertionError):
        bad.assert_weight()


def test_text_and_json_roundtrip():
    rng = random.Random(11)
    for _ in range(25):
        a = rand_series(rng, validity=9, terms=6, integral=False)
        assert series_from_json(series_to_json(a)).coeffs == a.coeffs
        parsed = parse_series(series_text(a), 2, "v")
        assert parsed.coeffs == a.coeffs
        assert parsed.validity == a.validity
