import random
from fractions import Fraction

import pytest

from fglops.poly import BasisMismatchError, GradedPoly, add_products, mono_from_exps, mono_mul
from fglops.render import parse_poly, poly_from_obj, poly_text, poly_to_obj

from conftest import P, rand_poly


def test_add_trivial():
    v1 = GradedPoly.gen(1, "v")
    assert v1 + v1 == P("2*v1")


def test_mul_trivial():
    two_l1 = GradedPoly.gen(1, "l").scale(2)
    assert two_l1 * two_l1 == parse_poly("4*l1^2", "l")


def test_mul_derived():
    assert P("v1^3 + 2*v2") * P("v1") == P("v1^4 + 2*v1*v2")


def test_basis_mismatch():
    with pytest.raises(BasisMismatchError):
        GradedPoly.gen(1, "v") + GradedPoly.gen(1, "l")
    with pytest.raises(BasisMismatchError):
        GradedPoly.gen(1, "v") * GradedPoly.gen(1, "l")


def test_no_zero_terms_stored():
    a = P("3*v1^2 + v2")
    b = P("3*v1^2")
    assert (a - b).terms == P("v2").terms
    assert not (a - a).terms
    assert GradedPoly({mono_from_exps({1: 2}): 0}) == 0


def test_coefficients_normalized_to_int():
    half = GradedPoly.const(Fraction(1, 2))
    assert type((half + half).constant_term()) is int


def test_weights():
    assert P("v1").weight(2) == 1
    assert P("v2").weight(2) == 3
    assert P("v2").weight(3) == 8
    assert P("v1^6 + v2^2").weight(2) == 6
    assert GradedPoly.zero().weight(5) is None  # zero: every weight
    assert GradedPoly.zero().is_homogeneous(5, 17)
    with pytest.raises(ValueError):
        P("v1 + v2").weight(2)


def test_homogeneity_under_arithmetic():
    a = P("v1^3 + 2*v2")  # weight 3 at p=2
    b = P("5*v2 - v1^3")
    assert (a + b).is_homogeneous(2, 3)
    assert (a - b).is_homogeneous(2, 3)
    assert (a * b).is_homogeneous(2, 6)


def test_divmod_int_floor_semantics():
    q, r = P("-879*v1^6").divmod_int(2)
    assert q == P("-440*v1^6")
    assert r == P("v1^6")
    q, r = P("6 + 9*v1").divmod_int(2)
    assert q == P("3 + 4*v1")
    assert r == P("v1")
    with pytest.raises(ValueError):
        GradedPoly.const(Fraction(1, 2)).divmod_int(2)


def test_exactness_randomized():
    rng = random.Random(20260810)
    for _ in range(100):
        a = rand_poly(rng, rationals=True)
        b = rand_poly(rng, rationals=True)
        c = rand_poly(rng, rationals=True)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def _products_by_pairs(a, b, c) -> GradedPoly:
    """c * a * b summed one monomial pair at a time, with no shared loop."""
    out = GradedPoly.zero(a.basis)
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            out = out + GradedPoly({mono_mul(m1, m2): c * c1 * c2}, a.basis)
    return out


def test_add_products_accumulates_scaled_product():
    rng = random.Random(20261018)
    for _ in range(100):
        tgt, a, b = (rand_poly(rng, rationals=True) for _ in range(3))
        c = rng.choice([1, -1, 5, Fraction(-3, 4)])
        terms = dict(tgt.terms)
        assert add_products(terms, a.terms, b.terms, c) is terms
        assert GradedPoly(terms, "v") == tgt + _products_by_pairs(a, b, c)


def test_add_products_removes_cancelled_terms():
    rng = random.Random(7)
    for _ in range(20):
        a, b = rand_poly(rng, rationals=True), rand_poly(rng, rationals=True)
        terms = dict((a * b).terms)
        add_products(terms, a.terms, b.terms, -1)
        assert terms == {}


def test_add_products_zero_scalar_leaves_target_unchanged():
    a = P("v1 + 2*v2")
    b = P("v1 - 3")
    for tgt in (P("0"), P("v1^2 + 5"), -(a * b)):
        terms = dict(tgt.terms)
        add_products(terms, a.terms, b.terms, 0)
        assert terms == tgt.terms


def test_pow():
    a = P("v1 + v2")
    assert a ** 0 == P("1")
    assert a ** 3 == a * a * a


def test_substitute():
    table = {1: P("1/2*v1"), 2: P("1/4*v1^3 + 1/2*v2")}
    got = parse_poly("2*l1", "l").substitute(table, "v")
    assert got == P("v1")
    got = parse_poly("4*l2", "l").substitute(table, "v")
    assert got == P("v1^3 + 2*v2")


def test_kill_generators():
    a = P("300*v1^6 + 502*v1^3*v2 + 112*v2^2")
    assert a.kill_generators([2]) == P("300*v1^6")
    assert a.kill_generators([1, 2]) == 0
    assert a.kill_generators([]) == a


def test_canonical_term_order_matches_published_layout():
    text = ("-4292816*v1^13 - 16254540*v1^10*v2 - 21110372*v1^7*v2^2 "
            "- 10071369*v1^4*v2^3 - 1022466*v1*v2^4 - 1864478*v1^6*v3 "
            "- 2193009*v1^3*v2*v3 - 212440*v2^2*v3")
    assert poly_text(P(text), 2) == text


def test_serialization_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        a = rand_poly(rng, rationals=True)
        assert poly_from_obj(poly_to_obj(a, 2), "v") == a
        assert parse_poly(poly_text(a, 2)) == a
