import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fglops.poly import (
    MAX_EXP,
    MAX_GENERATOR,
    UNIT_MONO,
    W,
    BasisMismatchError,
    GradedPoly,
    add_products,
    mono_exps,
    mono_from_exps,
    mono_pack,
    mono_sort_key,
    mono_weight,
    sum_products,
)
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
    assert P("v1").is_homogeneous(2, 1)
    assert not P("v1").is_homogeneous(2, 2)
    assert P("v2").is_homogeneous(2, 3)
    assert P("v2").is_homogeneous(3, 8)
    assert P("v1^6 + v2^2").is_homogeneous(2, 6)
    assert GradedPoly.zero().is_homogeneous(5, 17)  # zero: every weight
    assert not P("v1 + v2").is_homogeneous(2, 1)
    assert not P("v1 + v2").is_homogeneous(2, 3)


def test_homogeneity_under_arithmetic():
    a = P("v1^3 + 2*v2")  # weight 3 at p=2
    b = P("5*v2 - v1^3")
    assert (a + b).is_homogeneous(2, 3)
    assert (a - b).is_homogeneous(2, 3)
    assert (a * b).is_homogeneous(2, 6)


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
            out = out + GradedPoly({m1 + m2: c * c1 * c2}, a.basis)
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


def test_sum_products_scales_each_triple_and_leaves_cancellations_as_zeros():
    rng = random.Random(20261019)
    for _ in range(50):
        a, b, c = (rand_poly(rng, rationals=True) for _ in range(3))
        s, t = rng.choice([1, -2, Fraction(3, 5)]), rng.choice([0, 7, Fraction(-1, 2)])
        got = sum_products({}, ((s, a.terms.items(), b.terms.items()),
                                (t, b.terms.items(), c.terms.items())))
        assert GradedPoly(got, "v") == _products_by_pairs(a, b, s) + _products_by_pairs(b, c, t)
    a, b = P("v1 + 2*v2"), P("v1 - 3")
    got = sum_products({}, ((2, a.terms.items(), b.terms.items()),
                            (-1, a.terms.items(), b.scale(2).terms.items())))
    assert set(got) == set((a * b).terms) and not any(got.values())
    assert GradedPoly(got, "v") == 0


def _sum_products_by_the_general_path(tgt, triples):
    for c, items1, items2 in triples:
        for m1, c1 in items1:
            for m2, c2 in items2:
                tgt[m1 + m2] = tgt.get(m1 + m2, 0) + c1 * c * c2
    return tgt


def test_sum_products_with_a_unit_left_term_matches_the_general_path():
    # a left term whose scaled coefficient is 1 adds the right coefficients as they are
    rng = random.Random(20261020)
    for _ in range(60):
        a, b, tgt = (rand_poly(rng, rationals=True) for _ in range(3))
        units = {m: rng.choice([1, Fraction(1), 2, Fraction(-1, 2)]) for m in a.terms}
        units[1 << 15] = 1
        c = rng.choice([1, 0, Fraction(1, 2), -1, 2])
        triples = [(c, units.items(), b.terms.items()), (1, b.terms.items(), a.terms.items()),
                   (0, units.items(), a.terms.items())]
        want = _sum_products_by_the_general_path(dict(tgt.terms), triples)
        assert sum_products(dict(tgt.terms), triples) == want
    a = P("v1 + v2")
    got = sum_products(dict((-a * a).terms), ((1, a.terms.items(), a.terms.items()),))
    assert set(got) == set((a * a).terms) and not any(got.values())


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


def _rand_l_terms(rng, tails) -> list:
    """(exponent map, coefficient) pairs of a random l-polynomial, some rational.

    Each monomial is a random power of l_1 times one of the given tails.
    """
    out = []
    for _ in range(rng.randrange(1, 6)):
        exps = {1: rng.randrange(4), **rng.choice(tails)}
        c = rng.choice([1, -2, 3, Fraction(1, 3), Fraction(-5, 4), Fraction(7, 6)])
        out.append(({m: e for m, e in exps.items() if e}, c))
    return out


def _naive_substitute(l_terms, table) -> GradedPoly:
    """Each monomial expanded on its own in Fraction arithmetic, then summed."""
    out = GradedPoly.zero("v")
    for exps, c in l_terms:
        term = GradedPoly.const(c, "v")
        for m, e in exps.items():
            for _ in range(e):
                term = term * table[m]
        out = out + term
    return out


SUBSTITUTION_TABLES = [
    # l_1 one monomial, as in the generator table: its image moves each part, no product
    {1: P("1/2*v1"), 2: P("1/4*v1^3 + 1/2*v2"), 3: P("-2/9*v1*v2 + 5/3*v3 + 1"),
     4: P("1/3*v4 - v1*v3 + 1/8*v2^2"), 5: P("1/5*v5 + 3/4*v1^2*v4 - 1/6*v3")},
    # an image of several terms at l_1 still substitutes exactly
    {1: P("1/2*v1 - 1/3*v2"), 2: P("1/4*v1^3 + 1/2*v2"), 3: P("v3"),
     4: P("-1/7*v4 + v1"), 5: P("2*v5 - 1/9")},
]


def test_substitute_matches_naive_fraction_substitution():
    rng = random.Random(20261018)
    # tails with gaps, so some parts skip an exponent of l_h or a generator
    tails = [{}, {2: 1}, {2: 2, 3: 1}, {3: 1, 5: 2}, {2: 1, 4: 1, 5: 1}, {4: 3}]
    # as FglContext.to_v packs a series: a field below the monomial and one
    # above the last generator field pass through untouched
    low, gens, field = 6, 5, 37
    high = 3 << low + W * gens
    for table in SUBSTITUTION_TABLES:
        non_integral = 0
        for _ in range(60):
            l_terms = _rand_l_terms(rng, tails)
            poly = GradedPoly.zero("l")
            for exps, c in l_terms:
                poly = poly + GradedPoly({mono_from_exps(exps): c}, "l")
            want = _naive_substitute(l_terms, table)
            got = poly.substitute(table, "v")
            assert got == want
            assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())
            non_integral += not got.is_integral()
            packed = GradedPoly({high | m << low | field: c for m, c in poly.terms.items()}, "l")
            assert packed.substitute(table, "v", low, gens).terms == {
                high | m << low | field: c for m, c in want.terms.items()}
        assert non_integral > 10


@pytest.mark.parametrize("table", SUBSTITUTION_TABLES)
def test_substitute_edge_cases(table):
    assert GradedPoly.zero("l").substitute(table, "v") == GradedPoly.zero("v")
    assert GradedPoly.const(Fraction(-3, 4), "l").substitute(table, "v") == P("-3/4")
    assert GradedPoly.const(6, "l").substitute(table, "v").terms == {UNIT_MONO: 6}
    # only the generators present need an image; an absent one raises KeyError
    partial = {m: table[m] for m in (1, 3)}
    poly = parse_poly("l1^2*l3 - 1/2*l3^2", "l")
    assert poly.substitute(partial, "v") == _naive_substitute(
        [({1: 2, 3: 1}, 1), ({3: 2}, Fraction(-1, 2))], table)
    with pytest.raises(KeyError):
        (poly + parse_poly("l2", "l")).substitute(partial, "v")
    # a constant image of l_1: the terms it moves onto one monomial are summed
    assert parse_poly("l1^2 + 3*l1 + l1*l2", "l").substitute(
        {1: P("1/2"), 2: table[2]}, "v") == P("7/4") + table[2].scale(Fraction(1, 2))
    # the result is in the target basis, and cancelled terms are dropped
    assert (parse_poly("l1 - l1", "l").substitute(table, "v")).terms == {}
    assert parse_poly("l2", "l").substitute(table, "v").basis == "v"


def test_substitute_keeps_a_non_integral_result(ctx27):
    # exp has rational v-basis coefficients: the integral=False path of to_v
    got = ctx27.to_v(ctx27.exp)
    assert not got.is_integral()
    for e, c in ctx27.exp.coeffs.items():
        l_terms = [(dict(enumerate(mono_exps(m), 1)), a) for m, a in c.terms.items()]
        assert got.coefficient(*e) == _naive_substitute(l_terms, ctx27._ell_table)
    assert parse_poly("l1", "l").substitute({1: P("1/2*v1")}, "v") == P("1/2*v1")


def test_substitute_missing_generator_raises():
    with pytest.raises(KeyError):
        parse_poly("l1 + l2^2", "l").substitute({1: P("v1")}, "v")


def test_mono_pack_round_trip():
    for exps in [(), (3,), (0, 1), (4, 1), (0, 0, 2), (MAX_EXP,), (1, 0, MAX_EXP)]:
        mono = mono_pack(exps)
        assert mono_exps(mono) == exps
        assert mono_from_exps({m: e for m, e in enumerate(exps, 1)}) == mono
    assert mono_pack(()) == mono_from_exps({}) == UNIT_MONO == 0
    assert mono_pack((3, 0, 0)) == mono_from_exps({1: 3, 4: 0}) == mono_pack((3,))
    assert mono_exps(mono_pack((0, 2, 0, 0))) == (0, 2)


def test_exponent_outside_the_field_is_refused():
    for bad in (MAX_EXP + 1, -1):
        with pytest.raises(ValueError):
            mono_pack((0, bad))
        with pytest.raises(ValueError):
            mono_from_exps({2: bad})
        with pytest.raises(ValueError):
            GradedPoly.gen(1, exp=bad)


def _old_sort_key(exps: tuple, p: int, pad: int):
    """The order of the former tuple monomials: weight, then the reversed padded vector."""
    weight = sum(e * (p ** (i + 1) - 1) for i, e in enumerate(exps))
    return weight, tuple(exps[i] if i < len(exps) else 0 for i in range(pad - 1, -1, -1))


@given(st.lists(st.lists(st.integers(0, MAX_EXP // 2), max_size=5), min_size=1, max_size=8),
       st.sampled_from([2, 3, 5, 13]))
def test_mono_sort_key_matches_the_tuple_order(exps_list, p):
    monos = [mono_pack(e) for e in exps_list]
    pad = max(len(e) for e in exps_list)
    idx = range(len(monos))
    assert (sorted(idx, key=lambda i: mono_sort_key(monos[i], p))
            == sorted(idx, key=lambda i: _old_sort_key(tuple(exps_list[i]), p, pad)))
    for e, mono in zip(exps_list, monos):
        assert mono_weight(mono, p) == _old_sort_key(tuple(e), p, pad)[0]
    a, b = exps_list[0], exps_list[-1]
    total = [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    assert monos[0] + monos[-1] == mono_pack(total)  # packed addition adds exponents


def test_kill_generators_and_max_gen_index_on_packed_monomials():
    a = P("v1^3 + v2*v5 + 7*v4^2 + v1*v3")
    assert a.max_gen_index() == 5
    assert a.kill_generators([5]) == P("v1^3 + 7*v4^2 + v1*v3")
    assert a.kill_generators([2, 3]) == P("v1^3 + 7*v4^2")
    assert a.kill_generators([6]) == a
    full = P(f"v1^{MAX_EXP} + v1^{MAX_EXP}*v2")  # a full field spills into no other
    assert full.max_gen_index() == 2
    assert full.kill_generators([2]) == P(f"v1^{MAX_EXP}")
    assert full.kill_generators([1]) == 0
    assert P(f"v1^{MAX_EXP}").max_gen_index() == 1
    assert P("5").max_gen_index() == GradedPoly.zero().max_gen_index() == 0


def test_kill_generators_above_the_highest_generator_cost_no_memory():
    # a mask for v_(10^7) alone would be a 150-million-bit integer
    a = P("v1^3 + v2*v5")
    tracemalloc.start()
    try:
        got = a.kill_generators([10 ** 7, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == P("v1^3")
    assert peak < 100_000


def test_generator_beyond_the_largest_horizon_is_refused():
    assert mono_from_exps({MAX_GENERATOR: 1}) == mono_pack((0,) * (MAX_GENERATOR - 1) + (1,))
    for bad in (MAX_GENERATOR + 1, 10 ** 7, 0):
        with pytest.raises(ValueError):
            mono_from_exps({bad: 1})
    with pytest.raises(ValueError):
        parse_poly(f"v{MAX_GENERATOR + 1}")


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
