import json
import random
import re
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

import fglops.series
from fglops.poly import GradedPoly, mono_exps, mono_pack, sum_products
from fglops.render import (parse_series, series_from_json, series_from_obj, series_text,
                           series_to_json, series_to_obj, to_json)
from fglops.series import (NonUnitError, OutsideValidityError, PackedSeries, Series, convolve,
                           split_packed)

from conftest import Counted, P, S, rand_poly, rand_series


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


@pytest.mark.parametrize("seed", range(40))
def test_sum_of_products_matches_product_chain(seed):
    rng = random.Random(seed)
    terms = []
    for _ in range(rng.randrange(1, 5)):
        a, b = (rand_series(rng, validity=rng.randrange(1, 10), integral=rng.random() < 0.7)
                for _ in range(2))
        if rng.random() < 0.3:
            a = a.shift_x(rng.randrange(1, 3))  # a bivariate operand
        c = rng.choice([1, -1, 3, Fraction(2, 3), 0])
        terms.append((c, a, b))
    if rng.random() < 0.3:
        c, a, b = terms[-1]
        terms.append((-c, a, b))  # cancels the last pair
    got = Series.sum_of_products(terms)
    want = _product_chain(terms)
    assert got == want


def _naive_sum_of_products(terms) -> Series:
    """sum of c * A * B term by term, from the exponent tuples of every monomial pair."""
    def val(s):
        return min((j + jx for j, jx in s.coeffs), default=s.validity)

    v = min(min(a.validity + val(b), b.validity + val(a)) for _c, a, b in terms)
    acc = {}
    for c, a, b in terms:
        for (j1, x1), p1 in a.coeffs.items():
            for (j2, x2), p2 in b.coeffs.items():
                if j1 + x1 + j2 + x2 >= v:
                    continue
                for m1, c1 in p1.terms.items():
                    for m2, c2 in p2.terms.items():
                        exps = [e1 + e2 for e1, e2 in
                                zip_longest(mono_exps(m1), mono_exps(m2), fillvalue=0)]
                        key = (j1 + j2, x1 + x2, mono_pack(exps))
                        acc[key] = acc.get(key, 0) + c * c1 * c2
    coeffs = {}
    for (j, jx, m), coef in acc.items():
        if coef:
            coeffs.setdefault((j, jx), {})[m] = coef
    basis = terms[0][1].basis
    return Series(terms[0][1].prime, basis,
                  {e: GradedPoly(t, basis) for e, t in coeffs.items()}, v)


def _rand_bivariate(rng: random.Random) -> Series:
    validity = rng.randrange(1, 9)
    coeffs = {}
    for _ in range(rng.randrange(6)):
        jx = rng.randrange(validity)
        poly = rand_poly(rng, rationals=rng.random() < 0.3)
        if poly:
            coeffs[(rng.randrange(validity - jx), jx)] = poly
    s = Series(2, "v", coeffs, validity)
    return s.shift_xi(rng.randrange(1, 3)) if rng.random() < 0.25 else s


@pytest.mark.parametrize("seed", range(60))
def test_sum_of_products_matches_naive_reference(seed):
    # operands recur across triples with different scalars, as in the power recurrence
    rng = random.Random(seed)
    pool = [_rand_bivariate(rng) for _ in range(4)]
    terms = [(rng.choice([1, -1, 5, Fraction(2, 3), Fraction(-1, 4), 0]),
              rng.choice(pool), rng.choice(pool))
             for _ in range(rng.randrange(1, 6))]
    if rng.random() < 0.3:
        c, a, b = terms[-1]
        terms.append((-c, b, a))  # cancels the last pair
    assert Series.sum_of_products(terms) == _naive_sum_of_products(terms)


def test_sum_of_products_reference_edge_cases():
    a = S("xi + v2*xi^2 + v1*xi^3", 2, "v", validity=6)
    b = Series(2, "v", {(0, 1): P("1"), (3, 1): P("2")}, 6)  # x + 2*xi^3*x
    assert min(a.validity + b.val(), b.validity + a.val()) == 7
    got = Series.sum_of_products([(1, a, b)])
    assert got == _naive_sum_of_products([(1, a, b)])
    assert got.coeffs[(5, 1)] == P("2*v2")  # degree 6, just below the cutoff
    assert (6, 1) not in got.coeffs  # degree 7, at the cutoff
    low = a.shift_xi(-1)  # down to its valuation: a constant term
    for terms in ([(0, a, b)],
                  [(Fraction(3, 2), a, b), (Fraction(-3, 2), b, a)],
                  [(Fraction(-1, 3), low, b), (4, b, b), (1, a, low)]):
        assert Series.sum_of_products(terms) == _naive_sum_of_products(terms)
    assert Series.sum_of_products([(0, a, b)]).coeffs == {}
    assert Series.sum_of_products([(2, a, b), (-2, b, a)]).coeffs == {}

    # bivariate, an empty operand
    biv = low.shift_x(2) + b
    for terms in ([(1, biv, biv)],
                  [(5, biv, b), (-1, b, low), (0, biv, a)],
                  [(1, a, b.shift_xi(7)), (1, Series.zero(2, "v", 3), a)]):
        assert Series.sum_of_products(terms) == _naive_sum_of_products(terms)

    # output validity far above any truncation the context accepts, and
    # exponents far beyond 2^16, which a fixed 16-bit field would carry out of
    for shift in (700, 1 << 16, 1 << 17):
        big = a.shift_xi(shift) + b.shift_x(shift - 3)
        up = big.shift_xi(5)
        for terms in ([(1, big, big)],
                      [(3, big, up), (-1, up, up), (Fraction(1, 2), up, big)]):
            got = Series.sum_of_products(terms)
            assert got.validity > 2 * shift - 10
            assert got == _naive_sum_of_products(terms)
            assert got.coeffs


@pytest.mark.parametrize("seed", range(40))
def test_sum_of_products_hands_the_kernel_only_pairs_below_the_validity(monkeypatch, seed):
    # Series() drops every coefficient at or above validity, so a cutoff that
    # lets the pairs at degree v through changes no output, only this count
    rng = random.Random(seed)
    pool = [_rand_bivariate(rng) for _ in range(4)]
    terms = [(rng.choice([1, -1, 5, Fraction(2, 3), 0]), rng.choice(pool), rng.choice(pool))
             for _ in range(rng.randrange(1, 6))]
    handed = []

    def counting(tgt, triples):
        triples = list(triples)
        handed.extend(len(t1) * len(t2) for _c, t1, t2 in triples)
        return sum_products(tgt, triples)

    monkeypatch.setattr(fglops.series, "sum_products", counting)
    v = Series.sum_of_products(terms).validity
    want = sum(len(p1.terms) * len(p2.terms)
               for c, a, b in terms if c
               for (j1, x1), p1 in a.coeffs.items()
               for (j2, x2), p2 in b.coeffs.items() if j1 + x1 + j2 + x2 < v)
    assert sum(handed) == want


@pytest.mark.parametrize("seed", range(20))
def test_sum_of_products_is_one_packed_product(monkeypatch, seed):
    # 1 to 4 triples, bivariate operands, recurring: one packed product over all
    rng = random.Random(seed)
    pool = [_rand_bivariate(rng) for _ in range(3)]
    terms = [(rng.choice([1, -1, Fraction(2, 3), 0]), rng.choice(pool), rng.choice(pool))
             for _ in range(rng.randrange(1, 5))]
    handed = []
    product = PackedSeries.sum_of_products

    def counting(triples, order=None):
        triples = list(triples)
        handed.append(len(triples))
        return product(triples, order)

    monkeypatch.setattr(PackedSeries, "sum_of_products", staticmethod(counting))
    got = Series.sum_of_products(terms)
    monkeypatch.undo()
    assert handed == [len(terms)]
    assert got == _naive_sum_of_products(terms)


def _rand_univariate(rng: random.Random) -> Series:
    validity = rng.randrange(1, 12)
    coeffs = {}
    for _ in range(rng.randrange(5)):  # zero draws leave an empty operand
        poly = rand_poly(rng, rationals=rng.random() < 0.3)
        if poly:
            coeffs[(rng.randrange(validity), 0)] = poly
    return Series(2, "v", coeffs, validity)


@pytest.mark.parametrize("seed", range(40))
def test_packed_sum_of_products_matches_the_series_product(monkeypatch, seed):
    # the coefficients and validity of the naive reference, truncated to the
    # order, with the kernel handed exactly the pairs below that validity
    rng = random.Random(seed)
    pool = [_rand_univariate(rng) for _ in range(4)]
    terms = [(rng.choice([1, -1, 5, Fraction(2, 3), 0]), rng.choice(pool), rng.choice(pool))
             for _ in range(rng.randrange(1, 6))]
    order = rng.choice([None, rng.randrange(1, 24)])
    packed = {id(s): PackedSeries.from_series(s, 5) for s in pool}  # every validity <= 22 < 2^5
    handed = []

    def counting(tgt, triples):
        triples = list(triples)
        handed.extend(len(t1) * len(t2) for _c, t1, t2 in triples)
        return sum_products(tgt, triples)

    monkeypatch.setattr(fglops.series, "sum_products", counting)
    got = PackedSeries.sum_of_products([(c, packed[id(a)], packed[id(b)]) for c, a, b in terms], order)
    monkeypatch.undo()
    want = _naive_sum_of_products(terms)
    if order is not None:
        want = want.truncate(order)
    assert got.validity == want.validity
    assert {(d, 0): GradedPoly(t, "v")
            for d, t in split_packed(got.terms, 5).items()} == want.coeffs
    assert sum(handed) == sum(len(p1.terms) * len(p2.terms) for c, a, b in terms if c
                              for (d1, _z), p1 in a.coeffs.items()
                              for (d2, _z2), p2 in b.coeffs.items() if d1 + d2 < got.validity)


def test_packed_sum_of_products_refuses_a_validity_its_degree_field_cannot_hold():
    # degree 8 would carry out of a 3-bit field into the monomial
    a = PackedSeries.from_series(S("1 + v1*xi^7", 2, "v", validity=9), 3)
    with pytest.raises(OverflowError, match="validity 9 does not fit a degree field of 3 bits"):
        PackedSeries.sum_of_products(((1, a, a),))
    got = PackedSeries.sum_of_products(((1, a, a),), 8)
    assert got.validity == 8
    assert split_packed(got.terms, 3) == {0: {0: 1}, 7: {mono_pack({1: 1}): 2}}


def test_packed_product_drops_cancelled_terms_before_any_read():
    # a b - a a = (v2 - v1) xi + (v1 v2 - v1^2) xi^2: the constant cancels, and
    # a whole read of the unsorted product must not hand it on to a kernel
    a = PackedSeries.from_series(S("1 + v1*xi", 2, "v", validity=4), 3)
    b = PackedSeries.from_series(S("1 + v2*xi", 2, "v", validity=4), 3)
    diff = PackedSeries.sum_of_products(((1, a, b), (-1, a, a)))
    whole = diff.below(diff.validity)
    assert diff.degrees is None  # nothing has sorted it yet
    assert len(whole) == 4 and all(x for _key, x in whole)


def test_sum_of_products_cancelling_pairs_keep_validity():
    a = S("1 + v1*xi", 2, "v", validity=6)
    b = S("xi^2 + v2*xi^3", 2, "v", validity=5)
    got = Series.sum_of_products([(2, a, b), (-1, b, a), (-1, a, b)])
    assert got.coeffs == {}
    assert got.validity == (a * b).validity == 5


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
    a = S("2*xi + v1*xi^2", 2, "v", validity=6)
    down = a.shift_xi(-1)
    assert down.validity == 5
    assert down.coefficient(0) == P("2")
    b = a.shift_x(1)
    assert b.validity == 7
    assert b.coeffs == {(j, 1): c for (j, _z), c in a.coeffs.items()}


def test_weight_scan():
    good = S("2 - v1*xi + 2*v1^2*xi^2", 2, "v", validity=3)
    good.assert_weight(0)
    with pytest.raises(AssertionError, match="not homogeneous of weight -1"):
        good.assert_weight(-1)
    bad = S("2 - v2*xi", 2, "v", validity=3)
    with pytest.raises(AssertionError):
        bad.assert_weight(0)


def test_text_and_json_roundtrip():
    rng = random.Random(11)
    for _ in range(25):
        a = rand_series(rng, validity=9, terms=6, integral=False)
        assert series_from_json(series_to_json(a)).coeffs == a.coeffs
        parsed = parse_series(series_text(a), 2, "v")
        assert parsed.coeffs == a.coeffs
        assert parsed.validity == a.validity


def test_a_negative_exponent_is_refused():
    for coeffs in ({(-1, 0): P("1")}, {(1, -2): P("3"), (0, 0): P("v1")}):
        with pytest.raises(ValueError, match="negative exponent"):
            Series(2, "v", coeffs, 4)
    a = S("xi^2 + v1*xi^3", 2, "v", validity=6)
    down = a.shift_xi(-2)  # down to the valuation, no further
    assert down == S("1 + v1*xi + O(xi)^4", 2)
    for shift in (lambda: a.shift_xi(-3), lambda: a.shift_x(-1), lambda: a.shift_x(1).shift_x(-2)):
        with pytest.raises(ValueError, match="negative exponent"):
            shift()
    # a series with no stored term shifts down freely; it only loses validity
    assert Series.zero(2, "v", 3).shift_xi(-5).validity == -2


def test_parse_series_applies_every_factor_of_a_term():
    # the factors after a parenthesised polynomial multiply it too
    assert (parse_series("(1 + v1)*3*xi + O(xi)^3", 2, "v")
            == parse_series("(3 + 3*v1)*xi + O(xi)^3", 2, "v"))
    assert (parse_series("(1 + v1)*v2*xi - 2*(v1 - 1)*xi^2 + O(xi)^3", 2, "v").coeffs
            == {(1, 0): P("v2 + v1*v2"), (2, 0): P("2 - 2*v1")})


@pytest.mark.parametrize("text,basis,match", [
    ("1 + l1*xi + O(xi)^3", "v", "does not match basis"),
    ("1 + v1*xi + O(xi)^3", "l", "does not match basis"),
    ("(1 + l1)*xi + O(xi)^3", "v", "does not match basis"),
    ("1/0*xi + O(xi)^3", "v", 'coefficient "1/0"'),
    ("xi^-1 + O(xi)^3", "v", "cannot parse factor 'xi\\^-1'"),
    ("1 + v1*x^-2 + O(xi,x)^3", "v", "cannot parse factor 'x\\^-2'"),
])
def test_parse_series_refuses_malformed_text(text, basis, match):
    with pytest.raises(ValueError, match=match):
        parse_series(text, 2, basis)


@pytest.mark.parametrize("text,term", [
    ("v1*xi^5 + O(xi)^3", "v1*xi^5"),
    ("1 - 2*xi^3 + O(xi)^3", "2*xi^3"),  # at the marker: the order is exclusive
    ("xi + (v1 + v2)*xi^4 + O(xi)^4", "(v1 + v2)*xi^4"),
    ("xi + 3*xi*x^2 + O(xi,x)^3", "3*xi*x^2"),
])
def test_parse_series_refuses_a_term_beyond_its_own_marker(text, term):
    with pytest.raises(ValueError, match=re.escape(repr(term))):
        parse_series(text, 2, "v")
    with pytest.raises(ValueError, match="O-marker"):  # a supplied validity does not hide it
        parse_series(text, 2, "v", validity=2)


def test_parse_series_truncates_at_a_supplied_validity():
    assert parse_series("1 + v1*xi^5", 2, "v", validity=3) == Series.from_const(1, 2, "v", 3)
    got = parse_series("1 + v1*xi + xi^2 + O(xi)^5", 2, "v", validity=2)
    assert got.validity == 2 and got.coeffs == {(0, 0): P("1"), (1, 0): P("v1")}
    assert S("xi + v1*xi^4", 2, validity=3) == S("xi + O(xi)^3", 2)


_WIRE_SERIES = "2 - v1*xi + 1/2*v1^3*xi^3"


@pytest.mark.parametrize("edit,field", [
    (lambda o: o.update(prime=True), "prime"),
    (lambda o: o.update(validity=True), "validity"),
    (lambda o: o.update(validity=5.0), "validity"),
    (lambda o: o["terms"][1].update(xi=True), "xi exponent"),
    (lambda o: o["terms"][1].update(x=False), "x exponent"),
    (lambda o: o["terms"][1]["poly"][0]["exps"].update({"1": True}), "exponent of generator 1"),
    (lambda o: o["terms"][1]["poly"][0]["exps"].update({"1": "1"}), "exponent of generator 1"),
    (lambda o: o["terms"][2]["poly"][0].update(coef="1/0"), "coefficient"),
    (lambda o: o["terms"][2]["poly"][0].update(coef=3), "coefficient"),
    (lambda o: o.update(validity=3), r"xi\^3\*x\^0 lies at or beyond validity 3"),
    (lambda o: o["terms"][1].update(xi=0), r"two terms at xi\^0"),
    (lambda o: o.update(basis="w"), "basis"),
    (lambda o: o["terms"][1].update(xi=-1), "xi exponent is -1, not a nonnegative integer"),
    (lambda o: o["terms"][1].update(x=-1), "x exponent is -1, not a nonnegative integer"),
    (lambda o: o["terms"][1]["poly"][0]["exps"].update({"1": -1}),
     "exponent of generator 1 is -1, not a nonnegative integer"),
])
def test_series_from_obj_refuses_a_malformed_field(edit, field):
    good = S(_WIRE_SERIES, 2, "v", validity=5)
    obj = series_to_obj(good)
    assert series_from_obj(obj) == good
    edit(obj)
    with pytest.raises(ValueError, match=field):
        series_from_obj(obj)


# every shape the CLI prints: empty exps {}, null, true/false, negative and
# big ints, empty lists, non-ASCII and escaped strings
_JSON_SHAPES = [
    {}, [], None, True, False, 0, -7, 3 ** 200, -(10 ** 80), "", "é\n\"\\", [[]], [{}],
    {"raw": None, "certificate": None, "obstruction_index": True,
     "sparseness_shortcut": False, "n": -4, "terms": []},
    {"a": [{"prime": 2, "terms": [{"xi": 0, "x": 1,
                                    "poly": [{"coef": "-1/2", "exps": {}},
                                             {"coef": "6", "exps": {"1": 3, "12": 1}}]}]}]},
]


@pytest.mark.parametrize("obj", _JSON_SHAPES, ids=range(len(_JSON_SHAPES)))
def test_to_json_matches_json_dumps(obj):
    assert to_json(obj) == json.dumps(obj, indent=2)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_to_json_property(obj):
    assert to_json(obj) == json.dumps(obj, indent=2)


# every shape a series takes on the wire: none stored, a negative coefficient at
# xi^0, x terms, Fraction and big coefficients, generator 12, a unit monomial
_WIRE_SHAPES = [
    Series.zero(3, "l", 4),
    S("-2 - v1*xi + 1/3*v2*xi^3 + O(xi)^5", 2),
    S("x + (1 + v1)*xi*x - 7/2*v1^2*xi^3*x^2 + O(xi,x)^9", 5),
    Series(2, "v", {(0, 0): GradedPoly.const(3 ** 200), (1, 0): GradedPoly.gen(12, exp=2),
                    (4, 1): P(f"-{3 ** 200}*v1*v12")}, 7),
]


def test_to_json_matches_json_dumps_on_a_series():
    rng = random.Random(5)
    shapes = _WIRE_SHAPES + [rand_series(rng, validity=9, terms=6, integral=False)
                             for _ in range(10)]
    for a in shapes:
        assert series_to_json(a) == json.dumps(series_to_obj(a), indent=2)
        assert series_to_json(a, 40) == json.dumps(series_to_obj(a, 40), indent=2)
    # a series nested in the objects the CLI prints is written at its depth
    nested = {"a": shapes[:3], "reduced": shapes[2], "raw": None, "pair": [[shapes[1]], {}]}
    want = {"a": [series_to_obj(a, 11) for a in shapes[:3]],
            "reduced": series_to_obj(shapes[2], 11), "raw": None,
            "pair": [[series_to_obj(shapes[1], 11)], {}]}
    assert to_json(nested, 11) == json.dumps(want, indent=2)


def test_to_json_refuses_other_types():
    for obj in (1.5, (1, 2), {1: 2}):
        with pytest.raises(TypeError):
            to_json(obj)


@st.composite
def _convolve_cases(draw):
    """(out, c, b, col, lo): zeros inside col, any lo, and col often len(out) - lo long."""
    length = draw(st.integers(1, 12))
    lo = draw(st.integers(0, length))
    entries = st.one_of(st.just(0), st.integers(-10 ** 20, 10 ** 20))
    size = length - lo if draw(st.booleans()) else draw(st.integers(0, length - lo))
    col = draw(st.lists(entries, min_size=size, max_size=size))
    b = draw(st.lists(entries, max_size=length + 2))
    out = draw(st.lists(entries, min_size=length, max_size=length))
    return out, draw(st.sampled_from([1, -1, 3, -7])), b, col, lo


@settings(max_examples=200, deadline=None)
@given(_convolve_cases())
def test_convolve_equals_the_naive_double_sum(case):
    out, c, b, col, lo = case
    want = list(out)
    for e, x in enumerate(col, lo):
        for a, y in enumerate(b, e):
            if a < len(want):
                want[a] += c * x * y
    Counted.products = 0
    got = convolve(out, c, [Counted(y) for y in b], col, lo)
    assert got is out and got == want and all(type(x) is int for x in got)
    # each nonzero x meets every entry of b below X^len(out), and a zero of col meets none
    assert Counted.products == sum(min(len(b), len(out) - e) for e, x in enumerate(col, lo) if x)
