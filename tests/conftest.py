import random
from fractions import Fraction

import pytest

from fglops import FglContext, power_operation
from fglops.poly import GradedPoly, mono_from_exps
from fglops.render import parse_poly, parse_series
from fglops.series import Series


@pytest.fixture(scope="session")
def ctx27():
    return FglContext(2, 7)


@pytest.fixture(scope="session")
def data27(ctx27):
    return power_operation(ctx27)


@pytest.fixture(scope="session")
def ctx214():
    return FglContext(2, 14)


@pytest.fixture(scope="session")
def data214(ctx214):
    return power_operation(ctx214, x_cap=6)


@pytest.fixture(scope="session")
def ctx325():
    return FglContext(3, 25)


@pytest.fixture(scope="session")
def data325(ctx325):
    return power_operation(ctx325, x_cap=4)


@pytest.fixture(scope="session")
def ctx313():
    return FglContext(3, 13)


@pytest.fixture(scope="session")
def data313(ctx313):
    return power_operation(ctx313, x_cap=6)


def rand_poly(rng: random.Random, basis="v", gens=3, terms=4, max_exp=3,
              rationals=False) -> GradedPoly:
    out = GradedPoly.zero(basis)
    for _ in range(rng.randrange(terms + 1)):
        exps = {m: rng.randrange(max_exp + 1) for m in range(1, gens + 1)}
        exps = {m: e for m, e in exps.items() if e}
        c = rng.randrange(-9, 10)
        if rationals and rng.random() < 0.5:
            c = Fraction(c, rng.randrange(1, 7))
        if c:
            out = out + GradedPoly({mono_from_exps(exps): c}, basis)
    return out


def rand_series(rng: random.Random, prime=2, basis="v", validity=8, terms=5,
                unit_constant=False, integral=True) -> Series:
    coeffs = {}
    for _ in range(terms):
        j = rng.randrange(validity)
        poly = rand_poly(rng, basis=basis, rationals=not integral)
        if poly:
            coeffs[(j, 0)] = poly
    if unit_constant:
        coeffs[(0, 0)] = GradedPoly.const(rng.choice([1, -1, 2, 3]), basis)
    return Series(prime, basis, coeffs, validity)


def P(text: str, basis: str = "v") -> GradedPoly:
    return parse_poly(text, basis)


def S(text: str, prime: int, basis: str = "v", validity=None) -> Series:
    return parse_series(text, prime, basis, validity=validity)


class Counted(int):
    """An int that counts the products it is a factor of; each product is a plain int."""

    products = 0

    def __mul__(self, other):
        Counted.products += 1
        return int(self) * other

    __rmul__ = __mul__
