import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toepcalc import (
    SupernaturalNumber,
    divides,
    natural_factorization,
    odometer_add,
    odometer_coordinates,
    odometers_conjugate,
    supernatural_equal,
    supernatural_lcm,
)
from toepcalc.odometer import INF, EmptyScale, OdometerError, _is_prime, factor_int


def test_parse_and_str_round_trip():
    u = SupernaturalNumber.parse("2^inf * 5")
    assert u.exponent(2) == INF
    assert u.exponent(5) == 1
    assert u.exponent(3) == 0
    assert str(u) == "2^inf * 5"
    assert str(SupernaturalNumber.parse(str(u))) == "2^inf * 5"


def test_parse_rejects_garbage():
    for bad in ["", "6^2", "2^-1", "2^inf * 2", "x", "2 ^"]:
        with pytest.raises(OdometerError):
            SupernaturalNumber.parse(bad)


def test_from_int_and_as_int():
    u = SupernaturalNumber.from_int(360)
    assert u.factors == ((2, 3), (3, 2), (5, 1))
    assert u.as_int() == 360
    assert u.is_finite
    assert not SupernaturalNumber.parse("2^inf").is_finite
    with pytest.raises(OdometerError):
        SupernaturalNumber.parse("2^inf").as_int()


def test_factor_int():
    assert factor_int(1) == ()
    assert factor_int(2**10 * 7) == ((2, 10), (7, 1))


def test_is_prime_matches_trial_division_and_rejects_huge():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(_is_prime(n) == trial(n) for n in range(-3, 20000))
    # strong pseudoprimes to the first 7, 9, 12 bases and a Carmichael number
    for n in (341550071728321, 3825123056546413051, 318665857834031151167461, 41041, 2**67 - 1):
        assert not _is_prime(n)
    for p in (2**31 - 1, 2**61 - 1, 761838257287):
        assert _is_prime(p)
    assert not _is_prime(2**100)  # a base divides it: decided without the bound
    with pytest.raises(OdometerError, match="too large"):
        _is_prime(2**89 - 1)


@given(st.integers(min_value=1, max_value=10**6))
def test_from_int_reconstructs(n):
    assert SupernaturalNumber.from_int(n).as_int() == n


def test_lcm_and_equality():
    u = supernatural_lcm(
        SupernaturalNumber.from_int(4), SupernaturalNumber.parse("2^inf"), SupernaturalNumber.from_int(15)
    )
    assert str(u) == "2^inf * 3 * 5"
    assert supernatural_equal(u, SupernaturalNumber.parse("5 * 3 * 2^inf"))
    assert not supernatural_equal(u, SupernaturalNumber.parse("2^inf * 3"))


@given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=4))
def test_lcm_matches_integer_lcm(ns):
    u = supernatural_lcm(*(SupernaturalNumber.from_int(n) for n in ns))
    assert u.as_int() == math.lcm(*ns)


def test_divides():
    u = SupernaturalNumber.parse("2^inf * 5")
    assert divides(1, u)
    assert divides(40, u)
    assert divides(2**20, u)
    assert not divides(3, u)
    assert not divides(25, u)


def test_odometers_conjugate_is_scale_equality():
    # lcm(2, 4, 8, ...) and lcm(2, 8, 32, ...) are both 2^inf
    a = supernatural_lcm(*(SupernaturalNumber.from_int(2**k) for k in range(1, 12)))
    b = supernatural_lcm(*(SupernaturalNumber.from_int(2 ** (2 * k + 1)) for k in range(6)))
    assert odometers_conjugate(a, b)
    assert not odometers_conjugate(
        SupernaturalNumber.parse("2^inf"), SupernaturalNumber.parse("3^inf")
    )


def test_natural_factorization_reference_scale():
    u = SupernaturalNumber.parse("2^inf * 5")
    assert natural_factorization(u, 4) == (2, 4, 40, 80)


def test_natural_factorization_finite_stabilizes():
    u = SupernaturalNumber.from_int(12)
    assert natural_factorization(u, 6) == (2, 12)
    with pytest.raises(EmptyScale):
        natural_factorization(SupernaturalNumber.from_int(1), 3)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=6))
def test_natural_factorization_divides_scale(seed, count):
    u = SupernaturalNumber.from_int(seed + 2)
    taus = natural_factorization(u, count)
    assert all(divides(t, u) for t in taus)
    assert all(b % a == 0 for a, b in zip(taus, taus[1:]))  # a divisibility chain


def test_odometer_coordinates_examples():
    pt = odometer_coordinates(7, (2, 4, 8))
    assert pt.coords == (1, 3, 7)
    assert odometer_add(pt, 1).coords == (0, 0, 0)
    assert odometer_add(odometer_coordinates(0, (2, 4, 8)), 5).coords == (1, 1, 5)


@given(
    st.lists(st.sampled_from([2, 3, 4, 6, 12, 24]), min_size=1, max_size=4),
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000),
)
def test_odometer_add_is_coordinatewise_sum(mults, j, k):
    periods = []
    acc = 1
    for m in mults:
        acc *= m
        periods.append(acc)
    pt = odometer_coordinates(j, periods)
    assert odometer_add(pt, k).coords == odometer_coordinates(j + k, periods).coords
