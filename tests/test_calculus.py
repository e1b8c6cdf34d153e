"""Derivatives and Horner composition."""

import math
import random

import pytest
from hypothesis import given, settings

import strategies
from helpers import norm_ws, random_mvp, time_limit
from sparsepoly import Mvp, PowerOverflowError, aderiv, deriv, horner, parse, power, render

S = parse("a + 5 a^5*b^2*c^8 -3 x^2 a^3 b c^3")


def test_deriv_fixture():
    assert render(deriv(S, ["a", "b", "c"])) == "-27 a^2 c^2 x^2 + 400 a^4 b c^7"


def test_deriv_order_does_not_matter():
    assert deriv(S, ["a", "b", "c"]) == deriv(S, ["c", "b", "a"])


def test_deriv_accepts_single_name():
    assert deriv(parse("x^2"), "x") == parse("2 x")
    with pytest.raises(ValueError, match="invalid symbol"):
        deriv(parse("x^2"), "1bad")


def test_deriv_negative_power_rule():
    assert deriv(parse("x^-2"), ["x"]) == parse("-2 x^-3")


def test_deriv_of_constant_is_zero():
    assert deriv(parse("42"), ["x"]).is_zero
    assert deriv(Mvp.zero(), ["x"]).is_zero


def test_deriv_drops_absent_variable():
    assert deriv(parse("y + x y"), ["x"]) == parse("y")


def test_aderiv_fixture():
    assert render(aderiv(S, a=3, b=1, c=2)) == "33600 a^2 b c^6 - 108 c x^2"


def test_aderiv_zero_order_is_identity():
    assert aderiv(S, x=0) == S


def test_aderiv_rejects_negative_order():
    with pytest.raises(ValueError):
        aderiv(S, a=-1)
    with pytest.raises(ValueError, match="invalid symbol"):
        aderiv(S, {"1bad": 0})


def test_aderiv_stops_at_zero():
    with time_limit(5):
        assert aderiv(parse("x"), x=10**9).is_zero
        assert aderiv(parse("x^3 y + y^2"), {"x": 10**9, "y": 10**18}).is_zero
        assert aderiv(Mvp.zero(), x=10**9).is_zero
        assert aderiv(S, x=10**9, a=1) == Mvp.zero()


def test_aderiv_raises_at_the_overflowing_step():
    with time_limit(5), pytest.raises(OverflowError, match="overflows a double"):
        aderiv(parse("x^-1"), x=10**9)  # |coefficient| is n!, past 1.8e308 at n = 171
    last = aderiv(parse("x^-1"), x=170).coefficient({"x": -171})
    assert last == pytest.approx(float(math.factorial(170)), rel=1e-12)
    with time_limit(5), pytest.raises(OverflowError):
        aderiv(parse(f"x^{10**15}"), x=10**9)
    with time_limit(5), pytest.raises(PowerOverflowError):
        aderiv(parse(f"x^{-(2**63) + 2}"), x=10**9)


def test_aderiv_equals_repeated_deriv():
    rng = random.Random(5)
    for _ in range(20):
        p = random_mvp(rng)
        assert aderiv(p, x=2, y=1) == deriv(p, ["x", "x", "y"])
        assert aderiv(p, {"a": 1, "b": 2}) == deriv(p, ["a", "b", "b"])


@given(strategies.mvps, strategies.mvps)
@settings(max_examples=60)
def test_leibniz_rule(p, q):
    x = "a"
    assert deriv(p * q, [x]) == deriv(p, [x]) * q + p * deriv(q, [x])


@given(strategies.mvps)
@settings(max_examples=60)
def test_mixed_partials_commute(p):
    assert deriv(deriv(p, ["a"]), ["b"]) == deriv(deriv(p, ["b"]), ["a"])


def test_horner_sin_expansion():
    sinxpy = horner("x+y", [0, 1, 0, -1 / 6, 0, 1 / 120])
    want = norm_ws(
        "x - 0.5 x y^2 + 0.04166667 x y^4 - 0.5 x^2 y + 0.08333333 x^2 y^3"
        " - 0.1666667 x^3 + 0.08333333 x^3 y^2 + 0.04166667 x^4 y"
        " + 0.008333333 x^5 + y - 0.1666667 y^3 + 0.008333333 y^5"
    )
    assert norm_ws(render(sinxpy)) == want


def test_horner_single_coefficient():
    assert horner("x", [4.5]) == 4.5


def test_horner_direct_sum():
    assert horner("x", [1, 2, 3]) == parse("1 + 2 x + 3 x^2")


def test_horner_rejects_empty():
    with pytest.raises(ValueError):
        horner("x", [])


def test_horner_accepts_polynomial_base():
    base = parse("x + 1")
    assert horner(base, [0, 0, 1]) == base * base


def test_horner_matches_naive_sum():
    rng = random.Random(3)
    for _ in range(20):
        base = random_mvp(rng, symbols="ab", max_terms=3)
        cs = [float(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))]
        naive = Mvp.zero()
        for i, c in enumerate(cs):
            naive = naive + Mvp.from_number(c) * power(base, i)
        assert horner(base, cs) == naive
