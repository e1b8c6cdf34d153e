"""Ring arithmetic against the printed fixtures and a dense-box oracle."""

import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings

import strategies
from helpers import box_mul, mvp_from_box, random_mvp, time_limit, to_box
from sparsepoly import (
    Mvp,
    PowerOverflowError,
    coeffs,
    deriv,
    parse,
    power,
    render,
    set_coeffs,
    subs,
    validate,
)

S1 = parse("b d^2 + 5 b^2 d^2 + 2 b^4 + 4 c d + 3 c d^2")
S2 = parse("2 b^4 + 4 c^2 d + 5 c^4 + 4 d^4")

S1_PLUS_S2 = "b d^2 + 5 b^2 d^2 + 4 b^4 + 4 c d + 3 c d^2 + 4 c^2 d + 5 c^4 + 4 d^4"

S1_TIMES_S2 = (
    "4 b c^2 d^3 + 5 b c^4 d^2 + 4 b d^6 + 20 b^2 c^2 d^3 + 25 b^2 c^4 d^2"
    " + 20 b^2 d^6 + 8 b^4 c d + 6 b^4 c d^2 + 8 b^4 c^2 d + 10 b^4 c^4"
    " + 8 b^4 d^4 + 2 b^5 d^2 + 10 b^6 d^2 + 4 b^8 + 16 c d^5 + 12 c d^6"
    " + 16 c^3 d^2 + 12 c^3 d^3 + 20 c^5 d + 15 c^5 d^2"
)

S1_SQUARED = (
    "8 b c d^3 + 6 b c d^4 + 40 b^2 c d^3 + 30 b^2 c d^4 + b^2 d^4"
    " + 10 b^3 d^4 + 16 b^4 c d + 12 b^4 c d^2 + 25 b^4 d^4 + 4 b^5 d^2"
    " + 20 b^6 d^2 + 4 b^8 + 16 c^2 d^2 + 24 c^2 d^3 + 9 c^2 d^4"
)


def test_addition_fixture():
    assert S1 + S2 == parse(S1_PLUS_S2)


def test_addition_identity():
    p = parse("3 x y - 2")
    assert p + Mvp.zero() == p
    assert Mvp.zero() + p == p


def test_addition_of_disjoint_terms():
    assert parse("1+x+x^2 y") + parse("z^6") == parse("1 + x + x^2 y + z^6")


def test_negate_and_subtract():
    assert (-Mvp.zero()).is_zero
    p = parse("3 x y - 2")
    assert (p - p).is_zero
    assert -parse("3 x y") == parse("-3 x y")
    assert parse("a") - 1 == parse("a - 1")


def test_multiplication_fixture():
    assert S1 * S2 == parse(S1_TIMES_S2)
    assert render(S1 * S2) == S1_TIMES_S2


def test_multiplicative_identity():
    p = parse("3 x y - 2 + z^-4")
    assert p * parse("1") == p
    assert p * 1 == p
    assert 2 * p == p + p


def test_laurent_power_cancellation():
    assert parse("x") * parse("x^-1") == 1


def test_square_fixture():
    assert S1**2 == parse(S1_SQUARED)


def test_cube_fixture():
    got = parse("1+x+x^2 y") ** 3
    want = (
        "1 + 3 x + 3 x^2 + 3 x^2 y + x^3 + 6 x^3 y + 3 x^4 y"
        " + 3 x^4 y^2 + 3 x^5 y^2 + x^6 y^3"
    )
    assert render(got) == want


def test_power_zero_convention():
    assert power(parse("x + y"), 0) == 1
    assert power(Mvp.zero(), 0) == 1
    assert power(Mvp.zero(), 3).is_zero
    with time_limit(5):  # squaring: about 62 empty products
        assert power(Mvp.zero(), 2**62).is_zero


def test_power_rejects_negative_exponent():
    with pytest.raises(ValueError, match="invert"):
        power(parse("x"), -1)


def test_reflected_subtraction_refuses_a_non_number():
    assert 1 - parse("y") == parse("1 - y")
    with pytest.raises(TypeError):
        "x" - parse("y")


def test_scalar_division():
    assert parse("4 x") / 2 == parse("2 x")
    with pytest.raises(TypeError, match="polynomials can only be divided by a number"):
        parse("x") / parse("y")
    # Any other operand gets its reflected operation, as in multiplication.
    assert parse("4 x") / np.int64(2) == parse("2 x")
    assert (parse("3 x") / np.int64(10)).coefficient([("x", 1)]) == 0.3
    with pytest.raises(TypeError, match="unsupported operand"):
        parse("x") / "2"


def test_division_divides_each_coefficient():
    # Multiplying by 1/10 would store 0.30000000000000004.
    assert (parse("3 x") / 10).coefficient([("x", 1)]) == 0.3
    assert parse("3 x") / 10 == parse("0.3 x")
    # 1/1e-320 overflows a double, but 1e-20/1e-320 = 1e300 does not.
    assert Mvp({(("x", 1),): 1e-20}) / 1e-320 == Mvp({(("x", 1),): 1e-20 / 1e-320})
    # A quotient that underflows to 0.0 is dropped, never stored.
    q = Mvp({(("x", 1),): 5e-324, (("y", 1),): 1.0}) / 4.0
    assert q == parse("0.25 y")
    validate(q)


@pytest.mark.parametrize("zero", [0, 0.0, -0.0])
def test_division_by_zero_raises(zero):
    for p in (parse("x"), Mvp.zero()):
        with pytest.raises(ZeroDivisionError):
            p / zero


@given(strategies.mvps)
@settings(max_examples=40)
def test_power_matches_multiply_chain(p):
    chain = Mvp.from_number(1)
    for n in range(6):
        assert power(p, n) == chain
        chain = chain * p


def test_monomial_degree_additivity():
    rng = random.Random(7)
    for _ in range(50):
        a = random_mvp(rng, max_terms=1)
        b = random_mvp(rng, max_terms=1)
        if not a or not b:
            continue
        (ta, _), (tb, _) = next(a.terms()), next(b.terms())
        (tp, _) = next((a * b).terms())
        assert sum(k for _, k in tp) == sum(k for _, k in ta) + sum(k for _, k in tb)


def test_power_overflow_reported():
    big = parse(f"x^{2**62}")
    with pytest.raises(PowerOverflowError):
        big * big


@pytest.mark.parametrize("base", ["y^5", "x^2 y"])
def test_huge_power_of_a_monomial_overflows_quickly(base):
    # Squaring: about 62 products before a power leaves int64.
    with time_limit(5), pytest.raises(PowerOverflowError):
        parse(base) ** 2**62


BIG = "1" + "0" * 200  # 1e200: finite, but its square is not
DOUBLE_MAX = str(int(1.7976931348623157e308))


@pytest.mark.parametrize(
    "overflow",
    [
        lambda: parse(BIG + " x") * parse(BIG + " x"),
        lambda: parse(BIG + " x") * parse(BIG + " x") - parse(BIG + " x") * parse(BIG + " x"),
        lambda: parse(BIG + " x") ** 2,
        lambda: parse(BIG + " x") * 1e200,
        lambda: parse(BIG + " x") / 1e-200,
        lambda: parse(DOUBLE_MAX + " x") + parse(DOUBLE_MAX + " x"),
        lambda: parse(BIG + " " + BIG + " x"),
        lambda: parse(f"{DOUBLE_MAX} x + {DOUBLE_MAX} x"),
        lambda: subs(parse(BIG + " x"), x=BIG),
        lambda: deriv(parse(f"1{'0' * 300} x^{2**62}"), "x"),
        lambda: set_coeffs(parse(BIG + " x"), coeffs(parse(BIG + " x")) * 1e200),
        lambda: Mvp({(): float("inf")}),
        lambda: Mvp.from_number(float("nan")),
        lambda: parse("x") + float("inf"),
    ],
)
def test_coefficient_overflow_raises(overflow):
    with pytest.raises(OverflowError):
        overflow()


def test_ring_axioms_against_dense_oracle():
    rng = random.Random(42)
    symbols = ("a", "b", "c", "d")
    for _ in range(60):
        p = random_mvp(rng)
        q = random_mvp(rng)
        r = random_mvp(rng)
        # axioms on the sparse side
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        # dense-box equivalence for the product
        bp = to_box(p, symbols, -3, 3)
        bq = to_box(q, symbols, -3, 3)
        assert mvp_from_box(box_mul(bp, bq), symbols, -6) == p * q
        assert mvp_from_box(bp + bq, symbols, -3) == p + q


def test_multiply_is_threadsafe():
    p = parse("1 + x + y^2 - 3 z")
    expected = (p * p) * p
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: (p * p) * p, range(8)))
    assert all(r == expected for r in results)
