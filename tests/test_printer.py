"""Rendering: number formatting, term order, series display."""

import random
import re

import pytest
from hypothesis import given

import strategies
from helpers import random_float_mvp
from sparsepoly import Mvp, format_number, parse, render, render_series, series


@pytest.mark.parametrize(
    "value,text",
    [
        (875.0, "875"),
        (-4.0, "-4"),
        (12528.0, "12528"),
        (0.5, "0.5"),
        (-1 / 6, "-0.1666667"),
        (1 / 24, "0.04166667"),
        (1 / 120, "0.008333333"),
        (0.005**2, "0.000025"),
        (0.05, "0.05"),
        (4.2481827381, "4.248183"),
        (1.0007786666666667, "1.000779"),
        (123456789.25, "123456800"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        (float("nan"), "nan"),
    ],
)
def test_format_number(value, text):
    assert format_number(value) == text


def test_render_golden_long_symbols():
    m = parse("3 stoat goat^6 -4 + 7 stoatboat^3 bloat -9 float boat goat gloat^6")
    assert render(m) == "-4 + 7 bloat stoatboat^3 - 9 boat float gloat^6 goat + 3 goat^6 stoat"


def test_render_zero():
    assert render(Mvp.zero()) == "0"


def test_render_constants():
    assert render(parse("875")) == "875"
    assert render(parse("-1")) == "-1"


def test_render_unit_coefficients_omitted():
    assert render(parse("1 x + 1 y^2 - 1 z")) == "x + y^2 - z"


def test_render_negative_leading_term():
    assert render(parse("-27 a^2 + 400 b")) == "-27 a^2 + 400 b"


def test_render_laurent_powers():
    assert render(parse("x^-2 + x")) == "x^-2 + x"


def test_lex_order_with_varorder():
    p = parse("x + y + x^2")
    assert render(p, order="lex", varorder=["x", "y"]) == "x^2 + x + y"
    assert render(p, order="lex", varorder=["y", "x"]) == "y + x^2 + x"


def test_lex_order_reorders_symbols_in_terms():
    p = parse("a b^2")
    assert render(p, order="lex", varorder=["b", "a"]) == "b^2 a"


def test_lex_order_defaults_to_alphabetical():
    assert render(parse("b + a^2"), order="lex") == "a^2 + b"


def test_lex_incomplete_varorder_rejected():
    with pytest.raises(ValueError, match="cover"):
        render(parse("x + y"), order="lex", varorder=["x"])


def test_lex_varorder_str_is_one_symbol_name():
    # Not its characters: "yx" names the symbol yx, which covers neither x nor y.
    with pytest.raises(ValueError, match=re.escape("varorder does not cover symbols: ['x', 'y']")):
        render(parse("x + y"), order="lex", varorder="yx")
    assert render(parse("x^2 + 3 x"), order="lex", varorder="x") == "x^2 + 3 x"
    assert render(parse("ab^2 + ab"), order="lex", varorder="ab") == "ab^2 + ab"


def test_lex_repeated_varorder_rejected():
    # x,x,y would print x^2 y as "x^2 x^2 y", which parses as x^4 y.
    with pytest.raises(ValueError, match="repeats"):
        render(parse("x^2 y"), order="lex", varorder=["x", "x", "y"])


@pytest.mark.parametrize("bad", ["1bad", "", "x y", 3])
def test_lex_varorder_names_must_be_symbols(bad):
    with pytest.raises(ValueError, match="invalid symbol"):
        render(parse("x^2 y"), order="lex", varorder=["x", "y", bad])


def test_varorder_without_lex_rejected():
    with pytest.raises(ValueError):
        render(parse("x"), varorder=["x"])


def test_unknown_order_rejected():
    with pytest.raises(ValueError):
        render(parse("x"), order="deglex")


def test_render_is_pure():
    p = parse("3 x y - 2 z")
    assert render(p) == render(p)
    assert render(p, order="lex", varorder=["z", "y", "x"]) == render(
        p, order="lex", varorder=["z", "y", "x"]
    )


def test_render_series_single_constant():
    assert render_series(series(parse("5"), "x")) == "x^0(5)"


def test_render_series_negative_powers():
    d = series(parse("x^-1 a + b x"), "x")
    assert render_series(d) == "x^-1(a) + x^1(b)"


def test_render_series_of_zero_polynomial():
    assert render_series(series(Mvp.zero(), "x")) == "x^0(0)"


@given(strategies.mvps)
def test_roundtrip_canonical(p):
    assert parse(render(p)) == p


@given(strategies.mvps)
def test_roundtrip_lex(p):
    assert parse(render(p, order="lex", varorder=list("dcba"))) == p


@pytest.mark.parametrize("seed", range(40))
def test_roundtrip_seven_digit_coefficients(seed):
    # render rounds to 7 significant digits, so a coefficient with at most
    # 7 parses back bit for bit, powers at the signed 64-bit ends included.
    p = random_float_mvp(random.Random(seed), 30, digits=7)
    rows = [(t, c.hex()) for t, c in p.terms()]
    for text in (render(p), render(p, order="lex", varorder=p.symbols()[::-1])):
        assert [(t, c.hex()) for t, c in parse(text).terms()] == rows
