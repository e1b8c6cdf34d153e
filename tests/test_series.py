"""Truncation, extraction, and series decomposition."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings

import strategies
from helpers import norm_ws
from sparsepoly import (
    Mvp,
    SeriesDecomposition,
    equals,
    onevarpow,
    parse,
    reconstruct,
    render,
    render_series,
    series,
    subs,
    taylor,
    total_degree,
    trunc,
    trunc1,
)

X = parse("1+x+x^2 y") ** 3
X_TEXT = (
    "1 + 3 x + 3 x^2 + 3 x^2 y + x^3 + 6 x^3 y + 3 x^4 y"
    " + 3 x^4 y^2 + 3 x^5 y^2 + x^6 y^3"
)


def test_trunc_keeps_degree_up_to_n_inclusive():
    assert render(trunc(X, 3)) == "1 + 3 x + 3 x^2 + 3 x^2 y + x^3"


def test_trunc_above_max_degree_is_identity():
    assert trunc(X, 100) == X


def test_trunc_constant():
    assert trunc(parse("7"), 0) == 7


def test_trunc_counts_negative_powers():
    p = parse("x^-3 y + x^2")
    assert trunc(p, 0) == parse("x^-3 y")


def test_trunc_split_property():
    for n in (-1, 0, 2, 4):
        head = trunc(X, n)
        tail = X - head
        assert head + tail == X
        assert all(total_degree(t) > n for t, _ in tail.terms())
        assert all(total_degree(t) <= n for t, _ in head.terms())


def test_trunc1_fixture():
    assert render(trunc1(X, x=3)) == "1 + 3 x + 3 x^2 + 3 x^2 y + x^3 + 6 x^3 y"


def test_trunc1_absent_symbol_is_noop():
    assert trunc1(X, q=0) == X


def test_trunc1_two_limits_against_independent_filter():
    # independent oracle: filter the parsed term list by hand
    expected = Mvp(
        [(t, c) for t, c in X.terms() if dict(t).get("x", 0) <= 3 and dict(t).get("y", 0) <= 0]
    )
    got = trunc1(X, x=3, y=0)
    assert got == expected
    assert render(got) == "1 + 3 x + 3 x^2 + x^3"


def test_trunc1_refuses_a_nan_limit_before_reading_terms():
    import numpy as np

    for p in (X, Mvp()):
        with pytest.raises(ValueError, match="limit for 'x' is NaN"):
            trunc1(p, x=float("nan"))
    with pytest.raises(ValueError, match="'y'"):
        trunc1(X, x=3, y=np.float64("nan"))
    assert trunc1(X, x=math.inf) == X
    assert trunc1(X, x=-math.inf) == Mvp()


def test_trunc1_accepts_float_and_numpy_limits():
    import numpy as np

    assert trunc1(X, x=3.5) == trunc1(X, x=3)
    assert trunc1(X, x=np.int64(3), y=np.float64(0.0)) == trunc1(X, x=3, y=0)


@pytest.mark.parametrize("limit", ["1", None, 1j], ids=["str", "none", "complex"])
@pytest.mark.parametrize("p", [X, Mvp()], ids=["terms", "empty"])
def test_trunc1_refuses_a_limit_that_is_not_a_real_number(p, limit):
    # Before any term is read, so also on the empty polynomial.
    with pytest.raises(TypeError, match=r"limit for 'y' must be a real number, got "):
        trunc1(p, {"x": 1, "y": limit})


def test_onevarpow_fixture():
    assert render(onevarpow(X, x=3)) == "1 + 6 y"


def test_onevarpow_two_targets():
    P = parse("1 + z + y^2 + x*z^2 + x*y") ** 3
    assert render(onevarpow(P, x=1, y=2)) == "6 z^2 + 6 z^3"


def test_onevarpow_removes_target_symbols():
    out = onevarpow(X, x=3)
    assert "x" not in out.symbols()


def test_series_fixture():
    p = parse("a^2 x b + x^2 a b + b c x^2 + a b c + c^6 x")
    d = series(p, "x")
    assert d.variable == "x"
    assert d.display is None
    assert [k for k, _ in d.components] == [0, 1, 2]
    assert render_series(d) == "x^0(a b c) + x^1(a^2 b + c^6) + x^2(a b + b c)"


def test_series_of_constant():
    d = series(parse("5"), "x")
    assert d.components == ((0, Mvp.from_number(5)),)
    assert render_series(d) == "x^0(5)"


def test_series_components_never_mention_the_variable():
    p = parse("x^-2 a + x b + c") * parse("x + a")
    for _, coeff in series(p, "x").components:
        assert "x" not in coeff.symbols()


def test_series_decomposition_is_an_immutable_value():
    one, y = Mvp.from_number(1), parse("y")
    components = ((0, one), (2, y))
    d = SeriesDecomposition("x", None, components)
    assert d == series(parse("1 + x^2 y"), "x")
    assert d == SeriesDecomposition(variable="x", display=None, components=components)
    assert (d.variable, d.display, d.components) == ("x", None, components)
    assert d != SeriesDecomposition("x", "(x-a)", components)
    assert d != ("x", None, components)
    assert hash(d) == hash(series(parse("1 + x^2 y"), "x"))
    assert str(d) == repr(d) == "x^0(1) + x^2(y)"
    with pytest.raises(AttributeError):
        d.components = ()
    with pytest.raises(AttributeError):
        del d.variable
    assert pickle.loads(pickle.dumps(d)) == d
    assert copy.deepcopy(d) == d
    match d:
        case SeriesDecomposition(variable, display, parts):
            assert (variable, display, parts) == ("x", None, components)


def test_series_m_convention_display():
    shifted = subs(parse("x^3 + x*a"), x="x_m_a + a", lose=False)
    d = series(shifted, "x_m_a")
    assert d.display == "(x-a)"
    assert (
        render_series(d)
        == "(x-a)^0(a^2 + a^3) + (x-a)^1(a + 3 a^2) + (x-a)^2(3 a) + (x-a)^3(1)"
    )


def test_series_roundtrip_consistency_check():
    # substitute x -> xmv+a+b, decompose in xmv, reconstruct, substitute
    # xmv -> x-a-b: identical to the original
    p = parse("a^2 x b + x^2 a b + b c x^2 + a b c + c^6 x")
    shifted = subs(p, x="xmv + a + b", lose=False)
    rebuilt = reconstruct(series(shifted, "xmv"))
    back = subs(rebuilt, xmv="x - a - b", lose=False)
    assert equals(back, p)


@given(strategies.mvps)
@settings(max_examples=60)
def test_series_reconstruction(p):
    assert reconstruct(series(p, "a")) == p
    assert reconstruct(series(p, "q")) == p  # absent variable: one component


def test_taylor_fixture():
    d = taylor(parse("1+x-x*y+a") ** 2, "x", "a")
    assert d.display == "(x-a)"
    want = norm_ws(
        "(x-a)^0(1 + 4 a - 2 a y + 4 a^2 - 4 a^2 y + a^2 y^2)"
        " + (x-a)^1(2 + 4 a - 6 a y + 2 a y^2 - 2 y)"
        " + (x-a)^2(1 - 2 y + y^2)"
    )
    assert norm_ws(render_series(d)) == want


def test_taylor_of_constant():
    d = taylor(parse("3"), "x", "a")
    assert d.components == ((0, Mvp.from_number(3)),)


def test_taylor_reconstructs_source():
    p = parse("1+x-x*y+a") ** 2
    d = taylor(p, "x", "a")
    assert subs(reconstruct(d), x_m_a="x - a", lose=False) == p


@pytest.mark.parametrize(
    "op",
    [
        lambda p: series(p, "1bad"),
        lambda p: taylor(p, "x", "y+z"),
        lambda p: taylor(p, "x y", "z"),
        lambda p: trunc1(p, {"1bad": 0}),
        lambda p: onevarpow(p, {"1bad": 0}),
    ],
    ids=["series", "taylor about", "taylor variable", "trunc1", "onevarpow"],
)
def test_invalid_symbol_names_rejected(op):
    with pytest.raises(ValueError, match="invalid symbol name"):
        op(parse("x^2 + y"))
