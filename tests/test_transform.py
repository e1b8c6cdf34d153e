"""Substitution (sequential and vectorised) and power negation."""

import copy
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import strategies
from helpers import eval_at, random_mvp, random_nonneg_mvp
from sparsepoly import (
    Binding, Mvp, aderiv, invert, onevarpow, parse, render, subs, subvec, trunc1,
)

S3 = parse("x + 5 x^4 y + 8 y^2 x z^3")


def test_subs_single_numeric():
    assert subs(S3, x=1, lose=False) == parse("1 + 5 y + 8 y^2 z^3")


def test_subs_all_numeric_loses_to_scalar():
    assert subs(S3, x=1, y=2, z=3) == 875
    kept = subs(S3, x=1, y=2, z=3, lose=False)
    assert isinstance(kept, Mvp)
    assert kept == 875


def test_subs_polynomial_value():
    assert subs(parse("a+b+c"), a="x^6", lose=False) == parse("b + c + x^6")


def test_subs_builds_each_power_from_the_one_before(monkeypatch):
    from sparsepoly import transform

    gaps = []
    real = transform.pow_terms

    def spy(terms, n):
        gaps.append(n)
        return real(terms, n)

    monkeypatch.setattr(transform, "pow_terms", spy)
    got = subs(parse("2 + x + x^2 z + x^3 + x^7"), x="1 + y", lose=False)
    assert gaps == [1, 1, 1, 4]
    y = parse("1 + y")
    assert got == 2 + y + y**2 * parse("z") + y**3 + y**7


def test_subs_order_dependence():
    forward = subs(parse("a+b+c"), a="x^6", x="1+a", lose=False)
    assert render(forward) == "1 + 6 a + 15 a^2 + 20 a^3 + 15 a^4 + 6 a^5 + a^6 + b + c"
    backward = subs(parse("a+b+c"), x="1+a", a="x^6", lose=False)
    assert backward == parse("b + c + x^6")


def test_subs_explicit_binding_list_can_repeat_symbols():
    p = parse("x")
    assert subs(p, [("x", "x + 1"), ("x", "x + 1")], lose=False) == parse("x + 2")
    with pytest.raises(ValueError, match="invalid symbol"):
        subs(p, [("1bad", 2)], lose=False)


def test_subs_identity_binding():
    p = parse("3 a b^2 - c")
    assert subs(p, a="a", lose=False) == p


def test_subs_negative_power_numeric_reciprocal():
    assert subs(parse("x^-2"), x=2) == 0.25
    assert subs(parse("4 x^-1 y"), x=8, lose=False) == parse("0.5 y")


def test_subs_zero_for_negative_power_rejected():
    with pytest.raises(ZeroDivisionError):
        subs(parse("x^-2"), x=0)


def test_subs_zero_kills_positive_powers():
    assert subs(parse("x + x y + 3"), x=0) == 3


def test_subs_polynomial_into_negative_power_rejected():
    with pytest.raises(ValueError):
        subs(parse("x^-1"), x="1+a")


def test_subs_lose_keeps_nonconstant():
    out = subs(S3, x=1)
    assert isinstance(out, Mvp)


def test_subs_lose_returns_scalar_zero():
    out = subs(parse("x"), x=0)
    assert isinstance(out, float)
    assert out == 0.0


@given(strategies.nonneg_mvps, strategies.nonneg_mvps)
@settings(max_examples=60)
def test_subs_is_ring_homomorphism(p, q):
    bindings = [("a", "1 + 2 b"), ("b", 3)]
    assert subs(p + q, bindings, lose=False) == subs(p, bindings, lose=False) + subs(
        q, bindings, lose=False
    )
    assert subs(p * q, bindings, lose=False) == subs(p, bindings, lose=False) * subs(
        q, bindings, lose=False
    )


def test_subvec_fixture():
    p = parse("3 a c + 6 a^2 b^2 + 8 a^2 c^2 + 4 a^4")
    got = subvec(p, a=1, b=2, c=[1, 2, 3, 4, 5])
    assert got.tolist() == [39, 66, 109, 168, 243]


def test_subvec_constant_recycles():
    assert subvec(parse("7"), x=[1, 2, 3]).tolist() == [7, 7, 7]


def test_subvec_unbound_symbol():
    with pytest.raises(ValueError, match="unbound"):
        subvec(parse("x + y"), x=[1, 2])
    with pytest.raises(ValueError, match="invalid symbol"):
        subvec(parse("x"), {"x": [1, 2], "1bad": [3, 4]})


def test_subvec_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        subvec(parse("x + y"), x=[1, 2], y=[1, 2, 3])


def test_subvec_zero_base_negative_power():
    with pytest.raises(ZeroDivisionError):
        subvec(parse("x^-1"), x=[1, 0, 2])


def test_subvec_overflow_raises():
    big = float("1" + "0" * 200)
    with pytest.raises(OverflowError, match="overflows a double"):
        subvec(parse("1" + "0" * 200 + " x"), x=big)
    with pytest.raises(OverflowError):
        subvec(parse("x^-2"), x=[1.0, 1e-200])  # a reciprocal past the double range
    with pytest.raises(OverflowError):
        subvec(parse("x^3 - y^3"), x=1e200, y=1e200)  # inf - inf
    with pytest.raises(ValueError, match="non-finite"):
        subvec(parse("x"), x=[1.0, float("nan")])


def test_subvec_negative_powers_are_reciprocals():
    got = subvec(parse("x^-2"), x=[1, 2, 4])
    assert got.tolist() == [1.0, 0.25, 0.0625]


@pytest.mark.parametrize(
    "value", [[[1, 2, 3]], [[1], [2], [3]], [[1.0, 2.0], [3.0, 4.0]]], ids=["1x3", "3x1", "2x2"]
)
def test_subvec_rejects_a_value_that_is_not_one_dimensional(value):
    with pytest.raises(ValueError, match=r"'a' must be a number or a 1-D sequence"):
        subvec(parse("a"), {"a": value})
    # Checked before any work: the zero under a negative power is not met.
    with pytest.raises(ValueError, match=r"'b' must be a number or a 1-D sequence"):
        subvec(parse("a^-1"), {"a": [0.0, 1.0], "b": value})


@pytest.mark.parametrize(
    "value",
    [[Fraction(1), "2"], [1.0, b"2"], np.array([1, "2"], dtype=object)],
    ids=["str in list", "bytes in list", "str in object array"],
)
def test_subvec_refuses_text_inside_a_sequence(value):
    with pytest.raises(TypeError, match="^value bound to 'x' must be a number or numbers, not text$"):
        subvec(parse("x + 1"), x=value)
    assert subvec(parse("x + 1"), x=[Fraction(1), 2]).tolist() == [2.0, 3.0]


def test_subvec_memory_stays_within_the_output_and_one_block():
    import tracemalloc

    import numpy as np

    from sparsepoly import transform

    rng = random.Random(5)
    wide = Mvp(
        (
            {s: rng.choice((-2, -1, 1, 2, 3)) for s in rng.sample("abcdefgh", 4)},
            rng.uniform(-1, 1),
        )
        for _ in range(20_000)
    )
    cases = [
        # One term at a million points: one component block at a time.
        (parse("3 a^2 b^-1 c"), {s: np.linspace(1.0, 2.0, 10**6) for s in "abc"}),
        # 20,000 terms at 4 points: 16,384 terms per block.
        (wide, {s: [1.0, 2.0, -1.5, 0.5] for s in "abcdefgh"}),
    ]
    block = transform._SUBVEC_BLOCK * 8
    for p, vectors in cases:
        p.terms()  # build the canonical order before measuring
        tracemalloc.start()
        try:
            out = subvec(p, vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The output, and per block a table, the products, a gathered row
        # set, the running sums and the term index: within 5x.
        assert peak <= 5 * (out.nbytes + block), (len(p), peak)


def test_subvec_single_point_agrees_with_subs():
    rng = random.Random(11)
    for _ in range(20):
        p = random_nonneg_mvp(rng)
        point = {s: rng.randint(-3, 3) for s in p.symbols()}
        via_subs = subs(p, list(point.items()))
        via_vec = subvec(p, {s: [v] for s, v in point.items()})
        assert via_vec.shape == (1,)
        assert via_vec[0] == pytest.approx(via_subs, rel=1e-12, abs=1e-12)


def test_subvec_matches_dense_evaluator():
    rng = random.Random(23)
    for _ in range(40):
        p = random_mvp(rng)
        # nonzero points so negative powers stay finite
        point = {s: rng.choice([-3, -2, -1, 1, 2, 3]) * 0.5 for s in p.symbols()}
        expected = eval_at(p, point)
        got = subvec(p, {s: [v] for s, v in point.items()})[0]
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_invert_fixture():
    assert render(invert(parse("1+x+x^2 y"))) == "1 + x^-2 y^-1 + x^-1"


def test_invert_constant():
    assert invert(parse("17")) == 17


@given(strategies.mvps)
def test_invert_is_involution(p):
    assert invert(invert(p)) == p


def test_inverted_polynomial_obeys_arithmetic():
    p = invert(parse("1+x+x^2 y"))
    assert p + parse("z^6") == parse("1 + x^-2 y^-1 + x^-1 + z^6")


def test_binding_is_an_immutable_value():
    x = parse("x")
    b = Binding("a", x)
    assert b == Binding(symbol="a", value=parse("x"))
    assert (b.symbol, b.value) == ("a", x)
    assert b != Binding("a", parse("y")) and b != Binding("b", x)
    assert b != ("a", x)
    assert hash(b) == hash(Binding("a", parse("x")))
    assert repr(b) == "Binding(symbol='a', value=x)"
    with pytest.raises(AttributeError):
        b.symbol = "b"
    with pytest.raises(AttributeError):
        del b.value
    assert pickle.loads(pickle.dumps(b)) == b
    assert copy.deepcopy(b) == b
    match b:
        case Binding(symbol, value):
            assert (symbol, value) == ("a", x)
    assert list(b) == ["a", x] and tuple(b) != b


def test_subs_takes_bindings_as_pairs():
    p = parse("a + x a^2")
    x = parse("x")
    assert subs(p, [Binding("a", x)]) == subs(p, [("a", x)]) == parse("x + x^3")
    assert subs(p, [Binding("a", x), ("x", 2)]) == 10


# The five functions read their named arguments through one reader: a
# mapping (read as its items) or an iterable of pairs, then the keywords.
NAMED = parse("a^3 b^2 + 2 a b^-1 + 3 a^2 + b + 5")
NAMED_FUNCTIONS = {
    "subs": lambda given=None, **kw: subs(NAMED, given, lose=False, **kw),
    "subvec": lambda given=None, **kw: list(subvec(NAMED, given, **kw)),
    "trunc1": lambda given=None, **kw: trunc1(NAMED, given, **kw),
    "onevarpow": lambda given=None, **kw: onevarpow(NAMED, given, **kw),
    "aderiv": lambda given=None, **kw: aderiv(NAMED, given, **kw),
}
# A value each function refuses, for the name-before-value check.
BAD_VALUE = {"subs": "(((", "subvec": [[1, 2]], "trunc1": "x", "onevarpow": 1.5, "aderiv": -1}


@pytest.mark.parametrize("name", NAMED_FUNCTIONS)
def test_named_arguments_have_one_reader(name):
    f = NAMED_FUNCTIONS[name]
    want = f(a=2, b=1)
    assert f({"a": 2, "b": 1}) == want
    assert f([("a", 2), ("b", 1)]) == want
    assert f(iter([("a", 2), ("b", 1)])) == want
    assert f({"a": 2}, b=1) == want
    assert f([("a", 2)], b=1) == want
    assert f(None, a=2, b=1) == f([], a=2, b=1) == f({}, a=2, b=1) == want
    for text in ("ab", ["ab"], "", [b"ab"], bytearray(b"ab")):
        with pytest.raises(TypeError, match=r"expected \(symbol, value\) pairs"):
            f(text)
    # Every name is read before any value.
    with pytest.raises(ValueError, match="invalid symbol name: '1bad'"):
        f([("a", BAD_VALUE[name]), ("1bad", 1)])


@pytest.mark.parametrize("name", ["subvec", "trunc1", "onevarpow", "aderiv"])
def test_order_free_named_arguments_keep_the_last_value(name):
    f = NAMED_FUNCTIONS[name]
    want = f(a=2, b=1)
    assert f([("a", 5), ("b", 1), ("a", 2)]) == want
    assert f({"a": 5, "b": 1}, a=2) == want
    # A value that a later one replaces is never read.
    assert f([("a", BAD_VALUE[name]), ("b", 1)], a=2) == want


def test_subs_applies_a_repeated_symbol_in_order():
    # a -> 5 first; the second binding of a meets no a.
    assert subs(NAMED, {"a": 5, "b": 1}, a=2) == subs(NAMED, a=5, b=1) == 216


def test_subs_reads_a_mapping_as_its_items():
    p = parse("x + a")
    assert subs(p, {"xy": 5}, lose=False) == p
    assert subs(p, {"x": "y", "a": 2}, lose=False) == parse("y + 2")
