"""Parser: grammar fixtures, error reporting, totality, round-trips."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import strategies
from sparsepoly import Mvp, ParseError, parse, parse_or_lift, render


def test_simple_three_term_polynomial():
    p = parse("3 x y + z^3 + x y^6 z")
    assert p.coefficient({"x": 1, "y": 1}) == 3
    assert p.coefficient({"x": 1, "y": 6, "z": 1}) == 1
    assert p.coefficient({"z": 3}) == 1
    assert len(p) == 3
    assert render(p) == "3 x y + x y^6 z + z^3"


def test_like_terms_combine_and_yz_is_one_symbol():
    p = parse("5 + 8*x^2*y - 13*y*x^2 + 11*z - 3*x*yz")
    assert render(p) == "5 - 3 x yz - 5 x^2 y + 11 z"
    assert p.coefficient({"x": 2, "y": 1}) == -5
    assert p.coefficient({"x": 1, "yz": 1}) == -3


def test_zero_literal_is_zero_polynomial():
    assert parse("0").is_zero
    assert parse("0 x y").is_zero
    assert parse("x - x").is_zero


def test_parse_or_lift():
    assert parse_or_lift(875) == 875
    assert parse_or_lift("a+b+c") == parse("a + b + c")
    assert parse_or_lift(0).is_zero
    p = parse("x")
    assert parse_or_lift(p) is p
    with pytest.raises(TypeError):
        parse_or_lift([1, 2])
    with pytest.raises(TypeError, match="expected str, got bytes"):
        parse(b"x")


def test_juxtaposed_letters_are_one_symbol():
    assert parse("xy") != parse("x y")
    assert parse("xy").symbols() == ("xy",)


def test_numbers_anywhere_in_product():
    assert parse("5 a^5*b^2*c^8").coefficient({"a": 5, "b": 2, "c": 8}) == 5
    assert parse("2 x 3") == parse("6 x")
    assert parse("2 * 3") == 6


def test_negative_exponents():
    p = parse("a^-2 b^-1 + a b^2")
    assert p.coefficient({"a": -2, "b": -1}) == 1
    assert p.coefficient({"a": 1, "b": 2}) == 1


def test_repeated_symbol_powers_add():
    assert parse("x x") == parse("x^2")
    assert parse("x x^-1") == 1
    assert parse("x^2 x^-2") == 1


def test_signs_and_decimals():
    assert parse("-4 + 7 b") == parse("7 b - 4")
    assert parse("+4") == 4
    assert parse("1.25 x").coefficient({"x": 1}) == 1.25
    assert parse("  3\tx  ") == parse("3 x")


_ERRORS = [
    ("", 0, "empty expression"),
    ("   ", 3, "empty expression"),
    ("3 x +", 5, "expected a number or symbol"),
    ("x^", 2, "invalid exponent: expected digits after '^'"),
    ("x^-", 3, "invalid exponent: expected digits after '^'"),
    ("x ^2", 2, "unexpected character '^'"),
    ("3x", 1, "unexpected character 'x'"),
    ("x^y", 2, "invalid exponent: expected digits after '^'"),
    ("1.", 2, "invalid number: expected digits after '.'"),
    ("a $ b", 2, "unexpected character '$'"),
    ("3 * * x", 4, "expected a factor after '*'"),
    ("a + + b", 4, "expected a number or symbol"),
    ("*x", 0, "expected a number or symbol"),
    ("+*x", 1, "expected a number or symbol"),
    # Unicode digits, letters and spaces are outside the ASCII grammar.
    ("٣", 0, "expected a number or symbol"),
    ("x\f", 1, "unexpected character '\\x0c'"),
    ("x\u00a0y", 1, "unexpected character '\\xa0'"),
    ("xé", 1, "unexpected character 'é'"),
    ("x^2y", 3, "unexpected character 'y'"),
    ("2.5.3", 3, "unexpected character '.'"),
    ("3 x *", 5, "expected a factor after '*'"),
    ("x^9223372036854775808", 2, "exponent 9223372036854775808 outside the signed 64-bit range"),
    # The exponent is out of range although the summed power is not.
    ("x^9223372036854775808 x^-1", 2, "exponent 9223372036854775808 outside the signed 64-bit range"),
    ("x^-9223372036854775809 x", 2, "exponent -9223372036854775809 outside the signed 64-bit range"),
    ("x^-1 x^9223372036854775808", 7, "exponent 9223372036854775808 outside the signed 64-bit range"),
    ("x x^-9223372036854775809", 4, "exponent -9223372036854775809 outside the signed 64-bit range"),
    # Finite numeric factors whose product overflows: at the factor that does.
    ("1" + "0" * 200 + " " + "1" + "0" * 200, 202, "coefficient overflows a double"),
    ("x 1" + "0" * 200 + " y*1" + "0" * 200 + " z", 206, "coefficient overflows a double"),
    ("- 1" + "0" * 200 + " 1" + "0" * 200, 204, "coefficient overflows a double"),
    ("2 " * 1100, 2046, "coefficient overflows a double"),
    ("0 1" + "0" * 400, 2, "number too large for a double"),
]


def _error_id(text, position):
    shown = text if len(text) <= 40 else f"{text[:12]}...{len(text)}chars"
    return f"{shown}-{position}"


@pytest.mark.parametrize(
    "text, position, message", _ERRORS, ids=[_error_id(t, p) for t, p, _ in _ERRORS]
)
def test_errors_carry_positions(text, position, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == position
    assert exc.value.message == message


def test_like_terms_summing_past_a_double_raise_overflow_error():
    # Each product's coefficient is finite; only their sum overflows.
    big = "15" + "0" * 307
    with pytest.raises(OverflowError, match="coefficient overflows a double") as exc:
        parse(f"{big} x + {big} x")
    assert not isinstance(exc.value, ParseError)
    assert parse(f"{big} x - {big} x") == 0


def test_a_product_of_numbers_that_overflows_is_also_an_overflow_error():
    # Caught where any overflowing coefficient is, and placed.
    with pytest.raises(OverflowError) as exc:
        parse("x 1" + "0" * 200 + " 1" + "0" * 200)
    assert isinstance(exc.value, ParseError)
    assert (exc.value.position, exc.value.message) == (204, "coefficient overflows a double")


def test_very_long_exponents():
    # Past int()'s 4,300-digit limit: out of range at the exponent's offset,
    # with a message that does not echo the number.
    with pytest.raises(ParseError) as exc:
        parse("x^" + "9" * 5000)
    assert exc.value.position == 2
    assert exc.value.message == "exponent of 5000 digits outside the signed 64-bit range"
    assert parse("x^-" + "0" * 5000 + "1") == parse("x^-1")
    assert parse("x^" + "0" * 25 + "1") == parse("x")


@pytest.mark.parametrize(
    "text, position",
    [("x^9223372036854775807 * x", 24), ("x^-9223372036854775808 x^-1", 23)],
    ids=["above", "below"],
)
def test_repeated_symbol_power_sum_out_of_range_rejected(text, position):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == position
    assert "64-bit" in exc.value.message


def test_long_valid_text_leaves_no_backtracking_state():
    # The text is read one step at a time, so parsing holds nothing per
    # atom beyond the result (about 0.33 MB); one regex over the whole
    # grammar with plain nested repeats peaks at over 1 MB here.
    text = " + ".join(
        f"{i % 9 + 1} a^{i % 7 + 1} b^{i // 7 % 5 + 1}*c^{i // 35 + 1}" for i in range(2000)
    )
    parse(text)
    tracemalloc.start()
    try:
        p = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(p) == 2000
    assert peak < 2**19


@pytest.mark.parametrize(
    "text, position",
    [("1" + "0" * 400 + " x", 0), ("x - 2 " + "9" * 400, 6)],
    ids=["leading", "trailing"],
)
def test_number_too_large_for_a_double_rejected(text, position):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == position


@st.composite
def grammar_expressions(draw):
    """Strings built from the grammar, with the polynomial each describes.

    Numbers multiply left to right from 1.0 and the sign applies last, as
    in ``parse``, so the expected coefficients are exact.
    """
    ws = st.text(alphabet=" \t\r\n", min_size=1, max_size=2)
    optional_ws = st.text(alphabet=" \t\r\n", max_size=2)

    def product():
        text, coeff, powers = "", 1.0, []
        for i in range(draw(st.integers(1, 4))):
            if i:
                text += draw(st.one_of(ws, st.just("*"), st.tuples(ws, ws).map("*".join)))
            if draw(st.booleans()):
                number = str(draw(st.integers(0, 999)))
                if draw(st.booleans()):
                    number += f".{draw(st.integers(0, 99))}"
                text += number
                coeff *= float(number)
            else:
                name, k = draw(strategies.long_names), 1
                text += name
                if draw(st.booleans()):
                    k = draw(st.integers(-9, 9).filter(lambda k: k != 0))
                    text += f"^{k}"
                powers.append((name, k))
        return text, coeff, powers

    sign = draw(st.sampled_from(["", "-", "+"]))
    text, terms = draw(optional_ws) + sign, []
    for i in range(draw(st.integers(1, 4))):
        if i:
            sign = draw(st.sampled_from(["+", "-"]))
            text += draw(optional_ws) + sign + draw(optional_ws)
        product_text, coeff, powers = product()
        text += product_text
        terms.append((powers, -coeff if sign == "-" else coeff))
    return text + draw(optional_ws), Mvp(terms)


@given(grammar_expressions())
def test_parse_total_on_grammar(case):
    text, expected = case
    assert parse(text) == expected


@given(st.text(max_size=40))
def test_parse_never_panics(text):
    try:
        result = parse(text)
    except ParseError as e:
        assert 0 <= e.position <= len(text)
    else:
        assert isinstance(result, Mvp)


@given(strategies.mvps)
def test_parse_render_roundtrip(p):
    assert parse(render(p)) == p
