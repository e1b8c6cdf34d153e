"""Core data model: normalization, accumulate, constant, equality, JSON."""

import gc
import json
import math
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import strategies
from helpers import random_float_mvp
from sparsepoly import (
    Mvp,
    PowerOverflowError,
    accumulate,
    arith,
    canonical_json,
    coeffs,
    constant,
    equals,
    equals_approx,
    from_json,
    normalize_term,
    horner,
    parse,
    scale,
    set_coeffs,
    subvec,
    trunc,
    trunc1,
    validate,
)
from sparsepoly import core
from sparsepoly.core import INT64_MAX, INT64_MIN, add_terms


def test_normalize_drops_zero_power():
    assert normalize_term([("x", 2), ("y", 0)]) == (("x", 2),)


def test_normalize_merges_repeated_symbol():
    assert normalize_term([("x", 1), ("x", 1)]) == (("x", 2),)


def test_normalize_empty_is_constant_term():
    assert normalize_term([]) == ()


def test_normalize_sorts_symbols():
    assert normalize_term([("y", 1), ("x", 2)]) == (("x", 2), ("y", 1))


def test_normalize_accepts_mapping():
    assert normalize_term({"x": 2, "y": -1}) == (("x", 2), ("y", -1))


def test_normalize_rejects_bad_symbol():
    with pytest.raises(ValueError):
        normalize_term([("1x", 2)])
    with pytest.raises(ValueError):
        normalize_term([("", 2)])


def test_normalize_rejects_non_integer_power():
    with pytest.raises(TypeError):
        normalize_term([("x", 1.5)])


def test_normalize_power_overflow():
    with pytest.raises(PowerOverflowError):
        normalize_term([("x", 2**63)])
    with pytest.raises(PowerOverflowError):
        normalize_term([("x", 2**62), ("x", 2**62)])
    # The first summed power out of range, in the order symbols first came.
    with pytest.raises(PowerOverflowError, match="power 9223372036854775808 "):
        normalize_term([("y", 2**63), ("x", -(2**63) - 1)])
    assert normalize_term([("x", INT64_MIN), ("y", INT64_MAX)]) == (
        ("x", INT64_MIN),
        ("y", INT64_MAX),
    )


@pytest.mark.parametrize(
    "name",
    ["1x", "", "x y", "\u00e9", 3, None, ["x"], b"x"],
    ids=["digit-first", "empty", "space", "e-acute", "int", "None", "list", "bytes"],
)
def test_normalize_never_remembers_an_invalid_name(name):
    # Checked on every use, whatever came before; a non-str name, even an
    # unhashable one, is a ValueError.
    for _ in range(2):
        with pytest.raises(ValueError, match="invalid symbol name"):
            normalize_term([("x", 1), (name, 1)])
    assert all(type(s) is str and core._SYMBOL_RE.match(s) for s in core._VALID_NAMES)


def test_normalize_name_memo_is_bounded():
    names = [f"n{i}" for i in range(core._VALID_NAMES_MAX + 10)]
    for s in names:
        assert normalize_term([(s, 1)]) == ((s, 1),)
    assert len(core._VALID_NAMES) <= core._VALID_NAMES_MAX
    assert normalize_term([(names[0], 2), ("x", True)]) == ((names[0], 2), ("x", 1))


@pytest.mark.parametrize("text", ["3", "nan", "inf", b"3", bytearray(b"3")])
def test_text_coefficients_are_refused(text):
    term = (("x", 1),)
    p = parse("x + 2 y")
    for make in (
        lambda: Mvp({term: text}),
        lambda: Mvp([(term, text)]),
        lambda: Mvp.monomial("x", 1, text),
        lambda: Mvp.from_number(text),
        lambda: accumulate(parse("x"), term, text),
        lambda: scale(p, text),
        lambda: arith.divide(p, text),
        lambda: set_coeffs(p, coeffs(p).map(lambda _: text)),
        lambda: horner("x", [1.0, text]),
    ):
        with pytest.raises(TypeError, match="coefficient must be a number"):
            make()
    if isinstance(text, str):
        with pytest.raises(ValueError):
            from_json('{"terms":[{"powers":{"x":1},"coeff":"%s"}]}' % text)


_P = parse("x + 2 y")
_TERM = (("x", 1),)
# Every public way a number goes in, each handed a text in its place.
_NUMBER_READERS = {
    "Mvp-mapping": lambda t: Mvp({_TERM: t}),
    "Mvp-pairs": lambda t: Mvp([(_TERM, t)]),
    "accumulate": lambda t: accumulate(parse("x"), _TERM, t),
    "Mvp.monomial": lambda t: Mvp.monomial("x", 1, t),
    "Mvp.from_number": lambda t: Mvp.from_number(t),
    "scale": lambda t: scale(_P, t),
    "divide": lambda t: arith.divide(_P, t),
    "set_coeffs": lambda t: set_coeffs(_P, coeffs(_P).map(lambda _: t)),
    "horner": lambda t: horner("x", [1.0, t]),
    "subvec": lambda t: subvec(_P, x=t, y=1.0),
    "subvec-sequence": lambda t: subvec(_P, x=[1.0, t], y=1.0),
    "trunc": lambda t: trunc(_P, t),
    "trunc1": lambda t: trunc1(_P, x=t),
}
_TEXTS = ["3", "nan", "inf", b"3", bytearray(b"3")]


@pytest.mark.parametrize(
    "reader, text",
    [
        (name, text)
        for name in _NUMBER_READERS
        for text in _TEXTS
        # numpy reads a bytearray inside a list as a row of bytes, so that
        # value is 2-D and refused as such (ValueError), not as text.
        if not (name == "subvec-sequence" and isinstance(text, bytearray))
    ],
)
def test_text_is_refused_wherever_a_number_is_read(reader, text):
    with pytest.raises(TypeError):
        _NUMBER_READERS[reader](text)


def test_number_coefficients_are_taken_through_float():
    class Half:
        def __float__(self):
            return 0.5

    p = Mvp({(("x", 1),): 3, (("y", 1),): Half(), (("z", 1),): True})
    assert [type(c) for c in p._terms.values()] == [float, float, float]
    assert p == parse("3 x + 0.5 y + z")


def test_accumulate_into_zero():
    p = accumulate(Mvp.zero(), [("x", 1)], 3)
    assert p == parse("3 x")


def test_accumulate_cancellation():
    p = accumulate(parse("3 x"), [("x", 1)], -3)
    assert p.is_zero
    assert len(p) == 0


def test_accumulate_constant_insertion():
    assert accumulate(parse("3 x"), [], -4) == parse("-4 + 3 x")


def test_accumulate_zero_is_noop():
    p = parse("2 a b")
    assert accumulate(p, [("a", 1)], 0) == p


@given(strategies.mvps, strategies.terms, strategies.int_coeffs)
def test_accumulate_inverse(p, t, c):
    assert accumulate(accumulate(p, t, c), t, -c) == p


def test_constant_of_zero():
    assert constant(Mvp.zero()) == 0


def test_constant_picks_empty_term():
    m = parse("3 stoat goat^6 -4 + 7 stoatboat^3 bloat -9 float boat goat gloat^6")
    assert constant(m) == -4


@given(strategies.nonneg_mvps)
def test_constant_equals_evaluation_at_zero(p):
    # For nonnegative powers, setting every symbol to 0 isolates the
    # constant term; cross-checked through the vectorised evaluator.
    point = {s: [0.0] for s in p.symbols()}
    assert subvec(p, point)[0] == constant(p)


def test_equals_reflexive_and_exact():
    p = parse("1 + 2 x")
    assert equals(p, p)
    assert not equals(p, parse("1 + 2.0000001 x"))


def test_equals_approx_tolerance():
    p = parse("1 + 2 x")
    q = parse("1 + 2.0000000000001 x")
    assert equals_approx(p, q, rel=1e-9)
    assert not equals_approx(p, q, rel=1e-15)
    assert not equals_approx(p, parse("1 + 2 y"), rel=1e-6)


def test_eq_against_numbers():
    assert parse("5") == 5
    assert parse("0") == 0
    assert parse("x") != 1


@pytest.mark.parametrize(
    "number", [float("nan"), float("inf"), -float("inf"), 10**400], ids=["nan", "inf", "-inf", "1e400"]
)
def test_eq_against_numbers_no_polynomial_equals(number):
    for p in (parse("x"), parse("3"), Mvp.zero()):
        assert not p == number
        assert p != number


def test_constants_hash_as_their_number():
    # Equal values must hash alike, so a set or dict key treats them as one.
    for p, number in ((parse("5"), 5), (parse("2.5"), 2.5), (Mvp.zero(), 0), (parse("-3"), -3.0)):
        assert p == number
        assert hash(p) == hash(number)
        assert len({p, number}) == 1
    assert hash(parse("x")) == hash(Mvp([({"x": 1}, 1.0)]))


def test_cancelled_term_that_comes_back_is_stored_last():
    # x, y, -x, 2x: x cancels to exactly 0.0 and is deleted, so when it
    # comes back it is stored after y, which was first met later.
    x, y = (("x", 1),), (("y", 1),)
    expected = [(y, 1.0), (x, 2.0)]
    built = Mvp([({"x": 1}, 1.0), ({"y": 1}, 1.0), ({"x": 1}, -1.0), ({"x": 1}, 2.0)])
    assert list(built._terms.items()) == expected
    assert list(parse("x + y - x + 2 x")._terms.items()) == expected
    assert list(add_terms({}, [(x, 1.0), (y, 1.0), (x, -1.0), (x, 2.0)]).items()) == expected
    out = {x: 1.0}
    assert add_terms(out, [(x, -1.0)]) is out and out == {}
    assert add_terms({}, [(x, 0.0)]) == {}


def test_mvp_constructor_merges_and_drops():
    p = Mvp([({"x": 1}, 2.0), ({"x": 1}, -2.0), ({}, 4.0)])
    assert p == 4


def test_json_golden():
    p = parse("-3 x^2 y^3 + 2")
    assert (
        canonical_json(p)
        == '{"terms":[{"powers":{},"coeff":2.0},{"powers":{"x":2,"y":3},"coeff":-3.0}]}'
    )


def _json_dumps_form(p):
    doc = {"terms": [{"powers": dict(t), "coeff": c} for t, c in p.terms()]}
    return json.dumps(doc, separators=(",", ":"))


_float_mvps = st.dictionaries(
    strategies.terms,
    st.floats(allow_nan=False, allow_infinity=False).filter(bool),
    max_size=6,
).map(Mvp)


@given(st.one_of(strategies.mvps, _float_mvps))
def test_canonical_json_is_json_dumps_compact_form(p):
    assert canonical_json(p) == _json_dumps_form(p)


@pytest.mark.parametrize(
    "coeff",
    [5e-324, -1e300, 0.1, 1e16, 1e22, float(2**53), -(2.0**-1074) * 3, 1.7976931348623157e308],
)
@pytest.mark.parametrize(
    "term", [(), (("x", INT64_MAX),), (("a", INT64_MIN), ("b", 1))], ids=["constant", "max", "min"]
)
def test_canonical_json_fixed_values(term, coeff):
    p = Mvp([(term, coeff), ({"zz": -1}, 1.0)])
    assert canonical_json(p) == _json_dumps_form(p)
    assert from_json(canonical_json(p)) == p


class _LoudName(str):
    def __str__(self):
        return 'not "x"'

    __format__ = __repr__ = __str__


def test_canonical_json_writes_a_str_subclass_name_as_its_characters():
    for p in (Mvp([({_LoudName("x"): 2}, 1.5)]), Mvp({((_LoudName("x"), 2),): 1.5})):
        expected = '{"terms":[{"powers":{"x":2},"coeff":1.5}]}'
        assert canonical_json(p) == _json_dumps_form(p) == expected
        assert all(type(s) is str for t in p.terms() for s, _ in t[0])


def test_canonical_json_of_zero_and_a_constant():
    assert canonical_json(Mvp()) == _json_dumps_form(Mvp()) == '{"terms":[]}'
    p = Mvp.from_number(-2.5)
    assert canonical_json(p) == _json_dumps_form(p) == '{"terms":[{"powers":{},"coeff":-2.5}]}'


@given(strategies.mvps)
def test_json_roundtrip(p):
    assert from_json(canonical_json(p)) == p


def _canonical_rows(p):
    # Canonical order, with each coefficient's exact bits.
    return [(t, c.hex()) for t, c in p._canonical().items()]


@pytest.mark.parametrize("seed", range(40))
def test_json_roundtrip_keeps_every_bit(seed):
    p = random_float_mvp(random.Random(seed), 30)
    q = from_json(canonical_json(p))
    assert list(q._terms) == list(q._canonical())  # stored in canonical order
    assert _canonical_rows(q) == _canonical_rows(p)


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        from_json("[1, 2]")
    with pytest.raises(ValueError):
        from_json('{"terms":[{"powers":{"x":1.5},"coeff":1.0}]}')
    for bad in (
        '{"terms":[{"powers":{"x":true},"coeff":NaN}]}',
        '{"terms":[{"powers":{"x":true},"coeff":1.0}]}',
        '{"terms":[{"powers":{"x":1},"coeff":NaN}]}',
        '{"terms":[{"powers":{"x":1},"coeff":-Infinity}]}',
        '{"terms":[{"powers":[["x",1]],"coeff":1.0}]}',
        '{"terms":5}',
        '{"terms":[1]}',
        '{"terms":[{"coeff":1.0}]}',
        '{"terms":[{"powers":{"x":1}}]}',
        '{"terms":[{"powers":{"x":"a"},"coeff":1}]}',
        '{"terms":' + "[" * 200000 + "]" * 200000 + "}",
    ):
        with pytest.raises(ValueError):
            from_json(bad)


@given(strategies.mvps, strategies.mvps)
def test_storage_invariants_hold(p, q):
    from sparsepoly import deriv, invert

    validate(p)
    validate(p * q)
    validate(p + q)
    validate(p - q)
    validate(p**2)
    validate(deriv(p, ["a"]))
    validate(invert(p))


def test_validate_rejects_non_finite_coefficients():
    for c in (float("inf"), float("nan")):
        smuggled = parse("x")
        smuggled._terms = {(("x", 1),): c}  # past every checked way in
        with pytest.raises(AssertionError, match="non-finite"):
            validate(smuggled)


_BROKEN = [
    ({(("x", 1),): 0.0}, AssertionError, "stored zero coefficient"),
    ({(("x", 1),): 2}, AssertionError, "non-float coefficient"),
    ({(("y", 1), ("x", 1)): 1.0}, AssertionError, "term not in canonical symbol order"),
    ({(("x", 1), ("x", 2)): 1.0}, AssertionError, "term not in canonical symbol order"),
    ({(("x", 0),): 1.0}, AssertionError, "stored zero power"),
    ({(("1x", 1),): 1.0}, ValueError, "invalid symbol name"),
    ({(("x", INT64_MAX + 1),): 1.0}, PowerOverflowError, "outside the signed 64-bit range"),
]


@pytest.mark.parametrize("terms, error, message", _BROKEN)
def test_validate_rejects_each_broken_invariant(terms, error, message):
    # Built past every checked way in.
    with pytest.raises(error, match=message):
        validate(Mvp._from_clean(terms))


def test_validate_rejects_unsorted_terms_marked_as_sorted():
    p = Mvp._from_clean({(("y", 1),): 1.0, (("x", 1),): 1.0})
    validate(p)
    p._ordered = True
    with pytest.raises(AssertionError, match="marked as sorted"):
        validate(p)


def test_operators_with_numbers_and_other_types():
    p = parse("x - 2")
    assert 5 - p == parse("7 - x") and 5.5 - p == parse("7.5 - x")
    assert +p is p
    for bad in (lambda: p + "x", lambda: "x" + p, lambda: p * "x", lambda: p - "x"):
        with pytest.raises(TypeError):
            bad()
    assert (p == "x") is False and (p != "x") is True


def test_from_json_takes_integral_float_powers():
    doc = '{"terms":[{"powers":{"x":%s},"coeff":3.0}]}'
    assert from_json(doc % "2.0") == parse("3 x^2")
    assert from_json(doc % "-0.0") == 3
    with pytest.raises(ValueError, match="non-integer power 2.5"):
        from_json(doc % "2.5")


def test_operations_do_not_mutate():
    p = parse("1 + x")
    q = parse("2 y")
    before = canonical_json(p)
    _ = p + q, p * q, -p, p**3
    assert canonical_json(p) == before


def test_coefficient_lookup():
    p = parse("3 x y + z^3")
    assert p.coefficient({"x": 1, "y": 1}) == 3
    assert p.coefficient({"z": 3}) == 1
    assert p.coefficient({"q": 2}) == 0
    assert math.isclose(p.coefficient([("y", 1), ("x", 1)]), 3.0)


def test_symbols_listing():
    assert parse("3 x y + z^3").symbols() == ("x", "y", "z")
    assert Mvp.zero().symbols() == ()


def test_from_json_refuses_a_repeated_key_at_every_level():
    for text, name in [
        ('{"terms":[{"powers":{"x":1,"x":2},"coeff":1}]}', "x"),
        ('{"terms":[{"powers":{"b":1,"a":2,"b":-1},"coeff":1}]}', "b"),
        ('{"terms":[{"powers":{"x":2.0,"x":1},"coeff":1}]}', "x"),
        ('{"terms":[{"powers":{"x":1},"coeff":1}],"terms":[]}', "terms"),
        ('{"terms":[{"powers":{"x":1},"coeff":1,"coeff":5}]}', "coeff"),
        ('{"terms":[{"powers":{"x":1},"powers":{"y":1},"coeff":1}]}', "powers"),
    ]:
        with pytest.raises(ValueError, match=f"^repeated key '{name}' in a JSON object$"):
            from_json(text)


def test_from_json_looks_for_a_repeated_key_only_where_one_may_be():
    # Extra members and ':' inside strings leave more ':' than the members
    # read; such a text is decoded again, and refused only for a repeated
    # name.  Bytes are counted as bytes.
    extra = '"note":"a:b","meta":{"k":[{"q":1}]}'
    assert from_json('{"terms":[{"powers":{"x":1},"coeff":2,%s}],%s}' % (extra, extra)) == parse("2 x")
    with pytest.raises(ValueError, match="^repeated key 'q' in a JSON object$"):
        from_json('{"terms":[],"meta":{"k":[{"q":1,"q":1}]}}')
    with pytest.raises(ValueError, match="^repeated key 'x' in a JSON object$"):
        from_json(b'{"terms":[{"powers":{"x":1,"x":2},"coeff":1}]}')
    doc = '{"terms":[{"powers":{"x":1,"y":2},"coeff":1}]}'
    assert from_json(doc.encode("utf-16")) == parse("x y^2")


def test_from_json_reports_another_fault_before_a_repeated_key():
    with pytest.raises(ValueError, match="^invalid symbol name: '1x'$"):
        from_json('{"terms":[{"powers":{"x":1,"x":2},"coeff":1},{"powers":{"1x":1},"coeff":1}]}')
    big = '{"powers":{"x":1},"coeff":1e308}'
    with pytest.raises(ValueError, match="^repeated key 'y' in a JSON object$"):
        from_json('{"terms":[%s,%s,{"powers":{"y":1,"y":1},"coeff":1}]}' % (big, big))


# The pair table: every producer of new terms stores the one shared
# (symbol, power) pair of each value.


def _shares(p, pair):
    """Whether p's terms hold ``pair``, each time as the table's object."""
    terms = p._terms if isinstance(p, Mvp) else p
    found = [q for t in terms for q in t if q == pair]
    return bool(found) and all(q is core._PAIRS.get(pair) for q in found)


def test_every_producer_stores_the_shared_pair():
    from sparsepoly import deriv, invert, knight, rmvp

    x2 = ("x", 2)
    for p in [
        parse("x^2 y + 3 x x z"),
        from_json('{"terms":[{"powers":{"x":2},"coeff":1}]}'),
        from_json('{"terms":[{"powers":{"y":1,"x":2},"coeff":1}]}'),
        from_json('{"terms":[{"powers":{"x":2.0},"coeff":1}]}'),
        Mvp([({"x": 2, "y": 1}, 1.0)]),
        Mvp.monomial("x", 2),
        accumulate(Mvp.zero(), [("x", 1), ("x", 1)], 1.0),
        {normalize_term({"x": 2}): 1.0},
        deriv(parse("x^3 y"), "x"),
        invert(parse("x^-2 + y")),
        parse("x") ** 2,
        parse("x y") * parse("x + 1"),
        rmvp(20, 1, 2, ["x"], seed=1),
    ]:
        assert _shares(p, x2), p
    assert _shares(knight(3), ("a", 2)) and _shares(knight(3), ("c", -1))


def test_both_packed_accumulators_and_the_dict_path_store_the_shared_pair(monkeypatch):
    from sparsepoly import _kernel

    seen = []
    accumulate_packed = _kernel._accumulate

    def spy(p_keys, p_coeffs, q_keys, q_coeffs, radix):
        seen.append("dense" if radix is not None else "sort")
        return accumulate_packed(p_keys, p_coeffs, q_keys, q_coeffs, radix)

    monkeypatch.setattr(_kernel, "_accumulate", spy)
    box = Mvp([({"x": i, "y": j}, 1.0) for i in range(3) for j in range(3)])
    sparse = Mvp([({s: k}, 1.0) for s in "abcdefgh" for k in (1, 2, 3)])
    assert _shares(box * box, ("x", 2)) and seen == ["dense"]
    assert _shares(sparse * sparse, ("a", 2)) and seen == ["dense", "sort"]
    assert _shares(box**3, ("y", 3)) and seen[2:] == ["dense", "dense"]
    d = _kernel.mul_terms_dict({(("x", 1), ("y", 1)): 1.0}, {(("x", 1),): 2.0})
    assert _shares(d, ("x", 2)) and len(seen) == 4


def _sample_results():
    """Results of every producer of new terms, as (term, coefficient bits)
    lists in stored order."""
    from sparsepoly import deriv, invert, knight, rmvp

    rng = random.Random(2701)
    p = Mvp(
        [({s: rng.randint(-40, 40) for s in rng.sample("abcdef", 3)}, rng.random()) for _ in range(60)]
    )
    q = Mvp([({s: rng.randint(1, 3) for s in rng.sample("ab", 2)}, rng.random()) for _ in range(9)])
    results = [
        p,
        parse(str(p)),
        from_json(canonical_json(p)),
        p * p,
        q * q,
        q**4,
        p * parse("a + b^-1"),
        deriv(p, "a"),
        invert(p),
        knight(5),
        rmvp(50, 3, 30, 6, seed=3),
        accumulate(p, {"z": 7}, 1.5),
    ]
    return [[(t, c.hex()) for t, c in r._terms.items()] for r in results]


def test_a_full_pair_table_is_emptied_and_changes_no_result(monkeypatch):
    want = _sample_results()
    monkeypatch.setattr(core, "_PAIRS_MAX", 5)
    sizes = []
    missing = core._PairTable.__missing__

    def spy(table, pair):
        try:
            return missing(table, pair)
        finally:
            sizes.append(len(table))

    monkeypatch.setattr(core._PairTable, "__missing__", spy)
    core._PAIRS.clear()
    assert _sample_results() == want
    assert len(sizes) > 100 and max(sizes) <= 5


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython's collector")
def test_parsed_terms_are_untracked_at_their_first_young_collection():
    # A term whose pairs the collector has untracked is untracked at its
    # first young collection, so parsed terms never reach the old
    # generation still tracked.  The first parse stores the text's pairs.
    rng = random.Random(2702)
    terms = {}
    while len(terms) < 2000:
        terms[tuple((s, rng.randint(1, 4)) for s in sorted(rng.sample("abcdefgh", 3)))] = None
    text = " + ".join(" ".join(f"{s}^{k}" for s, k in t) for t in terms)
    parse(text)
    gc.collect()
    held = [parse(text) for _ in range(5)]
    gc.collect(1)
    assert [sum(map(gc.is_tracked, p._terms)) for p in held] == [0] * 5
