"""Bounded fuzzing of the ways in: expression text, JSON and the CLI.

Whatever the input, only a documented error may escape, the CLI exits
with 0, 1 or 2 within ten seconds, and every polynomial returned keeps
the storage invariants.  The examples are derandomized, so every run
tries the same inputs.
"""

import contextlib
import io
import json
import math
import sys
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import sparsepoly.cli as cli
from helpers import time_limit
from sparsepoly import (
    HashMismatch,
    ParseError,
    PowerOverflowError,
    from_json,
    parse,
    validate,
)

DOCUMENTED = (
    ParseError,
    ValueError,
    PowerOverflowError,
    OverflowError,
    ZeroDivisionError,
    HashMismatch,
)
FUZZ = settings(max_examples=100, derandomize=True, deadline=None)

BIG = "1" + "0" * 200  # finite, but its square overflows a double
INT64_MAX = 2**63 - 1

# Factors that reach the edges of the storage ranges, and pieces that
# reach the edges of the grammar.
_factors = st.sampled_from(
    ["x", "y", "ab", "x_1", "3", "0.5", BIG, "x^-2", "y^3",
     f"x^{INT64_MAX}", f"x^{-INT64_MAX - 1}"]
)
_sums = st.lists(
    st.tuples(st.sampled_from([" + ", " - "]), st.lists(_factors, min_size=1, max_size=3)),
    min_size=1,
    max_size=4,
).map(lambda terms: "".join(sign + " ".join(product) for sign, product in terms))
_pieces = st.sampled_from(["x", "0", BIG, "1x", "x^", "^", ".", "/", "(", "{", "*", " ", "+", "-"])
expressions = st.one_of(
    st.text(max_size=30),
    _sums,
    st.lists(_pieces, max_size=8).map("".join),
)

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from([2**63, -(2**63) - 1, 10**400, 1.7976931348623157e308]),
)
_json_powers = st.one_of(
    st.dictionaries(st.sampled_from(["x", "y", "1x", "", "a b"]), _json_scalars, max_size=3),
    _json_scalars,
)
_json_terms = st.one_of(
    st.fixed_dictionaries({"powers": _json_powers, "coeff": _json_scalars}),
    _json_scalars,
)
json_texts = st.one_of(
    st.text(max_size=30),
    st.lists(_json_terms, max_size=4).map(lambda ts: json.dumps({"terms": ts})),
)

# Subcommands that take an expression; knight and rmvp take sizes, and a
# large size is a long run, not an error.
_commands = st.sampled_from(
    ["eval", "subs", "subvec", "deriv", "aderiv", "horner", "trunc", "trunc1",
     "onevarpow", "series", "taylor", "coeffs", "powers"]
)
# Bindings are constants and monomials, whose int64 powers overflow after
# about 62 squarings; a many-term value raised to an int64 power is a long
# run, not an error.
_arguments = st.sampled_from(
    ["x", "y", "1x", "x=2", "x=0", f"x={BIG}", "x=y", "x=2 y", "y=x^2 y", "x=y^5", "x=-1",
     "x=1/0", "x=1,2", "y=3,4,5", "x=", "=3", "2", "-1", "0", BIG, "1,2", "1/0",
     "1e400", "0.5,,3", "--json"]
)


def _valid_or_documented(make):
    try:
        p = make()
    except DOCUMENTED:
        return None
    validate(p)
    return p


@given(expressions)
@FUZZ
def test_parse_and_arithmetic_raise_only_documented_errors(text):
    p = _valid_or_documented(lambda: parse(text))
    if p is not None:
        _valid_or_documented(lambda: p * p)
        _valid_or_documented(lambda: p**3)
        _valid_or_documented(lambda: p - 2 * p)


@given(json_texts)
@FUZZ
def test_from_json_raises_only_documented_errors(text):
    _valid_or_documented(lambda: from_json(text))


@given(
    _commands,
    st.one_of(st.just("-"), expressions),
    st.lists(_arguments, max_size=3),
    st.lists(st.one_of(expressions, json_texts), max_size=3),
)
@FUZZ
def test_cli_exit_code_is_0_1_or_2(command, expr, arguments, lines):
    argv = [command, expr, *arguments]
    out = io.StringIO()
    stdin = io.StringIO("\n".join(line.replace("\n", " ") for line in lines))
    with (
        mock.patch.object(sys, "stdin", stdin),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(io.StringIO()),
        time_limit(10),
    ):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 0 and "--json" in arguments:
        for line in out.getvalue().splitlines():
            if line.startswith("{"):
                validate(from_json(line))
            else:
                assert math.isfinite(float(line))
