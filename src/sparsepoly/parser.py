"""Text-expression parser for polynomials.

Grammar (whitespace between factors means multiplication, ``*`` likewise):

    expr    := ws [sign] product (sign product)* ws
    sign    := '+' | '-'
    product := atom (('*' | ws) atom)*
    atom    := number | symbol ['^' ['-'] integer]
    number  := digits ['.' digits]
    symbol  := [A-Za-z][A-Za-z0-9_]*

A sign applies to the whole following product.  Repeated symbols inside a
product multiply (their powers add), numeric factors multiply into the
coefficient wherever they appear, and like terms across products combine.
Symbols are atomic: ``yz`` is one symbol, ``y z`` is a product of two.
Parentheses and ``/`` are not part of the language.
"""

from __future__ import annotations

import math

from .core import INT64_MAX, INT64_MIN, Mvp, add_terms

_WS = " \t\r\n"


def _is_letter(ch: str) -> bool:
    return "a" <= ch <= "z" or "A" <= ch <= "Z"


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _is_name_char(ch: str) -> bool:
    return _is_letter(ch) or _is_digit(ch) or ch == "_"


class ParseError(ValueError):
    """Syntax error with a 0-based offset into the input."""

    def __init__(self, position: int, message: str):
        super().__init__(f"{message} (at offset {position})")
        self.position = position
        self.message = message


def parse(text: str) -> Mvp:
    """Parse an expression into a polynomial.

    Raises ParseError on empty input, dangling operators, invalid
    exponents, powers outside the signed 64-bit range (also when a repeated
    symbol's powers sum out of it), numbers too large for a double, and
    characters outside the grammar.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected str, got {type(text).__name__}")
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i] in _WS:
            i += 1
        return i

    pos = skip_ws(0)
    if pos == n:
        raise ParseError(pos, "empty expression")

    def signed_terms(pos):
        sign = 1.0
        if text[pos] == "+":
            pos += 1
        elif text[pos] == "-":
            sign = -1.0
            pos += 1
        while True:
            coeff, powers, pos = _product(text, pos)
            yield tuple(sorted((s, k) for s, k in powers.items() if k != 0)), sign * coeff
            pos = skip_ws(pos)
            if pos == n:
                return
            ch = text[pos]
            if ch == "+":
                sign = 1.0
            elif ch == "-":
                sign = -1.0
            else:
                raise ParseError(pos, f"unexpected character {ch!r}")
            pos += 1

    return Mvp._from_clean(add_terms({}, signed_terms(pos)))


def _product(text: str, pos: int) -> tuple[float, dict[str, int], int]:
    n = len(text)
    coeff = 1.0
    powers: dict[str, int] = {}

    while pos < n and text[pos] in _WS:
        pos += 1
    if pos == n or not (_is_digit(text[pos]) or _is_letter(text[pos])):
        raise ParseError(pos, "expected a number or symbol")

    while True:
        ch = text[pos]
        if _is_digit(ch):
            value, pos = _number(text, pos)
            coeff *= value
        else:
            start = pos
            name, k, pos = _factor(text, pos)
            k += powers.get(name, 0)
            if not INT64_MIN <= k <= INT64_MAX:
                raise ParseError(start, f"power {k} of {name} outside the signed 64-bit range")
            powers[name] = k

        # What follows an atom decides whether the product continues: '*'
        # or whitespace before another atom means multiplication.
        had_ws = False
        while pos < n and text[pos] in _WS:
            had_ws = True
            pos += 1
        if pos == n:
            return coeff, powers, pos
        ch = text[pos]
        if ch == "*":
            pos += 1
            while pos < n and text[pos] in _WS:
                pos += 1
            if pos == n or not (_is_digit(text[pos]) or _is_letter(text[pos])):
                raise ParseError(pos, "expected a factor after '*'")
            continue
        if ch in "+-":
            return coeff, powers, pos
        if (_is_digit(ch) or _is_letter(ch)) and had_ws:
            continue
        raise ParseError(pos, f"unexpected character {ch!r}")


def _number(text: str, pos: int) -> tuple[float, int]:
    n = len(text)
    start = pos
    while pos < n and _is_digit(text[pos]):
        pos += 1
    if pos < n and text[pos] == ".":
        pos += 1
        if pos == n or not _is_digit(text[pos]):
            raise ParseError(pos, "invalid number: expected digits after '.'")
        while pos < n and _is_digit(text[pos]):
            pos += 1
    value = float(text[start:pos])
    if not math.isfinite(value):
        raise ParseError(start, "number too large for a double")
    return value, pos


def _factor(text: str, pos: int) -> tuple[str, int, int]:
    n = len(text)
    start = pos
    pos += 1  # first char already known to be a letter
    while pos < n and _is_name_char(text[pos]):
        pos += 1
    name = text[start:pos]

    if pos < n and text[pos] == "^":
        pos += 1
        exp_start = pos
        if pos < n and text[pos] == "-":
            pos += 1
        digits_start = pos
        while pos < n and _is_digit(text[pos]):
            pos += 1
        if pos == digits_start:
            raise ParseError(pos, "invalid exponent: expected digits after '^'")
        k = int(text[exp_start:pos])
        if not INT64_MIN <= k <= INT64_MAX:
            raise ParseError(exp_start, f"exponent {k} outside the signed 64-bit range")
        return name, k, pos
    return name, 1, pos


def parse_or_lift(value) -> Mvp:
    """Coerce a string, number, or polynomial into a polynomial."""
    if isinstance(value, Mvp):
        return value
    if isinstance(value, str):
        return parse(value)
    if isinstance(value, (int, float)):
        return Mvp.from_number(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to a polynomial")
