"""Text-expression parser for polynomials.

Grammar (whitespace between factors means multiplication, ``*`` likewise):

    expr    := ws [sign] product (sign product)* ws
    sign    := '+' | '-'
    product := atom (('*' | ws) atom)*
    atom    := number | symbol ['^' ['-'] digits]
    number  := digits ['.' digits]
    symbol  := [A-Za-z][A-Za-z0-9_]*
    digits  := [0-9]+
    ws      := (' ' | '\\t' | '\\r' | '\\n')*

A sign applies to the whole following product.  Repeated symbols inside a
product multiply (their powers add), numeric factors multiply into the
coefficient wherever they appear, and like terms across products combine.
Symbols are atomic: ``yz`` is one symbol, ``y z`` is a product of two.
Parentheses and ``/`` are not part of the language.
"""

from __future__ import annotations

import math
import re

from .core import INT64_MAX, INT64_MIN, SYMBOL_PATTERN, Mvp, add_terms

_WS = re.compile(r"[ \t\r\n]*")
# The fraction's and the exponent's digits may match empty, so that a
# missing digit is reported at the offset where the digits should start.
_ATOM = re.compile(
    r"(?P<number>[0-9]+(?:\.(?P<fraction>[0-9]*))?)"
    rf"|(?P<symbol>{SYMBOL_PATTERN})(?:\^(?P<sign>-?)(?P<digits>[0-9]*))?"
)


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
    pos = _WS.match(text).end()
    if pos == n:
        raise ParseError(pos, "empty expression")

    def signed_terms(pos):
        # _product stops only at the end of the text or before a sign.
        while pos < n:
            sign = -1.0 if text[pos] == "-" else 1.0
            if text[pos] in "+-":
                pos += 1
            coeff, powers, pos = _product(text, pos)
            yield tuple(sorted((s, k) for s, k in powers.items() if k != 0)), sign * coeff

    return Mvp._from_clean(add_terms({}, signed_terms(pos)))


def _product(text: str, pos: int) -> tuple[float, dict[str, int], int]:
    coeff = 1.0
    powers: dict[str, int] = {}
    pos = _WS.match(text, pos).end()
    # The error when no atom starts at pos; None after whitespace, where
    # the character found is the error.
    expected = "expected a number or symbol"

    while True:
        atom = _ATOM.match(text, pos)
        if atom is None:
            raise ParseError(pos, expected or f"unexpected character {text[pos]!r}")
        name, digits = atom.group("symbol", "digits")
        if name is None:
            if atom["fraction"] == "":
                raise ParseError(atom.end(), "invalid number: expected digits after '.'")
            value = float(atom[0])
            if not math.isfinite(value):
                raise ParseError(pos, "number too large for a double")
            coeff *= value
        else:
            k = 1
            if digits is not None:
                if not digits:
                    raise ParseError(atom.end(), "invalid exponent: expected digits after '^'")
                # int() refuses over 4,300 digits; INT64_MIN and INT64_MAX have 19.
                at, digits = atom.start("sign"), digits.lstrip("0") or "0"
                if len(digits) > 19:
                    message = f"exponent of {len(digits)} digits outside the signed 64-bit range"
                    raise ParseError(at, message)
                k = int(atom["sign"] + digits)
                if not INT64_MIN <= k <= INT64_MAX:
                    raise ParseError(at, f"exponent {k} outside the signed 64-bit range")
            k += powers.get(name, 0)
            if not INT64_MIN <= k <= INT64_MAX:
                raise ParseError(pos, f"power {k} of {name} outside the signed 64-bit range")
            powers[name] = k

        # What follows an atom decides whether the product continues: '*'
        # or whitespace before another atom means multiplication.
        end = atom.end()
        pos = _WS.match(text, end).end()
        if pos == len(text) or text[pos] in "+-":
            return coeff, powers, pos
        if text[pos] == "*":
            pos = _WS.match(text, pos + 1).end()
            expected = "expected a factor after '*'"
        elif pos > end:
            expected = None
        else:
            raise ParseError(pos, f"unexpected character {text[pos]!r}")


def parse_or_lift(value) -> Mvp:
    """Coerce a string, number, or polynomial into a polynomial."""
    if isinstance(value, Mvp):
        return value
    if isinstance(value, str):
        return parse(value)
    if isinstance(value, (int, float)):
        return Mvp.from_number(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to a polynomial")
