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

from .core import INT64_MAX, INT64_MIN, SYMBOL_PATTERN, Mvp, add_terms, term_of

# One step through the text: the separator before a sign or an atom (a
# number, or a symbol with an optional exponent), then that sign or atom,
# or the end of the text.  Every part may match empty, so a step matches
# at any offset and each step starts where the one before it ended; a
# step with neither sign, atom nor end finds an error.  The fraction's and
# the exponent's digits may match empty, so that a missing digit is
# reported at the offset where the digits should start.  No repeat spans
# more than one step, so a long text leaves no backtracking state.
_STEP = re.compile(
    r"(?P<sep>[ \t\r\n]*(?:\*[ \t\r\n]*)?)"
    r"(?:(?P<op>[+-])"
    r"|(?P<number>[0-9]+(?:\.(?P<fraction>[0-9]*))?)"
    rf"|(?P<symbol>{SYMBOL_PATTERN})(?:\^(?P<sign>-?)(?P<digits>[0-9]*))?"
    r"|(?P<end>\Z))?"
)


class ParseError(ValueError):
    """Syntax error with a 0-based offset into the input."""

    def __init__(self, position: int, message: str):
        super().__init__(f"{message} (at offset {position})")
        self.position = position
        self.message = message


class _ProductOverflowError(ParseError, OverflowError):
    """A product's numeric factors, each a finite double, multiply past one:
    placed like any ParseError, and an OverflowError like every other
    coefficient that overflows."""


def parse(text: str) -> Mvp:
    """Parse an expression into a polynomial.

    Raises ParseError on empty input, dangling operators, invalid
    exponents, powers outside the signed 64-bit range (also when a repeated
    symbol's powers sum out of it), numbers too large for a double (also
    when a product's numeric factors multiply past one, at the factor that
    overflows; that ParseError is an OverflowError too), and characters
    outside the grammar.  Raises OverflowError when the coefficients of
    like terms sum past a double, as in ``A x + A x`` with ``A = "15" +
    "0" * 307``.

    The text is read in one pass of ``_STEP`` matches, each a separator and
    the sign or atom after it.  Each step checks the separator against
    what came before, each number for a finite double, each exponent and
    each summed power against the signed 64-bit range; the first failing
    check raises, with the offset and message of the grammar position it
    failed at.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected str, got {type(text).__name__}")
    return Mvp._from_clean(add_terms({}, _signed_terms(text)))


def _signed_terms(text: str):
    """The (term, signed coefficient) pair of each product of ``text``."""
    sign, coeff, powers = 1.0, 1.0, {}
    # Before the first step a sign may come; after a sign an atom must;
    # after an atom, a separator and an atom continue the product, and a
    # sign or the end of the text closes it.
    after_atom = False
    for m in _STEP.finditer(text):
        sep, op, number, fraction, name, minus, digits, end = m.groups()
        if not after_atom and "*" in sep:
            raise ParseError(m.start() + sep.index("*"), "expected a number or symbol")
        if name is None and number is None:
            star = "*" in sep
            # Steps are contiguous and a step that reads nothing raises, so
            # only the first step starts at offset 0.
            if op and not star and (after_atom or m.start() == 0):
                if after_atom:
                    yield term_of(powers), sign * coeff
                    coeff, powers, after_atom = 1.0, {}, False
                sign = -1.0 if op == "-" else 1.0
                continue
            if end is not None and after_atom and not star:
                yield term_of(powers), sign * coeff
                return
            at = m.end() - bool(op)
            if end is not None and m.start() == 0:
                raise ParseError(at, "empty expression")
            if star:
                raise ParseError(at, "expected a factor after '*'")
            if not after_atom:
                raise ParseError(at, "expected a number or symbol")
            raise ParseError(at, f"unexpected character {text[at]!r}")
        if after_atom and not sep:
            raise ParseError(m.start(), f"unexpected character {text[m.start()]!r}")
        after_atom = True
        if name is None:
            if fraction == "":
                raise ParseError(m.end(), "invalid number: expected digits after '.'")
            value = float(number)
            coeff *= value
            if not math.isfinite(coeff):
                if not math.isfinite(value):
                    raise ParseError(m.start("number"), "number too large for a double")
                raise _ProductOverflowError(m.start("number"), "coefficient overflows a double")
            continue
        k = 1
        if digits is not None:
            if not digits:
                raise ParseError(m.end(), "invalid exponent: expected digits after '^'")
            # int() refuses over 4,300 digits; INT64_MIN and INT64_MAX have 19.
            if len(digits) > 19:
                digits = digits.lstrip("0") or "0"
                if len(digits) > 19:
                    message = f"exponent of {len(digits)} digits outside the signed 64-bit range"
                    raise ParseError(m.start("sign"), message)
            k = int(minus + digits)
            if not INT64_MIN <= k <= INT64_MAX:
                message = f"exponent {k} outside the signed 64-bit range"
                raise ParseError(m.start("sign"), message)
        k += powers.get(name, 0)
        if not INT64_MIN <= k <= INT64_MAX:
            message = f"power {k} of {name} outside the signed 64-bit range"
            raise ParseError(m.start("symbol"), message)
        powers[name] = k


def parse_or_lift(value) -> Mvp:
    """Coerce a string, number, or polynomial into a polynomial."""
    if isinstance(value, Mvp):
        return value
    if isinstance(value, str):
        return parse(value)
    if isinstance(value, (int, float)):
        return Mvp.from_number(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to a polynomial")
