"""Deterministic human-readable rendering of polynomials.

The default ("canonical") term order compares the (symbol, power)
sequences of the terms lexicographically, constant first, with symbols
alphabetical inside each term.  ``order="lex"`` instead sorts terms by
their exponent vectors under an explicit variable precedence, highest
first, and displays symbols in that precedence order.

Formatting contract: terms joined by " + " or " - " according to
coefficient sign; a coefficient of magnitude exactly 1 is omitted unless
the term is constant; integral coefficients print without a decimal
point, anything else with up to 7 significant digits in positional (never
scientific) notation; "^k" is appended for powers other than 1; the zero
polynomial prints "0".
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .core import Mvp, power_of, require_symbol


def format_number(x: float) -> str:
    """Render a coefficient or scalar: integers plain, else 7 significant digits."""
    x = float(x)
    if not math.isfinite(x):
        return repr(x)
    if x == int(x):
        return str(int(x))
    # Imported on first use: integral coefficients, all a CLI pipeline of
    # integer polynomials prints, do not need it.
    from decimal import Decimal

    return format(Decimal(f"{x:.6e}").normalize(), "f")


def _term_text(pairs, magnitude: float) -> str:
    if not pairs:
        return format_number(magnitude)
    pieces = [] if magnitude == 1.0 else [format_number(magnitude)]
    for s, k in pairs:
        pieces.append(s if k == 1 else f"{s}^{k}")
    return " ".join(pieces)


def render(
    p: Mvp,
    order: str = "canonical",
    varorder: Optional[Sequence[str]] = None,
) -> str:
    """Render a polynomial to its canonical text form.

    ``order="lex"`` takes an optional ``varorder`` giving the variable
    precedence (alphabetical by default); when given it must cover every
    symbol of ``p`` and name each symbol once.  The text parses back to an
    equal polynomial only when every coefficient has at most 7 significant
    digits, since ``format_number`` rounds to 7: ``parse(render(x / 3))``
    differs from ``x / 3``.  ``canonical_json`` is the lossless form.
    """
    if order == "canonical":
        if varorder is not None:
            raise ValueError("varorder is only meaningful with order='lex'")
        items = [(t, c) for t, c in p.terms()]
    elif order == "lex":
        syms = p.symbols()
        vo = [require_symbol(s) for s in varorder] if varorder is not None else sorted(syms)
        repeated = sorted({s for s in vo if vo.count(s) > 1})
        if repeated:
            raise ValueError(f"varorder repeats symbols: {repeated}")
        missing = set(syms) - set(vo)
        if missing:
            raise ValueError(f"varorder does not cover symbols: {sorted(missing)}")
        # Distinct terms have distinct power vectors, so the sort below fixes
        # the order alone and the stored order may be read as it is.
        ordered = []
        for t, c in p._terms.items():
            vec = tuple(power_of(t, s) for s in vo)
            pairs = tuple((s, k) for s, k in zip(vo, vec) if k != 0)
            ordered.append((vec, pairs, c))
        ordered.sort(key=lambda e: e[0], reverse=True)
        items = [(pairs, c) for _, pairs, c in ordered]
    else:
        raise ValueError(f"unknown order {order!r}; expected 'canonical' or 'lex'")

    if not items:
        return "0"

    out = []
    for i, (pairs, c) in enumerate(items):
        body = _term_text(pairs, abs(c))
        if i == 0:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(out)


def render_series(decomposition) -> str:
    """Render a series decomposition: components as ``v^k(...)`` joined by " + "."""
    head = decomposition.display or decomposition.variable
    parts = [
        f"{head}^{k}({render(coeff)})" for k, coeff in decomposition.components
    ]
    return " + ".join(parts) if parts else f"{head}^0(0)"
