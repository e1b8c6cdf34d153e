"""Partial derivatives and Horner-scheme polynomial composition."""

from __future__ import annotations

import operator
from typing import Optional, Sequence, Union

from .core import Mvp, check_finite, check_power, require_symbol
from .parser import parse_or_lift


def _deriv_once(terms: dict, symbol: str) -> dict:
    """d/dsymbol of a term dict, in the order of ``terms``.

    Distinct terms that hold the symbol give distinct terms, and ``c*k``
    is never 0, so nothing is summed and a plain dict keeps the order.
    """
    out = {}
    for t, c in terms.items():
        i = 0
        for s, k in t:
            if s == symbol:
                break
            i += 1
        else:
            continue
        if k == 1:
            out[t[:i] + t[i + 1 :]] = c * k
        else:
            out[t[:i] + ((symbol, check_power(k - 1)),) + t[i + 1 :]] = c * k
    return out


def deriv(p: Mvp, variables: Union[str, Sequence[str]]) -> Mvp:
    """Successive partial derivatives, applied left to right.

    Per term, d/ds of c*s^k*R is c*k*s^(k-1)*R, valid for negative k;
    terms without the variable are dropped.  The result keeps the
    input's stored term order.
    """
    if isinstance(variables, str):
        variables = [variables]
    terms = p._terms
    for s in variables:
        terms = _deriv_once(terms, require_symbol(s))
    return Mvp._from_clean(terms)


def aderiv(p: Mvp, orders: Optional[dict] = None, **by_name) -> Mvp:
    """Mixed partial of the given order per symbol.

    ``aderiv(p, a=3, c=2)`` differentiates three times by ``a`` and twice
    by ``c``; equivalent to ``deriv`` with each symbol repeated.  Orders
    must be nonnegative (order 0 is a no-op).  Differentiation stops once
    the polynomial is zero, and raises OverflowError at the step where a
    coefficient overflows a double, so any order takes at most a few
    hundred steps per symbol: ``aderiv(x, x=10**9)`` is 0 at once.
    """
    merged = dict(orders or {})
    merged.update(by_name)
    counts = []
    for s, k in merged.items():
        require_symbol(s)
        k = operator.index(k)
        if k < 0:
            raise ValueError(f"derivative order for {s!r} must be nonnegative, got {k}")
        counts.append((s, k))
    terms = p._terms
    for s, k in counts:
        for _ in range(k):
            if not terms:
                break
            terms = check_finite(_deriv_once(terms, s))
    return Mvp._from_clean(terms)


def horner(base: Union[Mvp, str], coeffs: Sequence[float]) -> Mvp:
    """Sum of coeffs[i] * base**i evaluated by Horner's nested scheme."""
    b = parse_or_lift(base)
    cs = [float(c) for c in coeffs]
    if not cs:
        raise ValueError("horner needs at least one coefficient")
    acc = Mvp.from_number(cs[-1])
    for c in reversed(cs[:-1]):
        acc = acc * b + Mvp.from_number(c)
    return acc
