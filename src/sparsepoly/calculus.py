"""Partial derivatives and Horner-scheme polynomial composition."""

from __future__ import annotations

from itertools import chain, repeat
from typing import Sequence, Union

from .core import (
    _PAIRS, Mvp, _coefficient, _integer, check_finite, check_power, named_pairs, require_symbol,
)
from .parser import parse_or_lift


def _deriv_once(terms: dict, symbol: str) -> dict:
    """d/dsymbol of a term dict, in the order of ``terms``.

    Distinct terms that hold the symbol give distinct terms, and ``c*k``
    is never 0, so nothing is summed and a plain dict keeps the order.
    Each power's lowered pair is looked up in ``_PAIRS`` once per call.
    """
    out = {}
    lowered = {1: ()}
    for t, c in terms.items():
        i = 0
        for s, k in t:
            if s == symbol:
                break
            i += 1
        else:
            continue
        pair = lowered.get(k)
        if pair is None:
            pair = lowered[k] = (_PAIRS[symbol, check_power(k - 1)],)
        out[t[:i] + pair + t[i + 1 :]] = c * k
    return out


def _derive(p: Mvp, symbols) -> Mvp:
    """The steps of ``deriv``, by valid names.  Checks each result but the
    last, which ``_from_clean`` checks, before the next step."""
    terms = p._terms
    for i, s in enumerate(symbols):
        if not terms:
            break
        terms = _deriv_once(check_finite(terms) if i else terms, s)
    return Mvp._from_clean(terms)


def deriv(p: Mvp, variables: Union[str, Sequence[str]]) -> Mvp:
    """Successive partial derivatives, applied left to right.

    Per term, d/ds of c*s^k*R is c*k*s^(k-1)*R, valid for negative k;
    terms without the variable are dropped.  The result keeps the
    input's stored term order.  Every name is checked first; the steps
    stop at zero and raise OverflowError where a coefficient overflows.
    """
    names = [variables] if isinstance(variables, str) else variables
    return _derive(p, [require_symbol(s) for s in names])


def aderiv(p: Mvp, orders=None, **by_name) -> Mvp:
    """Mixed partial of the given order per symbol.

    ``aderiv(p, a=3, c=2)`` is ``deriv(p, ["a", "a", "a", "c", "c"])``,
    value and errors alike, so ``aderiv(x, x=10**9)`` is 0 at once.
    ``orders`` and the keywords are read by ``named_pairs``; a repeated
    symbol keeps its last order, and every name is checked before any
    order.  A non-integer order raises TypeError and a negative one
    ValueError, each naming its symbol (order 0 is a no-op).
    """
    counts = []
    for s, k in dict(named_pairs(orders, by_name)).items():
        k = _integer(f"derivative order for {s!r}", k)
        if k < 0:
            raise ValueError(f"derivative order for {s!r} must be nonnegative, got {k}")
        counts.append(repeat(s, k))
    return _derive(p, chain.from_iterable(counts))


def horner(base: Union[Mvp, str], coeffs: Sequence[float]) -> Mvp:
    """Sum of coeffs[i] * base**i evaluated by Horner's nested scheme."""
    b = parse_or_lift(base)
    cs = [_coefficient(c) for c in coeffs]
    if not cs:
        raise ValueError("horner needs at least one coefficient")
    acc = Mvp.from_number(cs[-1])
    for c in reversed(cs[:-1]):
        acc = acc * b + Mvp.from_number(c)
    return acc
