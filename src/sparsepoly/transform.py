"""Substitution (sequential and vectorised) and power negation.

Bindings are an ordered list, not a mapping: applying ``a -> x^6`` then
``x -> 1+a`` differs from the reverse order, so order is part of the
contract.  Keyword arguments are a convenience that preserves call order.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ._kernel import mul_terms, pow_terms
from .core import (
    Mvp, Record, add_terms, check_power, constant, group_by_power, require_symbol, split_term,
)
from .parser import parse_or_lift


class Binding(Record):
    """One substitution step: replace ``symbol`` by ``value`` everywhere."""

    __slots__ = __match_args__ = ("symbol", "value")

    def __init__(self, symbol: str, value: Mvp):
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "value", value)


def _as_bindings(pairs, by_name) -> list[Binding]:
    out = []
    for symbol, value in list(pairs or []) + list(by_name.items()):
        out.append(Binding(require_symbol(symbol), parse_or_lift(value)))
    return out


def _substitute_one(terms: dict, symbol: str, value: Mvp) -> dict:
    if value.is_constant:
        cval = constant(value)

        def scaled():
            for t, c in terms.items():
                k, rest = split_term(t, symbol)
                if k != 0:
                    if cval == 0.0:
                        if k < 0:
                            raise ZeroDivisionError(
                                f"substituting 0 for {symbol!r} raised to power {k}"
                            )
                        continue  # term vanishes
                    c = c * cval**k
                yield rest, c

        return add_terms({}, scaled())

    # Polynomial-valued substitution: group the residues by the power of
    # the bound symbol, then fold in value**k per group.
    groups = group_by_power(terms, symbol)
    for k in groups:
        if k < 0:
            raise ValueError(
                f"cannot substitute a non-constant polynomial for {symbol!r}, "
                f"which occurs with negative power {k}"
            )

    # value**k in ascending k, each from the one before.
    out = {}
    vk, k_prev = {(): 1.0}, 0
    for k in sorted(groups):
        if k != k_prev:
            step = pow_terms(value._canonical(), k - k_prev)
            vk = mul_terms(vk, step) if k_prev else step
            k_prev = k
        add_terms(out, mul_terms(groups[k], vk).items())
    return out


def subs(p: Mvp, bindings: Optional[Sequence] = None, *, lose: bool = True, **by_name):
    """Apply substitutions strictly left to right.

    ``bindings`` is a sequence of (symbol, value) pairs; keyword arguments
    are appended in call order.  Values may be polynomials, strings (parsed),
    or numbers.  With ``lose`` (the default) a constant result is returned
    as a plain scalar rather than a polynomial.
    """
    # Read in canonical order: a term's residue can collect several terms.
    terms = p._canonical()
    for b in _as_bindings(bindings, by_name):
        terms = _substitute_one(terms, b.symbol, b.value)
    result = Mvp._from_clean(terms)
    if lose and result.is_constant:
        return constant(result)
    return result


def subvec(p: Mvp, bindings: Optional[dict] = None, **by_name) -> np.ndarray:
    """Evaluate at vectors of numeric values, one result per component.

    Every symbol of ``p`` must be bound; vectors must share one length
    (length-1 values are recycled).  Negative powers evaluate as real
    reciprocals.  Raises ValueError on a non-finite value and
    OverflowError when a result overflows a double.
    """
    # Imported here, not at module level: numpy is most of the package's
    # import time, and only this function needs it.
    import numpy as np

    supplied = dict(bindings or {})
    supplied.update(by_name)
    for s in supplied:
        require_symbol(s)
    vectors = {s: np.atleast_1d(np.asarray(v, dtype=float)) for s, v in supplied.items()}
    for s, v in vectors.items():
        if not np.isfinite(v).all():
            raise ValueError(f"non-finite value bound to {s!r}")

    unbound = [s for s in p.symbols() if s not in vectors]
    if unbound:
        raise ValueError(f"unbound symbols: {unbound}")

    lengths = {v.shape[0] for v in vectors.values()}
    lengths.discard(1)
    if len(lengths) > 1:
        raise ValueError(f"incompatible vector lengths: {sorted(lengths)}")
    n = lengths.pop() if lengths else 1

    out = np.zeros(n)
    # An overflow shows as inf or NaN in the result, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, c in p.terms():
            term_val = np.full(n, c)
            for s, k in t:
                vec = vectors[s]
                if k < 0 and np.any(vec == 0.0):
                    raise ZeroDivisionError(
                        f"{s!r} is zero at some component but occurs with power {k}"
                    )
                term_val = term_val * vec ** float(k)
            out += term_val
    if not np.isfinite(out).all():
        bad = float(out[~np.isfinite(out)][0])
        raise OverflowError(f"value overflows a double: {bad!r}")
    return out


def invert(p: Mvp) -> Mvp:
    """Negate every power of every symbol; coefficients are unchanged."""
    out = {}
    for t, c in p._terms.items():
        out[tuple((s, check_power(-k)) for s, k in t)] = c
    return Mvp._from_clean(out)
