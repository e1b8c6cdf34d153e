"""Substitution (sequential and vectorised) and power negation.

Bindings are applied in order: ``a -> x^6`` then ``x -> 1+a`` differs
from the reverse order, so order is part of the contract.  A mapping is
read as its items, and keyword arguments follow in call order.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from ._kernel import mul_terms, pow_terms
from .core import (
    _PAIRS, Mvp, _value_eq, _value_hash, _value_ne, add_terms, check_power, constant,
    group_by_power, named_pairs, split_term,
)
from .parser import parse_or_lift


class Binding(NamedTuple):
    """One substitution step: replace ``symbol`` by ``value``; iterates as that pair."""

    symbol: str
    value: Mvp

    __eq__, __ne__, __hash__ = _value_eq, _value_ne, _value_hash


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

    # value**k in ascending k, each from the one before.  The k = 0 group
    # is added as it is: a product with {(): 1.0} would only copy it.
    out = {}
    vk, k_prev = None, 0
    for k in sorted(groups):
        if k == 0:
            add_terms(out, groups[0].items())
            continue
        step = pow_terms(value._canonical(), k - k_prev)
        vk = mul_terms(vk, step) if k_prev else step
        k_prev = k
        add_terms(out, mul_terms(groups[k], vk).items())
    return out


def subs(p: Mvp, bindings=None, *, lose: bool = True, **by_name):
    """Apply substitutions strictly left to right.

    ``bindings`` is a mapping, read as its items, or an iterable of
    (symbol, value) pairs, ``Binding`` included; keyword arguments are
    appended in call order (``named_pairs``).  Values may be polynomials,
    strings (parsed), or numbers.  With ``lose`` (the default) a constant
    result is returned as a plain scalar rather than a polynomial.

    Every value is read before the first step, and each step is one
    single-binding call: ``subs(p, [b1, b2], lose=False)`` equals
    ``subs(subs(p, [b1], lose=False), [b2], lose=False)`` to the bit, in
    stored order too, and an overflow at a middle step raises there.
    """
    steps = [(s, parse_or_lift(v)) for s, v in named_pairs(bindings, by_name)]
    for s, value in steps:
        # Read in canonical order: a term's residue can collect several terms.
        p = Mvp._from_clean(_substitute_one(p._canonical(), s, value))
    if lose and p.is_constant:
        return constant(p)
    return p


# Cells (terms x components) per block of subvec: it bounds each temporary
# array to about this many doubles, whatever the size of the input.
_SUBVEC_BLOCK = 1 << 16


def subvec(p: Mvp, bindings=None, **by_name) -> np.ndarray:
    """Evaluate at vectors of numeric values, one result per component.

    ``bindings`` and the keywords are read by ``named_pairs``; a repeated
    symbol keeps its last value.  Every symbol of ``p`` must be bound,
    each to a number or a 1-D sequence of numbers: text (a ``str``,
    ``bytes`` or ``bytearray``, alone or as an element of a sequence)
    raises TypeError naming the symbol, and a 2-D value ValueError, before
    any term is read.  Vectors must share one length
    (length-1 values are recycled).  Negative powers evaluate as real
    reciprocals, and a zero component under a negative power raises
    ZeroDivisionError.  Raises ValueError on a non-finite value and
    OverflowError when a result overflows a double.

    Works on blocks of terms in canonical order (and, for long vectors,
    of components), so temporaries stay a few blocks in size.  Within a
    block each distinct (symbol, power) is raised once, as
    ``vec ** float(k)``; a term is its coefficient times those rows in
    the term's pair order, and the terms are added one after another in
    canonical order, so the result is the same to the bit as a per-term
    loop.  A 2-D value is refused rather than broadcast, because blocks
    would broadcast it differently from the whole.
    """
    # Imported here, not at module level: numpy is most of the package's
    # import time, and only this function needs it.
    import numpy as np

    supplied = dict(named_pairs(bindings, by_name))
    text = (str, bytes, bytearray)
    for s, v in supplied.items():
        a = np.asarray(v)
        if isinstance(v, text) or (
            a.dtype.kind in "OSU" and any(isinstance(e, text) for e in a.flat)
        ):
            raise TypeError(f"value bound to {s!r} must be a number or numbers, not text")
    vectors = {s: np.atleast_1d(np.asarray(v, dtype=float)) for s, v in supplied.items()}
    for s, v in vectors.items():
        if v.ndim != 1:
            raise ValueError(
                f"value bound to {s!r} must be a number or a 1-D sequence, "
                f"got an array of shape {v.shape}"
            )
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

    terms = p._canonical()
    # The first negative power, in term order, of a symbol with a zero.
    zeros = {s for s, v in vectors.items() if (v == 0.0).any()}
    if zeros:
        for t in terms:
            for s, k in t:
                if k < 0 and s in zeros:
                    raise ZeroDivisionError(
                        f"{s!r} is zero at some component but occurs with power {k}"
                    )

    keys = list(terms)
    coeffs = np.fromiter(terms.values(), dtype=float, count=len(keys))
    # A block is rows terms by cols components, about _SUBVEC_BLOCK cells.
    cols = max(1, min(n, _SUBVEC_BLOCK))
    rows = max(1, _SUBVEC_BLOCK // cols)
    out = np.zeros(n)
    # An overflow shows as inf or NaN in the result, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(keys), rows):
            block = keys[i : i + rows]
            # index[term, position] is the table row of that pair; row 0
            # holds 1.0, the padding of terms shorter than width.
            where = dict.fromkeys(chain.from_iterable(block))
            for r, pair in enumerate(where, 1):
                where[pair] = r
            sizes = np.fromiter(map(len, block), dtype=np.intp, count=len(block))
            width = max(1, int(sizes.max()))
            index = np.zeros((len(block), width), dtype=np.intp)
            index[np.arange(width) < sizes[:, None]] = np.fromiter(
                map(where.__getitem__, chain.from_iterable(block)), dtype=np.intp
            )
            for j in range(0, n, cols):
                part = slice(j, j + cols)
                table = np.empty((len(where) + 1, min(cols, n - j)))
                table[0] = 1.0
                for (s, k), r in where.items():
                    vec = vectors[s]
                    table[r] = (vec if len(vec) == 1 else vec[part]) ** float(k)
                vals = coeffs[i : i + rows, None] * table[index[:, 0]]
                for col in index.T[1:]:
                    vals *= table[col]
                # Added after the sum so far, one term after another.
                vals[0] += out[part]
                out[part] = np.add.accumulate(vals, axis=0)[-1]
    if not np.isfinite(out).all():
        bad = float(out[~np.isfinite(out)][0])
        raise OverflowError(f"value overflows a double: {bad!r}")
    return out


def invert(p: Mvp) -> Mvp:
    """Negate every power of every symbol; coefficients are unchanged."""
    out = {}
    for t, c in p._terms.items():
        out[tuple([_PAIRS[s, check_power(-k)] for s, k in t])] = c
    return Mvp._from_clean(out)
