"""Shared test utilities: independent oracles and generators.

The dense-box oracle represents a polynomial as a dense exponent array
over a shifted box (exponent e stored at index e - lo) and multiplies by
shift-and-add convolution, a completely different code path from the
library's sorted-map merge.  Coefficients in oracle tests are small
integers so float arithmetic is exact and comparisons can demand
equality.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import random
import signal
import struct
import sys

import numpy as np

from sparsepoly import Mvp
from sparsepoly._kernel import _DECODE_CHUNK, _distinct, mul_terms, pow_terms
from sparsepoly.core import (
    INT64_MAX,
    INT64_MIN,
    add_terms,
    check_power,
    constant,
    group_by_power,
    power_of,
    require_symbol,
    split_term,
)


def to_box(p: Mvp, symbols: tuple, lo: int, hi: int) -> np.ndarray:
    span = hi - lo + 1
    box = np.zeros((span,) * len(symbols))
    for t, c in p.terms():
        idx = [-lo] * len(symbols)
        for s, k in t:
            idx[symbols.index(s)] = k - lo
        box[tuple(idx)] += c
    return box


def box_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense convolution: shift b by every nonzero cell of a and accumulate."""
    out = np.zeros(tuple(sa + sb - 1 for sa, sb in zip(a.shape, b.shape)))
    for idx in np.argwhere(a != 0.0):
        window = tuple(slice(i, i + n) for i, n in zip(idx, b.shape))
        out[window] += a[tuple(idx)] * b
    return out


def mvp_from_box(box: np.ndarray, symbols: tuple, lo: int) -> Mvp:
    pairs = []
    for idx in np.argwhere(box != 0.0):
        term = [(symbols[d], int(e) + lo) for d, e in enumerate(idx) if int(e) + lo != 0]
        pairs.append((tuple(term), float(box[tuple(idx)])))
    return Mvp(pairs)


def eval_at(p: Mvp, point: dict) -> float:
    """Plain per-term evaluation, independent of subvec's vectorised path."""
    total = 0.0
    for t, c in p.terms():
        v = c
        for s, k in t:
            v *= float(point[s]) ** k
        total += v
    return total


def random_mvp(
    rng: random.Random,
    symbols: str = "abcd",
    max_terms: int = 8,
    power_lo: int = -3,
    power_hi: int = 3,
    coeff_hi: int = 9,
) -> Mvp:
    """Random polynomial with small integer coefficients."""
    pairs = []
    for _ in range(rng.randint(0, max_terms)):
        term = {}
        for s in rng.sample(symbols, rng.randint(0, len(symbols))):
            k = rng.randint(power_lo, power_hi)
            if k != 0:
                term[s] = k
        c = rng.randint(1, coeff_hi) * rng.choice((1, -1))
        pairs.append((tuple(sorted(term.items())), float(c)))
    return Mvp(pairs)


def random_float_mvp(rng: random.Random, n_terms: int, digits: int | None = None) -> Mvp:
    """Random Laurent polynomial of up to ``n_terms`` distinct terms over
    ``a``-``e``, powers reaching the signed 64-bit ends.  Coefficients are
    any finite nonzero double, drawn from random bits, or with ``digits`` a
    nonzero integer of at most that many digits times a power of ten in
    [1e-30, 1e30]."""
    terms = {}
    for _ in range(n_terms):
        powers = rng.choice((range(-3, 4), (INT64_MIN, -1, 1, INT64_MAX)))
        chosen = rng.sample("abcde", rng.randint(0, 4))
        t = tuple(sorted((s, k) for s in chosen if (k := rng.choice(powers))))
        if digits is None:
            c = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        else:
            mantissa = rng.randint(1, 10**digits - 1) * rng.choice((1, -1))
            c = float(f"{mantissa}e{rng.randint(-30, 30)}")
        if math.isfinite(c) and c != 0.0:
            terms[t] = c
    return Mvp(terms)


def random_nonneg_mvp(rng: random.Random, symbols: str = "abcd", max_terms: int = 6) -> Mvp:
    return random_mvp(rng, symbols, max_terms, power_lo=1, power_hi=3)


def norm_ws(text: str) -> str:
    """Collapse runs of whitespace to single spaces (line-wrap artifacts)."""
    return " ".join(text.split())


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once it has run ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Frozen copies of the per-term loops that subvec, deriv, canonical_json,
# subs, onevarpow, pow_terms, the packed decode and from_json replaced.  The
# differential tests require the library to give the same bits, stored
# order and errors as these.


def subvec_loop(p: Mvp, vectors: dict) -> np.ndarray:
    """Per-term, per-factor evaluation with one small numpy call each."""
    vectors = {s: np.atleast_1d(np.asarray(v, dtype=float)) for s, v in vectors.items()}
    lengths = {v.shape[0] for v in vectors.values()}
    lengths.discard(1)
    n = lengths.pop() if lengths else 1
    out = np.zeros(n)
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


def deriv_once_loop(terms: dict, symbol: str) -> dict:
    """Split each term, re-append and sort, then sum through add_terms."""

    def pairs():
        for t, c in terms.items():
            k = 0
            rest = []
            for s, p in t:
                if s == symbol:
                    k = p
                else:
                    rest.append((s, p))
            if k == 0:
                continue
            if k != 1:
                rest.append((symbol, check_power(k - 1)))
                rest.sort()
            yield tuple(rest), c * k

    return add_terms({}, pairs())


def canonical_json_loop(p: Mvp) -> str:
    """Format every pair of every term."""
    term_json = '{"powers":{%s},"coeff":%s}'
    rep = float.__repr__
    return '{"terms":[%s]}' % ",".join(
        [
            term_json % (",".join(['"%s":%d' % pair for pair in t]), rep(c))
            for t, c in p.terms()
        ]
    )


def substitute_one_loop(terms: dict, symbol: str, value: Mvp) -> dict:
    """One substitution step, the k = 0 group multiplied by {(): 1.0}."""
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
                        continue
                    c = c * cval**k
                yield rest, c

        return add_terms({}, scaled())

    groups = group_by_power(terms, symbol)
    for k in groups:
        if k < 0:
            raise ValueError(
                f"cannot substitute a non-constant polynomial for {symbol!r}, "
                f"which occurs with negative power {k}"
            )
    out = {}
    vk, k_prev = {(): 1.0}, 0
    for k in sorted(groups):
        if k != k_prev:
            step = pow_terms(value._canonical(), k - k_prev)
            vk = mul_terms(vk, step) if k_prev else step
            k_prev = k
        add_terms(out, mul_terms(groups[k], vk).items())
    return out


def onevarpow_loop(p: Mvp, targets: dict) -> dict:
    """Scan each term once per target with power_of."""
    for s in targets:
        require_symbol(s)
    kept = (
        (tuple(pair for pair in t if pair[0] not in targets), c)
        for t, c in p._terms.items()
        if all(power_of(t, s) == k for s, k in targets.items())
    )
    return add_terms({}, kept)


def pow_terms_loop(terms: dict, n: int, mul=mul_terms) -> dict:
    """Binary squaring over dict products: each square is decoded into a
    dict of tuple terms before the next product reads it.

    ``mul`` is called with two dicts and must return one; pass a spy that
    wraps ``mul_terms`` to record the products.
    """
    if n == 0:
        return {(): 1.0}
    result = None
    while True:
        if n & 1:
            result = terms if result is None else mul(result, terms)
        n >>= 1
        if not n:
            return result
        terms = mul(terms, terms)


def decode_terms_loop(keys, coeffs, columns):
    """The packed decode with a Python call per term: each half's terms are
    a list read through ``map``, and ``map(operator.add, ...)`` joins them."""
    size = math.prod([span for _, _, span in columns])
    split, high_terms, low_terms = _halves_loop(keys, size, columns)
    out = {}
    for i in range(0, len(keys), _DECODE_CHUNK):
        chunk = slice(i, i + _DECODE_CHUNK)
        high, low = np.divmod(keys[chunk], split)
        out.update(zip(map(operator.add, high_terms(high), low_terms(low)), coeffs[chunk].tolist()))
    return out


def _halves_loop(keys, size, columns):
    cut = len(columns)
    split = 1
    while cut > 1 and split * split < size:
        cut -= 1
        split *= columns[cut][2]
    high, low = np.divmod(keys, split)
    return (
        split,
        _half_terms_loop(high, size // split, columns[:cut]),
        _half_terms_loop(low, split, columns[cut:]),
    )


def _half_terms_loop(halves, size, columns):
    if size <= len(halves):
        present = np.zeros(size, dtype=bool)
        present[halves] = True
        terms = [None] * size
        for key in np.flatnonzero(present).tolist():
            terms[key] = _decode_loop(key, columns)
        return lambda chunk: map(terms.__getitem__, chunk.tolist())
    occurring = _distinct(halves)
    if len(columns) == 1:
        [(s, low, _)] = columns
        terms = [((s, k),) if k else () for k in (occurring + low).tolist()]
    else:
        split, high_terms, low_terms = _halves_loop(occurring, size, columns)
        high, low = np.divmod(occurring, split)
        terms = list(map(operator.add, high_terms(high), low_terms(low)))
    return lambda chunk: map(terms.__getitem__, np.searchsorted(occurring, chunk).tolist())


def _decode_loop(key, columns):
    pairs = []
    for s, low, span in reversed(columns):
        key, digit = divmod(key, span)
        if digit + low:
            pairs.append((s, digit + low))
    pairs.reverse()
    return tuple(pairs)


def from_json_two_pass(text: str) -> Mvp:
    """Check every entry of the document, then build the terms again
    through ``Mvp(pairs)``, which runs ``normalize_term`` on each."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None
    terms = doc.get("terms") if isinstance(doc, dict) else None
    if not isinstance(terms, list):
        raise ValueError("expected an object with a 'terms' array")
    pairs = []
    for entry in terms:
        if not isinstance(entry, dict) or "powers" not in entry or "coeff" not in entry:
            raise ValueError(f"expected a term object with 'powers' and 'coeff', got {entry!r}")
        powers, coeff = entry["powers"], entry["coeff"]
        if not isinstance(powers, dict):
            raise ValueError(f"'powers' must be an object, got {powers!r}")
        is_number = isinstance(coeff, (int, float)) and not isinstance(coeff, bool)
        if not is_number or not -sys.float_info.max <= coeff <= sys.float_info.max:
            raise ValueError(f"coefficient must be a finite number, got {coeff!r}")
        for s, k in powers.items():
            if type(k) is not int:
                if isinstance(k, float) and k.is_integer():
                    k = powers[s] = int(k)
                if isinstance(k, bool) or not isinstance(k, int):
                    raise ValueError(f"non-integer power {k!r} for symbol {s!r}")
        pairs.append((powers, float(coeff)))
    return Mvp(pairs)
