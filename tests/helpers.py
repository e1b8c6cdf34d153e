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
import random
import signal

import numpy as np

from sparsepoly import Mvp


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
