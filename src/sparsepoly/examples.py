"""The paper's example polynomials: knight's moves and seeded random ones."""

from __future__ import annotations

import math
import random

from .core import Mvp, add_terms, require_symbol, term_of
from .disord import coeffs, powers

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def knight(dimension: int) -> Mvp:
    """Generating function of a knight's moves on a board of that dimension.

    One unit-coefficient term per move: an ordered pair of distinct
    coordinates, the first stepped by +-2 and the second by +-1, over the
    symbols a, b, c, ...; 4*d*(d-1) terms in dimension d.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    if dimension > 26:
        raise ValueError("dimension capped at 26 (one letter per coordinate)")
    syms = _LETTERS[:dimension]
    out = {}
    for i in range(dimension):
        for j in range(dimension):
            if i == j:
                continue
            for si in (2, -2):
                for sj in (1, -1):
                    out[term_of({syms[i]: si, syms[j]: sj})] = 1.0
    return Mvp._from_clean(out)


def rmvp(
    n_terms: int,
    symbols_per_term: int,
    max_power: int,
    alphabet,
    seed: int = 0,
) -> Mvp:
    """Random polynomial, deterministic for a fixed seed.

    Each of ``n_terms`` monomials multiplies ``symbols_per_term`` uniform
    draws from the alphabet (an iterable of symbol names, each validated,
    or a pool size meaning the first k letters), each with a uniform power
    in [1, max_power]; repeated draws merge by power addition.  Coefficients are uniform in
    {1, ..., n_terms} and like terms combine, so the result has at most
    ``n_terms`` terms.
    """
    if n_terms < 1 or symbols_per_term < 1 or max_power < 1:
        raise ValueError("rmvp arguments must be positive")
    if isinstance(alphabet, int):
        if not 1 <= alphabet <= 26:
            raise ValueError("alphabet size must be between 1 and 26")
        pool = list(_LETTERS[:alphabet])
    else:
        pool = [require_symbol(s) for s in alphabet]
        if not pool:
            raise ValueError("alphabet must not be empty")
    rng = random.Random(seed)

    def draws():
        for _ in range(n_terms):
            coeff = float(rng.randint(1, n_terms))
            merged: dict = {}
            for _ in range(symbols_per_term):
                s = rng.choice(pool)
                merged[s] = merged.get(s, 0) + rng.randint(1, max_power)
            yield term_of(merged), coeff

    return Mvp._from_clean(add_terms({}, draws()))


def expected_distance(p: Mvp) -> float:
    """Coefficient-weighted mean Euclidean norm of the power vectors."""
    rows = powers(p)
    cs = coeffs(p)
    norms = rows.map(lambda r: math.sqrt(sum(k * k for k in r.powers)))
    return norms.zip_with(cs, lambda n, c: n * c).sum() / cs.sum()
