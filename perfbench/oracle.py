"""Computations made apart from sparsepoly, used to check its outputs.

Nothing here imports sparsepoly.  A polynomial is a plain dict from a
canonical term (a tuple of (symbol, power) pairs sorted by symbol, every
power nonzero) to its coefficient.  The workloads use integer
coefficients and nonzero integer points, so every evaluation here is made
in exact integer arithmetic and every comparison demands equality: a
perturbed coefficient or a dropped term always changes the value.
"""

from __future__ import annotations

import itertools
import re

import numpy as np


def term(powers) -> tuple:
    """Canonical term from a mapping or pairs; zero powers drop out."""
    items = powers.items() if isinstance(powers, dict) else powers
    acc: dict = {}
    for s, k in items:
        acc[s] = acc.get(s, 0) + k
    return tuple(sorted((s, k) for s, k in acc.items() if k != 0))


def exact_int(c) -> int:
    """The integer a coefficient stands for; ValueError if it is not one."""
    if c != c or c in (float("inf"), float("-inf")) or int(c) != c:
        raise ValueError(f"coefficient {c!r} is not an integer")
    return int(c)


def evaluate(terms: dict, point: dict) -> int:
    """Exact value of a polynomial with nonnegative powers at an integer point."""
    total = 0
    for t, c in terms.items():
        v = exact_int(c)
        for s, k in t:
            v *= point[s] ** k
        total += v
    return total


def add_into(acc: dict, t: tuple, c) -> None:
    s = acc.get(t, 0) + c
    if s == 0:
        acc.pop(t, None)
    else:
        acc[t] = s


def derivative(terms: dict, symbol: str) -> dict:
    """d/d(symbol) by the power rule, term by term."""
    out: dict = {}
    for t, c in terms.items():
        k = dict(t).get(symbol, 0)
        if k:
            add_into(out, term([*t, (symbol, -1)]), c * k)
    return out


def from_rows(rows) -> dict:
    """Dict of a polynomial given as (term, coefficient) rows, e.g. Mvp.terms()."""
    return {t: c for t, c in rows}


_NUMBER = re.compile(r"\d+(\.\d+)?\Z")
_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")


def parse_rendered(text: str) -> dict:
    """Read the canonical text form: ``3 a b^2 - c + 7``, or ``0``.

    Terms are separated by `` + `` or `` - ``; a term is an optional
    unsigned number followed by ``symbol`` or ``symbol^k`` factors.  Only
    integer coefficients are accepted, since those are exact in text.
    """
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    out: dict = {}
    for i in range(0, len(pieces), 2):
        if i:
            sign = 1 if pieces[i - 1] == "+" else -1
        coeff = 1
        pairs = []
        for tok in pieces[i].split(" "):
            if _NUMBER.match(tok):
                coeff *= exact_int(float(tok))
                continue
            m = _FACTOR.match(tok)
            if not m:
                raise ValueError(f"unreadable token {tok!r} in {text!r}")
            pairs.append((m.group(1), int(m.group(2) or 1)))
        t = term(pairs)
        if t in out:
            raise ValueError(f"term {t!r} printed twice in {text!r}")
        out[t] = sign * coeff
    return out


def exponent_matrix(terms: dict, symbols: tuple) -> np.ndarray:
    """One row per term, one column per symbol, in the dict's order."""
    col = {s: j for j, s in enumerate(symbols)}
    out = np.zeros((len(terms), len(symbols)), dtype=np.int64)
    for i, t in enumerate(terms):
        for s, k in t:
            out[i, col[s]] = k
    return out


def dense_product(p: dict, q: dict, symbols: tuple, radix: int) -> np.ndarray:
    """Product of two polynomials by dense exponent-array convolution.

    Each exponent vector (powers 0 .. radix-1 per symbol) is one index into
    a flat array of radix**len(symbols) cells (see ``cell_index``); the
    product's cells are the bincount of all index sums weighted by the
    coefficient products.
    """
    pi = cell_index(exponent_matrix(p, symbols), radix)
    qi = cell_index(exponent_matrix(q, symbols), radix)
    pc = np.fromiter(p.values(), dtype=np.float64, count=len(p))
    qc = np.fromiter(q.values(), dtype=np.float64, count=len(q))
    return np.bincount(
        (pi[:, None] + qi[None, :]).ravel(),
        weights=(pc[:, None] * qc[None, :]).ravel(),
        minlength=radix ** len(symbols),
    )


def cell_index(exps: np.ndarray, radix: int) -> np.ndarray:
    return exps @ (radix ** np.arange(exps.shape[1], dtype=np.int64))


def sign_values(exps: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Value at every +-1 point, one entry per sign vector in product order,
    of the polynomial with these exponent rows and coefficients."""
    negs = np.array(
        list(itertools.product((0, 1), repeat=exps.shape[1])), dtype=np.int64
    ).reshape(-1, exps.shape[1])
    parity = (exps @ negs.T) % 2
    return (np.where(parity == 1, -1.0, 1.0) * coeffs[:, None]).sum(axis=0)


def knight_moves(dimension: int) -> list:
    """Offsets of a knight on a board of that many dimensions."""
    moves = []
    for i, j in itertools.permutations(range(dimension), 2):
        for si in (2, -2):
            for sj in (1, -1):
                v = [0] * dimension
                v[i], v[j] = si, sj
                moves.append(tuple(v))
    return moves


def knight_walks(dimension: int, n: int, symbols: str = "abcdefghijklmnopqrstuvwxyz") -> dict:
    """Walks of n knight moves by end offset: the polynomial knight**n.

    A dynamic program over board offsets; offset (1, 0, -2, 0) is the term
    a c^-2 and its count is the coefficient.
    """
    moves = knight_moves(dimension)
    walks = {(0,) * dimension: 1}
    for _ in range(n):
        nxt: dict = {}
        for off, count in walks.items():
            for mv in moves:
                key = tuple(a + b for a, b in zip(off, mv))
                nxt[key] = nxt.get(key, 0) + count
        walks = nxt
    return {
        term(zip(symbols, off)): count for off, count in walks.items()
    }
