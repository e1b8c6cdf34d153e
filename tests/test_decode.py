"""The packed decode must give the frozen per-term decode's dict: the same
terms, in the same stored order, with the same coefficient bits."""

import random
import tracemalloc

import numpy as np
import pytest

from helpers import decode_terms_loop
from sparsepoly import knight, parse
from sparsepoly import _kernel


def _rows(terms):
    # Stored order, with each coefficient's exact bits.
    return [(t, c.hex()) for t, c in terms.items()]


def _terms(rng, n, symbols, lo, hi, most=3):
    """n distinct terms of up to ``most`` symbols with powers in [lo, hi]
    (the constant term may be one), with non-integer coefficients."""
    out = {}
    while len(out) < n:
        chosen = rng.sample(symbols, rng.randint(0, min(most, len(symbols))))
        t = tuple(sorted((s, k) for s in chosen if (k := rng.randint(lo, hi))))
        out[t] = rng.uniform(-2.0, 2.0) / 3.0
    return out


def _dense_mul_operand(rng):
    # The benchmark's dense_mul operands, drawn the same way: 1000 distinct terms
    # of 1-3 of six symbols with powers 1..4 and integer coefficients 1..9.
    out = {}
    while len(out) < 1000:
        chosen = rng.sample("abcdef", rng.randint(1, 3))
        t = tuple(sorted((s, rng.randint(1, 4)) for s in chosen))
        if t not in out:
            out[t] = float(rng.randint(1, 9))
    return out


@pytest.fixture
def reached(monkeypatch):
    """Check every decode against the frozen one, and record what each
    reached: the branches of ``_half_terms``, a gathered ``()`` half,
    negative powers, several chunks and keys not in ascending order.  The
    count of decodes is kept under ``"decodes"``."""
    seen = {"decodes": 0}
    real_decode, real_half_terms = _kernel._decode_terms, _kernel._half_terms

    def decode_terms(keys, coeffs, columns):
        got = real_decode(keys, coeffs, columns)
        assert _rows(got) == _rows(decode_terms_loop(keys, coeffs, columns))
        assert all(type(k) is int for t in got for _, k in t)
        seen["decodes"] += 1
        if any(low < 0 for _, low, _ in columns):
            seen["negative powers"] = True
        if len(keys) > _kernel._DECODE_CHUNK:
            seen["several chunks"] = True
        if (np.diff(keys) < 0).any():
            seen["keys out of order"] = True
        return got

    def half_terms(halves, size, columns):
        if size <= len(halves):
            seen["table"] = True
        else:
            seen["one column" if len(columns) == 1 else "split"] = True
        terms = real_half_terms(halves, size, columns)

        def gathered(chunk):
            out = terms(chunk)
            if () in out.tolist():
                seen["() half"] = True
            return out

        return gathered

    monkeypatch.setattr(_kernel, "_decode_terms", decode_terms)
    monkeypatch.setattr(_kernel, "_half_terms", half_terms)
    return seen


def test_decode_matches_the_frozen_loop(reached):
    rng = random.Random(21)
    products = [
        (knight(3)._terms, knight(3)._terms),
        (_terms(rng, 40, "abc", -3, 3), _terms(rng, 50, "abc", -3, 3)),
        (_terms(rng, 24, "abcdefgh", -4, 4, 8), _terms(rng, 31, "abcdefgh", -4, 4, 8)),
        (_terms(rng, 32, "xy", -1000, 1000), _terms(rng, 39, "xy", -1000, 1000)),
        (_terms(rng, 24, "x", -10**6, 10**6), _terms(rng, 29, "x", -10**6, 10**6)),
        (_terms(rng, 300, "abcdef", -2, 4), _terms(rng, 300, "abcdef", -2, 4)),
    ]
    for seed in range(12):
        r = random.Random(seed)
        symbols = r.choice(("abc", "abcdefgh", "pqrstuvwxyz"))
        top = r.choice((2, 3, 20))
        products.append(tuple(_terms(r, r.randint(8, 60), symbols, -top, top, 4) for _ in "pq"))
    for p, q in products:
        _kernel.mul_terms(p, q)
    for base, n in [(knight(4), 5), (parse("x^-1 + 2 + 3 y^2"), 9), (parse("1+a+b+c+d+e+f+g"), 6)]:
        decodes = reached["decodes"]
        assert isinstance(_kernel.pow_terms(base._canonical(), n), dict)
        if reached["decodes"] > decodes:
            reached["power"] = True
    for p, _ in products:
        packed = _kernel._pack(p)
        assert isinstance(packed, _kernel._Packed)
        _kernel._unpacked(packed)
    assert reached.keys() >= {
        "table", "split", "one column", "() half", "negative powers",
        "several chunks", "keys out of order", "power",
    }, reached


def test_decode_peaks_no_higher_than_the_frozen_loop(monkeypatch):
    # The dense_mul product: 91,705 terms decoded in 23 chunks from two
    # 729-entry half tables.  Both decodes peak near 16 MB, nearly all of
    # it the dict; the margin allows 256 KB for the chunk's object arrays.
    rng = random.Random("dense_mul:1")
    p, q = _dense_mul_operand(rng), _dense_mul_operand(rng)
    decode_terms, captured = _kernel._decode_terms, []
    monkeypatch.setattr(_kernel, "_decode_terms", lambda *args: captured.append(args) or {})
    _kernel.mul_terms(p, q)
    [args] = captured
    assert len(args[0]) == 91705
    peaks = {}
    for decode in (decode_terms_loop, decode_terms):
        decode(*args)  # numpy and its caches loaded before measuring
        tracemalloc.start()
        try:
            decode(*args)
            peaks[decode] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[decode_terms] <= peaks[decode_terms_loop] + 2**18
