"""Powers against the frozen binary-squaring loop over dict products
(``helpers.pow_terms_loop``).

``pow_terms`` keeps its intermediates packed while the packed path runs and
decodes the power once; the loop decodes every square into a dict before
the next product reads it.  Both must give the same bits in the same stored
order, raise the same errors at the same step, and make the same products.
"""

import math
import random
import tracemalloc

import pytest

from helpers import pow_terms_loop
from sparsepoly import PowerOverflowError, knight, parse
from sparsepoly import _kernel
from sparsepoly.core import INT64_MAX, check_finite


def stored(terms: dict) -> list:
    """Terms in stored order with each coefficient's exact bits."""
    return [(t, c.hex()) for t, c in terms.items()]


def outcome(power, terms, n):
    """A power's stored rows, or its error; and the error of the public
    result's finiteness check, which names the first non-finite
    coefficient in stored order."""
    try:
        out = power(terms, n)
    except PowerOverflowError as e:
        return "PowerOverflowError", str(e)
    try:
        check_finite(out)
    except OverflowError as e:
        return stored(out), str(e)
    return stored(out), None


def _random_terms(rng, n_terms, symbols, top, negative):
    """Up to n_terms distinct terms (fewer where the powers allow fewer)."""
    out = {}
    for _ in range(4 * n_terms):
        if len(out) == n_terms:
            break
        term = {}
        for s in rng.sample(symbols, rng.randint(0, len(symbols))):
            k = rng.randint(-top if negative else 1, top)
            if k:
                term[s] = k
        out[tuple(sorted(term.items()))] = None
    return list(out)


def _coefficient(rng, kind):
    if kind == "int":  # small integers: exact sums, and some cancel to 0
        return float(rng.choice((-3, -2, -1, 1, 2, 3)))
    if kind == "float":
        return rng.uniform(-2, 2) / 3
    return rng.choice((-1, 1)) * 10.0 ** rng.randint(60, 160)  # overflows to inf


def random_base(rng):
    """1-8 symbols, 2-40 terms, powers of either sign, from a few up to
    near 2^61, coefficients that sum exactly, round, or overflow."""
    symbols = "abcdefgh"[: rng.randint(1, 8)]
    top = rng.choice((1, 1, 2, 3, 20, 1000, 2**40, 2**60 + 2**59))
    terms = _random_terms(rng, rng.randint(2, 40), symbols, top, rng.random() < 0.6)
    kind = rng.choice(("int", "int", "float", "huge"))
    return {t: _coefficient(rng, kind) for t in terms}


def _pairs(terms, n):
    """At most this many term pairs in the products of the n-th power."""
    lo, hi = _kernel._power_ranges(terms)

    def size(m):  # at most this many terms in the m-th power
        box = math.prod(m * (hi.get(s, 0) - lo.get(s, 0)) + 1 for s in lo.keys() | hi.keys())
        return min(math.comb(len(terms) + m - 1, m), box)

    pairs, done, square = 0, 0, 1
    while n:
        if n & 1:
            pairs += size(done) * size(square) if done else 0
            done += square
        n >>= 1
        if n:
            pairs += size(square) ** 2
            square *= 2
    return pairs


def _cases():
    rng = random.Random(19)
    cases = []
    while len(cases) < 260:
        base, n = random_base(rng), rng.randint(0, 9)
        if _pairs(base, n) <= 30000:
            cases.append((base, n))
    # One symbol with powers near 2^60: the squares fit int64 and take the
    # packed path, and a later product's key space does not.  With 8 terms
    # the squares stay below the 512-pair floor; with 24 they reach it.
    for m in (8, 24):
        for n in (2, 3, 4, 7, 8, 9):
            cases.append(({(("x", 2**60 + 5 * i),): 1.0 for i in range(m)}, n))
    # x^2 cancels in the square: 1 * 1 + 2 * (1 * -0.5) is exactly 0.
    cancel = parse("1 + x - 0.5 x^2 + y + y^2 + x y + x^2 y + x y^2")._terms
    cases += [(cancel, n) for n in (2, 3, 4, 5)]
    return cases


CASES = _cases()


@pytest.fixture
def paths(monkeypatch):
    """Each product of a power: whether an operand was packed, the pair
    count, the key space, its way (dense, sort or dict), and whether an
    exact zero was dropped from it."""
    calls = []
    way = []
    real_mul, real_packed, real_dict = _kernel.mul_terms, _kernel._mul_packed, _kernel.mul_terms_dict

    def mul_terms(p, q):
        packed = isinstance(p, _kernel._Packed) or isinstance(q, _kernel._Packed)
        size = math.prod(span for _, _, span in _kernel._columns(p, q))
        record = {"packed": packed, "short": min(len(p), len(q)), "pairs": len(p) * len(q), "size": size}
        calls.append(record)
        out = real_mul(p, q)
        record["way"] = way.pop()
        if record["pairs"] <= 4000:
            p_terms, q_terms = _kernel._unpacked(p), _kernel._unpacked(q)
            formed = {_kernel.merge_terms(a, b) for a in p_terms for b in q_terms}
            record["cancelled"] = len(formed) > len(out)
        return out

    def mul_packed(p, q, columns, dense):
        way.append("dense" if dense else "sort")
        return real_packed(p, q, columns, dense)

    def mul_terms_dict(p, q):
        way.append("dict")
        return real_dict(p, q)

    monkeypatch.setattr(_kernel, "mul_terms", mul_terms)
    monkeypatch.setattr(_kernel, "_mul_packed", mul_packed)
    monkeypatch.setattr(_kernel, "mul_terms_dict", mul_terms_dict)
    return calls


def test_powers_match_the_squaring_loop(paths):
    seen = set()
    for base, n in CASES:
        paths.clear()
        got = outcome(_kernel.pow_terms, base, n)
        steps = list(paths)
        assert got == outcome(pow_terms_loop, base, n), (sorted(base)[:3], n)
        if got[0] == "PowerOverflowError":
            seen.add("overflow after a packed step" if any(s["packed"] for s in steps) else "overflow")
        elif got[1] is not None:
            seen.add("inf")
        for s in steps:
            if "way" not in s:  # the product that raised
                continue
            if s["way"] != "dict":
                seen.add(s["way"] + (" packed" if s["packed"] else ""))
            elif s["packed"]:
                if s["short"] < _kernel._PACKED_MIN_TERMS:
                    seen.add("8-term floor")
                elif s["size"] > INT64_MAX:
                    seen.add("beyond int64")
                elif s["pairs"] < _kernel._SORTED_MIN_PAIRS:
                    seen.add("512-pair floor")
            if s.get("cancelled"):
                seen.add(f"cancelled on the {s['way']} way")
    assert seen >= {
        "dense packed", "sort packed",
        "8-term floor", "512-pair floor", "beyond int64",
        "overflow after a packed step", "inf",
        "cancelled on the dense way", "cancelled on the sort way", "cancelled on the dict way",
    }, seen


def test_a_power_raises_at_the_same_product(paths):
    # 24 terms near 2^60: the square and the 4th power go packed, and the
    # 8th power's key space is beyond int64, so the dict path runs on the
    # decoded 4th power and raises there, naming the same power sum.
    base = {(("x", 2**60 + 5 * i),): 1.0 for i in range(24)}
    with pytest.raises(PowerOverflowError) as raised:
        _kernel.pow_terms(base, 8)
    steps = [(s["packed"], s.get("way")) for s in paths]
    assert steps == [(True, "sort"), (True, "sort"), (True, None)]
    with pytest.raises(PowerOverflowError) as frozen:
        pow_terms_loop(base, 8)
    assert str(raised.value) == str(frozen.value)


def _spy(calls):
    """``mul_terms`` recording ``(len(p), len(q), len(out))`` of each
    product, as the perfbench tracer counts them."""
    real = _kernel.mul_terms

    def spy(p, q):
        out = real(p, q)
        calls.append((len(p), len(q), len(out)))
        return out

    return spy


@pytest.mark.parametrize(
    "base, n",
    [(knight(4), 4), (knight(4), 5), (parse("1+a+b+c+d+e+f+g"), 8)],
    ids=["knight4^4", "knight4^5", "(1+a+...+g)^8"],
)
def test_the_tracer_sees_the_same_products(base, n, monkeypatch):
    terms = base._canonical()
    frozen = []
    pow_terms_loop(terms, n, mul=_spy(frozen))
    got = []
    monkeypatch.setattr(_kernel, "mul_terms", _spy(got))
    _kernel.pow_terms(terms, n)
    assert got == frozen
    assert len(got) == {4: 2, 5: 3, 8: 3}[n]


def test_a_packed_power_peaks_below_the_squaring_loop():
    # The loop holds knight(4)^4 as 9,073 tuple terms while it makes the
    # 5th power; pow_terms holds it as keys and coefficients.
    terms = knight(4)._canonical()
    peaks = {}
    for power in (pow_terms_loop, _kernel.pow_terms):
        power(terms, 5)  # numpy and its caches loaded before measuring
        tracemalloc.start()
        try:
            power(terms, 5)
            peaks[power] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[_kernel.pow_terms] < peaks[pow_terms_loop]
