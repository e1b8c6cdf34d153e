"""The packed multiply path must give the dict path's coefficients bit for bit."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from helpers import box_mul, random_mvp, to_box
from sparsepoly import PowerOverflowError, backend_name, knight, parse
from sparsepoly import _kernel

INT64_MAX = 2**63 - 1


def test_backend_is_known():
    assert backend_name() == "python"


def _rows(terms):
    # Terms in canonical order with each coefficient's exact bits.
    return [(t, c.hex()) for t, c in sorted(terms.items())]


def _assert_bitwise_equal(got, want):
    # Same terms, coefficients equal bit for bit; stored order aside.
    assert _rows(got) == _rows(want)


def _laurent(rng, n_terms, symbols, lo=-4, hi=4):
    """Random Laurent terms with non-integer coefficients, constant term allowed."""
    out = {}
    for _ in range(n_terms):
        term = {}
        for s in rng.sample(symbols, rng.randint(0, len(symbols))):
            k = rng.randint(lo, hi)
            if k != 0:
                term[s] = k
        out[tuple(sorted(term.items()))] = rng.uniform(-2.0, 2.0) / 3.0
    return out


def _laurent_exactly(rng, n_terms, symbols, lo, hi):
    out = {}
    while len(out) < n_terms:
        out.update(_laurent(rng, 1, symbols, lo, hi))
    return out


# More term pairs than one block of the packed accumulator, with a row
# count that does not divide the block.
_MANY_BLOCKS = (
    _laurent_exactly(random.Random(6), 290, "abc", -4, 4),
    _laurent_exactly(random.Random(7), 251, "abc", -4, 4),
)
# The same for the sort accumulator: a key space of about 66 keys per pair,
# in which many product terms are met by pairs of more than one block.
_SPARSE_MANY_BLOCKS = (
    _laurent_exactly(random.Random(9), 290, "abcdef", -3, 3),
    _laurent_exactly(random.Random(10), 251, "abcdef", -3, 3),
)


def _input_pairs():
    rng = random.Random(4)
    pairs = []
    for _ in range(60):
        pairs.append((random_mvp(rng)._terms, random_mvp(rng)._terms))
    for n in (1, 3, 8, 20, 60):
        pairs.append((_laurent(rng, n, "abc"), _laurent(rng, 2 * n, "abc")))
        pairs.append((_laurent(rng, n, "abcdefghij"), _laurent(rng, n, "abcdefghij")))
    # key spaces the packed path takes: many pairs share each product term
    for _ in range(30):
        symbols, top = rng.choice((("ab", 2), ("abc", 1)))
        p, q = (_laurent_exactly(rng, rng.randint(6, 20), symbols, -top, top) for _ in "pq")
        pairs.append((p, q))
    # key spaces above the pair count, products above the pair floor: the
    # sort accumulator's, over many symbols or with wide powers
    for n in (24, 32, 48):
        for symbols, top in (("abcdefgh", 4), ("xy", 1000), ("x", 10**6)):
            p, q = (_laurent_exactly(rng, m, symbols, -top, top) for m in (n, n + 7))
            pairs.append((p, q))
    pairs += [_MANY_BLOCKS, _SPARSE_MANY_BLOCKS]
    # every pair underflows to 0.0: empty products for both accumulators
    tiny = {(("x", i),): 1e-200 for i in range(8)}
    tiny_sparse = {(("x", 1000 * i),): 1e-200 for i in range(24)}
    pairs += [(tiny, tiny), (tiny_sparse, tiny_sparse)]
    x_plus_1 = {(("x", 1),): 1.0, (): 1.0}
    x_minus_1 = {(("x", 1),): 1.0, (): -1.0}
    k = knight(3)._terms
    pairs += [
        (x_plus_1, x_minus_1),  # the x and -x cross terms cancel exactly
        ({(): 0.1}, {(): 3.0}),  # constant times constant
        ({(): 2.5}, _laurent(rng, 10, "xy")),
        ({}, x_plus_1),
        (x_plus_1, {}),
        ({}, {}),
        (k, k),
        (_kernel.mul_terms_dict(k, k), k),
    ]
    return pairs


def _admitted(p, q):
    """The accumulator of the packed path that mul_terms takes for the key
    space of p * q, both floors aside: "dense", "sort", or None for a key
    space beyond int64, which only the dict path takes."""
    size = math.prod(span for _, _, span in _kernel._columns(p, q))
    if size <= _kernel._PACKED_KEYS_PER_PAIR * len(p) * len(q):
        return "dense"
    return "sort" if size <= INT64_MAX else None


def _packed(p, q, accumulator):
    """The packed path with the named accumulator.  Any key space that fits
    int64 admits the sort accumulator; the dense one needs its own."""
    assert len(p) and len(q)
    assert _admitted(p, q) in (("dense",) if accumulator == "dense" else ("dense", "sort"))
    return _kernel._mul_packed(p, q, _kernel._columns(p, q), accumulator == "dense")


@pytest.fixture
def packed_calls(monkeypatch):
    """Operand sizes and accumulator of each call of the packed path."""
    calls = []
    real = _kernel._mul_packed

    def spy(p, q, columns, dense):
        calls.append((len(p), len(q), "dense" if dense else "sort"))
        return real(p, q, columns, dense)

    monkeypatch.setattr(_kernel, "_mul_packed", spy)
    return calls


def test_packed_equals_dict_bitwise(packed_calls):
    admitted = {"dense": 0, "sort": 0}
    taken = []  # the accumulators mul_terms chose
    for p, q in _input_pairs():
        want = _rows(_kernel.mul_terms_dict(p, q))
        accumulator = _admitted(p, q)
        if accumulator and p and q:
            admitted[accumulator] += 1
            assert _rows(_packed(p, q, "sort")) == want
            if accumulator == "dense":
                assert _rows(_packed(p, q, "dense")) == want
        packed_calls.clear()
        assert _rows(_kernel.mul_terms(p, q)) == want
        taken += [accumulator for *_, accumulator in packed_calls]
    assert admitted["dense"] >= 35
    assert admitted["sort"] >= 60
    assert taken.count("sort") >= 10
    for p, q in (_MANY_BLOCKS, _SPARSE_MANY_BLOCKS):
        assert len(p) * len(q) > _kernel._PACKED_BLOCK
    assert _admitted(*_SPARSE_MANY_BLOCKS) == "sort"
    # Terms that pairs of both blocks meet: each block must add into the
    # term's one slot, as per-block partial sums would round differently.
    p, q = _SPARSE_MANY_BLOCKS
    rows = _kernel._PACKED_BLOCK // len(q)
    p_items = list(p.items())
    first, second = (_kernel.mul_terms_dict(dict(p_items[i : i + rows]), q) for i in (0, rows))
    assert len(p) <= 2 * rows
    assert len(first.keys() & second.keys()) > 1000


def test_a_sum_through_zero_keeps_its_later_bits():
    # In p-outer, q-inner order x gets +a, -a, +b, the constant -a, +b and
    # x^2 +a, -a.  x passes through 0 and survives as 0.0 + b; x^2 ends at
    # 0 and goes.
    a, b = 0.1, 0.7
    p = {(): 1.0, (("x", 1),): 1.0, (("x", 2),): 1.0}
    q = {(("x", 1),): a, (): -a, (("x", -1),): b}
    want = {(("x", 1),): 0.0 + b, (): (0.0 - a) + b, (("x", -1),): b, (("x", 3),): a}
    for got in (_kernel.mul_terms_dict(p, q), _packed(p, q, "dense"), _packed(p, q, "sort")):
        _assert_bitwise_equal(got, want)


def test_packed_order_does_not_depend_on_operand_order(packed_calls):
    # Integer coefficients sum exactly in any order, so the products are
    # equal; the packed path stores its terms in key order either way.
    rng = random.Random(8)
    p, q = (
        {t: float(rng.choice((-3, -2, -1, 1, 2, 3))) for t in _laurent_exactly(rng, 30, "abc", -2, 2)}
        for _ in "pq"
    )
    want = _kernel.mul_terms(p, q)
    for _ in range(5):
        p_items, q_items = list(p.items()), list(q.items())
        rng.shuffle(p_items)
        rng.shuffle(q_items)
        got = _kernel.mul_terms(dict(p_items), dict(q_items))
        assert list(got.items()) == list(want.items())
    assert packed_calls == [(30, 30, "dense")] * 6


def test_exact_cancellation_leaves_no_zero():
    p = {(("x", 1),): 1.0, (): 1.0}
    q = {(("x", 1),): 1.0, (): -1.0}
    for accumulator in ("dense", "sort"):
        assert _packed(p, q, accumulator) == {(("x", 2),): 1.0, (): -1.0}


# Enough terms each for the sort accumulator's pair floor.  The key space
# counts power 0 in, so it is one past the top power sum.
_N = math.isqrt(_kernel._SORTED_MIN_PAIRS - 1) + 1
_WIDE_ABOVE = {(("x", 2**62 + i),): 1.0 for i in range(_N)}  # top sum 2^63 + 2 _N - 2
_WIDE_BELOW = {(("x", 2**62 - _N + i),): 1.0 for i in range(_N)}  # top sum 2^63 - 2


def test_path_selection(packed_calls):
    rng = random.Random(5)
    k = knight(4)._terms
    k2 = _kernel.mul_terms(k, k)  # key space 9^4, 2.85 keys per pair
    _kernel.mul_terms(k2, k2)  # key space 17^4, below the pair count
    assert packed_calls == [(48, 48, "dense"), (len(k2), len(k2), "dense")]

    # 8 x 8 terms in one symbol: powers 0-6 and one more, so the key space
    # is one past the sum of the two top powers
    packed_calls.clear()
    edge = _kernel._PACKED_KEYS_PER_PAIR * 64
    low = {(("x", i),): 1.0 for i in range(1, 7)} | {(): 1.0}
    top = edge // 2
    p = low | {(("x", top),): 1.0}
    _kernel.mul_terms(p, low | {(("x", edge - top - 1),): 1.0})  # at the limit
    assert packed_calls == [(8, 8, "dense")]
    # one key past it, and 64 pairs are below the sort accumulator's floor
    _kernel.mul_terms(p, low | {(("x", edge - top),): 1.0})
    assert packed_calls == [(8, 8, "dense")]

    # The sort accumulator's pair floor, on 8 terms against n or n - 1
    packed_calls.clear()
    n = _kernel._SORTED_MIN_PAIRS // _kernel._PACKED_MIN_TERMS
    assert n * _kernel._PACKED_MIN_TERMS == _kernel._SORTED_MIN_PAIRS
    eight = {(("x", 1000 * i),): 1.0 for i in range(8)}
    spread = {(("x", 10**6 * j + 1),): 1.0 for j in range(n)}
    assert _admitted(eight, spread) == "sort"
    _kernel.mul_terms(eight, dict(list(spread.items())[1:]))  # one row below the floor
    _kernel.mul_terms(eight, spread)  # at the floor
    assert packed_calls == [(8, n, "sort")]
    seven = dict(list(eight.items())[1:])
    wider = {(("x", 10**6 * j + 1),): 1.0 for j in range(2 * n)}
    assert _admitted(seven, wider) == "sort"
    _kernel.mul_terms(seven, wider)  # enough pairs, but 7 terms: the 8-term floor
    assert packed_calls == [(8, n, "sort")]

    # A key space of exactly INT64_MAX fits, one past it does not.
    packed_calls.clear()
    past = {((s, k + 1),): c for ((s, k),), c in _WIDE_BELOW.items()}  # top sum 2^63 - 1
    assert _admitted(_WIDE_BELOW, _WIDE_BELOW) == "sort"
    assert _admitted(_WIDE_BELOW, past) is None
    for q in (_WIDE_BELOW, past):
        _assert_bitwise_equal(
            _kernel.mul_terms(_WIDE_BELOW, q), _kernel.mul_terms_dict(_WIDE_BELOW, q)
        )
    assert packed_calls == [(_N, _N, "sort")]

    # (1+a+...+g)^2 has 36 terms, and its square a key space of 5^7
    packed_calls.clear()
    _kernel.pow_terms(parse("1+a+b+c+d+e+f+g")._terms, 4)
    assert packed_calls == [(36, 36, "sort")]

    packed_calls.clear()
    few = {(("x", i),): 1.0 for i in range(1, 4)}
    _kernel.mul_terms(few, few)  # collisions are certain, but too few terms
    # 30 x 30 terms, above the pair floor, but the key space of 16 symbols
    # with powers -8..8 is beyond int64: the dict path
    wide = _laurent(rng, 30, "abcdefghijklmnop")
    assert len(wide) ** 2 >= _kernel._SORTED_MIN_PAIRS
    assert _admitted(wide, wide) is None
    _kernel.mul_terms(wide, wide)
    assert packed_calls == []


@pytest.mark.parametrize(
    "p, q, overflows",
    [
        ({(("x", 2**62),): 1.0}, {(("x", 2**62),): 1.0}, True),
        ({(("x", -(2**62)),): 1.0}, {(("x", -(2**62) - 1),): 1.0}, True),
        ({(("x", 2**62),): 1.0}, {(("x", 2**62 - 1),): 1.0}, False),
        ({(("x", -(2**62)),): 1.0}, {(("x", -(2**62)),): 1.0}, False),
        # the extreme powers sit in terms without a common symbol
        ({(("x", INT64_MAX),): 1.0, (): 2.0}, {(("y", 1),): 1.0, (): 1.0}, False),
        ({(("x", INT64_MAX), ("y", 1)): 1.0}, {(("x", 1), ("y", -1)): 1.0}, True),
        ({(("x", INT64_MAX),): 1.0}, {}, False),
        # above the pair floor: a key space beyond int64, and one of INT64_MAX
        (_WIDE_ABOVE, _WIDE_ABOVE, True),
        (_WIDE_BELOW, _WIDE_BELOW, False),
    ],
)
def test_overflow_raised_by_both_paths_alike(p, q, overflows, packed_calls):
    # Key spaces beyond int64 go to the dict path, which raises on the pair
    # whose power sum overflows.  A key space of INT64_MAX still fits: the
    # sort accumulator takes it, and no power sum in it can overflow.
    accumulator = _admitted(p, q)
    assert accumulator is None or (p, q) == (_WIDE_BELOW, _WIDE_BELOW)
    for path in (_kernel.mul_terms_dict, _kernel.mul_terms):
        if overflows:
            with pytest.raises(PowerOverflowError):
                path(p, q)
        else:
            _assert_bitwise_equal(path(p, q), _kernel.mul_terms_dict(p, q))
    assert packed_calls == ([(len(p), len(q), "sort")] if accumulator else [])


def test_huge_sparse_key_space_allocates_nothing_of_its_size(packed_calls):
    # x powers near 2^59 and y powers -1..1 make a key space of about
    # 5 * 2^60, whose square root is about 2.4e9: a list or array indexed
    # by a half key would take gigabytes.  Sums of the x steps recur, so
    # many pairs share a product term.
    rng = random.Random(13)
    cells = [(i, j) for i in range(12) for j in (-1, 0, 1)]

    def operand():
        return {
            tuple(pair for pair in (("x", 2**59 + 2**40 * i), ("y", j)) if pair[1]): rng.uniform(-2, 2) / 3
            for i, j in rng.sample(cells, _N)
        }

    p, q = operand(), operand()
    assert _admitted(p, q) == "sort"
    want = _kernel.mul_terms_dict(p, q)
    assert len(want) < len(p) * len(q) // 4
    tracemalloc.start()
    try:
        got = _kernel.mul_terms(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_bitwise_equal(got, want)
    assert packed_calls == [(_N, _N, "sort")]
    assert peak < 2**22


@pytest.mark.parametrize(
    "base, top",
    # knight(4)**6 is checked in the walk-count test below
    [
        (knight(3), 6),
        (knight(4), 5),
        (parse("1+x+y"), 12),
        (parse("x^-1 + 2 + 3 y^2"), 9),
        (parse("1+a+b+c+d+e+f+g"), 6),  # squares from the 4th power sort
    ],
)
def test_power_strategies_bitwise_equal(base, top):
    # Binary squaring against repeated multiplication on the dict path.
    chain = base._terms
    for n in range(2, top + 1):
        chain = _kernel.mul_terms_dict(chain, base._terms)
        assert _rows(_kernel.pow_terms(base._terms, n)) == _rows(chain)


def test_knight_sixth_power_counts_walks():
    # Walks of six moves by end point, from the dense-array oracle; the
    # power goes by squaring, the oracle by repeated multiplication.
    symbols = ("a", "b", "c", "d")
    moves = to_box(knight(4), symbols, -2, 2)
    walks = moves
    for _ in range(5):
        walks = box_mul(moves, walks)
    got = knight(4) ** 6
    # to_box would wrap a power below -12 round to the top of the box
    assert max(abs(k) for t in got._terms for _, k in t) <= 12
    assert len(got._terms) == np.count_nonzero(walks)
    assert np.array_equal(to_box(got, symbols, -12, 12), walks)
    assert sum(c for _, c in got.terms()) == 48**6
