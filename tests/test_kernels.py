"""The packed multiply path must be observably identical to the dict path."""

import math
import random

import numpy as np
import pytest

from helpers import box_mul, random_mvp, to_box
from sparsepoly import PowerOverflowError, backend_name, knight, parse
from sparsepoly import _kernel

INT64_MAX = 2**63 - 1


def test_backend_is_known():
    assert backend_name() == "python"


def _assert_bitwise_equal(got, want):
    # Same terms in the same insertion order, coefficients equal bit for bit.
    assert list(got) == list(want)
    assert [c.hex() for c in got.values()] == [c.hex() for c in want.values()]


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
    pairs.append(_MANY_BLOCKS)
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
    """Whether the key space of p * q is one that mul_terms lets the packed
    path take, the 8-term floor aside."""
    size = math.prod(span for _, _, span in _kernel._columns(p, q))
    return size <= _kernel._PACKED_KEYS_PER_PAIR * len(p) * len(q)


def _packed(p, q):
    """The packed path, on a key space that mul_terms admits."""
    assert _admitted(p, q)
    return _kernel._mul_packed(p, q, _kernel._columns(p, q))


@pytest.fixture
def packed_calls(monkeypatch):
    """Operand sizes of each call of the packed path."""
    calls = []
    real = _kernel._mul_packed

    def spy(p, q, columns):
        calls.append((len(p), len(q)))
        return real(p, q, columns)

    monkeypatch.setattr(_kernel, "_mul_packed", spy)
    return calls


def test_packed_equals_dict_bitwise():
    admitted = 0
    for p, q in _input_pairs():
        want = _kernel.mul_terms_dict(p, q)
        if _admitted(p, q):
            _assert_bitwise_equal(_packed(p, q), want)
            admitted += 1
        _assert_bitwise_equal(_kernel.mul_terms(p, q), want)
    assert admitted >= 35
    assert len(_MANY_BLOCKS[0]) * len(_MANY_BLOCKS[1]) > _kernel._PACKED_BLOCK


def test_terms_keep_the_order_of_their_first_contribution():
    # In p-outer, q-inner order x gets +a, -a, +b and x^2 gets +a, -a.  x^3
    # first appears between x's second and third contributions, so x, though
    # its sum is 0 on the way, keeps its first place.
    a, b = 0.1, 0.7
    p = {(): 1.0, (("x", 1),): 1.0, (("x", 2),): 1.0}
    q = {(("x", 1),): a, (): -a, (("x", -1),): b}
    want = {(("x", 1),): 0.0 + b, (): (0.0 - a) + b, (("x", -1),): b, (("x", 3),): a}
    for got in (_kernel.mul_terms_dict(p, q), _packed(p, q)):
        _assert_bitwise_equal(got, want)


def test_exact_cancellation_leaves_no_zero():
    p = {(("x", 1),): 1.0, (): 1.0}
    q = {(("x", 1),): 1.0, (): -1.0}
    assert _packed(p, q) == {(("x", 2),): 1.0, (): -1.0}


def test_path_selection(packed_calls):
    rng = random.Random(5)
    k = knight(4)._terms
    k2 = _kernel.mul_terms(k, k)  # key space 9^4, 2.85 keys per pair
    _kernel.mul_terms(k2, k2)  # key space 17^4, below the pair count
    assert packed_calls == [(48, 48), (len(k2), len(k2))]

    # 8 x 8 terms in one symbol: powers 0-6 and one more, so the key space
    # is one past the sum of the two top powers
    packed_calls.clear()
    edge = _kernel._PACKED_KEYS_PER_PAIR * 64
    low = {(("x", i),): 1.0 for i in range(1, 7)} | {(): 1.0}
    top = edge // 2
    p = low | {(("x", top),): 1.0}
    _kernel.mul_terms(p, low | {(("x", edge - top - 1),): 1.0})  # at the limit
    assert packed_calls == [(8, 8)]
    _kernel.mul_terms(p, low | {(("x", edge - top),): 1.0})  # one key past it
    assert packed_calls == [(8, 8)]

    packed_calls.clear()
    few = {(("x", i),): 1.0 for i in range(1, 4)}
    _kernel.mul_terms(few, few)  # collisions are certain, but too few terms
    wide = _laurent(rng, 30, "abcdefghijklmnop")
    _kernel.mul_terms(wide, wide)  # key space far above the pair count
    assert packed_calls == []


# Eight terms each, but the box counts power 0 in, so the key space is
# about 2^63 and mul_terms takes the dict path.
_EIGHT_ABOVE = {(("x", 2**62 + i),): 1.0 for i in range(8)}
_EIGHT_BELOW = {(("x", 2**62 - 8 + i),): 1.0 for i in range(8)}  # top sum 2^63 - 2


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
        # eight terms each
        (_EIGHT_ABOVE, _EIGHT_ABOVE, True),
        (_EIGHT_BELOW, _EIGHT_BELOW, False),
    ],
)
def test_overflow_raised_by_both_paths_alike(p, q, overflows, packed_calls):
    # Powers this large make key spaces the packed path never takes, so
    # mul_terms hands them to the dict path, which raises on the pair.
    assert not _admitted(p, q)
    for path in (_kernel.mul_terms_dict, _kernel.mul_terms):
        if overflows:
            with pytest.raises(PowerOverflowError):
                path(p, q)
        else:
            _assert_bitwise_equal(path(p, q), _kernel.mul_terms_dict(p, q))
    assert packed_calls == []


def _rows(terms):
    # Terms in canonical order with each coefficient's exact bits.
    return [(t, c.hex()) for t, c in sorted(terms.items())]


@pytest.mark.parametrize(
    "base, top",
    # knight(4)**6 is checked in the walk-count test below
    [(knight(3), 6), (knight(4), 5), (parse("1+x+y"), 12), (parse("x^-1 + 2 + 3 y^2"), 9)],
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
