"""Results must not depend on the order in which an operand's terms are stored.

A polynomial stores its terms in the order the operation that built it
produced them, and sorts them only when the order is first read.  Every
public operation must give bitwise-equal output for equal operands however
they were built.  Coefficients are non-integer, so a sum taken in another
order would show in the last bits.
"""

import random
import sys
import threading

import pytest

from sparsepoly import (
    Mvp,
    canonical_json,
    coeffs,
    validate,
    deriv,
    onevarpow,
    provenance_hash,
    render,
    series,
    set_coeffs,
    subs,
    subvec,
)


def _laurent_items(rng, n_terms, symbols="abc", lo=-2, hi=2):
    """Distinct random Laurent terms with non-integer coefficients."""
    out = {}
    while len(out) < n_terms:
        term = {}
        for s in rng.sample(symbols, rng.randint(0, len(symbols))):
            k = rng.randint(lo, hi)
            if k != 0:
                term[s] = k
        out[tuple(sorted(term.items()))] = rng.uniform(-2.0, 2.0) / 3.0
    return list(out.items())


def _builds(items):
    """Makers of one polynomial, each storing its terms in another order:
    as given, reversed, and as a sum of monomials in shuffled order."""
    shuffled = list(items)
    random.Random(len(items)).shuffle(shuffled)
    return [
        lambda: Mvp(items),
        lambda: Mvp(list(reversed(items))),
        lambda: sum((Mvp([item]) for item in shuffled), Mvp.zero()),
    ]


def _same_for_every_build(op, *operands):
    """``op`` on fresh builds of each operand, over every combination of
    builds, gives one output."""
    builds = [_builds(items) for items in operands]
    outs = set()
    orders = set()
    for choice in range(3 ** len(builds)):
        args = []
        for makers in builds:
            args.append(makers[choice % 3]())
            choice //= 3
        orders.add(tuple(tuple(a._terms) for a in args))
        outs.add(op(*args))
    # The builds really stored their terms in different orders.
    assert len(orders) > 1
    assert len(outs) == 1, outs


def _hex(values):
    return tuple(float(v).hex() for v in values)


SEEDS = range(4)


@pytest.mark.parametrize("seed", SEEDS)
def test_product_in_both_operand_orders(seed):
    rng = random.Random(seed)
    p = _laurent_items(rng, 20)
    q = _laurent_items(rng, 20)  # equal sizes: the left operand is outer
    r = _laurent_items(rng, 12)
    _same_for_every_build(lambda a, b: canonical_json(a * b), p, q)
    _same_for_every_build(lambda a, b: canonical_json(b * a), p, q)
    _same_for_every_build(lambda a, b: canonical_json(a * b), p, r)
    _same_for_every_build(lambda a, b: canonical_json(b * a), p, r)


@pytest.mark.parametrize("seed", SEEDS)
def test_power_of_sparse_and_dense_bases(seed):
    rng = random.Random(seed)
    # A sparse base: five knight-like moves in a box of 80 points.
    moves = [(("a", 2), ("b", 1)), (("a", -2), ("b", -1)), (("b", 2), ("c", -1)),
             (("a", -1), ("c", 2)), (("a", 1), ("c", -1))]
    sparse = [(t, rng.uniform(-2.0, 2.0) / 3.0) for t in moves]
    _same_for_every_build(lambda a: canonical_json(a**4), sparse)
    # 1 + a + b + a b with non-integer coefficients fills its box.
    dense = [((), 1.1), ((("a", 1),), 0.7), ((("b", 1),), 0.3), ((("a", 1), ("b", 1)), 1.9)]
    _same_for_every_build(lambda a: canonical_json(a**6), dense)


@pytest.mark.parametrize("seed", SEEDS)
def test_substitution(seed):
    rng = random.Random(seed)
    laurent = _laurent_items(rng, 25)
    _same_for_every_build(lambda a: canonical_json(subs(a, [("a", 0.7)], lose=False)), laurent)
    nonneg = _laurent_items(rng, 25, lo=0, hi=3)
    value = _laurent_items(rng, 4, symbols="bcd")
    _same_for_every_build(
        lambda a, v: canonical_json(subs(a, [("a", v), ("b", 1.3)], lose=False)), nonneg, value
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_subvec(seed):
    rng = random.Random(seed)
    items = _laurent_items(rng, 30)
    point = {"a": [0.3, 1.7, -2.1], "b": [1.1], "c": [0.9, -0.4, 2.3]}
    _same_for_every_build(lambda a: _hex(subvec(a, point)), items)


@pytest.mark.parametrize("seed", SEEDS)
def test_calculus_and_series(seed):
    rng = random.Random(seed)
    items = _laurent_items(rng, 25)
    _same_for_every_build(lambda a: canonical_json(deriv(a, ["a", "b", "a"])), items)
    _same_for_every_build(lambda a: str(series(a, "b")), items)
    _same_for_every_build(
        lambda a: tuple(canonical_json(c) for _, c in series(a, "b").components), items
    )
    _same_for_every_build(lambda a: canonical_json(onevarpow(a, a=1)), items)


@pytest.mark.parametrize("seed", SEEDS)
def test_views_and_hashes(seed):
    rng = random.Random(seed)
    items = _laurent_items(rng, 25)
    _same_for_every_build(lambda a: _hex(coeffs(a)), items)
    _same_for_every_build(lambda a: canonical_json(set_coeffs(a, coeffs(a) * 1.7)), items)
    _same_for_every_build(render, items)
    _same_for_every_build(lambda a: render(a, order="lex"), items)
    _same_for_every_build(provenance_hash, items)
    _same_for_every_build(hash, items)


def test_sorting_on_read_leaves_earlier_results_alone():
    items = _laurent_items(random.Random(9), 10)
    p = Mvp(list(reversed(items)))
    stored = p._terms
    before = list(stored)
    text = canonical_json(p)
    assert list(stored) == before  # a new dict, not the old one reordered
    assert list(p._terms) == sorted(before)
    assert canonical_json(p) == text
    assert provenance_hash(p) == provenance_hash(Mvp(items))
    validate(p)


def test_threads_reading_one_polynomial_agree():
    # Each round builds a polynomial whose order is not yet built and has
    # eight threads (more than the cores) read it at once, so several
    # threads sort it at the same time.
    rng = random.Random(12)
    items = _laurent_items(rng, 60)
    other = Mvp(_laurent_items(rng, 30))
    want = (canonical_json(Mvp(items)), provenance_hash(Mvp(items)),
            canonical_json(Mvp(items) * other))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            p = Mvp(list(reversed(items)))
            start = threading.Barrier(8)
            got = []

            def read():
                start.wait(timeout=10)
                got.append((canonical_json(p), provenance_hash(p), canonical_json(p * other)))

            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * 8
            validate(p)
    finally:
        sys.setswitchinterval(previous)
