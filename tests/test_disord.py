"""Hash discipline on unordered coefficient and power extractions."""

import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from helpers import random_nonneg_mvp
import sparsepoly
from sparsepoly import (
    Disord,
    HashMismatch,
    Mvp,
    coeffs,
    parse,
    powers,
    provenance_hash,
    render,
    set_coeffs,
    subvec,
    variables,
)

A = parse("5 + 8*x^2*y - 13*y*x^2 + 11*z - 3*x*yz")


def test_coeffs_values_and_hash():
    ca = coeffs(A)
    assert sorted(ca.values) == [-5, -3, 5, 11]
    assert ca.hash == provenance_hash(A)
    assert len(ca.hash) == 64


def test_coeffs_of_zero_polynomial():
    d = coeffs(Mvp.zero())
    assert d.values == ()


def test_parallel_extractions_share_one_hash():
    assert coeffs(A).hash == powers(A).hash == variables(A).hash


def test_powers_rows_parallel_to_coeffs():
    rows = dict(zip(powers(A).values, coeffs(A).values))
    for row, c in rows.items():
        term = tuple(zip(row.symbols, row.powers))
        assert A.coefficient(term) == c
        assert len(row.symbols) == len(row.powers)
        assert all(k != 0 for k in row.powers)


def test_cross_object_zip_is_rejected():
    b = A * 2
    with pytest.raises(HashMismatch) as exc:
        coeffs(A) + coeffs(b)
    assert coeffs(A).hash in (exc.value.hash1, exc.value.hash2)
    assert coeffs(b).hash in (exc.value.hash1, exc.value.hash2)


def test_equal_collections_hash_equal():
    c = coeffs(A)
    assert len({coeffs(A), coeffs(A)}) == 1
    assert hash(c) == hash(Disord(c.values, c.hash))


def test_a_collection_never_equals_a_non_collection():
    assert (coeffs(A) == 1) is False
    assert coeffs(A) != list(coeffs(A).values)


def test_map_keeps_hash():
    ca = coeffs(A)
    mask = ca > 0
    assert mask.hash == ca.hash
    assert sorted(mask.values) == [False, False, True, True]
    fourth = ca + ca**4
    assert fourth.hash == ca.hash
    assert sorted(fourth.values) == [78, 620, 630, 14652]
    assert ca.map(lambda v: v).values == ca.values


def test_zip_with_itself():
    ca = coeffs(A)
    doubled = ca.zip_with(ca, lambda x, y: x + y)
    assert sorted(doubled.values) == sorted((ca * 2).values)


def test_filter_yields_fresh_hash():
    ca = coeffs(A)
    pos = ca[ca > 0]
    assert sorted(pos.values) == [5, 11]
    assert pos.hash != ca.hash
    # deterministic: filtering the same way gives the same hash
    assert ca.filter(ca > 0).hash == pos.hash
    all_kept = ca[ca.map(lambda _: True)]
    assert all_kept.values == ca.values
    assert all_kept.hash != ca.hash


def test_filter_with_foreign_mask_is_rejected():
    b = A * 2
    with pytest.raises(HashMismatch):
        coeffs(A)[coeffs(b) > 0]


def test_assign_adds_1000_to_negatives():
    ca = coeffs(A)
    neg = ca < 0
    replacement = ca[neg] + 1000
    updated = ca.assign(neg, replacement)
    assert updated.hash == ca.hash
    assert render(set_coeffs(A, updated)) == "5 + 997 x yz + 995 x^2 y + 11 z"


def test_assign_empty_mask_is_noop():
    ca = coeffs(A)
    assert ca.assign(ca.map(lambda _: False), 123).values == ca.values


def test_assign_full_length_replacement():
    ca = coeffs(A)
    updated = ca.assign(ca.map(lambda _: True), ca * 3)
    assert sorted(updated.values) == sorted((ca * 3).values)


def test_assign_foreign_replacement_rejected():
    ca = coeffs(A)
    other = coeffs(A * 2)
    with pytest.raises(HashMismatch):
        ca.assign(ca > 0, other)


def test_zap_small_coefficients():
    x = parse("1 - 0.11*x + 0.005*x*y") ** 2
    cx = coeffs(x)
    zapped = set_coeffs(x, cx.assign(abs(cx) < 0.01, 0))
    assert render(zapped) == "1 - 0.22 x + 0.01 x y + 0.0121 x^2"
    want = {
        (): 1.0,
        (("x", 1),): -0.22,
        (("x", 1), ("y", 1)): 0.01,
        (("x", 2),): 0.0121,
    }
    got = dict(zapped.terms())
    assert got.keys() == want.keys()
    for t, c in want.items():
        assert math.isclose(got[t], c, rel_tol=1e-12)


def test_set_coeffs_identity_roundtrip():
    assert set_coeffs(A, coeffs(A)) == A


def test_set_coeffs_doubling_matches_scalar_multiply():
    assert set_coeffs(A, coeffs(A) * 2) == A * 2


def test_set_coeffs_rejects_foreign_hash():
    with pytest.raises(HashMismatch):
        set_coeffs(A, coeffs(A * 2))


def test_set_coeffs_rejects_wrong_length():
    ca = coeffs(A)
    short = Disord(ca.values[:-1], ca.hash)
    with pytest.raises(ValueError):
        set_coeffs(A, short)


def test_storage_permutation_leaves_multisets_unchanged():
    # simulate an implementation that stores the same provenance in a
    # different order: lawful pipelines must yield the same multisets
    ca = coeffs(A)
    rng = random.Random(9)
    order = list(range(len(ca)))
    rng.shuffle(order)
    permuted = Disord((ca.values[i] for i in order), ca.hash)
    for d in (ca, permuted):
        mapped = d + d**4
        assert sorted(mapped.values) == [78, 620, 630, 14652]
        assert sorted(d[d > 0].values) == [5, 11]
        assert d.sum() == 8


def test_sum_of_coeffs_matches_evaluation_at_ones():
    rng = random.Random(31)
    for _ in range(20):
        p = random_nonneg_mvp(rng)
        ones = {s: [1.0] for s in p.symbols()}
        assert coeffs(p).sum() == pytest.approx(subvec(p, ones)[0])


def test_display_format():
    text = str(coeffs(A))
    lines = text.splitlines()
    assert lines[0] == f"A disord object with hash {coeffs(A).hash} and elements"
    assert lines[-1] == "(in some order)"
    assert set(lines[1].split()) == {"5", "-3", "-5", "11"}


# The elementwise rule: one Disord method per operator and, for arithmetic,
# a reflected form for a scalar on the left.
ARITHMETIC = [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a / b,
    lambda a, b: a**b,
]
COMPARISONS = [
    lambda a, b: a < b,
    lambda a, b: a <= b,
    lambda a, b: a > b,
    lambda a, b: a >= b,
]
SYMBOLS = ["+", "-", "*", "/", "**", "<", "<=", ">", ">="]
B = parse("0.5 - 3 x + 2.25 y^2 + 7 x y")


def _hex(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


@pytest.mark.parametrize("op", ARITHMETIC + COMPARISONS, ids=SYMBOLS)
def test_elementwise_operators_match_python(op):
    cb = coeffs(B)
    vs = cb.values
    for got, want in [
        (op(cb, cb), [op(v, v) for v in vs]),
        (op(cb, 3), [op(v, 3) for v in vs]),
        (op(cb, 1.5), [op(v, 1.5) for v in vs]),
        (op(3, cb), [op(3, v) for v in vs]),
        (op(1.5, cb), [op(1.5, v) for v in vs]),
    ]:
        assert isinstance(got, Disord) and got.hash == cb.hash
        assert _hex(got.values) == _hex(want)


@pytest.mark.parametrize("op", ARITHMETIC + COMPARISONS, ids=SYMBOLS)
def test_elementwise_operators_refuse_a_foreign_hash(op):
    with pytest.raises(HashMismatch):
        op(coeffs(B), coeffs(B * 2))


def test_reflected_division_and_power():
    cb = coeffs(B)
    assert (1 / cb).hash == (2**cb).hash == cb.hash
    assert sorted((1 / cb).values) == sorted(1 / v for v in cb.values)
    assert sorted((2**cb).values) == sorted(2**v for v in cb.values)
    assert (-cb).values == tuple(-v for v in cb.values)
    assert (cb == coeffs(parse("0.5 - 3 x + 2.25 y^2 + 7 x y"))) is True
    assert (cb == cb * 1.0) is True and (cb == cb + 1) is False


def test_filter_and_assign_mask_errors():
    cb = coeffs(B)
    mask = cb > 0
    foreign = coeffs(B * 2) > 0
    for call, verb in [(lambda m: cb.filter(m), "filtering"), (lambda m: cb.assign(m, 0), "assign")]:
        with pytest.raises(TypeError, match=f"^{verb} needs a boolean-mask Disord$"):
            call([True] * len(cb))
        with pytest.raises(HashMismatch):
            call(foreign)
    with pytest.raises(TypeError, match="^filtering needs"):
        cb[[True] * len(cb)]
    with pytest.raises(ValueError, match="full-length replacement has wrong length"):
        cb.assign(mask, Disord(cb.values[:-1], cb.hash))
    subset = cb[mask]
    with pytest.raises(ValueError, match="subset replacement has wrong length"):
        cb.assign(mask, Disord(subset.values + (1.0,), subset.hash))


def _same_hash_of_length(d, n):
    """A Disord with ``d``'s hash and ``n`` values: a forged same-hash operand."""
    return Disord((d.values * 2)[:n], d.hash)


@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("op", ARITHMETIC + COMPARISONS, ids=SYMBOLS)
def test_elementwise_operators_refuse_another_length(op, delta):
    cb = coeffs(B)
    other = _same_hash_of_length(cb, len(cb) + delta)
    with pytest.raises(ValueError, match="^operand has wrong length$"):
        op(cb, other)
    with pytest.raises(ValueError, match="^operand has wrong length$"):
        op(other, cb)


@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
def test_masks_and_set_coeffs_refuse_another_length(delta):
    c = coeffs(parse("x + 2 y + 3"))
    mask = _same_hash_of_length(c > 0, len(c) + delta)
    for call in (lambda: c.filter(mask), lambda: c[mask], lambda: c.assign(mask, 0)):
        with pytest.raises(ValueError, match="^mask has wrong length$"):
            call()
    with pytest.raises(ValueError, match="^full-length replacement has wrong length$"):
        c.assign(c > 0, _same_hash_of_length(c, len(c) + delta))
    p = parse("x + 2 y + 3")
    with pytest.raises(ValueError, match="^replacement has wrong length$"):
        set_coeffs(p, _same_hash_of_length(c, len(c) + delta))


def test_set_coeffs_refuses_what_is_not_a_disord():
    p = parse("x + 2 y + 3")
    for given in ([1.0], [1.0, 2.0, 3.0], coeffs(p).values, None):
        with pytest.raises(TypeError, match="^set_coeffs needs a Disord$"):
            set_coeffs(p, given)


def test_assign_foreign_replacement_names_the_collection_hash_first():
    c = coeffs(parse("x + 2 y + 3"))
    with pytest.raises(HashMismatch) as caught:
        c.assign(c > 1, coeffs(parse("x")))
    assert (caught.value.hash1, caught.value.hash2) == (c.hash, provenance_hash(parse("x")))


def test_sum_of_floats_rounds_once_in_any_order():
    for order in itertools.permutations((1e16, 1.0, -1e16)):
        assert Disord(order, "h").sum() == 1.0
    c = coeffs(A)
    assert type((c > 0).sum()) is int and (c > 0).sum() == 2
    assert Disord((3, -1, 2), "h").sum() == 4


def test_provenance_must_be_text():
    for given in (None, b"h", 1):
        with pytest.raises(TypeError, match="^provenance must be a str"):
            Disord([1], given)


def test_pickle_carries_values_and_digest():
    c = coeffs(A)
    back = pickle.loads(pickle.dumps(c))
    assert back == c and back.hash == c.hash and back.values == c.values
    assert back._source is None


# The digest of an extraction is computed only when something reads it.
@pytest.fixture
def digests(monkeypatch):
    """The polynomials ``provenance_hash`` is called on, in order."""
    from sparsepoly import disord

    seen = []
    real = disord.provenance_hash

    def spy(p):
        seen.append(p)
        return real(p)

    monkeypatch.setattr(disord, "provenance_hash", spy)
    return seen


def test_zap_and_identity_set_coeffs_hash_nothing(digests):
    x = parse("1 - 0.11*x + 0.005*x*y") ** 2
    cx = coeffs(x)
    zapped = set_coeffs(x, cx.assign(abs(cx) < 0.01, 0))
    assert render(zapped) == "1 - 0.22 x + 0.01 x y + 0.0121 x^2"
    assert set_coeffs(A, coeffs(A)) == A
    assert set_coeffs(A, coeffs(A) * 2 + coeffs(A)) == A * 3
    assert digests == []


def test_hash_is_computed_once_when_read(digests):
    c = coeffs(A)
    assert digests == []
    first = c.hash
    assert digests == [A] and first == provenance_hash(A)
    assert c.hash is first and len(digests) == 1


def test_collections_derived_from_one_extraction_hash_once(digests):
    c = coeffs(A)
    m = c > 0
    a = abs(c)
    kept = c.assign(m, 0) + a.map(float)
    assert c.hash == m.hash == a.hash == kept.hash == provenance_hash(A)
    assert digests == [A]
    later = c.zip_with(m, lambda v, keep: v if keep else -v)
    assert later.hash == c.hash and digests == [A]


def test_equal_polynomials_combine_and_others_still_refuse():
    twin = parse(render(A))
    assert twin is not A and twin == A
    assert sorted((coeffs(A) + coeffs(twin)).values) == [-10, -6, 10, 22]
    assert coeffs(A) == coeffs(twin)
    assert set_coeffs(A, coeffs(twin) * 2) == A * 2
    other = A * 2
    with pytest.raises(HashMismatch) as caught:
        coeffs(A) + coeffs(other)
    h, g = provenance_hash(A), provenance_hash(other)
    assert str(caught.value) == f"provenance hashes differ: {h} and {g}"
    with pytest.raises(HashMismatch) as caught:
        set_coeffs(A, coeffs(other))
    assert str(caught.value) == f"provenance hashes differ: {h} and {g}"
    assert coeffs(A) != coeffs(other)
    by_hand = Disord(coeffs(A).values, provenance_hash(A))
    assert set_coeffs(A, by_hand * 2) == A * 2


def test_threads_reading_the_hash_at_once_agree():
    c = coeffs(parse(" + ".join(f"{k} x^{k} y" for k in range(1, 400))))
    barrier = threading.Barrier(8)
    got = []

    def read():
        barrier.wait(timeout=30)
        got.append(c.hash)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and set(got) == {c.hash}


def test_zap_loads_no_hashlib_until_a_hash_is_read():
    code = (
        "import sys\n"
        "import sparsepoly as sp\n"
        "x = sp.parse('1 - 0.11*x + 0.005*x*y') ** 2\n"
        "cx = sp.coeffs(x)\n"
        "sp.set_coeffs(x, cx.assign(abs(cx) < 0.01, 0))\n"
        "assert 'hashlib' not in sys.modules\n"
        "assert len(cx.hash) == 64\n"
        "assert 'hashlib' in sys.modules\n"
    )
    src = str(Path(sparsepoly.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
