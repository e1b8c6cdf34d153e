"""The read-side loops against frozen copies of the per-term loops they
replaced (``helpers.*_loop``), on seeded random float polynomials, and
``from_json`` against the two-pass reader it replaced
(``helpers.from_json_two_pass``) on seeded documents.

Every result must be the same to the bit: ``subvec`` arrays in
``tobytes()``, polynomial results in their stored term order, JSON bytes
and provenance hashes, and each error in its type and message.
"""

import hashlib
import json
import math
import random
import re

import numpy as np
import pytest

from helpers import (
    canonical_json_loop,
    deriv_once_loop,
    from_json_two_pass,
    onevarpow_loop,
    subvec_loop,
    substitute_one_loop,
)
from sparsepoly import (
    Mvp,
    aderiv,
    canonical_json,
    deriv,
    from_json,
    onevarpow,
    parse,
    provenance_hash,
    subs,
    subvec,
)
from sparsepoly import core
from sparsepoly.core import INT64_MAX, INT64_MIN, PowerOverflowError, check_finite, validate

SYMBOLS = "abcd"
SEEDS = range(300)


def random_float_mvp(rng: random.Random, max_terms: int = 12) -> Mvp:
    """Float coefficients over 30 decades, powers in -4..4, stored in
    arrival order (not canonical), sometimes empty or a constant."""
    shape = rng.random()
    if shape < 0.05:
        return Mvp()
    if shape < 0.1:
        return Mvp.from_number(rng.uniform(-5, 5))
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        term = {}
        for s in rng.sample(SYMBOLS, rng.randint(0, len(SYMBOLS))):
            term[s] = rng.randint(-4, 4)
        c = rng.choice((-1, 1)) * rng.random() * 10.0 ** rng.randint(-15, 15)
        pairs.append((term, c))
    return Mvp(pairs)


def random_vectors(rng: random.Random, n: int, zeros: float = 0.08) -> dict:
    """Per symbol a number, a length-1 list or a length-n vector; some
    components are zero or large enough to overflow a term."""

    def component():
        r = rng.random()
        if r < zeros:
            return 0.0
        if r < zeros + 0.04:
            return rng.choice((-1, 1)) * 1e120
        return rng.choice((-1, 1)) * rng.uniform(0.1, 4.0)

    out = {}
    for s in SYMBOLS:
        r = rng.random()
        if r < 0.2:
            out[s] = component()
        elif r < 0.35:
            out[s] = [component()]
        else:
            out[s] = [component() for _ in range(n)]
    return out


def outcome(f, *args):
    """The result, or the type and message of the error raised."""
    try:
        return "ok", f(*args)
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)


def stored(terms: dict) -> list:
    return list(terms.items())


@pytest.mark.parametrize("seed", SEEDS)
def test_subvec_matches_the_term_loop(seed):
    rng = random.Random(f"subvec:{seed}")
    p = random_float_mvp(rng)
    vectors = random_vectors(rng, rng.choice((1, 3, 7)))
    got = outcome(subvec, p, vectors)
    want = outcome(subvec_loop, p, vectors)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert got[1].tobytes() == want[1].tobytes()
    else:
        assert got[1] == want[1]


def test_subvec_differential_covers_every_outcome():
    kinds = set()
    for seed in SEEDS:
        rng = random.Random(f"subvec:{seed}")
        p = random_float_mvp(rng)
        kinds.add(outcome(subvec_loop, p, random_vectors(rng, rng.choice((1, 3, 7))))[0])
    assert kinds == {"ok", ZeroDivisionError, OverflowError}


@pytest.mark.parametrize("block", [1, 2, 15, 64])
def test_subvec_matches_the_term_loop_across_blocks(monkeypatch, block):
    from sparsepoly import transform

    # Small blocks split the terms and, below 5 cells, the components too.
    monkeypatch.setattr(transform, "_SUBVEC_BLOCK", block)
    for seed in range(60):
        rng = random.Random(f"blocks:{seed}")
        p = random_float_mvp(rng, max_terms=30)
        vectors = random_vectors(rng, 5, zeros=0.01)
        got = outcome(subvec, p, vectors)
        want = outcome(subvec_loop, p, vectors)
        if got[0] == "ok":
            assert want[0] == "ok" and got[1].tobytes() == want[1].tobytes()
        else:
            assert got == want


def test_subvec_sums_terms_one_after_another():
    # Pairwise summation would give 1.0 here: (1 + 1e16) + (-1e16) loses
    # the 1, while 1e16 + -1e16 then + 1 keeps it.
    p = Mvp({(("a", 1),): 1.0, (("b", 1),): 1e16, (("c", 1),): -1e16})
    values = {"a": [1.0], "b": [1.0], "c": [1.0]}
    assert subvec(p, values).tobytes() == subvec_loop(p, values).tobytes()
    assert subvec(p, values)[0] == 0.0


def test_subvec_keeps_a_sum_of_signed_zeros_positive():
    p = parse("-1 a")
    got = subvec(p, a=0.0)
    assert got.tobytes() == subvec_loop(p, {"a": 0.0}).tobytes()
    assert math.copysign(1.0, got[0]) == 1.0


@pytest.mark.parametrize("seed", SEEDS)
def test_deriv_matches_the_term_loop(seed):
    rng = random.Random(f"deriv:{seed}")
    p = random_float_mvp(rng)
    variables = rng.sample(SYMBOLS, rng.randint(1, 3))
    terms = p._terms
    for s in variables:
        terms = deriv_once_loop(terms, s)
    assert stored(deriv(p, variables)._terms) == stored(terms)


@pytest.mark.parametrize("seed", range(60))
def test_aderiv_matches_the_term_loop(seed):
    rng = random.Random(f"aderiv:{seed}")
    p = random_float_mvp(rng)
    orders = {s: rng.randint(0, 3) for s in rng.sample(SYMBOLS, 2)}
    terms = p._terms
    for s, k in orders.items():
        for _ in range(k):
            if terms:
                terms = check_finite(deriv_once_loop(terms, s))
    assert stored(aderiv(p, orders)._terms) == stored(terms)


def test_deriv_errors_match_the_term_loop():
    low = Mvp({(("a", 1),): 2.0, (("a", INT64_MIN), ("b", 1)): 3.0})
    got = outcome(deriv, low, "a")
    assert got == outcome(deriv_once_loop, low._terms, "a")
    assert got[0] is PowerOverflowError
    big = Mvp({(("a", 2),): 1e308})
    assert outcome(aderiv, big, {"a": 1}) == outcome(
        lambda: check_finite(deriv_once_loop(big._terms, "a"))
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_canonical_json_matches_the_term_loop(seed):
    p = random_float_mvp(random.Random(f"json:{seed}"))
    text = canonical_json_loop(p)
    assert canonical_json(p) == text
    assert provenance_hash(p) == hashlib.sha256(text.encode()).hexdigest()


def test_canonical_json_extreme_powers_match_the_term_loop():
    p = Mvp({(("a", INT64_MIN), ("b", 2**63 - 1)): -0.5, (("a", INT64_MIN),): 1e-300})
    assert canonical_json(p) == canonical_json_loop(p)


def _subs_loop(p: Mvp, bindings) -> Mvp:
    # One step per binding, each reading the last result in canonical order.
    for s, value in bindings:
        p = Mvp._from_clean(substitute_one_loop(p._canonical(), s, value))
    return p


def random_value(rng: random.Random) -> Mvp:
    r = rng.random()
    if r < 0.15:
        return Mvp()
    if r < 0.35:
        return Mvp.from_number(rng.choice((-2.5, 0.5, 3.0)))
    return random_float_mvp(rng, max_terms=4)


@pytest.mark.parametrize("seed", SEEDS)
def test_subs_matches_the_term_loop(seed):
    rng = random.Random(f"subs:{seed}")
    p = random_float_mvp(rng)
    bindings = [(rng.choice(SYMBOLS), random_value(rng)) for _ in range(rng.randint(1, 2))]
    got = outcome(lambda: subs(p, bindings, lose=False))
    want = outcome(_subs_loop, p, bindings)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert stored(got[1]._terms) == stored(want[1]._terms)
    else:
        assert got[1] == want[1]


def hexed(p: Mvp) -> list:
    """The stored terms with each coefficient's exact bits."""
    return [(t, c.hex()) for t, c in p._terms.items()]


def random_nonneg_float_mvp(rng: random.Random, max_terms: int) -> Mvp:
    """Powers 1..3 on up to 3 symbols, so a polynomial may be substituted
    for any symbol, and coefficients in -1..1, so chained products stay
    small and finite."""
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        term = {s: rng.randint(1, 3) for s in rng.sample(SYMBOLS, rng.randint(0, 3))}
        pairs.append((term, rng.uniform(-1, 1)))
    return Mvp(pairs)


@pytest.mark.parametrize("seed", SEEDS)
def test_subs_with_several_bindings_is_the_composed_calls(seed):
    rng = random.Random(f"subs-chain:{seed}")
    p = random_nonneg_float_mvp(rng, 8)
    bindings = [
        (rng.choice(SYMBOLS), random_nonneg_float_mvp(rng, 3)) for _ in range(rng.randint(2, 3))
    ]
    composed = p
    for b in bindings:
        composed = subs(composed, [b], lose=False)
    assert hexed(subs(p, bindings, lose=False)) == hexed(composed)


def test_subs_with_two_bindings_is_the_composed_calls_on_a_fixed_case():
    p = parse("-a^2 x y^2 + a^3 + b^3 - x^3 y")
    a, x = parse("0.3 x + 0.33 y^2 + 0.7 b"), parse("0.1 + 0.14 a + 2.3 y")
    one = subs(p, [("a", a), ("x", x)], lose=False)
    assert hexed(one) == hexed(subs(subs(p, a=a, lose=False), x=x, lose=False))
    assert len(one) == 43


def test_subs_multiplies_no_group_without_the_bound_symbol(monkeypatch):
    from sparsepoly import transform

    calls = []
    real = transform.mul_terms

    def spy(p, q):
        calls.append((len(p), len(q)))
        return real(p, q)

    monkeypatch.setattr(transform, "mul_terms", spy)
    out = subs(parse("b + c + a b"), a="x + y", lose=False)
    assert out == parse("b + c + b x + b y")
    assert calls == [(1, 2)]


@pytest.mark.parametrize("seed", SEEDS)
def test_onevarpow_matches_the_term_loop(seed):
    rng = random.Random(f"onevarpow:{seed}")
    p = random_float_mvp(rng, max_terms=30)
    targets = {s: rng.randint(-2, 2) for s in rng.sample(SYMBOLS, rng.randint(1, 3))}
    assert stored(onevarpow(p, targets)._terms) == stored(onevarpow_loop(p, targets))


@pytest.mark.parametrize(
    "targets",
    [{"e": 0}, {"e": 1}, {"a": np.int64(1)}, {"a": True}],
    ids=["absent zero", "absent one", "numpy int", "bool"],
)
def test_onevarpow_odd_targets_match_the_term_loop(targets):
    p = parse("a + 2 a b + 3 b + 4")
    assert stored(onevarpow(p, targets)._terms) == stored(onevarpow_loop(p, targets))


@pytest.mark.parametrize(
    "target",
    [1.0, 0.0, "1", float("nan"), 1.5, None],
    ids=["float", "float zero", "str", "nan", "fraction", "none"],
)
@pytest.mark.parametrize("p", [parse("a + 2 a b + 3 b + 4"), Mvp()], ids=["terms", "empty"])
def test_onevarpow_refuses_a_non_integer_target(p, target):
    # The frozen loop matched no term and gave 0 for these.
    message = f"target power of 'a' must be an integer, got {re.escape(repr(target))}"
    with pytest.raises(TypeError, match=message):
        onevarpow(p, {"b": 1, "a": target})


# from_json against the two-pass reader.  A document's entries repeat a
# few terms, written with their keys in any order, with zero and integral
# float powers, so like terms sum in document order; some entries cancel
# a term's running sum to exactly 0.0 and a later one brings it back, so
# the stored order differs from the order of first appearance.

JSON_NAMES = ("a", "b", "c", "x1", "y_2", "Z")


def json_power(rng: random.Random):
    r = rng.random()
    if r < 0.1:
        return rng.choice((INT64_MIN, INT64_MAX, float(INT64_MIN)))
    if r < 0.3:
        return float(rng.randint(-3, 3)) if rng.random() < 0.8 else -0.0
    return rng.randint(-3, 3)


def json_coeff(rng: random.Random):
    r = rng.random()
    if r < 0.2:
        return rng.randint(-(10**6), 10**6)
    if r < 0.25:
        return rng.randint(-(2**70), 2**70)
    if r < 0.4:
        return rng.choice((-1, 1)) * 5e-324 * rng.randint(1, 2**20)
    return rng.choice((-1, 1)) * rng.random() * 10.0 ** rng.randint(-300, 300)


def json_key(powers: dict) -> tuple:
    return tuple(sorted((s, int(k)) for s, k in powers.items() if k != 0))


def restyled(rng: random.Random, powers: dict) -> dict:
    """The same term written another way: keys in another order, an
    integral float for a small int, maybe a zero power more."""
    items = [(s, float(k) if abs(k) < 4 and rng.random() < 0.3 else k) for s, k in powers.items()]
    rng.shuffle(items)
    if rng.random() < 0.3:
        absent = [n for n in JSON_NAMES if n not in powers]
        items.append((rng.choice(absent), rng.choice((0, 0.0, -0.0))))
    return dict(items)


def random_document(rng: random.Random, names=JSON_NAMES) -> list:
    """Entries of a valid document, in document order."""
    pool = [
        {s: json_power(rng) for s in rng.sample(names, rng.randint(0, 3))}
        for _ in range(rng.randint(1, 8))
    ]
    entries = []
    sums = {}
    for _ in range(rng.randint(0, 30)):
        powers = rng.choice(pool)
        entries.append({"powers": restyled(rng, powers), "coeff": json_coeff(rng)})
        key = json_key(powers)
        # add_terms' own arithmetic, to find a sum to cancel.
        total = sums.get(key, 0.0) + float(entries[-1]["coeff"])
        sums[key] = total
        if total != 0.0 and rng.random() < 0.3:
            entries.append({"powers": restyled(rng, powers), "coeff": -total})
            sums[key] = 0.0
    return entries


def read_json(f, text: str):
    """The stored terms with each coefficient's bits, or the error."""
    try:
        q = f(text)
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)
    validate(q)
    return "ok", [(t, c.hex()) for t, c in q._terms.items()]


@pytest.mark.parametrize("seed", SEEDS)
def test_from_json_matches_the_two_pass_reader(seed):
    rng = random.Random(f"from_json:{seed}")
    text = json.dumps({"terms": random_document(rng)})
    assert read_json(from_json, text) == read_json(from_json_two_pass, text)


def test_from_json_differential_covers_cancelled_terms_that_come_back():
    moved = 0
    for seed in SEEDS:
        entries = random_document(random.Random(f"from_json:{seed}"))
        got = read_json(from_json, json.dumps({"terms": entries}))
        assert got[0] == "ok"
        first_seen = list(dict.fromkeys(json_key(e["powers"]) for e in entries))
        stored = [t for t, _ in got[1]]
        moved += stored != [t for t in first_seen if t in stored]
    assert moved >= 10


@pytest.mark.parametrize("seed", range(60))
def test_from_json_matches_the_two_pass_reader_on_names_never_seen(monkeypatch, seed):
    rng = random.Random(f"from_json-fresh:{seed}")
    names = tuple(f"n{seed}_{i}" for i in range(4)) + ("a",)
    text = json.dumps({"terms": random_document(rng, names)})
    monkeypatch.setattr(core, "_VALID_NAMES", set())
    got = read_json(from_json, text)
    remembered = core._VALID_NAMES
    monkeypatch.setattr(core, "_VALID_NAMES", set())
    assert got == read_json(from_json_two_pass, text)
    assert remembered == core._VALID_NAMES


# One fault, placed among valid entries: the entry that replaces a valid
# one, or the entries that make a document overflow.
_ENTRY_FAULTS = [
    3,
    None,
    "x",
    [],
    {"powers": {"a": 1}},
    {"coeff": 1.0},
    {"powers": [], "coeff": 1.0},
    {"powers": None, "coeff": 1.0},
    {"powers": {"a": 1}, "coeff": "1"},
    {"powers": {"a": 1}, "coeff": True},
    {"powers": {"a": 1}, "coeff": None},
    {"powers": {"a": 1}, "coeff": float("nan")},
    {"powers": {"a": 1}, "coeff": float("inf")},
    {"powers": {"a": 1}, "coeff": 10**400},
    {"powers": {"a": 1, "b": 1.5}, "coeff": 1.0},
    {"powers": {"a": True}, "coeff": 1.0},
    {"powers": {"a": "2"}, "coeff": 1.0},
    {"powers": {"a": None}, "coeff": 1.0},
    {"powers": {"a": 1, "1x": 2}, "coeff": 1.0},
    {"powers": {"": 1}, "coeff": 1.0},
    {"powers": {"a-b": 1}, "coeff": 1.0},
    {"powers": {"\u00e9": 1}, "coeff": 1.0},
    {"powers": {"b": 1, "a": 2**63}, "coeff": 1.0},
    {"powers": {"a": -(2**63) - 1}, "coeff": 1.0},
    {"powers": {"a": float(2**63)}, "coeff": 1.0},
]


@pytest.mark.parametrize("fault", range(len(_ENTRY_FAULTS) + 1))
@pytest.mark.parametrize("seed", range(8))
def test_from_json_single_fault_raises_as_the_two_pass_reader(seed, fault):
    rng = random.Random(f"from_json-fault:{seed}")
    entries = [
        {"powers": {s: rng.randint(-3, 3) for s in rng.sample("abc", 2)}, "coeff": rng.random()}
        for _ in range(rng.randint(0, 6))
    ]
    if fault < len(_ENTRY_FAULTS):
        bad = [_ENTRY_FAULTS[fault]]
    else:
        bad = [
            {"powers": {"c": 1, "a": 2}, "coeff": 1.5e308},
            {"powers": {"a": 2, "c": 1}, "coeff": 1e308},
        ]
    at = rng.randint(0, len(entries))
    text = json.dumps({"terms": entries[:at] + bad + entries[at:]})
    got = read_json(from_json, text)
    assert got[0] != "ok"
    assert got == read_json(from_json_two_pass, text)


@pytest.mark.parametrize(
    "text",
    ["[1, 2]", "3", "{}", '{"terms": 3}', '{"terms": {}}', '{"terms": null}', "[" * 100_000],
)
def test_from_json_document_faults_raise_as_the_two_pass_reader(text):
    got = read_json(from_json, text)
    assert got[0] is ValueError
    assert got == read_json(from_json_two_pass, text)


def test_from_json_reports_the_first_of_two_faults_in_document_order():
    # The two-pass reader checked every entry's shape before any name.
    text = '{"terms":[{"powers":{"1x":1},"coeff":1.0},{"powers":[],"coeff":1.0}]}'
    assert outcome(from_json, text) == (ValueError, "invalid symbol name: '1x'")
    assert outcome(from_json_two_pass, text) == (ValueError, "'powers' must be an object, got []")
