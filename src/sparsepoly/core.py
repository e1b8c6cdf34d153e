"""Map storage for sparse multivariate Laurent polynomials.

A polynomial is a finite map from *terms* to nonzero double coefficients,
and a term is a map from symbol names to nonzero signed integer powers.
The empty term is the constant term; the empty polynomial is zero.
Symbols inside a term are always sorted.  The terms of a polynomial are
stored in the order an operation produced them, and put in the canonical
order (lexicographic comparison of their (symbol, power) pairs) the first
time something reads the order: iteration, rendering, serialization, the
disord extractions.  So serialization is deterministic, yet no public
operation attaches meaning to that order; coefficient-level work goes
through the disord module instead.

Every operation that sums coefficients into a term map goes through
``add_terms``, so this module alone owns that invariant: no stored zero,
and sums taken in the order the terms arrive.  The multiply kernel is the
exception; it drops zeros at the end of a pass (``_kernel``).
"""

from __future__ import annotations

import math
import operator
import re
import sys
from collections.abc import Iterator, Mapping
from itertools import chain

Symbol = str

# A term is ((symbol, power), ...) sorted by symbol, every power nonzero.
Term = tuple

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
_DOUBLE_MAX = sys.float_info.max

# The symbol rule, for names given by value and for the parser's grammar.
SYMBOL_PATTERN = r"[A-Za-z][A-Za-z0-9_]*"
_SYMBOL_RE = re.compile(SYMBOL_PATTERN + r"\Z")

# Names (exact str only) that passed require_symbol, so normalize_term runs
# the regex once per distinct name.  Emptied when full; never holds a name
# that failed.
_VALID_NAMES: set = set()
_VALID_NAMES_MAX = 4096


class _PairTable(dict):
    """Each (symbol, power) pair once: ``_PAIRS[pair]`` is the stored pair
    equal to ``pair``, stored first if absent.  Emptied when full."""

    __slots__ = ()

    def __missing__(self, pair):
        if len(self) >= _PAIRS_MAX:
            self.clear()
        self[pair] = pair
        return pair


# Every producer of new terms takes its pairs from here, so a stored term
# costs its own tuple and no pairs.  It also spares the collector: CPython
# untracks a tuple of untracked items at a young collection, but it visits
# a new term before the new pairs behind it, so a term of fresh pairs
# stays tracked into the old generation, and enough of those set off full
# collections that free nothing.  A pair from this table has been seen
# untracked already, so a term of them is untracked at its first
# collection.  Full, the table holds about 3 MB.
_PAIRS = _PairTable()
_PAIRS_MAX = 1 << 14
# Bound once: looking the method up on the subclass cost more per term
# than the lookups of a two-pair term.
_pair = _PAIRS.__getitem__


class PowerOverflowError(OverflowError):
    """A power left the signed 64-bit range during power arithmetic."""


class Record:
    """Base of the package's small immutable value classes.

    A subclass names its fields in ``__slots__`` and sets them in
    ``__init__`` through ``object.__setattr__``.  An instance equals only
    an instance of the same class with equal fields, hashes and pickles by
    its fields, and refuses assignment and deletion with AttributeError.
    These are a frozen dataclass's value semantics, without the import of
    ``dataclasses`` (and ``inspect``) that every CLI stage would pay for.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


def require_symbol(name: str) -> str:
    """Validate a symbol name against ``[A-Za-z][A-Za-z0-9_]*``.

    Returns the name as an exact ``str``: a subclass instance becomes a
    plain copy of its characters, so its own ``__str__`` never writes a
    stored symbol.
    """
    if not isinstance(name, str) or not _SYMBOL_RE.match(name):
        raise ValueError(f"invalid symbol name: {name!r}")
    return name if type(name) is str else str.__str__(name)


def named_pairs(given, by_name: dict) -> list:
    """The (symbol, value) pairs of a ``(given, **by_name)`` call, in order.

    ``given`` is None, a mapping (read as its items) or an iterable of
    pairs; the keywords follow.  Every symbol passes ``require_symbol``
    before the caller reads a value.  Text in place of pairs: TypeError.
    """
    if isinstance(given, Mapping):
        given = given.items()
    pairs = map(_not_text, chain(_not_text(given) or (), by_name.items()))
    return [(require_symbol(s), v) for s, v in pairs]


def _not_text(x):
    if isinstance(x, (str, bytes, bytearray)):
        raise TypeError(f"expected (symbol, value) pairs, got {type(x).__name__}: {x!r}")
    return x


def check_finite(terms: dict) -> dict:
    """Return ``terms``; raise OverflowError if a coefficient is inf or NaN.

    Finite operands reach an infinite coefficient only when a product or
    sum overflows a double, and a NaN only by adding opposite infinities.
    """
    if not all(map(math.isfinite, terms.values())):
        bad = next(c for c in terms.values() if not math.isfinite(c))
        raise OverflowError(f"coefficient overflows a double: {bad!r}")
    return terms


def check_power(k: int) -> int:
    if not INT64_MIN <= k <= INT64_MAX:
        raise PowerOverflowError(f"power {k} outside the signed 64-bit range")
    return k


def normalize_term(raw_pairs) -> Term:
    """Collapse raw (symbol, power) pairs into a canonical term.

    Powers of repeated symbols are summed and symbols whose summed power is
    zero are dropped: ``[("x", 1), ("x", 1)]`` gives ``(("x", 2),)`` and
    ``[("y", 0)]`` contributes nothing.  An empty input is the constant
    term.  Accepts a mapping or any iterable of pairs.

    Checks, in this order per pair: the name with ``require_symbol``
    (ValueError; each distinct valid name of type ``str`` is checked once
    and remembered, and a ``str`` subclass is stored as a plain copy),
    then the power with ``operator.index`` (TypeError), unless it is an
    exact ``int``.  Then every summed power against the signed 64-bit
    range (PowerOverflowError, naming the first one out of range in the
    order the symbols first came).  The memo and the fast paths change no
    result and no error.
    """
    if isinstance(raw_pairs, Mapping):
        raw_pairs = raw_pairs.items()
    acc: dict[str, int] = {}
    get = acc.get
    for name, k in raw_pairs:
        if type(name) is not str or name not in _VALID_NAMES:
            name = require_symbol(name)
            if len(_VALID_NAMES) >= _VALID_NAMES_MAX:
                _VALID_NAMES.clear()
            _VALID_NAMES.add(name)
        if type(k) is not int:
            k = operator.index(k)
        acc[name] = get(name, 0) + k
    powers = acc.values()
    if acc and (min(powers) < INT64_MIN or max(powers) > INT64_MAX):
        for k in powers:
            check_power(k)
    return term_of(acc)


def term_of(powers: dict) -> Term:
    """The term of a {symbol: summed power} map: symbols sorted, zero
    powers dropped, each pair the shared one of ``_PAIRS``.  Names and
    ranges are the caller's to check."""
    pairs = powers.items()
    if 0 in powers.values():
        pairs = [pair for pair in pairs if pair[1] != 0]
    return tuple(map(_pair, sorted(pairs)))


def total_degree(t: Term) -> int:
    """Sum of all powers in a term, negatives included; 0 for the constant."""
    return sum(k for _, k in t)


def power_of(t: Term, symbol: str) -> int:
    """Power of ``symbol`` in a term, 0 when absent."""
    for s, k in t:
        if s == symbol:
            return k
    return 0


def split_term(t: Term, symbol: str) -> tuple[int, Term]:
    """Return (power of ``symbol``, the term without ``symbol``)."""
    k = 0
    rest = []
    for pair in t:
        if pair[0] == symbol:
            k = pair[1]
        else:
            rest.append(pair)
    return k, tuple(rest)


def group_by_power(terms: dict, symbol: str) -> dict[int, dict]:
    """Group terms by their power of ``symbol``, that symbol removed.

    Maps each power k to {rest: coeff}, both in the order the terms come.
    Distinct terms give distinct (k, rest), so nothing is summed.
    """
    groups: dict[int, dict] = {}
    for t, c in terms.items():
        k, rest = split_term(t, symbol)
        groups.setdefault(k, {})[rest] = c
    return groups


def _coefficient(c) -> float:
    """``float(c)`` of a number; TypeError for text, which it would parse."""
    if isinstance(c, (str, bytes, bytearray)):
        raise TypeError(f"coefficient must be a number, not {type(c).__name__}: {c!r}")
    return float(c)


def add_terms(out: dict, pairs) -> dict:
    """Add each (term, coefficient) pair into ``out``; return ``out``.

    The one insertion rule of the package: pairs are summed in the order
    they come, and a term whose sum is exactly 0.0 is deleted, so a term
    that cancels and comes back is stored after the terms met meanwhile.
    Terms must already be normalized.
    """
    get = out.get
    for t, c in pairs:
        s = get(t, 0.0) + c
        if s == 0.0:
            out.pop(t, None)
        else:
            out[t] = s
    return out


class Mvp:
    """A sparse multivariate Laurent polynomial.

    Immutable in what it shows; all operations return new values, so
    instances are safe to share across threads.  The canonical term order
    is built when it is first read, and kept.  Stored coefficients are
    finite and never zero, and stored powers are never zero; an operation
    whose coefficient would overflow a double raises OverflowError.
    Supports the ring operators ``+ - * **`` with polynomial or numeric
    operands, and ``/`` by a number.

    ``Mvp(terms)`` takes a mapping or an iterable of (term, coefficient)
    pairs.  A coefficient is any number ``float()`` accepts; a ``str``,
    ``bytes`` or ``bytearray`` raises TypeError, since ``float()`` would
    parse the text.  ``accumulate``, ``Mvp.monomial``, ``Mvp.from_number``,
    ``scale``, ``divide``, ``set_coeffs`` and ``horner`` keep the same rule.
    """

    # _terms is in canonical order once _ordered is set.
    __slots__ = ("_terms", "_ordered")

    def __init__(self, terms=None):
        data: dict[Term, float] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            add_terms(
                data,
                ((normalize_term(t), c if type(c) is float else _coefficient(c)) for t, c in items),
            )
        self._terms = check_finite(data)
        self._ordered = len(data) < 2

    @classmethod
    def _from_clean(cls, data: dict) -> "Mvp":
        # Trusted path: terms already normalized, coefficients nonzero.
        # Every result is built here, so this is where an overflow to inf
        # or NaN is caught.
        obj = object.__new__(cls)
        obj._terms = check_finite(data)
        obj._ordered = len(data) < 2
        return obj

    def _canonical(self) -> dict:
        """The term dict in canonical order, sorted the first time it is read.

        Readers whose result depends on the order go through here: the
        multiply kernel sums each output term in the order of its outer
        operand, so a product is bitwise the same whichever way its
        operands were built.  The sorted dict is a new one that replaces
        the old, never a reordering in place, so two threads that both
        sort do no harm.
        """
        if not self._ordered:
            d = self._terms
            self._terms = {t: d[t] for t in sorted(d)}
            self._ordered = True
        return self._terms

    @classmethod
    def zero(cls) -> "Mvp":
        return cls._from_clean({})

    @classmethod
    def from_number(cls, value) -> "Mvp":
        value = _coefficient(value)
        return cls._from_clean({} if value == 0.0 else {(): value})

    @classmethod
    def monomial(cls, symbol: str, power: int, coeff: float = 1.0) -> "Mvp":
        t = normalize_term([(symbol, power)])
        coeff = _coefficient(coeff)
        return cls._from_clean({} if coeff == 0.0 else {t: coeff})

    def terms(self) -> Iterator[tuple[Term, float]]:
        """Iterate (term, coefficient) pairs in canonical order.

        The order is built when it is first read, and kept.
        """
        return iter(self._canonical().items())

    def coefficient(self, term) -> float:
        """Coefficient of a term (raw pairs accepted), 0.0 when absent."""
        return self._terms.get(normalize_term(term), 0.0)

    def symbols(self) -> tuple[str, ...]:
        """All symbols appearing in the polynomial, sorted."""
        seen = {s for t in self._terms for s, _ in t}
        return tuple(sorted(seen))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return len(self._terms) == 0 or (len(self._terms) == 1 and () in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Mvp):
            return self._terms == other._terms
        if isinstance(other, (int, float)):
            # No polynomial equals inf, nan or an int beyond the doubles.
            return self._terms == ({(): other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # Order-free, like __eq__; a constant hashes as the number it equals.
        if self.is_constant:
            return hash(self._terms.get((), 0.0))
        return hash(frozenset(self._terms.items()))

    # Ring operators delegate to the arith module; imports are deferred to
    # keep the module graph acyclic.
    def __add__(self, other):
        from . import arith

        other = _lift_operand(other)
        if other is None:
            return NotImplemented
        return arith.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from . import arith

        other = _lift_operand(other)
        if other is None:
            return NotImplemented
        return arith.subtract(self, other)

    def __rsub__(self, other):
        from . import arith

        other = _lift_operand(other)
        if other is None:
            return NotImplemented
        return arith.subtract(other, self)

    def __neg__(self):
        from . import arith

        return arith.negate(self)

    def __pos__(self):
        return self

    def __mul__(self, other):
        from . import arith

        if isinstance(other, (int, float)):
            return arith.scale(self, other)
        if isinstance(other, Mvp):
            return arith.multiply(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        from . import arith

        if isinstance(other, (int, float)):
            return arith.divide(self, other)
        raise TypeError("polynomials can only be divided by a number")

    def __pow__(self, n):
        from . import arith

        return arith.power(self, n)

    def __str__(self) -> str:
        from . import printer

        return printer.render(self)

    __repr__ = __str__


def _lift_operand(other):
    if isinstance(other, Mvp):
        return other
    if isinstance(other, (int, float)):
        return Mvp.from_number(other)
    return None


def accumulate(p: Mvp, term, coeff: float) -> Mvp:
    """Add ``coeff`` onto one term's coefficient, deleting exact zeros.

    The public face of ``add_terms``: the result maps ``term`` to its old
    coefficient plus ``coeff``, with the entry removed when the sum is
    exactly 0.0.  ``coeff == 0`` is a no-op.
    """
    return Mvp._from_clean(add_terms(dict(p._terms), [(normalize_term(term), _coefficient(coeff))]))


def constant(p: Mvp) -> float:
    """Coefficient of the empty term, 0.0 when absent."""
    return p._terms.get((), 0.0)


def equals(p: Mvp, q: Mvp) -> bool:
    """Exact equality: same term set, bitwise-equal coefficients."""
    return p._terms == q._terms


def equals_approx(p: Mvp, q: Mvp, rel: float = 1e-9, abs_tol: float = 0.0) -> bool:
    """Equality up to a relative tolerance on coefficients (test helper)."""
    if p._terms.keys() != q._terms.keys():
        return False
    return all(
        math.isclose(c, q._terms[t], rel_tol=rel, abs_tol=abs_tol)
        for t, c in p._terms.items()
    )


def validate(p: Mvp) -> None:
    """Walk the maps and assert every storage invariant; raises on breach."""
    if p._ordered and list(p._terms) != sorted(p._terms):
        raise AssertionError("terms marked as sorted are not in canonical order")
    for t, c in p._terms.items():
        if c == 0.0:
            raise AssertionError(f"stored zero coefficient at {t!r}")
        if not isinstance(c, float):
            raise AssertionError(f"non-float coefficient {c!r}")
        if not math.isfinite(c):
            raise AssertionError(f"non-finite coefficient {c!r} at {t!r}")
        names = [s for s, _ in t]
        if names != sorted(names) or len(set(names)) != len(names):
            raise AssertionError(f"term not in canonical symbol order: {t!r}")
        for s, k in t:
            require_symbol(s)
            if k == 0:
                raise AssertionError(f"stored zero power in {t!r}")
            check_power(k)


def canonical_json(p: Mvp) -> str:
    """Serialize to the canonical JSON form.

    ``{"terms":[{"powers":{"x":2,"y":3},"coeff":-3.0}, ...]}`` with terms
    and symbols in canonical order; the byte-exact contract used by golden
    tests and as the provenance-hash preimage.

    The bytes are written directly and equal ``json.dumps(doc,
    separators=(",", ":"))`` of that document: a power is written as
    ``%d`` and a coefficient by ``float.__repr__``, which is what
    ``json.dumps`` writes for a finite float (subclasses included).
    Stored symbols are exact ``str`` (``require_symbol`` copies a
    subclass) that match the symbol rule, so ``%s`` writes their
    characters and none needs escaping.  Each distinct (symbol, power)
    pair is formatted once per call.
    """
    terms = p._canonical()
    text = {pair: '"%s":%d' % pair for pair in {pair for t in terms for pair in t}}
    at = text.__getitem__
    rep = float.__repr__
    # Each term is {"powers":{...},"coeff":...}; the f-string doubles braces.
    return '{"terms":[%s]}' % ",".join(
        [f'{{"powers":{{{",".join(map(at, t))}}},"coeff":{rep(c)}}}' for t, c in terms.items()]
    )


def from_json(text: str) -> Mvp:
    """Rebuild a polynomial from its canonical JSON form.

    Raises ValueError on a malformed document: ``terms`` that is not an
    array, a term that is not an object with ``powers`` and ``coeff``,
    ``powers`` that is not an object, a boolean or non-integer power, an
    invalid symbol name, a coefficient that is not a number of double
    range, or a name repeated within one object, and on a document nested
    too deeply for the decoder.  Raises PowerOverflowError (an
    OverflowError) on a power outside the signed 64-bit range, and
    OverflowError when the coefficients of like terms sum past a double.
    The document is read in one pass, so of several faults the first in
    document order is reported.  A repeated name is looked for once every
    entry has been read: a fault in an entry is reported before it, and
    it before a sum that overflows.
    """
    # Imported here, not at module level: only a JSON stdin line needs it,
    # and every CLI stage pays for the package's imports.
    import json

    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None
    terms = doc.get("terms") if isinstance(doc, dict) else None
    if not isinstance(terms, list):
        raise ValueError("expected an object with a 'terms' array")
    return Mvp._from_clean(add_terms({}, _json_terms(terms, text, len(doc))))


def _json_terms(terms: list, text, names: int) -> Iterator[tuple[Term, float]]:
    """Check each entry of a parsed ``terms`` array and yield its (term,
    coefficient) in document order.  Entries are popped as they are read,
    so the parsed document never sits beside the growing result.

    ``names`` counts the object members read so far, where ``json.loads``
    keeps the last value of a repeated name without a word.  Each member
    of a JSON text is followed by one ':' and any other ':' is inside a
    string, so a text with no more ':' than the members read repeats no
    name; only another text is decoded again to look for one.
    """
    terms.reverse()
    pop = terms.pop
    while terms:
        entry = pop()
        if not isinstance(entry, dict) or "powers" not in entry or "coeff" not in entry:
            raise ValueError(f"expected a term object with 'powers' and 'coeff', got {entry!r}")
        powers, coeff = entry["powers"], entry["coeff"]
        if not isinstance(powers, dict):
            raise ValueError(f"'powers' must be an object, got {powers!r}")
        # The range test also rejects NaN and integers too large for a double.
        is_number = isinstance(coeff, (int, float)) and not isinstance(coeff, bool)
        if not is_number or not -_DOUBLE_MAX <= coeff <= _DOUBLE_MAX:
            raise ValueError(f"coefficient must be a finite number, got {coeff!r}")
        # An integral float power becomes an int in place; replacing a
        # value does not disturb the iteration.  JSON keys are distinct
        # exact str, so a term of known names and in-range powers is
        # term_of(powers); normalize_term checks and remembers the rest.
        known = True
        for s, k in powers.items():
            if type(k) is not int:
                if isinstance(k, float) and k.is_integer():
                    k = powers[s] = int(k)
                if isinstance(k, bool) or not isinstance(k, int):
                    raise ValueError(f"non-integer power {k!r} for symbol {s!r}")
            if s not in _VALID_NAMES or not INT64_MIN <= k <= INT64_MAX:
                known = False
        names += len(entry) + len(powers)
        yield (term_of(powers) if known else normalize_term(powers)), float(coeff)
    if names != text.count(":" if isinstance(text, str) else b":"):
        _refuse_repeated_names(text)


def _refuse_repeated_names(text) -> None:
    """Raise ValueError naming the first name repeated within one object
    of a JSON text, in the order the objects close."""
    import json

    def check(pairs):
        seen = set()
        for s, _ in pairs:
            if s in seen:
                raise ValueError(f"repeated key {s!r} in a JSON object")
            seen.add(s)

    json.loads(text, object_pairs_hook=check)
