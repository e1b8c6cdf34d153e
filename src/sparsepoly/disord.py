"""Hash-disciplined unordered views of a polynomial's coefficients and powers.

Extractions like ``coeffs(p)`` come back in an order that carries no
meaning, so combining two extractions elementwise is only lawful when they
provably came from the same source.  Each extraction carries a provenance
hash (the digest of the source polynomial's canonical serialization);
elementwise binary operations, masks and ``set_coeffs`` demand the same
hash and the same length, and raise HashMismatch or ValueError otherwise,
turning a silent wrong answer into a loud error.

Filtering produces a *different* collection, so it gets a fresh hash
derived from the parent hash and the kept positions; mapping preserves
both length and provenance, so the hash survives.

An extraction keeps its source polynomial (so a collection keeps that
polynomial alive) and computes the digest the first time something reads
it.  Every collection mapped, zipped or assigned from it shares one
digest holder with it, so the digest is computed once for them all.  A
polynomial never changes what it shows, so two collections from the same
``Mvp`` object combine without a digest; ``set_coeffs(p, coeffs(p))``
and the zap idiom hash nothing.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple

from .core import Mvp, _coefficient, canonical_json


class HashMismatch(Exception):
    """Raised when combining collections from different provenances."""

    def __init__(self, hash1: str, hash2: str):
        super().__init__(f"provenance hashes differ: {hash1} and {hash2}")
        self.hash1 = hash1
        self.hash2 = hash2


class PowerRow(NamedTuple):
    """Parallel symbol and power sequences of one term."""

    symbols: tuple
    powers: tuple

    def __str__(self) -> str:
        if not self.symbols:
            return "[1]"
        body = " ".join(
            s if k == 1 else f"{s}^{k}" for s, k in zip(self.symbols, self.powers)
        )
        return f"[{body}]"


def _digest(data: str) -> str:
    # Imported here: a CLI stage that hashes nothing should not load it.
    import hashlib

    return hashlib.sha256(data.encode()).hexdigest()


def provenance_hash(p: Mvp) -> str:
    """Digest of the canonical JSON serialization of a polynomial."""
    return _digest(canonical_json(p))


def _same_provenance(a: "Disord", b: "Disord") -> bool:
    """Whether two Disords share a provenance: extractions of one Mvp
    object do without a digest, any others when their hashes agree."""
    return (a._source is not None and a._source is b._source) or a.hash == b.hash


def _disord(values, digest: list, source) -> "Disord":
    """A Disord extracted from ``source`` (or None) whose digest is
    ``digest[0]``; None there defers ``provenance_hash(source)`` to the
    first read.  Collections derived from one another share the list."""
    d = object.__new__(Disord)
    d._values = tuple(values)
    d._digest = digest
    d._source = source
    return d


def _elementwise(f: Callable) -> tuple:
    """``f`` as a Disord method and its reflected form (scalar on the left)."""

    def method(self, other):
        if isinstance(other, Disord):
            return self.zip_with(other, f)
        return self.map(lambda v: f(v, other))

    def reflected(self, other):
        return self.map(lambda v: f(other, v))

    return method, reflected


class Disord:
    """A sequence of values whose order carries no external meaning.

    Elementwise operators (``+ - * / ** < > <= >=``) work against a scalar
    on either side or against another Disord with the same hash and same
    length, and ``==`` compares whole collections; indexing with such a
    boolean-mask Disord filters.  Use ``assign`` to build a modified copy
    and ``set_coeffs`` to write coefficients back into a polynomial.
    """

    __slots__ = ("_values", "_digest", "_source")

    def __init__(self, values, provenance: str):
        if not isinstance(provenance, str):
            raise TypeError(f"provenance must be a str, not {type(provenance).__name__}")
        self._values = tuple(values)
        self._digest = [provenance]
        self._source = None

    @property
    def values(self) -> tuple:
        return self._values

    @property
    def hash(self) -> str:
        # Unlocked: threads that race here compute and store equal strings.
        digest = self._digest
        if digest[0] is None:
            digest[0] = provenance_hash(self._source)
        return digest[0]

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def map(self, f: Callable) -> "Disord":
        """Apply a function per element; provenance is preserved."""
        return _disord((f(v) for v in self._values), self._digest, self._source)

    def zip_with(self, other: "Disord", f: Callable) -> "Disord":
        """Combine elementwise with another Disord of equal hash and length."""
        values = self._same(other, "operand", "zip_with needs another Disord")
        return _disord(map(f, self._values, values), self._digest, self._source)

    __add__, __radd__ = _elementwise(operator.add)
    __sub__, __rsub__ = _elementwise(operator.sub)
    __mul__, __rmul__ = _elementwise(operator.mul)
    __truediv__, __rtruediv__ = _elementwise(operator.truediv)
    __pow__, __rpow__ = _elementwise(operator.pow)
    # Python turns ``2 < d`` into ``d > 2``: comparisons need no reflection.
    __lt__ = _elementwise(operator.lt)[0]
    __le__ = _elementwise(operator.le)[0]
    __gt__ = _elementwise(operator.gt)[0]
    __ge__ = _elementwise(operator.ge)[0]

    def __abs__(self):
        return self.map(abs)

    def __neg__(self):
        return self.map(operator.neg)

    def _same(self, other, noun: str, needs: str = "") -> tuple:
        """The values of ``other`` if it is a Disord of this length and
        provenance; else TypeError ``needs``, HashMismatch or ValueError on
        ``noun``."""
        if not isinstance(other, Disord):
            raise TypeError(needs)
        if not _same_provenance(self, other):
            raise HashMismatch(self.hash, other.hash)
        if len(other._values) != len(self._values):
            raise ValueError(f"{noun} has wrong length")
        return other._values

    def _kept(self, mask: "Disord", what: str) -> list:
        """The positions a same-source boolean mask keeps."""
        values = self._same(mask, "mask", f"{what} needs a boolean-mask Disord")
        return [i for i, keep in enumerate(values) if keep]

    def filter(self, mask: "Disord") -> "Disord":
        """Keep elements where the mask is true; the result is a new,
        shorter collection and carries a fresh hash."""
        kept = self._kept(mask, "filtering")
        return Disord(
            (self._values[i] for i in kept), _filtered_hash(self.hash, kept)
        )

    __getitem__ = filter

    def assign(self, mask: "Disord", replacement) -> "Disord":
        """Replace the masked positions; provenance is preserved.

        ``replacement`` may be a scalar, a Disord carrying this
        collection's hash (full length, masked positions read), or a
        Disord carrying the filtered subset's hash (one value per masked
        position, in order).
        """
        kept = self._kept(mask, "assign")
        if not isinstance(replacement, Disord):
            new = [replacement] * len(kept)
        elif replacement._source is None and replacement.hash == _filtered_hash(self.hash, kept):
            if len(replacement) != len(kept):
                raise ValueError("subset replacement has wrong length")
            new = replacement._values
        else:
            full = self._same(replacement, "full-length replacement")
            new = [full[i] for i in kept]
        values = list(self._values)
        for i, v in zip(kept, new):
            values[i] = v
        return _disord(values, self._digest, self._source)

    def sum(self):
        """Order-independent reduction; lawful on any single collection.

        With a float among the values it is ``math.fsum``, which rounds
        once; ints and bools add exactly.
        """
        if any(isinstance(v, float) for v in self._values):
            return math.fsum(self._values)
        return sum(self._values)

    def __eq__(self, other):
        # Elementwise == would be ambiguous with identity comparison in
        # tests; compare as value: same provenance and same sequence.
        if isinstance(other, Disord):
            return _same_provenance(self, other) and self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash((self.hash, self._values))

    def __reduce__(self):
        # The values and the digest, not the source polynomial.
        return Disord, (self._values, self.hash)

    def __str__(self) -> str:
        from .printer import format_number

        shown = " ".join(
            format_number(v) if isinstance(v, float) else str(v)
            for v in self._values
        )
        return (
            f"A disord object with hash {self.hash} and elements\n"
            f"{shown}\n(in some order)"
        )

    __repr__ = __str__


def _filtered_hash(parent: str, kept_indices) -> str:
    return _digest(f"filter:{parent}:{','.join(map(str, kept_indices))}")


def coeffs(p: Mvp) -> Disord:
    """The coefficients of a polynomial, in no particular order."""
    return _disord(p._canonical().values(), [None], p)


def powers(p: Mvp) -> Disord:
    """One PowerRow per term; shares its hash with ``coeffs`` of the same p."""
    rows = (
        PowerRow(tuple(s for s, _ in t), tuple(k for _, k in t))
        for t, _ in p.terms()
    )
    return _disord(rows, [None], p)


def variables(p: Mvp) -> Disord:
    """The symbol sequence of each term, parallel to ``coeffs``/``powers``."""
    return _disord((tuple(s for s, _ in t) for t, _ in p.terms()), [None], p)


def set_coeffs(p: Mvp, d: Disord) -> Mvp:
    """Replace the coefficients of ``p`` positionally from ``d``.

    ``d`` must be a Disord extracted from ``p`` itself or carrying the hash
    that ``coeffs(p)`` produces, with one value per term; zero replacements delete their terms, which is the
    mechanism for zapping small coefficients.
    """
    values = coeffs(p)._same(d, "replacement", "set_coeffs needs a Disord")
    out = {}
    for t, c in zip(p._canonical(), values):
        c = c if type(c) is float else _coefficient(c)
        if c != 0.0:
            out[t] = c
    return Mvp._from_clean(out)
