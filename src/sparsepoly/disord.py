"""Hash-disciplined unordered views of a polynomial's coefficients and powers.

Extractions like ``coeffs(p)`` come back in an order that carries no
meaning, so combining two extractions elementwise is only lawful when they
provably came from the same source.  Each extraction carries a provenance
hash (the digest of the source polynomial's canonical serialization);
elementwise binary operations demand equal hashes and raise HashMismatch
otherwise, turning a silent wrong answer into a loud error.

Filtering produces a *different* collection, so it gets a fresh hash
derived from the parent hash and the kept positions; mapping preserves
both length and provenance, so the hash survives.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .core import Mvp, canonical_json


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


class Disord:
    """A sequence of values whose order carries no external meaning.

    Elementwise operators (``+ - * / ** < > <= >= ==``) work against a
    scalar or against another Disord with the same hash; indexing with a
    boolean-mask Disord filters.  Use ``assign`` to build a modified copy
    and ``set_coeffs`` to write coefficients back into a polynomial.
    """

    __slots__ = ("_values", "_hash")

    def __init__(self, values, provenance: str):
        self._values = tuple(values)
        self._hash = provenance

    @property
    def values(self) -> tuple:
        return self._values

    @property
    def hash(self) -> str:
        return self._hash

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def map(self, f: Callable) -> "Disord":
        """Apply a function per element; provenance is preserved."""
        return Disord((f(v) for v in self._values), self._hash)

    def zip_with(self, other: "Disord", f: Callable) -> "Disord":
        """Combine elementwise with another Disord of equal hash."""
        if not isinstance(other, Disord):
            raise TypeError("zip_with needs another Disord")
        if self._hash != other._hash:
            raise HashMismatch(self._hash, other._hash)
        return Disord(
            (f(a, b) for a, b in zip(self._values, other._values)), self._hash
        )

    def _binary(self, other, f):
        if isinstance(other, Disord):
            return self.zip_with(other, f)
        return self.map(lambda v: f(v, other))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __radd__(self, other):
        return self.map(lambda v: other + v)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self.map(lambda v: other - v)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self.map(lambda v: other * v)

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __pow__(self, other):
        return self._binary(other, lambda a, b: a**b)

    def __abs__(self):
        return self.map(abs)

    def __neg__(self):
        return self.map(lambda v: -v)

    def __lt__(self, other):
        return self._binary(other, lambda a, b: a < b)

    def __le__(self, other):
        return self._binary(other, lambda a, b: a <= b)

    def __gt__(self, other):
        return self._binary(other, lambda a, b: a > b)

    def __ge__(self, other):
        return self._binary(other, lambda a, b: a >= b)

    def __getitem__(self, mask: "Disord") -> "Disord":
        return self.filter(mask)

    def filter(self, mask: "Disord") -> "Disord":
        """Keep elements where the mask is true; the result is a new,
        shorter collection and carries a fresh hash."""
        if not isinstance(mask, Disord):
            raise TypeError("filtering needs a boolean-mask Disord")
        if self._hash != mask._hash:
            raise HashMismatch(self._hash, mask._hash)
        kept = [i for i, keep in enumerate(mask._values) if keep]
        return Disord(
            (self._values[i] for i in kept), _filtered_hash(self._hash, kept)
        )

    def assign(self, mask: "Disord", replacement) -> "Disord":
        """Replace the masked positions; provenance is preserved.

        ``replacement`` may be a scalar, a Disord carrying this
        collection's hash (full length, masked positions read), or a
        Disord carrying the filtered subset's hash (one value per masked
        position, in order).
        """
        if not isinstance(mask, Disord):
            raise TypeError("assign needs a boolean-mask Disord")
        if self._hash != mask._hash:
            raise HashMismatch(self._hash, mask._hash)
        kept = [i for i, keep in enumerate(mask._values) if keep]

        values = list(self._values)
        if isinstance(replacement, Disord):
            if replacement._hash == self._hash:
                if len(replacement) != len(self):
                    raise ValueError("full-length replacement has wrong length")
                for i in kept:
                    values[i] = replacement._values[i]
            elif replacement._hash == _filtered_hash(self._hash, kept):
                if len(replacement) != len(kept):
                    raise ValueError("subset replacement has wrong length")
                for i, v in zip(kept, replacement._values):
                    values[i] = v
            else:
                raise HashMismatch(self._hash, replacement._hash)
        else:
            for i in kept:
                values[i] = replacement
        return Disord(values, self._hash)

    def sum(self):
        """Order-independent reduction; lawful on any single collection."""
        return sum(self._values)

    def __eq__(self, other):
        # Elementwise == would be ambiguous with identity comparison in
        # tests; compare as value: same provenance and same sequence.
        if isinstance(other, Disord):
            return self._hash == other._hash and self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash((self._hash, self._values))

    def __str__(self) -> str:
        from .printer import format_number

        shown = " ".join(
            format_number(v) if isinstance(v, float) else str(v)
            for v in self._values
        )
        return (
            f"A disord object with hash {self._hash} and elements\n"
            f"{shown}\n(in some order)"
        )

    __repr__ = __str__


def _filtered_hash(parent: str, kept_indices) -> str:
    return _digest(f"filter:{parent}:{','.join(map(str, kept_indices))}")


def coeffs(p: Mvp) -> Disord:
    """The coefficients of a polynomial, in no particular order."""
    return Disord((c for _, c in p.terms()), provenance_hash(p))


def powers(p: Mvp) -> Disord:
    """One PowerRow per term; shares its hash with ``coeffs`` of the same p."""
    rows = (
        PowerRow(tuple(s for s, _ in t), tuple(k for _, k in t))
        for t, _ in p.terms()
    )
    return Disord(rows, provenance_hash(p))


def variables(p: Mvp) -> Disord:
    """The symbol sequence of each term, parallel to ``coeffs``/``powers``."""
    return Disord(
        (tuple(s for s, _ in t) for t, _ in p.terms()), provenance_hash(p)
    )


def set_coeffs(p: Mvp, d: Disord) -> Mvp:
    """Replace the coefficients of ``p`` positionally from ``d``.

    ``d`` must carry the hash that ``coeffs(p)`` produces and have one
    value per term; zero replacements delete their terms, which is the
    mechanism for zapping small coefficients.
    """
    expected = provenance_hash(p)
    if d.hash != expected:
        raise HashMismatch(expected, d.hash)
    if len(d) != len(p._terms):
        raise ValueError(
            f"need {len(p._terms)} coefficients, got {len(d)}"
        )
    out = {}
    for (t, _), c in zip(p.terms(), d.values):
        c = float(c)
        if c != 0.0:
            out[t] = c
    return Mvp._from_clean(out)
