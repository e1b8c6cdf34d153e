"""The multiply kernel: term-pair convolution of term->coefficient dicts,
and integer powers built from it.

The term-pair convolution is the hot loop of the whole library.  It works
on raw term->coefficient dicts so the wrapping Mvp type stays out of the
inner loop, and it has two paths with bitwise-equal coefficients:

* the dict path merges every term pair into a tuple term and accumulates
  into a tuple-keyed dict; it is the reference the tests compare against;
* the packed path (Monagan & Pearce, "Sparse polynomial multiplication
  and division in Maple 14", 2010) encodes each term once as one integer
  in a mixed radix, so the term of a pair is the sum of two integers, and
  sums the pairs with numpy in one of two accumulators: a dense array over
  the key space where that space is small next to the pair count, and
  otherwise a compact array with one slot per distinct key, found by
  sorting the keys (the numpy form of Monagan & Pearce's heap merge).
  numpy is imported only when the packed path runs.

``mul_terms`` picks one of three ways by constants alone: the dense
accumulator up to ``_PACKED_KEYS_PER_PAIR`` keys per term pair, the sort
accumulator above that while the key space fits in a signed 64-bit
integer and the product has at least ``_SORTED_MIN_PAIRS`` pairs, and the
dict path otherwise, including whenever an operand has fewer than
``_PACKED_MIN_TERMS`` terms.

All of them add the pairs in the same p-outer, q-inner order and drop
exact zeros once at the end, so each product term's coefficient is
bitwise-equal on every path.  Where they put the terms differs, and
nothing may read meaning into it: the dict path stores them in the order
of their first contribution, both packed accumulators in ascending order
of their packed keys.  The dict path raises PowerOverflowError exactly
when some pair's power sum leaves the signed 64-bit range; the packed
path only runs on key spaces that fit that range, where no power sum can
leave it.

``pow_terms`` builds powers from the product by binary squaring.  While
the packed path runs, the intermediates of a power stay in its form, a
``_Packed`` of keys and coefficients, and the power is decoded into a dict
once, at the end: a packed product returns that form whenever an operand
is in it, and a dict for two dicts.
"""

import math
import operator

from .core import INT64_MAX, INT64_MIN, PowerOverflowError

# Fewest terms in each operand for the packed path, most keys per term pair
# for its dense accumulator, and fewest term pairs for its sort accumulator
# (see mul_terms).
_PACKED_MIN_TERMS = 8
_PACKED_KEYS_PER_PAIR = 4
_SORTED_MIN_PAIRS = 512

# Term pairs per block of the packed accumulators, and terms per chunk of
# the decoding: they bound the temporary arrays and lists.
_PACKED_BLOCK = 1 << 16
_DECODE_CHUNK = 1 << 12


def merge_terms(t1, t2):
    """Merge two canonical terms, adding powers; zero sums drop out."""
    if not t1:
        return t2
    if not t2:
        return t1
    out = []
    i = j = 0
    n1 = len(t1)
    n2 = len(t2)
    while i < n1 and j < n2:
        s1, k1 = t1[i]
        s2, k2 = t2[j]
        if s1 < s2:
            out.append(t1[i])
            i += 1
        elif s2 < s1:
            out.append(t2[j])
            j += 1
        else:
            k = k1 + k2
            if k != 0:
                if k > INT64_MAX or k < INT64_MIN:
                    raise PowerOverflowError(
                        f"power {k} of {s1!r} outside the signed 64-bit range"
                    )
                out.append((s1, k))
            i += 1
            j += 1
    out.extend(t1[i:])
    out.extend(t2[j:])
    return tuple(out)


def mul_terms(p, q):
    """Convolve two term->coefficient operands.

    Every term pair is accumulated into the result, and exact zeros are
    dropped at the end, so the output satisfies the storage invariants.
    An operand is a dict or, inside ``pow_terms``, a ``_Packed``: the result
    is a dict for two dicts, and a ``_Packed`` from the packed path when an
    operand is one.
    """
    # The packed path wins where many pairs share a product term, which a
    # key space small next to the pair count makes likely.  Measured against
    # the dict path on CPython 3.11 with numpy 2.4 (one shared core, best of
    # 3-200 runs): 20x on a 1000x1000-term product over 6 symbols (key space
    # 0.53 of the pairs), 3-7x on knight(4)^2 (2.85 keys per pair), 2-9x on
    # 24-100-term operands over 3 symbols at up to 15 keys per pair.
    #
    # The dense accumulator, up to 4 keys per pair, costs at most 36 bytes
    # per pair.  At the 8-term floor it runs 0.84-1.01x (8x8 terms over 1-2
    # symbols), its fixed cost being about 100 us of numpy calls; from 12x12
    # terms it runs 1.4-1.8x, from 16x16 2-3x (median of 5 random inputs
    # each, over 1-4 symbols).
    #
    # Above 4 keys per pair the sort accumulator pays a few sorts instead,
    # and fewer pairs share each term, so more terms must be decoded: it
    # gains less, and later.  Median over 5 random inputs of each shape (8
    # symbols with powers 1..4 or -4..4, 3 symbols with -30..30, 1 or 2
    # symbols with powers up to 10^6 or 10^3): 0.7-1.0x at 256 pairs,
    # 1.0-1.3x at 512, 1.1-1.4x at 768, 1.4-1.5x at 1024, 1.5-1.9x at
    # 1536-2304; 1.3-3.4x on the 1,000-30,000-pair products of perfbench's
    # poly_session over 8 symbols.  Its floor is therefore on the pair
    # count.  Beyond int64 the keys do not fit, and the dict path runs and
    # raises on the pair that overflows.
    if min(len(p), len(q)) >= _PACKED_MIN_TERMS:
        columns = _columns(p, q)
        size = math.prod([span for _, _, span in columns])
        pairs = len(p) * len(q)
        if size <= _PACKED_KEYS_PER_PAIR * pairs:
            return _mul_packed(p, q, columns, dense=True)
        if pairs >= _SORTED_MIN_PAIRS and size <= INT64_MAX:
            return _mul_packed(p, q, columns, dense=False)
    p_terms = _unpacked(p)
    return mul_terms_dict(p_terms, p_terms if q is p else _unpacked(q))


def mul_terms_dict(p, q):
    """The dict path of ``mul_terms``: merge the tuple terms of each pair."""
    out = {}
    get = out.get
    q_items = list(q.items())
    for t1, c1 in p.items():
        for t2, c2 in q_items:
            t = merge_terms(t1, t2)
            out[t] = get(t, 0.0) + c1 * c2
    if 0.0 in out.values():
        for t in [t for t, c in out.items() if c == 0.0]:
            del out[t]
    return out


def _columns(p, q):
    """``(symbol, lowest power, span)`` of the power sums over all pairs.

    One column per symbol, in symbol order.  A symbol absent from a term
    counts as power 0 there.
    """
    lo_p, hi_p = _power_ranges(p)
    lo_q, hi_q = (lo_p, hi_p) if q is p else _power_ranges(q)
    columns = []
    for s in sorted(lo_p.keys() | hi_p.keys() | lo_q.keys() | hi_q.keys()):
        low = lo_p.get(s, 0) + lo_q.get(s, 0)
        high = hi_p.get(s, 0) + hi_q.get(s, 0)
        columns.append((s, low, high - low + 1))
    return columns


def pow_terms(terms, n):
    """``terms`` raised to the nonnegative integer ``n``, as a dict.

    Built by binary squaring, in at most 2 log2(n) products, each through
    ``mul_terms``.  An operand with enough terms for the packed path is
    encoded before it is squared, and the products stay packed while the
    packed path runs: the power is decoded once, at the end.
    """
    if n == 0:
        return {(): 1.0}
    result = None
    while True:
        if n & 1:
            result = terms if result is None else mul_terms(result, terms)
        n >>= 1
        if not n:
            return _unpacked(result)
        terms = _pack(terms)
        terms = mul_terms(terms, terms)


def _power_ranges(terms):
    """Per-symbol lowest negative and highest positive power over the terms."""
    lo = {}
    hi = {}
    if isinstance(terms, _Packed):
        for s, powers in terms.powers():
            low, high = int(powers.min()), int(powers.max())
            if low < 0:
                lo[s] = low
            if high > 0:
                hi[s] = high
        return lo, hi
    for t in terms:
        for s, k in t:
            if k < 0:
                if k < lo.get(s, 0):
                    lo[s] = k
            elif k > hi.get(s, 0):
                hi[s] = k
    return lo, hi


class _Packed:
    """Terms in the packed path's form, for the intermediates of a power.

    Row ``i`` is the term whose key over ``columns`` is ``keys[i]``, biased
    into [0, key space) as in ``_mul_packed``, with coefficient
    ``coeffs[i]``.  The rows keep the order they were made in: ascending
    keys for a product, the dict's order for an encoded dict.  ``len()``
    counts the terms, as it does for a dict.
    """

    __slots__ = ("keys", "coeffs", "columns", "_powers")

    def __init__(self, keys, coeffs, columns):
        self.keys = keys
        self.coeffs = coeffs
        self.columns = columns
        self._powers = None

    def __len__(self):
        return len(self.keys)

    def powers(self):
        """``(symbol, each row's power of it)`` per column, worked out once:
        a square reads them once, for its columns and for its keys."""
        if self._powers is None:
            import numpy as np

            keys = self.keys
            powers = []
            for s, low, span in reversed(self.columns[1:]):
                keys, digit = np.divmod(keys, span)
                powers.append((s, digit + low))
            s, low, _ = self.columns[0]
            powers.append((s, keys + low))
            powers.reverse()
            self._powers = powers
        return self._powers


def _pack(terms):
    """A dict of at least ``_PACKED_MIN_TERMS`` terms whose own key space
    fits in int64, as a ``_Packed`` over its own columns, in its order; any
    other operand as it is.

    A dict whose own key space is beyond int64 stays one: every product
    with it has a key space at least as large, so takes the dict path.
    """
    if isinstance(terms, _Packed) or len(terms) < _PACKED_MIN_TERMS:
        return terms
    columns = _columns(terms, {})
    weight, offset, size = _radix(columns)
    if size > INT64_MAX:
        return terms
    return _Packed(_keys(terms, weight, offset), _coeffs(terms), columns)


def _unpacked(terms):
    """The term->coefficient dict of an operand, in its row order."""
    if isinstance(terms, _Packed):
        return _decode_terms(terms.keys, terms.coeffs, terms.columns)
    return terms


def _radix(columns):
    """The mixed radix of packed keys over ``columns``: each symbol's
    weight, the offset that biases a key into [0, key space), and the key
    space.

    A term's key holds each column's power in the radix, biased by the
    column's lowest power, so a pair's key is the sum of its terms' keys
    and lies in [0, key space).  The first symbol is the most significant
    digit, so key order is close to the canonical order of the terms, and
    ascending keys are the terms in lexicographic order of their biased
    powers, first symbol first, whatever the radix.
    """
    weight = {}
    offset = 0
    radix = 1
    for s, low, span in reversed(columns):
        weight[s] = radix
        offset -= low * radix
        radix *= span
    return weight, offset, radix


def _keys(terms, weight, offset):
    """``offset`` plus the unbiased key of each of an operand's terms, in
    its order, under ``weight``; the result must lie in the signed 64-bit
    range."""
    import numpy as np

    if isinstance(terms, _Packed):
        # Column by column, each partial sum lies between the key's bounds.
        keys = np.full(len(terms), offset, dtype=np.int64)
        for s, powers in terms.powers():
            if s in weight:  # a column without weight has no nonzero power
                keys += powers * weight[s]
        return keys
    return np.array([offset + sum([k * weight[s] for s, k in t]) for t in terms], dtype=np.int64)


def _coeffs(terms):
    """An operand's coefficients, in its order, as a float64 array."""
    import numpy as np

    if isinstance(terms, _Packed):
        return terms.coeffs
    return np.fromiter(terms.values(), float, len(terms))


def _mul_packed(p, q, columns, dense):
    # Precondition, kept by mul_terms: operands with at least one term
    # each, and a key space of at most INT64_MAX keys, so every power sum
    # and every key lies in the signed 64-bit range; with dense, at most
    # _PACKED_KEYS_PER_PAIR keys per term pair, so the dense accumulator
    # costs at most 9 bytes per key.
    weight, offset, radix = _radix(columns)
    q_keys = _keys(q, weight, 0)
    q_coeffs = _coeffs(q)
    if p is q:  # a square encodes its operand once
        p_keys, p_coeffs = q_keys + offset, q_coeffs
    else:
        p_keys, p_coeffs = _keys(p, weight, offset), _coeffs(p)

    # The accumulator is freed on return, before the result dict grows.
    keys, coeffs = _accumulate(p_keys, p_coeffs, q_keys, q_coeffs, radix if dense else None)
    if not len(keys):
        return {}
    if isinstance(p, _Packed) or isinstance(q, _Packed):
        return _Packed(keys, coeffs, columns)
    return _decode_terms(keys, coeffs, columns)


def _decode_terms(keys, coeffs, columns):
    """The term->coefficient dict of nonempty packed keys over ``columns``
    and their coefficients, in the keys' order."""
    import numpy as np

    # Each key is decoded as a high and a low half, and each half that
    # occurs is decoded once.  A chunk's halves are split off as the chunk
    # is decoded, so only the keys and coefficients, 16 bytes per term,
    # stay alive while the result dict grows.  map and zip join the halves
    # without a loop in Python, which measured about 25% faster on a
    # 92k-term product.
    size = math.prod([span for _, _, span in columns])
    split, high_terms, low_terms = _halves(keys, size, columns)
    out = {}
    for i in range(0, len(keys), _DECODE_CHUNK):
        chunk = slice(i, i + _DECODE_CHUNK)
        high, low = np.divmod(keys[chunk], split)
        out.update(zip(map(operator.add, high_terms(high), low_terms(low)), coeffs[chunk].tolist()))
    return out


def _accumulate(p_keys, p_coeffs, q_keys, q_coeffs, radix):
    """The keys of the nonzero product terms, in ascending order, and their
    coefficients.

    With a ``radix``, the pairs sum into a dense array over the key space;
    without, into a compact array with one slot per distinct key.
    """
    import numpy as np

    rows = max(1, _PACKED_BLOCK // len(q_keys))
    blocks = [slice(i, i + rows) for i in range(0, len(p_keys), rows)]

    def pair_keys(block):
        return (p_keys[block, None] + q_keys).ravel()

    if radix is not None:
        keys = None
        slots = map(pair_keys, blocks)  # each key is its own slot
    else:
        # Every block adds into one array, at each key's slot among the
        # distinct keys of all blocks: per-block partial sums would round
        # differently.  np.unique(return_inverse=True) found the slots of a
        # lone block faster: on mul01 of perfbench's poly_session, 30k
        # pairs, this function took 3.2 ms with it and 5.3 ms without, in
        # a 34-37 ms product.  But it paged in numpy sort code that nothing
        # else here runs, and raised that workload's peak RSS by a median
        # 0.26 MB over 6 seeds.
        keys = _distinct(np.concatenate([_distinct(pair_keys(b)) for b in blocks]))
        slots = (np.searchsorted(keys, pair_keys(b)) for b in blocks)
    acc = np.zeros(radix if keys is None else len(keys))
    # ufunc.at adds the pairs of a block one at a time in the order given,
    # p-outer and q-inner as in mul_terms_dict, so each sum rounds exactly
    # as it does there.
    with np.errstate(over="ignore", invalid="ignore"):  # the caller rejects inf and nan
        for block, block_slots in zip(blocks, slots):
            np.add.at(acc, block_slots, (p_coeffs[block, None] * q_coeffs).ravel())
    nonzero = np.flatnonzero(acc)
    return (nonzero if keys is None else keys[nonzero]), acc[nonzero]


def _distinct(values):
    """The distinct values of a nonempty array, ascending.

    np.unique without an inverse finds them by hashing, which measured 5-50x
    slower than this sort on 30k-1M int64 keys.
    """
    import numpy as np

    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _halves(keys, size, columns):
    """Split nonempty packed keys over ``columns`` into a high and a low
    half at a column boundary, each over about the square root of the key
    space ``size``.

    Returns the divisor that parts a key into its halves and, for each
    half, a function from an array of its halves, all among those of
    ``keys``, to their terms.
    """
    import numpy as np

    cut = len(columns)
    split = 1
    while cut > 1 and split * split < size:
        cut -= 1
        split *= columns[cut][2]
    high, low = np.divmod(keys, split)
    return split, _half_terms(high, size // split, columns[:cut]), _half_terms(low, split, columns[cut:])


def _half_terms(halves, size, columns):
    """A function from an array of packed halves over ``columns``, all among
    the nonempty ``halves``, to their terms; each half is decoded once."""
    import numpy as np

    if size <= len(halves):
        # A list over every half: no sort, and the halves index it as they are.
        present = np.zeros(size, dtype=bool)
        present[halves] = True
        terms = [None] * size
        for key in np.flatnonzero(present).tolist():
            terms[key] = _decode(key, columns)
        return lambda chunk: map(terms.__getitem__, chunk.tolist())
    # A list over a key space this large next to the halves would cost more
    # than the product: decode the distinct halves, halved again down to
    # one column, and find a half's slot among them by binary search.
    occurring = _distinct(halves)
    if len(columns) == 1:
        [(s, low, _)] = columns
        terms = [((s, k),) if k else () for k in (occurring + low).tolist()]
    else:
        split, high_terms, low_terms = _halves(occurring, size, columns)
        high, low = np.divmod(occurring, split)
        terms = list(map(operator.add, high_terms(high), low_terms(low)))
    return lambda chunk: map(terms.__getitem__, np.searchsorted(occurring, chunk).tolist())


def _decode(key, columns):
    """The term of a packed key over ``columns``."""
    pairs = []
    for s, low, span in reversed(columns):
        key, digit = divmod(key, span)
        if digit + low:
            pairs.append((s, digit + low))
    pairs.reverse()
    return tuple(pairs)


def backend_name() -> str:
    """The multiply kernel in use: always ``"python"``, the only one there is.

    Kept so that code recording the backend alongside timings still runs.
    """
    return "python"
