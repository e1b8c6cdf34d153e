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
  accumulates the pairs into a dense numpy array over the key space.  It
  runs only where that key space is small next to the pair count, and
  numpy is imported only when it runs.

Both add the pairs in the same p-outer, q-inner order and drop exact
zeros once at the end, so each product term's coefficient is bitwise-equal
on the two paths.  Where they put the terms differs, and nothing may read
meaning into it: the dict path stores them in the order of their first
contribution, the packed path in the order of their packed keys.
The dict path raises PowerOverflowError exactly when some pair's power
sum leaves the signed 64-bit range; the packed path only runs on key
spaces far too small for that.

``pow_terms`` builds powers from the product by binary squaring.
"""

import operator

from .core import INT64_MAX, INT64_MIN, PowerOverflowError

# Fewest terms in each operand, and most keys per term pair, for the packed
# path (see mul_terms).
_PACKED_MIN_TERMS = 8
_PACKED_KEYS_PER_PAIR = 4

# Term pairs per block of the packed accumulator, and terms per chunk of
# its decoding: they bound the temporary arrays and lists.
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
    """Convolve two term->coefficient dicts into a new dict.

    Every term pair is accumulated into the result, and exact zeros are
    dropped at the end, so the output satisfies the storage invariants.
    """
    # The packed path wins where many pairs share a product term, which a
    # key space small next to the pair count makes likely.  Measured against
    # the dict path on CPython 3.11 with numpy 2.4 (one shared core, best of
    # 3-200 runs): 20x on a 1000x1000-term product over 6 symbols (key space
    # 0.53 of the pairs), 3-7x on knight(4)^2 (2.85 keys per pair), 2-9x on
    # 24-100-term operands over 3 symbols at up to 15 keys per pair.  Where
    # it breaks even depends on the operands: at 50-400 keys per pair for 3
    # symbols and 16-48 terms, but already at 2-7 (0.9-1.15x) for one-symbol
    # operands, whose dict path merges 1-tuples cheaply.  At the 8-term floor
    # it runs 0.7-0.9x, its fixed cost being about 100 us of numpy calls.
    # Up to 4 keys per pair it won on every input above the floor except
    # one-symbol operands of 12-24 terms (0.77-1.1x), and the accumulator
    # then costs at most 36 bytes per pair.
    if min(len(p), len(q)) >= _PACKED_MIN_TERMS:
        columns = _columns(p, q)
        size = 1
        for _, _, span in columns:
            size *= span
        if size <= _PACKED_KEYS_PER_PAIR * len(p) * len(q):
            return _mul_packed(p, q, columns)
    return mul_terms_dict(p, q)


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
    lo_q, hi_q = _power_ranges(q)
    columns = []
    for s in sorted(lo_p.keys() | hi_p.keys() | lo_q.keys() | hi_q.keys()):
        low = lo_p.get(s, 0) + lo_q.get(s, 0)
        high = hi_p.get(s, 0) + hi_q.get(s, 0)
        columns.append((s, low, high - low + 1))
    return columns


def pow_terms(terms, n):
    """``terms`` raised to the nonnegative integer ``n``, as a dict.

    Built by binary squaring, in at most 2 log2(n) products.
    """
    if n == 0:
        return {(): 1.0}
    result = None
    while True:
        if n & 1:
            result = terms if result is None else mul_terms(result, terms)
        n >>= 1
        if not n:
            return result
        terms = mul_terms(terms, terms)


def _power_ranges(terms):
    """Per-symbol lowest negative and highest positive power over the terms."""
    lo = {}
    hi = {}
    for t in terms:
        for s, k in t:
            if k < 0:
                if k < lo.get(s, 0):
                    lo[s] = k
            elif k > hi.get(s, 0):
                hi[s] = k
    return lo, hi


def _mul_packed(p, q, columns):
    # Precondition, kept by mul_terms: a key space of at most
    # _PACKED_KEYS_PER_PAIR keys per term pair.  Every column's span, and
    # with it every power sum and every key, then lies far inside the
    # signed 64-bit range, and the accumulator costs at most 9 bytes per key.
    import numpy as np

    # A term's key holds each column's power in a mixed radix, biased by
    # the column's lowest power, so a pair's key is the sum of its terms'
    # keys and lies in [0, radix).  The first symbol is the most significant
    # digit, so key order is close to the canonical order of the terms.
    weight = {}
    offset = 0
    radix = 1
    for s, low, span in reversed(columns):
        weight[s] = radix
        offset -= low * radix
        radix *= span
    p_keys = np.array([offset + sum([k * weight[s] for s, k in t]) for t in p], dtype=np.int64)
    q_keys = np.array([sum([k * weight[s] for s, k in t]) for t in q], dtype=np.int64)
    p_coeffs = np.fromiter(p.values(), float, len(p))
    q_coeffs = np.fromiter(q.values(), float, len(q))

    # The dense array is freed on return, before the result dict grows.
    keys, coeffs = _accumulate(p_keys, p_coeffs, q_keys, q_coeffs, radix)

    # Decode each key as a high and a low half, each about the square root
    # of the key space: each half that occurs is decoded once, into a list
    # indexed by the half.  map and zip join the halves without a loop in
    # Python, which measured about 25% faster on a 92k-term product.
    cut = len(columns)
    split = 1
    while split * split < radix:
        cut -= 1
        split *= columns[cut][2]
    high, low = np.divmod(keys, split)
    high_terms = _half_terms(high, radix // split, columns[:cut])
    low_terms = _half_terms(low, split, columns[cut:])
    out = {}
    for i in range(0, len(keys), _DECODE_CHUNK):
        chunk = slice(i, i + _DECODE_CHUNK)
        highs = map(high_terms.__getitem__, high[chunk].tolist())
        lows = map(low_terms.__getitem__, low[chunk].tolist())
        out.update(zip(map(operator.add, highs, lows), coeffs[chunk].tolist()))
    return out


def _accumulate(p_keys, p_coeffs, q_keys, q_coeffs, radix):
    """The keys of the nonzero product terms, in ascending order, and their
    coefficients."""
    import numpy as np

    # ufunc.at adds the pairs of a block one at a time in the order given,
    # p-outer and q-inner as in mul_terms_dict, so each sum rounds exactly
    # as it does there.
    acc = np.zeros(radix)
    rows = max(1, _PACKED_BLOCK // len(q_keys))
    with np.errstate(over="ignore", invalid="ignore"):  # the caller rejects inf and nan
        for i in range(0, len(p_keys), rows):
            keys = (p_keys[i : i + rows, None] + q_keys).ravel()
            np.add.at(acc, keys, (p_coeffs[i : i + rows, None] * q_coeffs).ravel())
    keys = np.flatnonzero(acc)
    return keys, acc[keys]


def _half_terms(halves, size, columns):
    """List of the terms of the packed halves that occur, indexed by half."""
    import numpy as np

    present = np.zeros(size, dtype=bool)
    present[halves] = True
    terms = [None] * size
    for key in np.flatnonzero(present).tolist():
        pairs = []
        rest = key
        for s, low, span in reversed(columns):
            rest, digit = divmod(rest, span)
            if digit + low:
                pairs.append((s, digit + low))
        pairs.reverse()
        terms[key] = tuple(pairs)
    return terms


def backend_name() -> str:
    """The multiply kernel in use: always ``"python"``, the only one there is.

    Kept so that code recording the backend alongside timings still runs.
    """
    return "python"
