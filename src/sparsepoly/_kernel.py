"""The multiply kernel: term-pair convolution of term->coefficient dicts,
and integer powers built from it.

The term-pair convolution is the hot loop of the whole library.  It works
on raw term->coefficient dicts so the wrapping Mvp type stays out of the
inner loop, and it has two paths with bitwise-equal results:

* the dict path merges every term pair into a tuple term and accumulates
  into a tuple-keyed dict; it is the reference the tests compare against;
* the packed path (Monagan & Pearce, "Sparse polynomial multiplication
  and division in Maple 14", 2010) encodes each term once as one integer
  in a mixed radix, so the term of a pair is the sum of two integers and
  the accumulator is keyed by ints.

Both accumulate in the same p-outer, q-inner order with the same
exact-zero deletion, so they produce equal coefficients in the same
insertion order, and both raise PowerOverflowError exactly when some
pair's power sum leaves the signed 64-bit range.

``pow_terms`` chooses how a power is built from the base's sparsity
(Fateman, "On the computation of powers of sparse polynomials", 1974):
binary squaring forms far more term pairs than repeated multiplication by
a sparse base, and fewer for a dense one.
"""

from .core import INT64_MAX, INT64_MIN, PowerOverflowError

# Fewest terms in each operand for the packed path (see mul_terms).
_PACKED_MIN_TERMS = 8

# A base of two or more terms whose power box holds more than this many
# lattice points per term is sparse, and pow_terms multiplies its powers up
# one factor at a time.
_SPARSE_BOX_PER_TERM = 4


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

    Every term pair is accumulated directly into the result map with
    exact-zero deletion, so the output satisfies the storage invariants.
    """
    # The packed path wins where a product collapses, and a key space
    # smaller than the pair count makes collisions certain.  Measured
    # against the dict path on CPython 3.11: 5.8x on a 1000x1000-term
    # product over 6 symbols (key space 0.53 of the pairs), 9x on knight(4)^2
    # squared, 1.4-3x on 10-50-term operands that collapse.  It loses
    # (0.3-0.7x) where the key space far exceeds the pair count, so that
    # hardly any pair collides, and (0.2-0.8x) when an operand has fewer
    # than 8 terms: its fixed cost is about 15 us, and a binomial times a
    # long polynomial collapses only half of its pairs.
    if min(len(p), len(q)) >= _PACKED_MIN_TERMS:
        columns = _columns(p, q)
        size = 1
        for _, _, span in columns:
            size *= span
        if size < len(p) * len(q):
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
            c = get(t, 0.0) + c1 * c2
            if c == 0.0:
                out.pop(t, None)
            else:
                out[t] = c
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

    A sparse base of two or more terms is multiplied in one factor at a
    time; a dense one, a monomial, zero and any square go by binary
    squaring, so a base whose powers stay small takes about log2(n)
    products.  Sparse means that the base's power box, the product over
    its symbols of ``max - min + 1`` with 0 counted in, holds more than
    ``_SPARSE_BOX_PER_TERM`` lattice points per term.  Both orders give
    equal results for integer coefficients whose partial sums stay below
    2**53; other coefficients can differ in the last bits between them.
    """
    if n == 0:
        return {(): 1.0}
    # Measured on CPython 3.11 (2 shared cores, best of 5-7 runs), with
    # density the base's terms over its box: multiplying is faster on
    # knight(4) (density 0.077; 2.0x at **4, 5.5x at **6), knight(3) (0.19;
    # 1.4-5.6x from **4 to **12), 1+a+b+c+d+e (0.19; 2.0x at **8) and
    # 1+a+...+g (0.062; 1.9x at **8, 4.5x at **12), and within 1.25x either
    # way at **3.  Squaring is 1.4-4.3x faster from **8 on for 1+x, 1+x+y,
    # 1+x+y+z and x+1/x+y+1/y (0.44-1): their powers fill the box, so each
    # squaring collapses most of its pairs, while every step of repeated
    # multiplication by a base under 8 terms stays on the dict path.  The
    # rule misjudges some bases: x+y+z+1/x+1/y+1/z (0.22) multiplies 2.7x
    # slower at **8, and a 10-term random base over 3 symbols (0.16) 2-3x
    # slower at **4 and **6 (3.2x faster at **12).
    if n > 2 and len(terms) > 1 and _box_size(terms) > _SPARSE_BOX_PER_TERM * len(terms):
        return _pow_by_multiplying(terms, n)
    return _pow_by_squaring(terms, n)


def _pow_by_multiplying(terms, n):
    result = terms
    for _ in range(n - 1):
        result = mul_terms(result, terms)
    return result


def _pow_by_squaring(terms, n):
    result = None
    while True:
        if n & 1:
            result = terms if result is None else mul_terms(result, terms)
        n >>= 1
        if not n:
            return result
        terms = mul_terms(terms, terms)


def _box_size(terms):
    """Lattice points of the terms' per-symbol power box, 0 counted in."""
    lo, hi = _power_ranges(terms)
    size = 1
    for s in lo.keys() | hi.keys():
        size *= hi.get(s, 0) - lo.get(s, 0) + 1
    return size


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
    # A term's key holds each column's power in a mixed radix, biased by
    # the column's lowest power, so a pair's key is the sum of its terms'
    # keys.  Absent symbols count as power 0, so a power sum outside int64
    # needs the symbol in both terms of the extreme pair: the dict path
    # raises on that pair too.
    weight = {}
    offset = 0
    radix = 1
    for s, low, span in columns:
        high = low + span - 1
        if high > INT64_MAX or low < INT64_MIN:
            k = high if high > INT64_MAX else low
            raise PowerOverflowError(f"power {k} of {s!r} outside the signed 64-bit range")
        weight[s] = radix
        offset -= low * radix
        radix *= span
    p_keys = [(offset + sum([k * weight[s] for s, k in t]), c) for t, c in p.items()]
    q_keys = [(sum([k * weight[s] for s, k in t]), c) for t, c in q.items()]

    acc = {}
    get = acc.get
    for k1, c1 in p_keys:
        for k2, c2 in q_keys:
            k = k1 + k2
            c = get(k, 0.0) + c1 * c2
            if c == 0.0:
                acc.pop(k, None)
            else:
                acc[k] = c

    # Decode each key as a low and a high half, each about the square root
    # of the key space, memoising the halves: terms then share their pairs.
    cut = 0
    split = 1
    while split * split < radix:
        split *= columns[cut][2]
        cut += 1
    low_terms = _HalfTerms(columns[:cut])
    high_terms = _HalfTerms(columns[cut:])
    out = {}
    for key, c in acc.items():
        high, low = divmod(key, split)
        out[low_terms[low] + high_terms[high]] = c
    return out


class _HalfTerms(dict):
    """Canonical terms of some columns, keyed by packed key, decoded on demand."""

    def __init__(self, columns):
        super().__init__()
        self.columns = columns

    def __missing__(self, key):
        pairs = []
        rest = key
        for s, low, span in self.columns:
            rest, digit = divmod(rest, span)
            if digit + low:
                pairs.append((s, digit + low))
        term = self[key] = tuple(pairs)
        return term


def backend_name() -> str:
    """The multiply kernel in use: always ``"python"``, the only one there is.

    Kept so that code recording the backend alongside timings still runs.
    """
    return "python"
