"""Truncation, exact-power extraction, and univariate series decomposition.

A polynomial can be viewed as a power series in any one of its symbols;
``series`` performs that regrouping and ``taylor`` composes it with a
shift substitution to expand about a point.  A variable named like
``x_m_foo`` displays as ``(x-foo)``, marking an expansion about ``foo``.
"""

from __future__ import annotations

import operator
from typing import Optional

from .core import Mvp, Record, group_by_power, named_pairs, power_of, require_symbol, total_degree
from .parser import parse
from .transform import subs


class SeriesDecomposition(Record):
    """A polynomial regrouped by powers of one variable.

    ``components`` holds (power, coefficient) pairs sorted by ascending
    power; no coefficient is zero, and summing coefficient * variable**power
    reconstructs the source polynomial.
    """

    __slots__ = __match_args__ = ("variable", "display", "components")

    def __init__(self, variable: str, display: Optional[str], components: tuple):
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "display", display)
        object.__setattr__(self, "components", components)

    def __str__(self) -> str:
        from .printer import render_series

        return render_series(self)

    __repr__ = __str__


def _require_real(what: str, x) -> None:
    """TypeError unless ``x`` is a real number, ValueError if it is NaN."""
    import numbers

    if not isinstance(x, numbers.Real):
        raise TypeError(f"{what} must be a real number, got {x!r}")
    if x != x:  # NaN, the one real unequal to itself
        raise ValueError(f"{what} is NaN")


def trunc(p: Mvp, n) -> Mvp:
    """Keep the terms of total degree at most ``n`` (negatives included).

    ``n`` may be any real number, and an infinite one keeps or drops every
    term; a NaN raises ValueError and anything else TypeError, before any
    term is read.
    """
    _require_real("degree", n)
    return Mvp._from_clean(
        {t: c for t, c in p._terms.items() if total_degree(t) <= n}
    )


def trunc1(p: Mvp, limits=None, **by_name) -> Mvp:
    """Keep terms whose power of each listed symbol is at most its limit.

    ``limits`` and the keywords are read by ``named_pairs``; a repeated
    symbol keeps its last limit.  A symbol absent from a term counts as
    power 0.  A limit may be any real number, a float included, and an
    infinite one keeps or drops every term.  An invalid symbol name or a
    NaN limit raises ValueError, and a limit that is not a real number
    TypeError naming its symbol, before any term is read; every name is
    checked before any limit.
    """
    merged = dict(named_pairs(limits, by_name))
    for s, lim in merged.items():
        _require_real(f"limit for {s!r}", lim)
    out = {
        t: c
        for t, c in p._terms.items()
        if all(power_of(t, s) <= lim for s, lim in merged.items())
    }
    return Mvp._from_clean(out)


def onevarpow(p: Mvp, targets=None, **by_name) -> Mvp:
    """Extract the coefficient polynomial of an exact power pattern.

    Keeps the terms whose power of each target symbol equals the target
    exactly (absent counting as 0), then deletes those symbols from what
    remains: the result is the factor multiplying the requested monomial,
    in the input's stored term order.  ``targets`` and the keywords are
    read by ``named_pairs``; a repeated symbol keeps its last target.  An
    invalid symbol name raises ValueError, and a target that is not an
    integer (``operator.index`` refuses it: a float, a string, None)
    TypeError naming its symbol, before any term is read; every name is
    checked before any target.
    """
    merged = {s: _target(s, k) for s, k in dict(named_pairs(targets, by_name)).items()}
    # Stored powers are nonzero, so a term matches when its pairs on the
    # target symbols are exactly the nonzero targets, in symbol order.
    want = sorted(pair for pair in merged.items() if pair[1] != 0)
    out = {}
    for t, c in p._terms.items():
        on = []
        rest = []
        for pair in t:
            (on if pair[0] in merged else rest).append(pair)
        # Distinct matching terms differ off the targets: nothing is summed.
        if on == want:
            out[tuple(rest)] = c
    return Mvp._from_clean(out)


def _target(symbol: str, k) -> int:
    try:
        return operator.index(k)
    except TypeError:
        raise TypeError(f"target power of {symbol!r} must be an integer, got {k!r}") from None


def _display_for(variable: str) -> Optional[str]:
    head, sep, tail = variable.partition("_m_")
    if sep and head and tail:
        return f"({head}-{tail})"
    return None


def series(p: Mvp, variable: str) -> SeriesDecomposition:
    """Decompose into a power series in one variable.

    The component at power k collects every term carrying variable**k,
    with the variable itself removed, so components never mention it.
    An invalid symbol name raises ValueError.
    """
    require_symbol(variable)
    groups = group_by_power(p._terms, variable)
    components = tuple(
        (k, Mvp._from_clean(groups[k])) for k in sorted(groups)
    )
    return SeriesDecomposition(variable, _display_for(variable), components)


def taylor(p: Mvp, variable: str, about: str) -> SeriesDecomposition:
    """Series expansion of ``p`` in ``variable`` about the symbol ``about``.

    Substitutes ``variable -> variable_m_about + about`` and decomposes in
    the shifted variable, which displays as ``(variable-about)``.  The
    variable must occur with nonnegative powers only, and both names must
    be symbols: an invalid one raises ValueError.
    """
    require_symbol(variable)
    require_symbol(about)
    shifted_name = f"{variable}_m_{about}"
    shifted = subs(
        p, [(variable, parse(f"{shifted_name} + {about}"))], lose=False
    )
    return series(shifted, shifted_name)


def reconstruct(decomposition: SeriesDecomposition) -> Mvp:
    """Sum coefficient * variable**power back into a single polynomial."""
    v = decomposition.variable
    total = Mvp.zero()
    for k, coeff in decomposition.components:
        factor = Mvp.from_number(1.0) if k == 0 else Mvp.monomial(v, k)
        total = total + coeff * factor
    return total
