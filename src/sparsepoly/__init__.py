"""Sparse multivariate Laurent polynomials backed by hash maps.

Polynomials are maps from terms to nonzero coefficients, terms are maps
from symbols to nonzero integer powers (negative powers welcome), and
everything on top (parsing, ring arithmetic, substitution, calculus,
series tooling, hash-disciplined coefficient access, the paper's knight
and random-polynomial examples) is a pure function over those maps.  The
command-line front end (``sparsepoly.cli``) sits on top of the library
and nothing in the library imports it.  The whole package is pure
Python; numpy is loaded only when ``subvec`` or a product that takes
the multiply kernel's packed path first runs: one whose operands both
have at least 8 terms and whose packed key space is either small next to
its term pairs or, with at least 512 pairs, fits in 64 bits.
``backend_name()`` names the multiply kernel and always returns
``"python"``.

Each stage of a CLI pipeline is a new interpreter, so the import keeps to
what a text pipeline runs: besides its own modules it loads ``argparse``
(with ``gettext``) and ``__future__``, and ``hashlib``, ``json`` and
``decimal`` wait for a provenance hash, a JSON input or a non-integral
coefficient to print.  Every module of the package is still imported
here, including those the CLI never calls, because the benchmark's
tracer wraps functions it finds in ``sys.modules`` right after
``import sparsepoly``.
"""

from ._kernel import backend_name
from .arith import add, multiply, negate, power, scale, subtract
from .calculus import aderiv, deriv, horner
from .cli import main
from .core import (
    Mvp,
    PowerOverflowError,
    Symbol,
    Term,
    accumulate,
    canonical_json,
    constant,
    equals,
    equals_approx,
    from_json,
    normalize_term,
    power_of,
    total_degree,
    validate,
)
from .disord import (
    Disord,
    HashMismatch,
    PowerRow,
    coeffs,
    powers,
    provenance_hash,
    set_coeffs,
    variables,
)
from .examples import expected_distance, knight, rmvp
from .parser import ParseError, parse, parse_or_lift
from .printer import format_number, render, render_series
from .series import (
    SeriesDecomposition,
    onevarpow,
    reconstruct,
    series,
    taylor,
    trunc,
    trunc1,
)
from .transform import Binding, invert, subs, subvec

__version__ = "0.1.0"

__all__ = [
    "Binding",
    "Disord",
    "HashMismatch",
    "Mvp",
    "ParseError",
    "PowerOverflowError",
    "PowerRow",
    "SeriesDecomposition",
    "Symbol",
    "Term",
    "accumulate",
    "add",
    "aderiv",
    "backend_name",
    "canonical_json",
    "coeffs",
    "constant",
    "deriv",
    "equals",
    "equals_approx",
    "expected_distance",
    "format_number",
    "from_json",
    "horner",
    "invert",
    "knight",
    "main",
    "multiply",
    "negate",
    "normalize_term",
    "onevarpow",
    "parse",
    "parse_or_lift",
    "power",
    "power_of",
    "powers",
    "provenance_hash",
    "reconstruct",
    "render",
    "render_series",
    "rmvp",
    "scale",
    "series",
    "set_coeffs",
    "subs",
    "subtract",
    "subvec",
    "taylor",
    "total_degree",
    "trunc",
    "trunc1",
    "validate",
    "variables",
]
