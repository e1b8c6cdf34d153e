"""Sparse multivariate Laurent polynomials backed by ordered maps.

Polynomials are maps from terms to nonzero coefficients, terms are maps
from symbols to nonzero integer powers (negative powers welcome), and
everything on top (parsing, ring arithmetic, substitution, calculus,
series tooling, hash-disciplined coefficient access) is a pure function
over those maps.  The whole package is pure Python; ``backend_name()``
names its multiply kernel and always returns ``"python"``.
"""

from ._kernel import backend_name
from .arith import add, multiply, negate, power, scale, subtract
from .calculus import aderiv, deriv, horner
from .cli import expected_distance, knight, main, rmvp
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
    disord_assign,
    disord_filter,
    disord_map,
    disord_zip,
    powers,
    provenance_hash,
    set_coeffs,
    variables,
)
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
    "disord_assign",
    "disord_filter",
    "disord_map",
    "disord_zip",
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
