"""Command-line front end over the library.

Every polynomial-consuming subcommand takes the expression inline or as
``-`` to read newline-separated expressions from stdin (one output line
per input line), which makes shell pipelines the composition idiom:

    sparsepoly eval "a+b+c" | sparsepoly subs - a=x^6 | sparsepoly subs - x=1+a

A stdin line that starts with ``{`` is read as canonical JSON, so
``--json`` output pipes into the next stage without rounding.

Exit codes: 0 success, 1 parse or domain error, 2 provenance-hash
mismatch.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import arith
from .calculus import aderiv, deriv, horner
from .core import Mvp, PowerOverflowError, canonical_json, constant, from_json
from .disord import HashMismatch, coeffs, powers
from .examples import expected_distance, knight, rmvp
from .parser import ParseError, parse
from .printer import format_number, render, render_series
from .series import onevarpow, series, taylor, trunc, trunc1
from .transform import subs, subvec


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _split_assignment(text: str) -> tuple[str, str]:
    name, sep, value = text.partition("=")
    if not sep or not name or not value:
        raise ValueError(f"expected name=value, got {text!r}")
    return name, value


def _int_assignment(text: str) -> tuple[str, int]:
    name, value = _split_assignment(text)
    return name, int(value)


def _number(token: str) -> float:
    num, slash, den = token.partition("/")
    divisor = float(den) if slash else 1.0
    if divisor == 0.0:
        raise ValueError(f"zero denominator in {token!r}")
    return float(num) / divisor


def _number_list(text: str) -> list[float]:
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise ValueError(f"empty entry in the number list {text!r}")
    return [_number(tok) for tok in tokens]


def _polys(expr_arg: str) -> list[Mvp]:
    """The inline expression, or with ``-`` every nonblank stdin line.

    Only the grammar's whitespace (space, tab, CR, LF) is stripped, so a
    line reads as it would as an argument.
    """
    if expr_arg != "-":
        return [parse(expr_arg)]
    out = []
    for line in sys.stdin:
        line = line.strip(" \t\r\n")
        if line:
            out.append(from_json(line) if line.startswith("{") else parse(line))
    return out


def _emit_poly(p: Mvp, args) -> str:
    if getattr(args, "json", False):
        return canonical_json(p)
    text = render(
        p,
        order=getattr(args, "order", "canonical"),
        varorder=getattr(args, "varorder", None),
    )
    if getattr(args, "banner", False):
        return f"polynomial:\n{text}"
    return text


def _emit_scalar(value) -> str:
    if isinstance(value, Mvp):
        return render(value)
    return format_number(value)


def _build_parser() -> _Parser:
    top = _Parser(prog="sparsepoly", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def poly_flags(p, with_order=False):
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        p.add_argument("--banner", action="store_true", help="print a header line")
        if with_order:
            p.add_argument("--order", choices=("canonical", "lex"), default="canonical")
            p.add_argument(
                "--varorder",
                type=lambda s: s.split(","),
                default=None,
                help="comma-separated variable precedence (with --order lex)",
            )

    p = sub.add_parser("eval", help="parse and reprint an expression")
    p.add_argument("expr")
    poly_flags(p, with_order=True)

    p = sub.add_parser("subs", help="substitute, bindings applied in argument order")
    p.add_argument("expr")
    p.add_argument("bindings", nargs="+", metavar="name=EXPR")
    poly_flags(p)

    p = sub.add_parser("subvec", help="vectorised numeric substitution")
    p.add_argument("expr")
    p.add_argument("bindings", nargs="+", metavar="name=v1,v2,...")

    p = sub.add_parser("deriv", help="successive partial derivatives")
    p.add_argument("expr")
    p.add_argument("variables", nargs="+", metavar="VAR")
    poly_flags(p)

    p = sub.add_parser("aderiv", help="mixed partial of given orders")
    p.add_argument("expr")
    p.add_argument("orders", nargs="+", metavar="name=k", type=_int_assignment)
    poly_flags(p)

    p = sub.add_parser("horner", help="sum of c_i * EXPR^i by Horner's scheme")
    p.add_argument("expr")
    p.add_argument("coefficients", metavar="c0,c1,...")
    poly_flags(p)

    p = sub.add_parser("trunc", help="keep terms of total degree <= N")
    p.add_argument("expr")
    p.add_argument("degree", type=int)
    poly_flags(p)

    p = sub.add_parser("trunc1", help="keep terms with per-symbol power <= limit")
    p.add_argument("expr")
    p.add_argument("limits", nargs="+", metavar="name=k", type=_int_assignment)
    poly_flags(p)

    p = sub.add_parser("onevarpow", help="extract the factor of an exact power pattern")
    p.add_argument("expr")
    p.add_argument("targets", nargs="+", metavar="name=k", type=_int_assignment)
    poly_flags(p)

    p = sub.add_parser("series", help="decompose into powers of one variable")
    p.add_argument("expr")
    p.add_argument("variable")

    p = sub.add_parser("taylor", help="series of EXPR in VAR about the symbol ABOUT")
    p.add_argument("expr")
    p.add_argument("variable")
    p.add_argument("about")

    p = sub.add_parser("coeffs", help="coefficients as a disord collection")
    p.add_argument("expr")

    p = sub.add_parser("powers", help="power rows as a disord collection")
    p.add_argument("expr")

    p = sub.add_parser("knight", help="knight-move generating function demo")
    p.add_argument("dimension", type=int)
    p.add_argument("--pow", type=int, default=1, dest="exponent", metavar="N")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--constant", action="store_true", help="print the constant coefficient")
    group.add_argument("--onevarpow", metavar="a=1,b=1", help="extract an exact power pattern")
    group.add_argument(
        "--expected-distance",
        action="store_true",
        help="coefficient-weighted mean distance from the origin",
    )
    poly_flags(p)

    p = sub.add_parser("rmvp", help="seeded random polynomial")
    p.add_argument("n_terms", type=int)
    p.add_argument("symbols_per_term", type=int)
    p.add_argument("max_power", type=int)
    p.add_argument("alphabet", help="pool size, or comma-separated symbol names")
    p.add_argument("--seed", type=int, default=0)
    poly_flags(p)

    return top


# Commands that turn each input polynomial into one output line.
_PER_LINE = {
    "eval": _emit_poly,
    "deriv": lambda p, args: _emit_poly(deriv(p, args.variables), args),
    "aderiv": lambda p, args: _emit_poly(aderiv(p, dict(args.orders)), args),
    "horner": lambda p, args: _emit_poly(horner(p, args.coefficients), args),
    "trunc": lambda p, args: _emit_poly(trunc(p, args.degree), args),
    "trunc1": lambda p, args: _emit_poly(trunc1(p, dict(args.limits)), args),
    "onevarpow": lambda p, args: _emit_poly(onevarpow(p, dict(args.targets)), args),
    "series": lambda p, args: render_series(series(p, args.variable)),
    "taylor": lambda p, args: render_series(taylor(p, args.variable, args.about)),
    "coeffs": lambda p, args: str(coeffs(p)),
    "powers": lambda p, args: str(powers(p)),
}


def _run(args) -> list[str]:
    cmd = args.command

    if cmd == "horner":
        # Read here, not by argparse, so an error names its reason.
        args.coefficients = _number_list(args.coefficients)
    if cmd in _PER_LINE:
        to_line = _PER_LINE[cmd]
        return [to_line(p, args) for p in _polys(args.expr)]

    if cmd == "subs":
        bindings = []
        for b in args.bindings:
            name, value = _split_assignment(b)
            bindings.append((name, parse(value)))
        out = []
        for p in _polys(args.expr):
            result = subs(p, bindings)
            if isinstance(result, Mvp):
                out.append(_emit_poly(result, args))
            else:
                out.append(_emit_scalar(result))
        return out

    if cmd == "subvec":
        vectors = {}
        for b in args.bindings:
            name, value = _split_assignment(b)
            vectors[name] = _number_list(value)
        out = []
        for p in _polys(args.expr):
            values = subvec(p, vectors)
            out.append(" ".join(format_number(v) for v in values))
        return out

    if cmd == "knight":
        k = knight(args.dimension)
        if args.exponent != 1:
            k = arith.power(k, args.exponent)
        if args.constant:
            return [_emit_scalar(constant(k))]
        if args.onevarpow:
            targets = dict(_int_assignment(t) for t in args.onevarpow.split(","))
            return [_emit_poly(onevarpow(k, targets), args)]
        if args.expected_distance:
            return [format_number(expected_distance(k))]
        return [_emit_poly(k, args)]

    if cmd == "rmvp":
        alphabet: object = args.alphabet
        # A pool size is ASCII digits; anything else is a list of names.
        if isinstance(alphabet, str) and alphabet.isascii() and alphabet.isdigit():
            alphabet = int(alphabet)
        elif isinstance(alphabet, str):
            alphabet = [s for s in alphabet.split(",") if s]
        p = rmvp(args.n_terms, args.symbols_per_term, args.max_power, alphabet, args.seed)
        return [_emit_poly(p, args)]

    raise _UsageError(f"unknown command {cmd!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)

    try:
        for line in _run(args):
            print(line)
        return 0
    except BrokenPipeError:
        # The reader went away (``| head``).  Point stdout at devnull so the
        # flush at exit does not raise again, as the Python docs advise.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except HashMismatch as e:
        print(f"sparsepoly: {e}", file=sys.stderr)
        return 2
    except (
        ParseError,
        PowerOverflowError,
        ValueError,
        ZeroDivisionError,
        OverflowError,
        TypeError,
        _UsageError,
    ) as e:
        print(f"sparsepoly: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
