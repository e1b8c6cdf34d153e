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
import math
import sys
from typing import Optional, Sequence

from . import arith
from .calculus import aderiv, deriv, horner
from .core import Mvp, canonical_json, constant, from_json
from .disord import HashMismatch, coeffs, powers
from .examples import expected_distance, knight, rmvp
from .parser import parse
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


def _assignments(read_value):
    """A reader of ``name=value`` entries, each value read by ``read_value``."""
    return lambda entries: [(s, read_value(v)) for s, v in map(_split_assignment, entries)]


def _number(token: str) -> float:
    num, slash, den = token.partition("/")
    divisor = float(den) if slash else 1.0
    if divisor == 0.0:
        raise ValueError(f"zero denominator in {token!r}")
    x = float(num)
    value = x / divisor
    if not all(map(math.isfinite, (x, divisor, value))):
        raise ValueError(f"not a finite number: {token!r}")
    return value


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


def _emit(value, args) -> str:
    """A handler's result as one output line.

    Text stays as it is and a number is formatted; a polynomial is
    rendered.  Under ``--json`` a number is written as the canonical JSON
    of its constant polynomial, and so is a polynomial, without rounding.
    """
    if isinstance(value, str):
        return value
    if not isinstance(value, Mvp):
        if not args.json:
            return format_number(value)
        value = Mvp.from_number(value)
    if args.json:
        return canonical_json(value)
    text = render(value, order=args.order, varorder=args.varorder)
    return f"polynomial:\n{text}" if args.banner else text


def _knight(_, args):
    k = knight(args.dimension)
    if args.exponent != 1:
        k = arith.power(k, args.exponent)
    if args.constant:
        return constant(k)
    if args.entries:
        return onevarpow(k, args.entries)
    if args.expected_distance:
        return expected_distance(k)
    return k


def _rmvp(_, args):
    # A pool size is ASCII digits; anything else is a list of names.
    a = args.alphabet
    alphabet = int(a) if a.isascii() and a.isdigit() else [s for s in a.split(",") if s]
    return rmvp(args.n_terms, args.symbols_per_term, args.max_power, alphabet, args.seed)


def _build_parser() -> _Parser:
    """The argument parser; each subcommand sets ``run``, its handler.

    A handler maps one input polynomial (None for a command without
    ``expr``) to a polynomial, a number or a line of text.  A command with
    an argument list ``entries`` also sets ``read``, its reader.  Both look
    library functions up when ``main`` runs, where a tracer may have
    replaced them.
    """
    top = _Parser(prog="sparsepoly", description=__doc__)
    # Commands without --order render in canonical order.
    top.set_defaults(order="canonical", varorder=None, entries=None, read=lambda raw: raw)
    sub = top.add_subparsers(dest="command", required=True)

    def poly_flags(p, with_order=False):
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        p.add_argument("--banner", action="store_true", help="print a header line")
        if with_order:
            p.add_argument("--order", choices=("canonical", "lex"), default="canonical")
            p.add_argument(
                "--varorder",
                type=lambda s: s.split(","),
                help="comma-separated variable precedence (with --order lex)",
            )

    # Help lists positionals apart from options, so the flags may be added
    # before a command's positionals, not before its other options.
    def command(name, help, run, expr=True, flags=True, with_order=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if expr:
            p.add_argument("expr")
        if flags:
            poly_flags(p, with_order)
        return p

    def listed(p, metavar, read, nargs="+"):
        p.add_argument("entries", nargs=nargs, metavar=metavar)
        p.set_defaults(read=read)

    ints = _assignments(int)

    command("eval", "parse and reprint an expression", lambda p, a: p, with_order=True)

    p = command(
        "subs", "substitute, bindings applied in argument order", lambda p, a: subs(p, a.entries)
    )
    listed(p, "name=EXPR", _assignments(parse))

    p = command(
        "subvec",
        "vectorised numeric substitution",
        lambda p, a: " ".join(format_number(v) for v in subvec(p, a.entries)),
        flags=False,
    )
    listed(p, "name=v1,v2,...", _assignments(_number_list))

    p = command("deriv", "successive partial derivatives", lambda p, a: deriv(p, a.variables))
    p.add_argument("variables", nargs="+", metavar="VAR")

    p = command("aderiv", "mixed partial of given orders", lambda p, a: aderiv(p, a.entries))
    listed(p, "name=k", ints)

    p = command(
        "horner", "sum of c_i * EXPR^i by Horner's scheme", lambda p, a: horner(p, a.entries)
    )
    listed(p, "c0,c1,...", _number_list, nargs=None)

    p = command("trunc", "keep terms of total degree <= N", lambda p, a: trunc(p, a.degree))
    p.add_argument("degree", type=int)

    p = command(
        "trunc1", "keep terms with per-symbol power <= limit", lambda p, a: trunc1(p, a.entries)
    )
    listed(p, "name=k", ints)

    p = command(
        "onevarpow",
        "extract the factor of an exact power pattern",
        lambda p, a: onevarpow(p, a.entries),
    )
    listed(p, "name=k", ints)

    p = command(
        "series",
        "decompose into powers of one variable",
        lambda p, a: render_series(series(p, a.variable)),
        flags=False,
    )
    p.add_argument("variable")

    p = command(
        "taylor",
        "series of EXPR in VAR about the symbol ABOUT",
        lambda p, a: render_series(taylor(p, a.variable, a.about)),
        flags=False,
    )
    p.add_argument("variable")
    p.add_argument("about")

    command(
        "coeffs", "coefficients as a disord collection", lambda p, a: str(coeffs(p)), flags=False
    )
    command(
        "powers", "power rows as a disord collection", lambda p, a: str(powers(p)), flags=False
    )

    p = command("knight", "knight-move generating function demo", _knight, expr=False, flags=False)
    p.add_argument("dimension", type=int)
    p.add_argument("--pow", type=int, default=1, dest="exponent", metavar="N")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--constant", action="store_true", help="print the constant coefficient")
    group.add_argument(
        "--onevarpow", dest="entries", metavar="a=1,b=1", help="extract an exact power pattern"
    )
    p.set_defaults(read=lambda raw: raw if raw is None else ints(raw.split(",")))
    group.add_argument(
        "--expected-distance",
        action="store_true",
        help="coefficient-weighted mean distance from the origin",
    )
    poly_flags(p)

    p = command("rmvp", "seeded random polynomial", _rmvp, expr=False, flags=False)
    p.add_argument("n_terms", type=int)
    p.add_argument("symbols_per_term", type=int)
    p.add_argument("max_power", type=int)
    p.add_argument("alphabet", help="pool size, or comma-separated symbol names")
    p.add_argument("--seed", type=int, default=0)
    poly_flags(p)

    return top


def _run(args) -> list[str]:
    # Argument lists are read here, not by argparse, so that an error names
    # its reason, and before stdin, so that it wins over an input error.
    args.entries = args.read(args.entries)
    inputs = _polys(args.expr) if "expr" in args else [None]
    return [_emit(args.run(p, args), args) for p in inputs]


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        for line in _run(_build_parser().parse_args(argv)):
            print(line)
        return 0
    except _UsageError as e:
        print(e, file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except BrokenPipeError:
        # The reader went away (``| head``).  Point stdout at devnull so the
        # flush at exit does not raise again, as the Python docs advise.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except HashMismatch as e:
        print(f"sparsepoly: {e}", file=sys.stderr)
        return 2
    # ParseError is a ValueError, and PowerOverflowError an OverflowError.
    except (ValueError, ZeroDivisionError, OverflowError, TypeError) as e:
        print(f"sparsepoly: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
