"""Command-line front end.

Every polynomial-consuming subcommand takes the expression inline or as
``-`` to read newline-separated expressions from stdin (one output line
per input line), which makes shell pipelines the composition idiom:

    sparsepoly eval "a+b+c" | sparsepoly subs - a=x^6 | sparsepoly subs - x=1+a

Exit codes: 0 success, 1 parse or domain error, 2 provenance-hash
mismatch.
"""

from __future__ import annotations

import argparse
import math
import random
import string
import sys
import time
from typing import Optional, Sequence

from . import arith
from .calculus import aderiv, deriv, horner
from .core import Mvp, PowerOverflowError, canonical_json, constant
from .disord import HashMismatch, coeffs, powers
from .parser import ParseError, parse
from .printer import format_number, render, render_series
from .series import onevarpow, series, taylor, trunc, trunc1
from .transform import subs, subvec


def knight(dimension: int) -> Mvp:
    """Generating function of a knight's moves on a board of that dimension.

    One unit-coefficient term per move: an ordered pair of distinct
    coordinates, the first stepped by +-2 and the second by +-1, over the
    symbols a, b, c, ...; 4*d*(d-1) terms in dimension d.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    if dimension > 26:
        raise ValueError("dimension capped at 26 (one letter per coordinate)")
    syms = string.ascii_lowercase[:dimension]
    out = {}
    for i in range(dimension):
        for j in range(dimension):
            if i == j:
                continue
            for si in (2, -2):
                for sj in (1, -1):
                    term = tuple(sorted(((syms[i], si), (syms[j], sj))))
                    out[term] = 1.0
    return Mvp._from_clean(out)


def rmvp(
    n_terms: int,
    symbols_per_term: int,
    max_power: int,
    alphabet,
    seed: int = 0,
) -> Mvp:
    """Random polynomial, deterministic for a fixed seed.

    Each of ``n_terms`` monomials multiplies ``symbols_per_term`` uniform
    draws from the alphabet (an iterable of names, or a pool size meaning
    the first k letters), each with a uniform power in [1, max_power];
    repeated draws merge by power addition.  Coefficients are uniform in
    {1, ..., n_terms} and like terms combine, so the result has at most
    ``n_terms`` terms.
    """
    if n_terms < 1 or symbols_per_term < 1 or max_power < 1:
        raise ValueError("rmvp arguments must be positive")
    if isinstance(alphabet, int):
        if not 1 <= alphabet <= 26:
            raise ValueError("alphabet size must be between 1 and 26")
        pool = list(string.ascii_lowercase[:alphabet])
    else:
        pool = list(alphabet)
        if not pool:
            raise ValueError("alphabet must not be empty")
    rng = random.Random(seed)
    out: dict = {}
    for _ in range(n_terms):
        coeff = float(rng.randint(1, n_terms))
        merged: dict = {}
        for _ in range(symbols_per_term):
            s = rng.choice(pool)
            merged[s] = merged.get(s, 0) + rng.randint(1, max_power)
        term = tuple(sorted(merged.items()))
        c = out.get(term, 0.0) + coeff
        if c == 0.0:
            out.pop(term, None)
        else:
            out[term] = c
    return Mvp._from_clean(out)


def expected_distance(p: Mvp) -> float:
    """Coefficient-weighted mean Euclidean norm of the power vectors."""
    rows = powers(p)
    cs = coeffs(p)
    norms = rows.map(lambda r: math.sqrt(sum(k * k for k in r.powers)))
    return norms.zip_with(cs, lambda n, c: n * c).sum() / cs.sum()


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


def _int_assignments(pairs: Sequence[str]) -> dict:
    out = {}
    for item in pairs:
        name, value = _split_assignment(item)
        out[name] = int(value)
    return out


def _number(token: str) -> float:
    if "/" in token:
        num, _, den = token.partition("/")
        return float(num) / float(den)
    return float(token)


def _number_list(text: str) -> list[float]:
    return [_number(tok) for tok in text.split(",") if tok.strip() != ""]


def _expressions(expr_arg: str) -> list[str]:
    if expr_arg == "-":
        return [line.strip() for line in sys.stdin if line.strip()]
    return [expr_arg]


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
    p.add_argument("orders", nargs="+", metavar="name=k")
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
    p.add_argument("limits", nargs="+", metavar="name=k")
    poly_flags(p)

    p = sub.add_parser("onevarpow", help="extract the factor of an exact power pattern")
    p.add_argument("expr")
    p.add_argument("targets", nargs="+", metavar="name=k")
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

    p = sub.add_parser("bench", help="micro-benchmark of multiply and pow")
    p.add_argument("--terms", type=int, default=200)
    p.add_argument("--symbols", type=int, default=4)
    p.add_argument("--trials", type=int, default=5)

    return top


def _run(args) -> list[str]:
    cmd = args.command

    if cmd == "eval":
        return [_emit_poly(parse(e), args) for e in _expressions(args.expr)]

    if cmd == "subs":
        bindings = []
        for b in args.bindings:
            name, value = _split_assignment(b)
            bindings.append((name, parse(value)))
        out = []
        for e in _expressions(args.expr):
            result = subs(parse(e), bindings)
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
        for e in _expressions(args.expr):
            values = subvec(parse(e), vectors)
            out.append(" ".join(format_number(v) for v in values))
        return out

    if cmd == "deriv":
        return [
            _emit_poly(deriv(parse(e), args.variables), args)
            for e in _expressions(args.expr)
        ]

    if cmd == "aderiv":
        orders = _int_assignments(args.orders)
        return [
            _emit_poly(aderiv(parse(e), orders), args)
            for e in _expressions(args.expr)
        ]

    if cmd == "horner":
        cs = _number_list(args.coefficients)
        return [
            _emit_poly(horner(parse(e), cs), args) for e in _expressions(args.expr)
        ]

    if cmd == "trunc":
        return [
            _emit_poly(trunc(parse(e), args.degree), args)
            for e in _expressions(args.expr)
        ]

    if cmd == "trunc1":
        limits = _int_assignments(args.limits)
        return [
            _emit_poly(trunc1(parse(e), limits), args)
            for e in _expressions(args.expr)
        ]

    if cmd == "onevarpow":
        targets = _int_assignments(args.targets)
        return [
            _emit_poly(onevarpow(parse(e), targets), args)
            for e in _expressions(args.expr)
        ]

    if cmd == "series":
        return [
            render_series(series(parse(e), args.variable))
            for e in _expressions(args.expr)
        ]

    if cmd == "taylor":
        return [
            render_series(taylor(parse(e), args.variable, args.about))
            for e in _expressions(args.expr)
        ]

    if cmd == "coeffs":
        return [str(coeffs(parse(e))) for e in _expressions(args.expr)]

    if cmd == "powers":
        return [str(powers(parse(e))) for e in _expressions(args.expr)]

    if cmd == "knight":
        k = knight(args.dimension)
        if args.exponent != 1:
            k = arith.power(k, args.exponent)
        if args.constant:
            return [_emit_scalar(constant(k))]
        if args.onevarpow:
            targets = _int_assignments(args.onevarpow.split(","))
            return [_emit_poly(onevarpow(k, targets), args)]
        if args.expected_distance:
            return [format_number(expected_distance(k))]
        return [_emit_poly(k, args)]

    if cmd == "rmvp":
        alphabet: object = args.alphabet
        if isinstance(alphabet, str) and alphabet.isdigit():
            alphabet = int(alphabet)
        elif isinstance(alphabet, str):
            alphabet = [s for s in alphabet.split(",") if s]
        p = rmvp(args.n_terms, args.symbols_per_term, args.max_power, alphabet, args.seed)
        return [_emit_poly(p, args)]

    if cmd == "bench":
        return _bench(args.terms, args.symbols, args.trials)

    raise _UsageError(f"unknown command {cmd!r}")


def _bench(n_terms: int, n_symbols: int, trials: int) -> list[str]:
    p = rmvp(n_terms, 3, 4, n_symbols, seed=1)
    q = rmvp(n_terms, 3, 4, n_symbols, seed=2)
    rows = ["op,terms,symbols,trials,mean_ns"]
    for op_name, fn in (
        ("multiply", lambda: arith.multiply(p, q)),
        ("pow", lambda: arith.power(p, 2)),
    ):
        start = time.perf_counter_ns()
        for _ in range(trials):
            fn()
        mean_ns = (time.perf_counter_ns() - start) // max(trials, 1)
        rows.append(f"{op_name},{n_terms},{n_symbols},{trials},{mean_ns}")
    return rows


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
