"""The four workloads: seeded inputs, one round of operations, checks.

A workload object builds its inputs from the seed when it is made (that is
part of set-up), runs the same operations every round, and checks every
output against the computations in ``oracle``, which never call
sparsepoly.  All calls go through attributes of the ``sparsepoly`` package
or its modules at call time, so the traced run sees them.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import sparsepoly as sp

import oracle
import tracing

HERE = Path(__file__).resolve().parent


class Op:
    """One operation of a round: ``run(outputs so far)`` and ``check(output)``."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def random_terms(rng, n, symbols, max_symbols=3, max_power=4, max_coeff=9, signed=False):
    """n distinct terms, each 1..max_symbols distinct symbols with powers
    1..max_power, integer coefficients 1..max_coeff (random sign if signed)."""
    out = {}
    while len(out) < n:
        chosen = rng.sample(symbols, rng.randint(1, max_symbols))
        t = tuple(sorted((s, rng.randint(1, max_power)) for s in chosen))
        if t in out:
            continue
        c = rng.randint(1, max_coeff)
        out[t] = -c if signed and rng.random() < 0.5 else c
    return out


def to_text(terms: dict, rng) -> str:
    """Expression text in the parser's grammar, terms in shuffled order,
    factors joined by ``*`` or a space at random."""
    items = list(terms.items())
    rng.shuffle(items)
    pieces = []
    for t, c in items:
        factors = [] if abs(c) == 1 and t else [str(abs(c))]
        factors += [s if k == 1 else f"{s}^{k}" for s, k in t]
        body = (" " if rng.random() < 0.5 else "*").join(factors)
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {body}" if pieces or c < 0 else body)
    return " ".join(pieces)


def to_json(terms: dict, rng) -> str:
    """Canonical-JSON-shaped document with terms in shuffled order."""
    items = list(terms.items())
    rng.shuffle(items)
    doc = {"terms": [{"powers": dict(t), "coeff": float(c)} for t, c in items]}
    return json.dumps(doc)


def rows(p) -> dict:
    return oracle.from_rows(p.terms())


class InProcess:
    """A workload whose round is a list of ``Op`` calls in this interpreter."""

    ops: list
    ROUNDS_PER_CYCLE = 1  # rounds timed together against one reference loop

    def round(self) -> dict:
        outs = {}
        for op in self.ops:
            try:
                outs[op.name] = op.run(outs)
            except Exception as e:  # an operation that raises counts as failed
                outs[op.name] = e
        return outs

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    def failures(self, outs: dict) -> list:
        """Names of the operations whose output is wrong or that raised."""
        bad = []
        for op in self.ops:
            out = outs[op.name]
            try:
                ok = not isinstance(out, BaseException) and bool(op.check(out))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                bad.append(op.name)
        return bad


class DenseMul(InProcess):
    """Two 1000-term products shaped like the acceptance fixture."""

    SYMBOLS = "abcdef"

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(f"dense_mul:{seed}")
        n = 30 if tiny else 1000
        self.dp = random_terms(rng, n, self.SYMBOLS)
        self.dq = random_terms(rng, n, self.SYMBOLS)
        self.p = sp.Mvp(self.dp.items())
        self.q = sp.Mvp(self.dq.items())
        self._expected = None
        self.ops = [Op("multiply", lambda outs: self.p * self.q, self.check_product)]

    def expected(self) -> tuple:
        """Dense product cells and p(x) * q(x) at all 64 sign vectors,
        computed once from the inputs."""
        if self._expected is None:
            syms = tuple(self.SYMBOLS)
            signs = [
                oracle.sign_values(oracle.exponent_matrix(d, syms), np.array(list(d.values()), float))
                for d in (self.dp, self.dq)
            ]
            self._expected = oracle.dense_product(self.dp, self.dq, syms, 9), signs[0] * signs[1]
        return self._expected

    def check_product(self, out) -> bool:
        cells, signs = self.expected()
        got = rows(out)
        exps = oracle.exponent_matrix(got, tuple(self.SYMBOLS))
        coeffs = np.fromiter(got.values(), dtype=np.float64, count=len(got))
        if len(got) != np.count_nonzero(cells) or not 0 <= exps.min(initial=0) <= exps.max(initial=0) < 9:
            return False
        if not (cells[oracle.cell_index(exps, 9)] == coeffs).all():
            return False
        # (p q)(x) == p(x) q(x) at every sign vector; exact for these sizes.
        return bool((oracle.sign_values(exps, coeffs) == signs).all())


class KnightPow(InProcess):
    """knight(4)**4 and knight(4)**5: the paper's fixtures, seed-independent."""

    HIGH = 5

    def __init__(self, seed: int, tiny: bool = False):
        del seed  # the paper's fixture has no random part
        self.dim = 2 if tiny else 4
        self.k = sp.knight(self.dim)
        self.walks: dict = {}
        targets = {s: 1 for s in "abcd"[: self.dim]}
        self.ops = [
            Op("pow4", lambda outs: self.k**4, lambda out: self.check_power(out, 4)),
            Op(
                "onevarpow4",
                lambda outs: sp.onevarpow(outs["pow4"], targets),
                self.check_onevarpow,
            ),
            Op(
                f"pow{self.HIGH}",
                lambda outs: self.k**self.HIGH,
                lambda out: self.check_power(out, self.HIGH),
            ),
        ]

    def expected(self, n: int) -> dict:
        if n not in self.walks:
            self.walks[n] = oracle.knight_walks(self.dim, n)
        return self.walks[n]

    def check_power(self, out, n: int) -> bool:
        got = rows(out)
        moves = len(oracle.knight_moves(self.dim))
        if sum(got.values()) != moves**n:
            return False
        if n % 2 and sp.constant(out) != 0:
            return False
        if self.dim == 4 and n == 4 and sp.constant(out) != 12528:
            return False
        return got == self.expected(n)

    def check_onevarpow(self, out) -> bool:
        key = oracle.term((s, 1) for s in "abcd"[: self.dim])
        want = self.expected(4).get(key, 0)
        if self.dim == 4 and want != 4536:
            return False
        return rows(out) == ({(): want} if want else {})


class PolySession(InProcess):
    """Many calls of every kind on polynomials of 100 to 2000 terms."""

    SYMBOLS = "abcdefgh"
    ROUNDS_PER_CYCLE = 2

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(f"poly_session:{seed}")
        sizes = (6, 10, 14, 20) if tiny else (100, 300, 1000, 2000)
        self.d = [random_terms(rng, n, self.SYMBOLS, signed=True) for n in sizes]
        self.text = [to_text(d, rng) for d in self.d]
        self.json = [to_json(d, rng) for d in self.d]
        self.p = [sp.Mvp(d.items()) for d in self.d]
        self.dq = random_terms(rng, 3, "bc", max_symbols=2, max_power=2, max_coeff=3)
        self.q = sp.Mvp(self.dq.items())
        self.points = [
            {s: rng.choice((-2, -1, 1, 2)) for s in self.SYMBOLS} for _ in range(4)
        ]
        self.vectors = {s: [pt[s] for pt in self.points] for s in self.SYMBOLS}
        self.degrees = [rng.randint(3, 7) for _ in sizes]
        self.ops = []
        for i in range(len(sizes)):
            self.ops += self._ops_on(i)
        self.ops += [
            Op("mul01", lambda outs: self.p[0] * self.p[1], self._check_mul(0, 1)),
            Op("mul00", lambda outs: self.p[0] * self.p[0], self._check_mul(0, 0)),
            Op("add23", lambda outs: self.p[2] + self.p[3], self._check_add(2, 3, 1)),
            Op("sub32", lambda outs: self.p[3] - self.p[2], self._check_add(3, 2, -1)),
            Op(
                "deriv_mul01",
                lambda outs: sp.deriv(outs["mul01"], "a"),
                self._check_leibniz(0, 1, "a"),
            ),
        ]

    def _ops_on(self, i: int) -> list:
        p, d = self.p[i], self.d[i]
        zapped = {t: c for t, c in d.items() if abs(c) >= 3}
        trunced = {t: c for t, c in d.items() if sum(k for _, k in t) <= self.degrees[i]}

        def zap(outs):
            c = sp.coeffs(p)
            return sp.set_coeffs(p, c.assign(abs(c) < 3, 0))

        return [
            Op(f"parse{i}", lambda outs: sp.parse(self.text[i]), lambda out: rows(out) == d),
            Op(
                f"render{i}",
                lambda outs: sp.render(p),
                lambda out: oracle.parse_rendered(out) == d,
            ),
            Op(f"canonical_json{i}", lambda outs: sp.canonical_json(p), self._check_json(d)),
            Op(f"from_json{i}", lambda outs: sp.from_json(self.json[i]), lambda out: rows(out) == d),
            Op(
                f"json_roundtrip{i}",
                lambda outs: sp.from_json(sp.canonical_json(p)),
                lambda out: out == p and rows(out) == d,
            ),
            Op(
                f"coeffs{i}",
                lambda outs: sp.coeffs(p),
                lambda out: tuple(out.values) == tuple(d[t] for t in sorted(d)),
            ),
            Op(f"zap{i}", zap, lambda out: rows(out) == zapped),
            Op(
                f"set_coeffs{i}",
                lambda outs: sp.set_coeffs(p, sp.coeffs(p)),
                lambda out: out == p and rows(out) == d,
            ),
            Op(
                f"subvec{i}",
                lambda outs: sp.subvec(p, self.vectors),
                lambda out: list(out) == [oracle.evaluate(d, pt) for pt in self.points],
            ),
            Op(f"series{i}", lambda outs: sp.series(p, "a"), self._check_series(d, "a")),
            Op(
                f"trunc{i}",
                lambda outs: sp.trunc(p, self.degrees[i]),
                lambda out: rows(out) == trunced,
            ),
            Op(
                f"deriv{i}",
                lambda outs: sp.deriv(p, "b"),
                lambda out: rows(out) == oracle.derivative(d, "b"),
            ),
            Op(
                f"aderiv{i}",
                lambda outs: sp.aderiv(p, a=1, c=2),
                lambda out: rows(out)
                == oracle.derivative(oracle.derivative(oracle.derivative(d, "a"), "c"), "c"),
            ),
            Op(f"subs{i}", lambda outs: sp.subs(p, [("a", self.q)], lose=False), self._check_subs(d)),
        ]

    @staticmethod
    def _check_json(d):
        def check(out):
            doc = json.loads(out)
            got = [(oracle.term(e["powers"].items()), e["coeff"]) for e in doc["terms"]]
            keys = [t for t, _ in got]
            return keys == sorted(keys) and dict(got) == d

        return check

    @staticmethod
    def _check_series(d, v):
        # The components must reconstruct the input and never mention v.
        def check(out):
            powers = [k for k, _ in out.components]
            if powers != sorted(set(powers)) or out.variable != v:
                return False
            back: dict = {}
            for k, comp in out.components:
                for t, c in comp.terms():
                    if any(s == v for s, _ in t) or c == 0:
                        return False
                    oracle.add_into(back, oracle.term([*t, (v, k)]), c)
            return back == d

        return check

    def _check_subs(self, d):
        # Homomorphism: (p with a := q)(x) == p(x with a := q(x)).
        def check(out):
            got = rows(out)
            return all(
                oracle.evaluate(got, pt)
                == oracle.evaluate(d, {**pt, "a": oracle.evaluate(self.dq, pt)})
                for pt in self.points
            )

        return check

    def _check_mul(self, i, j):
        def check(out):
            got = rows(out)
            return all(
                oracle.evaluate(got, pt)
                == oracle.evaluate(self.d[i], pt) * oracle.evaluate(self.d[j], pt)
                for pt in self.points
            )

        return check

    def _check_add(self, i, j, sign):
        def check(out):
            want = dict(self.d[i])
            for t, c in self.d[j].items():
                oracle.add_into(want, t, sign * c)
            return rows(out) == want

        return check

    def _check_leibniz(self, i, j, v):
        # d(p q)/dv == (dp/dv) q + p (dq/dv), at every seeded point.
        def check(out):
            got = rows(out)
            di, dj = self.d[i], self.d[j]
            ddi, ddj = oracle.derivative(di, v), oracle.derivative(dj, v)
            ev = oracle.evaluate
            return all(
                ev(got, pt) == ev(ddi, pt) * ev(dj, pt) + ev(di, pt) * ev(ddj, pt)
                for pt in self.points
            )

        return check


class CliPipeline:
    """``eval - | subs - a=A | subs - x=X`` over seeded stdin lines, from
    process start, one stage after another."""

    SYMBOLS = "abcxy"
    ROUNDS_PER_CYCLE = 2

    def __init__(self, seed: int, tiny: bool = False, trace: bool = False):
        rng = random.Random(f"cli_pipeline:{seed}")
        n_lines = 4 if tiny else 200
        # Term counts and binding shapes are fixed, so that every seed does
        # about the same work; the seed picks terms, coefficients and points.
        self.lines = [
            random_terms(rng, 3 + i % 10, self.SYMBOLS, max_power=3, signed=True)
            for i in range(n_lines)
        ]
        self.stdin = "".join(to_text(d, rng) + "\n" for d in self.lines)
        ca, cx = rng.randint(1, 3), rng.randint(1, 3)
        self.a_text, self.x_text = f"x^2 + {ca} y", f"{cx} + b"
        self.da = {(("x", 2),): 1, (("y", 1),): ca}
        self.dx = {(): cx, (("b", 1),): 1}
        self.points = [
            {s: rng.choice((-2, -1, 1, 2)) for s in "abcxy"} for _ in range(3)
        ]
        self.trace = trace
        if trace:
            head = [sys.executable, str(HERE / "trace_stage.py")]
        else:
            head = [sys.executable, "-m", "sparsepoly"]
        self.stages = [
            head + ["eval", "-"],
            head + ["subs", "-", f"a={self.a_text}"],
            head + ["subs", "-", f"x={self.x_text}"],
        ]
        self.traced_rounds: list = []  # layer records of each traced round
        self.stage_seconds: list = []

    @property
    def n_ops(self) -> int:
        return len(self.lines)

    def round(self):
        """Run the three stages in turn; the final stdout lines, or the
        error of the first stage that failed."""
        data = self.stdin
        layers: dict = {}
        for cmd in self.stages:
            t0 = time.perf_counter()
            done = subprocess.run(
                cmd, input=data, capture_output=True, text=True, timeout=120
            )
            self.stage_seconds.append(time.perf_counter() - t0)
            if done.returncode != 0:
                return RuntimeError(f"{cmd[-2:]} exited {done.returncode}: {done.stderr[-500:]}")
            if self.trace:
                report = json.loads(done.stderr.strip().splitlines()[-1])
                tracing.merge_rounds(layers, report["layers"])
            data = done.stdout
        if self.trace:
            self.traced_rounds.append(layers)
        return data.splitlines()

    def expected_value(self, d: dict, pt: dict) -> int:
        ev = oracle.evaluate
        xval = ev(self.dx, pt)
        inner = {**pt, "x": xval}
        return ev(d, {**inner, "a": ev(self.da, inner)})

    def failures(self, out) -> list:
        if isinstance(out, BaseException) or len(out) != len(self.lines):
            return [f"line{i}" for i in range(len(self.lines))]
        bad = []
        for i, (text, d) in enumerate(zip(out, self.lines)):
            try:
                got = oracle.parse_rendered(text)
                ok = all(
                    oracle.evaluate(got, pt) == self.expected_value(d, pt)
                    for pt in self.points
                )
            except ValueError:
                ok = False
            if not ok:
                bad.append(f"line{i}")
        return bad


WORKLOADS = {
    "dense_mul": DenseMul,
    "knight_pow": KnightPow,
    "poly_session": PolySession,
    "cli_pipeline": CliPipeline,
}
