"""Spans around the public functions of sparsepoly's layers.

``Tracer.install`` replaces each function named in ``LAYERS`` by a wrapper
in every loaded ``sparsepoly`` module that holds it, including names one
module imported from another (``arith.mul_terms``, ``transform.mul_terms``,
``cli.parse``).  Calls between layers look those names up at call time, so
the wrappers see them.  Spans stay in memory while the benchmark runs;
``layer_metrics`` turns them into per-round figures at the end.

A metric is named ``<module>.<function>.<quantity>``.  The module
``_kernel`` is named ``kernel`` there, since a metric name must start with
a letter or a digit.
"""

from __future__ import annotations

import statistics
import sys
import time

# (module, function, metric prefix, counted quantity or None)
LAYERS = (
    ("_kernel", "mul_terms", "kernel.mul_terms", "pairs"),
    ("arith", "multiply", "arith.multiply", None),
    ("arith", "power", "arith.power", None),
    ("arith", "add", "arith.add", None),
    ("parser", "parse", "parser.parse", "chars_in"),
    ("printer", "render", "printer.render", "chars_out"),
    ("core", "canonical_json", "core.canonical_json", None),
    ("core", "from_json", "core.from_json", None),
    ("disord", "provenance_hash", "disord.provenance_hash", None),
    ("disord", "coeffs", "disord.coeffs", None),
    ("disord", "set_coeffs", "disord.set_coeffs", None),
    ("transform", "subs", "transform.subs", None),
    ("transform", "subvec", "transform.subvec", None),
    ("calculus", "deriv", "calculus.deriv", None),
    ("series", "series", "series.series", None),
    ("series", "trunc", "series.trunc", None),
    ("cli", "main", "cli.main", None),
)


def _quantity(kind, args, out) -> tuple:
    """(first, second) count of one span: pairs and terms out, or chars."""
    if kind == "pairs":
        return len(args[0]) * len(args[1]), len(out)
    if kind == "chars_in":
        return len(args[0]), 0
    if kind == "chars_out":
        return len(out), 0
    return 0, 0


class Tracer:
    """Collects one span per wrapped call while ``round`` is not None."""

    def __init__(self):
        # span: [prefix, start, end, parent index or -1, round, q1, q2]
        self.spans: list = []
        self.round = None
        self._open: list = []  # indices of spans not yet ended
        self._replaced: list = []  # (module, attribute, original function)

    def wrap(self, prefix, kind, fn):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            if self.round is None:
                return fn(*args, **kwargs)
            span = [prefix, 0.0, 0.0, stack[-1] if stack else -1, self.round, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5], span[6] = _quantity(kind, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items() if n == "sparsepoly" or n.startswith("sparsepoly.")]
        for mod_name, func, prefix, kind in LAYERS:
            original = getattr(sys.modules[f"sparsepoly.{mod_name}"], func)
            wrapper = self.wrap(prefix, kind, original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._replaced.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in self._replaced:
            setattr(mod, attr, original)
        self._replaced.clear()

    def per_round(self) -> dict:
        """{round: {prefix: [calls, self_s, q1, q2]}} from the spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        rounds: dict = {}
        for i, (prefix, start, end, _, rnd, q1, q2) in enumerate(self.spans):
            rec = rounds.setdefault(rnd, {}).setdefault(prefix, [0, 0.0, 0, 0])
            rec[0] += 1
            rec[1] += end - start - child[i]
            rec[2] += q1
            rec[3] += q2
        return rounds


def merge_rounds(a: dict, b: dict) -> dict:
    """Add the per-prefix records of ``b`` into those of ``a`` (same round)."""
    for prefix, rec in b.items():
        mine = a.setdefault(prefix, [0, 0.0, 0, 0])
        for i, v in enumerate(rec):
            mine[i] += v
    return a


def layer_metrics(rounds: list) -> tuple:
    """Per-round layer metrics from a list of per-round records.

    Counts are those of one round and must be the same in every round;
    times are medians over rounds.  Returns (metrics, counts agree).
    """
    prefixes = [p for _, _, p, _ in LAYERS]
    empty = [0, 0.0, 0, 0]
    counts = {tuple(tuple(r.get(p, empty)[i] for p in prefixes) for i in (0, 2, 3)) for r in rounds}
    first = rounds[0] if rounds else {}

    def count(p, i):
        return first.get(p, empty)[i]

    def self_s(p):
        return statistics.median(r.get(p, empty)[1] for r in rounds) if rounds else 0.0

    out = {}
    for p in prefixes:
        out[f"{p}.calls"] = count(p, 0)
        out[f"{p}.self_s"] = self_s(p)
    pairs, terms_out = count("kernel.mul_terms", 2), count("kernel.mul_terms", 3)
    kernel_s = out["kernel.mul_terms.self_s"]
    out["kernel.mul_terms.pairs"] = pairs
    out["kernel.mul_terms.terms_out"] = terms_out
    out["kernel.mul_terms.yield"] = terms_out / pairs if pairs else 0.0
    out["kernel.mul_terms.pairs_per_s"] = pairs / kernel_s if kernel_s else 0.0
    out["parser.parse.chars"] = count("parser.parse", 2)
    out["printer.render.chars"] = count("printer.render", 2)
    return out, len(counts) <= 1
