"""Tests of the benchmark itself: its checks, its tracer, its failure exit.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import sparsepoly as sp  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IN_PROCESS = ("dense_mul", "knight_pow", "poly_session")


@pytest.fixture(autouse=True)
def sources_on_path(monkeypatch):
    """Child interpreters (CLI stages) import the sparsepoly under test."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))


def perturbed(p):
    """p with its first coefficient raised by one (a new constant if p is 0)."""
    rows = list(p.terms()) or [((), 0.0)]
    t, c = rows[0]
    return sp.Mvp([(t, c + 1.0)] + rows[1:])


def dropped(p):
    """p without its last term."""
    return sp.Mvp(list(p.terms())[:-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    wl = workloads.WORKLOADS[name](7, tiny=True)
    out = wl.round()
    assert wl.failures(out) == []


@pytest.mark.parametrize("name", IN_PROCESS)
def test_one_wrong_coefficient_or_dropped_term_is_a_failed_operation(name):
    wl = workloads.WORKLOADS[name](7, tiny=True)
    outs = wl.round()
    polys = [op.name for op in wl.ops if isinstance(outs[op.name], sp.Mvp)]
    assert polys
    for op_name in polys:
        for corrupt in (perturbed, dropped):
            if corrupt is dropped and not outs[op_name]:
                continue
            bad = dict(outs, **{op_name: corrupt(outs[op_name])})
            assert wl.failures(bad) == [op_name], (op_name, corrupt.__name__)


def test_wrong_text_outputs_are_failed_operations():
    wl = workloads.PolySession(7, tiny=True)
    outs = wl.round()
    text = outs["render0"]
    first_number = next(tok for tok in text.split(" ") if tok.isdigit())
    wrong = text.replace(first_number, str(int(first_number) + 1), 1)
    assert wl.failures(dict(outs, render0=wrong)) == ["render0"]
    doc = json.loads(outs["canonical_json0"])
    doc["terms"].pop()
    assert wl.failures(dict(outs, canonical_json0=json.dumps(doc))) == ["canonical_json0"]
    exc = RuntimeError("raised")
    assert wl.failures(dict(outs, subs0=exc)) == ["subs0"]
    c = outs["coeffs0"]
    assert len(set(c.values)) > 1
    turned = sp.Disord(c.values[1:] + c.values[:1], c.hash)
    assert wl.failures(dict(outs, coeffs0=turned)) == ["coeffs0"]


def test_cli_line_with_wrong_coefficient_or_dropped_term_fails():
    wl = workloads.CliPipeline(7, tiny=True)
    lines = wl.round()
    assert wl.failures(lines) == []
    terms = oracle.parse_rendered(lines[0])
    t, c = next(iter(terms.items()))
    wrong = sp.render(sp.Mvp(list({**terms, t: c + 1}.items())))
    short = sp.render(sp.Mvp(list(terms.items())[1:]))
    assert wl.failures([wrong] + lines[1:]) == ["line0"]
    assert wl.failures([short] + lines[1:]) == ["line0"]
    assert len(wl.failures(RuntimeError("stage exited 1"))) == len(wl.lines)


def test_oracles_agree_with_the_paper():
    walks = oracle.knight_walks(4, 4)
    assert walks[()] == 12528
    assert walks[oracle.term({"a": 1, "b": 1, "c": 1, "d": 1})] == 4536
    assert sum(walks.values()) == 48**4
    assert oracle.parse_rendered("-3 a b^2 + c - 7") == {
        (("a", 1), ("b", 2)): -3,
        (("c", 1),): 1,
        (): -7,
    }


def test_traced_counts_repeat_and_cover_every_declared_layer_metric():
    wl = workloads.PolySession(7, tiny=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for r in range(3):
            tracer.round = r
            wl.round()
        tracer.round = None
    finally:
        tracer.uninstall()
    assert not hasattr(sp.arith.multiply, "__wrapped__")
    metrics, repeat = tracing.layer_metrics(list(tracer.per_round().values()))
    assert repeat
    assert metrics["parser.parse.calls"] == 4
    assert metrics["parser.parse.chars"] == sum(len(t) for t in wl.text)
    assert metrics["kernel.mul_terms.pairs"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    added_by_run = {"cli.import_s", "cli.stage_s", "trace.wall_ref"}
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics) | added_by_run


def test_traced_cli_stage_reports_its_layers():
    done = subprocess.run(
        [sys.executable, str(HERE / "trace_stage.py"), "subs", "-", "a=1+b"],
        input="a^2 + c\n", capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1 + 2 b + b^2 + c"
    layers = json.loads(done.stderr.strip().splitlines()[-1])["layers"]
    assert layers["cli.main"][0] == 1
    assert layers["parser.parse"][0] == 2  # the line and the binding


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_mul", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
