"""Benchmark of sparsepoly: one workload per call, in fresh interpreters.

    python3 perfbench/run.py --workload dense_mul --seed 1 --seconds 23 --trace 0

Run from the root of a checkout.  It starts ``perfbench/worker.py`` with
the checkout's ``src`` on ``PYTHONPATH``: five times for set-up only, once
to run the workload's rounds for ``--seconds``, and five times more for
set-up only.
Every process runs one thread (numpy's libraries are held to one) and only
one runs at a time.  The metrics and their units are those of
``BENCHMARK.json``; the last stdout line is the JSON result:

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a run with spans around every layer's public functions.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dense_mul", "knight_pow", "poly_session", "cli_pipeline")
SETUP_SAMPLES = 11  # interpreters that report their set-up time
SETUP_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same dict layouts in every run
    return env


def start_worker(args: list, timeout: float) -> tuple:
    """Run the worker to its end; (its last stdout line as JSON, the
    ``time.monotonic()`` just before it was started)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=child_env(), start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI stage it started
        proc.communicate()
        raise BenchError(f"worker {args} ran past {timeout:.0f} s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {args} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), started


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    setups, imports = [], []

    def set_up_only():
        for _ in range(SETUP_SAMPLES // 2):
            rep, started = start_worker(base + ["--setup-only"], SETUP_TIMEOUT_S)
            setups.append(rep["ready"] - started)
            imports.append(rep["import_s"])

    # Set-up samples on both sides of the measured run, since this host's
    # speed drifts over seconds.
    set_up_only()
    run_args = base + ["--seconds", str(seconds)] + (["--trace"] if trace else [])
    rep, started = start_worker(run_args, SETUP_TIMEOUT_S + 3 * seconds + 60)
    setups.append(rep["ready"] - started)
    imports.append(rep["import_s"])
    set_up_only()

    print(
        f"workload {workload} seed {seed} backend {rep['backend']}: "
        f"{rep['rounds']} rounds in {rep['cycles']} cycles, median cycle {rep['cycle_s']:.4f} s, "
        f"median reference loop {rep['ref_s']:.4f} s, "
        f"median set-up {statistics.median(setups):.4f} s "
        f"(import {statistics.median(imports):.4f} s)"
    )
    if trace:
        values = dict(rep["layers"])
        values["cli.import_s"] = statistics.median(imports)
        values.setdefault("cli.stage_s", 0.0)
        values["trace.wall_ref"] = rep["wall_ref"]
    else:
        values = {
            "wall_ref": rep["wall_ref"],
            "peak_rss_mb": rep["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
    metrics = {}
    for m in declared_metrics(trace):
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]} {m['unit']}")
    print(f"attempted {rep['attempted']} failed {rep['failed']}")
    correct = rep["failed"] == 0 and rep.get("counts_repeat", True)
    return {
        "correct": correct,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "sparsepoly" / "__init__.py").is_file():
        print(f"no sparsepoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
