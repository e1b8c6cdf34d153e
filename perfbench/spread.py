"""Run the benchmark over several seeds and report how much each metric spreads.

    python3 perfbench/spread.py --workloads dense_mul,knight_pow --seeds 1-10 \
        --out .perfbench/set_a.jsonl
    python3 perfbench/spread.py --compare .perfbench/set_a.jsonl .perfbench/set_b.jsonl

For each workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  ``--compare`` prints, per
workload and metric, both sets' medians and spreads, the change of the
second set's median against the first's, and each set's share of failed
operations.  Every run lasts ``run_seconds`` of ``BENCHMARK.json``.  Run from the root of
a checkout; it runs one benchmark process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = spec()["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{cmd} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    info = next((ln for ln in lines if ln.startswith("workload ")), "")
    return {"workload": workload, "seed": seed, "info": info, **json.loads(lines[-1])}


def load(path: str) -> dict:
    by_workload: dict = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(by_workload: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    print(f"{'workload':14} {'metric':12} {'runs':>4} {'median':>12} {'spread':>8} {'bound':>6}")
    for workload, recs in by_workload.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in recs]
            s = spread(values) if len(values) > 1 else float("nan")
            print(
                f"{workload:14} {name:12} {len(values):4} {statistics.median(values):12.5g}"
                f" {s:8.2%} {bound:6.0%}"
            )
        failed = sum(r["failed"] for r in recs) / sum(r["attempted"] for r in recs)
        print(f"{workload:14} {'failed share':12} {len(recs):4} {failed:12.5g}")


def compare(a: dict, b: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    print(
        f"{'workload':14} {'metric':12} {'median A':>10} {'spread A':>8}"
        f" {'median B':>10} {'spread B':>8} {'B vs A':>8} {'bound':>6}"
    )
    for workload in a:
        for name, bound in bounds.items():
            va = [r["metrics"][name]["value"] for r in a[workload]]
            vb = [r["metrics"][name]["value"] for r in b[workload]]
            ma, mb = statistics.median(va), statistics.median(vb)
            print(
                f"{workload:14} {name:12} {ma:10.5g} {spread(va):8.2%}"
                f" {mb:10.5g} {spread(vb):8.2%} {mb / ma - 1:8.2%} {bound:6.0%}"
            )
        fa = [sum(r[k] for r in a[workload]) for k in ("failed", "attempted")]
        fb = [sum(r[k] for r in b[workload]) for k in ("failed", "attempted")]
        print(f"{workload:14} failed share A {fa[0]}/{fa[1]}, B {fb[0]}/{fb[1]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated; default all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--out", help="append each run's result here as a JSON line")
    ap.add_argument("--compare", nargs=2, metavar="JSONL", help="compare two saved sets")
    args = ap.parse_args()
    if args.compare:
        compare(load(args.compare[0]), load(args.compare[1]))
        return 0
    s = spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in s["workloads"]]
    seconds = s["run_seconds"]
    by_workload: dict = {}
    for workload in workloads:
        for seed in seed_list(args.seeds):
            rec = run_once(workload, seed, seconds)
            by_workload.setdefault(workload, []).append(rec)
            print(workload, seed, {k: v["value"] for k, v in rec["metrics"].items()}, flush=True)
            if args.out:
                Path(args.out).parent.mkdir(parents=True, exist_ok=True)
                with open(args.out, "a") as f:
                    f.write(json.dumps(rec) + "\n")
    report(by_workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
