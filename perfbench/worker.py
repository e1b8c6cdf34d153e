"""One workload in a fresh interpreter: set-up, timed rounds, checks.

    python perfbench/worker.py --workload dense_mul --seed 1 --seconds 20 [--trace] [--setup-only]

``perfbench/run.py`` starts this with ``PYTHONPATH`` naming the checkout's
``src`` and one thread for numpy's libraries.  It prints one JSON object
on its last stdout line.  ``ready`` is ``time.monotonic()`` when set-up
ended; that clock is shared by all processes of the host, so the parent
subtracts the moment it started this interpreter.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

REF_ITERATIONS = 30_000
REF_NAMES = ("a", "b", "c", "d", "e", "f")


def reference_loop() -> int:
    """Fixed pure-Python dict work that sets the unit of ``wall_ref``.

    Accumulates term-shaped keys (tuples of (symbol, power) pairs) into a
    dict, then sorts its items: the kernel's accumulate step and the
    canonical sort, in miniature, with a working set of about 30,000
    entries.  It must never change: every ``wall_ref`` figure is a
    multiple of this loop's time on the same core at the same moment.
    """
    names = REF_NAMES
    acc = {}
    get = acc.get
    for i in range(REF_ITERATIONS):
        key = ((names[i % 6], i % 7 + 1), (names[i // 6 % 6], i % 11 + 1), ("z", i % 97 + 1))
        acc[key] = get(key, 0.0) + 1.5
    return len(sorted(acc.items()))


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    # Pin this process, and the CLI stages it starts, to one core, so that
    # the reference loop and the cycle it brackets run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    t0 = time.perf_counter()
    import sparsepoly

    import_s = time.perf_counter() - t0
    src = Path(__file__).resolve().parents[1] / "src"
    if not Path(sparsepoly.__file__).resolve().is_relative_to(src):
        print(f"sparsepoly imported from {sparsepoly.__file__}, not {src}", file=sys.stderr)
        return 3

    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, trace=True) if args.trace and cls is workloads.CliPipeline else cls(args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "import_s": import_s}))
        return 0

    in_process = cls is not workloads.CliPipeline
    tracer = tracing.Tracer() if args.trace and in_process else None
    if tracer:
        tracer.install()

    ratios, cycle_s, ref_s = [], [], []
    attempted = failed = n_rounds = 0

    def check(outs):
        nonlocal attempted, failed
        for out in outs:
            bad = wl.failures(out)
            attempted += wl.n_ops
            failed += len(bad)
            if bad:
                print(f"round {n_rounds}: failed {bad[:10]}", file=sys.stderr)

    # One untimed round first: its peak memory, read before any check or
    # reference loop allocates, is set-up plus one round.
    outs = [wl.round()]
    rss = peak_rss_mb(children=not in_process)
    check(outs)
    deadline = time.monotonic() + args.seconds
    while True:
        gc.collect()
        r0 = time.perf_counter()
        reference_loop()
        r1 = time.perf_counter()
        outs = []
        for _ in range(wl.ROUNDS_PER_CYCLE):
            if tracer:
                tracer.round = n_rounds
            outs.append(wl.round())
            n_rounds += 1
        r2 = time.perf_counter()
        if tracer:
            tracer.round = None
        reference_loop()
        r3 = time.perf_counter()
        ref = (r1 - r0 + r3 - r2) / 2
        ratios.append((r2 - r1) / ref)
        cycle_s.append(r2 - r1)
        ref_s.append(ref)
        check(outs)
        if time.monotonic() >= deadline:
            break

    if tracer:
        rounds = list(tracer.per_round().values())
    elif args.trace:
        rounds = wl.traced_rounds
    result = {
        "ready": ready,
        "import_s": import_s,
        "attempted": attempted,
        "failed": failed,
        "wall_ref": statistics.median(ratios),
        "cycles": len(ratios),
        "rounds": n_rounds,
        "cycle_s": statistics.median(cycle_s),
        "ref_s": statistics.median(ref_s),
        "peak_rss_mb": rss,
        "backend": sparsepoly.backend_name(),
    }
    if args.trace:
        layers, steady = tracing.layer_metrics(rounds)
        if not in_process:
            layers["cli.stage_s"] = statistics.median(wl.stage_seconds)
        result["layers"] = layers
        result["counts_repeat"] = steady
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
