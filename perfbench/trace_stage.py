"""One ``sparsepoly`` CLI stage with the layer tracer installed.

    python perfbench/trace_stage.py subs - a=x+1 < lines.txt

Behaves like ``python -m sparsepoly`` with the same arguments, and writes
the stage's per-layer records as one JSON line on stderr when it ends.
"""

import json
import sys

import sparsepoly
import tracing

tracer = tracing.Tracer()
tracer.install()
tracer.round = 0
code = sparsepoly.cli.main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps({"layers": tracer.per_round().get(0, {})}), file=sys.stderr)
sys.exit(code)
