"""`udbridge serve` with the tracer installed, for the serve workload's
traced run.

Usage: python3 traced_server.py OUT_JSON serve [serve flags...]

On SIGINT the server stops; this script then writes the per-layer metrics
to OUT_JSON and the spans next to it (same name, .tsv).
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import tracer as tracing
    from udbridge import cli

    tracer = tracing.Tracer()
    tracer.install()
    code = cli.main(sys.argv[2:])
    out = Path(sys.argv[1])
    tracer.write_spans(str(out.with_suffix(".tsv")))
    out.write_text(json.dumps(tracer.metrics()), encoding="utf-8")
    sys.exit(code)
