"""One in-process workload in a fresh interpreter.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON names the workload, its work directory and mode, and `t0`, the
time.monotonic() reading taken just before this process was started, so
that set-up time covers interpreter start, imports, input reads and the
model load. Modes:

- setup: set up, print {"setup_s": ...} and exit;
- measure: set up, then repeat rounds (every unit once) for `seconds`;
  each unit is timed between two speed probes (see calib.py), which run
  outside the timed region. The first round is the warm-up and the
  reference the later rounds' outputs must equal;
- trace: rounds without tracing for half of `seconds`, then a set-up and
  one round with the tracer installed; prints the per-layer metrics and
  the ratio of the traced round's time to the median untraced one.

The result is one JSON line on stdout.
"""

import gc
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path


def run(spec: dict) -> dict:
    root = Path(spec["root"])
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from calib import probe, scaled
    from run import peak_rss_mb

    workload = workloads.WORKLOADS[spec["workload"]](Path(spec["workdir"]), spec)
    setup_s = time.monotonic() - spec["t0"]
    for _ in range(20):  # let the interpreter specialize the probe's code
        probe()
    setup_probe = statistics.median(probe() for _ in range(5))
    setup = {"setup_s": setup_s, "setup_scaled_s": scaled(setup_s, setup_probe)}
    if spec["mode"] == "setup":
        return setup

    expected = spec.get("expected_hashes") or {}
    reference: list[dict] | None = None
    rounds, probes, errors = [], [], []
    attempted = failed = 0
    tracer = None
    budget = spec["seconds"] / 2 if spec["mode"] == "trace" else spec["seconds"]
    start = time.perf_counter()
    while True:
        if spec["mode"] == "trace" and time.perf_counter() - start >= budget:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
            # Set up once more under the tracer, so that the model load and
            # the corpus parse show among the layers.
            workloads.WORKLOADS[spec["workload"]](Path(spec["workdir"]), spec)
        outputs, checks, unit_ms, unit_scaled_ms, round_tokens = [], [], [], [], 0
        # Start every round from a collected heap, so that where the cyclic
        # collector runs inside a unit does not depend on earlier rounds.
        gc.collect()
        before = probe()
        for k in range(workload.n_units):
            attempted += 1
            t = time.perf_counter()
            try:
                tokens, out, check = workload.unit(k)
            except Exception as err:  # counted and reported, never fatal
                failed += 1
                errors.append(f"unit {k}: {type(err).__name__}: {err}")
                outputs.append({})
                continue
            dt = time.perf_counter() - t
            after = probe()
            probes.append(after)
            dt_scaled = scaled(dt, (before + after) / 2)
            before = after
            round_tokens += tokens
            unit_ms.append(dt * 1000)
            unit_scaled_ms.append(dt_scaled * 1000)
            if spec.get("corrupt") and not rounds and k == 0:
                out = {key: text + "#corrupted" for key, text in out.items()}
            outputs.append(out)
            if check is not None and not rounds:
                checks.append((k, check))
        for k, check in checks:
            for problem in check():
                failed += 1
                errors.append(f"unit {k}: {problem}")
        if reference is None:
            reference = outputs
            for key, want in expected.items():
                got = hashlib.sha256("".join(o.get(key, "") for o in outputs).encode()).hexdigest()
                if got != want:
                    failed += 1
                    errors.append(f"hash of {key} is {got}, expected {want}")
        else:
            for k, (got, want) in enumerate(zip(outputs, reference)):
                if got != want:
                    failed += 1
                    errors.append(f"unit {k}: output differs from the first round")
        rounds.append({"seconds": sum(unit_ms) / 1000, "scaled_seconds": sum(unit_scaled_ms) / 1000,
                       "tokens": round_tokens, "unit_ms": unit_ms, "unit_scaled_ms": unit_scaled_ms})
        if tracer is not None or (spec["mode"] == "measure" and time.perf_counter() - start >= budget):
            break

    result = {
        **setup,
        "peak_rss_mb": peak_rss_mb(),
        "rounds": rounds,
        "probe_ms": statistics.median(probes) * 1000 if probes else None,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "hashes": {key: hashlib.sha256("".join(o.get(key, "") for o in reference).encode()).hexdigest()
                   for key in reference[0]} if reference and reference[0] else {},
    }
    if tracer is not None:
        untraced = statistics.median(r["scaled_seconds"] for r in rounds[1:-1] or rounds[:-1])
        layers = tracer.metrics()
        layers["trace_overhead_ratio"] = rounds[-1]["scaled_seconds"] / untraced
        tracer.write_spans(spec["spans_out"])
        result["layers"] = layers
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
