"""Self-test of the benchmark on tiny inputs.

Usage (from the root of a checkout): python3 perfbench/smoke.py

For every workload it runs, on the default seed, one untraced and one
traced pass of about a second and checks the output schema against
BENCHMARK.json: the last line holds exactly `correct`, `attempted`,
`failed` and `metrics`, the metrics are exactly the listed ones with their
units, and the run is correct. Then it runs each workload that has output
hashes with one output altered and checks that the hash gate trips. Exits
0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def check_schema(result: dict, listed: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        problems.append(f"failed {result['failed']!r}")
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: v.get("unit") for name, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, v in result["metrics"].items():
        if not isinstance(v.get("value"), (int, float)) or isinstance(v.get("value"), bool):
            problems.append(f"{name} value {v.get('value')!r}")
    if not result["correct"] or result["failed"]:
        problems.append(f"not correct: failed={result['failed']}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    hashes = json.loads((ROOT / "perfbench" / "hashes.json").read_text(encoding="utf-8"))
    failures = []
    for w in bench["workloads"]:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            info, result = run(w["name"], trace)
            for problem in check_schema(result, listed):
                failures.append(f"{w['name']} trace={trace}: {problem} {info.get('errors')}")
    for workload in hashes["tiny"]:
        info, result = run(workload, 0, "--corrupt")
        if result["correct"] or not any(e.startswith("hash of") for e in info["errors"]):
            failures.append(f"{workload}: the hash gate did not trip on a corrupted output")
    for line in failures:
        print("FAIL", line)
    print("smoke:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
