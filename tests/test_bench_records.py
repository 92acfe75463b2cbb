"""The committed benchmark records, BENCH_<workload>.json at the root.

Each holds the runs of `perfbench/run.py --workload W --seed 1 --seconds 20`
behind the figures quoted for that workload: every run's two output lines
(`info` and `result`), at least five with `--trace 0` and one with
`--trace 1`, and the median of each end-to-end metric over the
`--trace 0` runs. A change that moves an output hash in
`perfbench/hashes.json` must record the workload again.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("annotate", "train", "project", "serve")
HASHED = ("annotate", "train", "project")  # serve records no hashes
END_TO_END = ("setup_s", "peak_rss_mb", "tok_s", "p50_ms", "p90_ms")


def _record(workload: str) -> dict:
    return json.loads((ROOT / f"BENCH_{workload}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_record_parses_and_every_run_is_correct(workload):
    record = _record(workload)
    assert record["workload"] == workload and record["seed"] == 1
    runs = record["runs"]
    assert sum(run["trace"] == 0 for run in runs) >= 5
    assert sum(run["trace"] == 1 for run in runs) >= 1
    for run in runs:
        assert set(run) == {"trace", "info", "result"}
        assert run["result"]["correct"] is True
        assert run["result"]["failed"] == 0
        assert run["info"]["workload"] == workload
        assert run["info"]["seed"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_medians_are_those_of_the_untraced_runs(workload):
    record = _record(workload)
    untraced = [run["result"]["metrics"] for run in record["runs"] if run["trace"] == 0]
    assert set(record["median"]) == set(END_TO_END)
    for name in END_TO_END:
        want = statistics.median(metrics[name]["value"] for metrics in untraced)
        assert record["median"][name] == {"value": want, "unit": untraced[0][name]["unit"]}


@pytest.mark.parametrize("workload", HASHED)
def test_recorded_hashes_are_the_gated_ones(workload):
    expected = json.loads((ROOT / "perfbench" / "hashes.json").read_text(encoding="utf-8"))
    want = expected["full"][workload]
    for run in _record(workload)["runs"]:
        assert run["info"]["hashes"] == want
