"""The udbridge benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {annotate,train,project,serve} \
        --seed N --seconds S --trace {0,1}

It builds the workload's inputs from the seed, runs them through udbridge
from `src/`, checks the outputs and prints, as the last line of stdout, one
JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, measured
without tracing; with `--trace 1` the per-layer ones, from a traced run.
A line before it, `{"info": ...}`, records the machine, the measured input
properties, sample counts and output hashes. See perfbench/README.md.
"""

import argparse
import http.client
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("annotate", "train", "project", "serve")
DEFAULT_SEED = 1          # the seed whose output hashes are in hashes.json
SETUP_SAMPLES = 7         # fresh processes whose set-up time is measured
CONNECTIONS = min(2, os.cpu_count() or 1)
OPEN_RATE = 20.0          # open-loop requests/s, below what the service sustains
TIMEOUT = 170


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process (VmHWM, which, unlike
    ru_maxrss, does not carry over the parent's pages across exec)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


def _python(script: str, *args: str) -> list[str]:
    return [sys.executable, str(BENCH / script), *args]


def _run_json(cmd: list[str], env=None) -> dict:
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(cmd[1]).name} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


# ------------------------------------------------------------ in-process

def bench_inprocess(spec: dict) -> dict:
    """annotate, train, project: set-up probes, then one measured or traced
    worker, each in a fresh process."""
    setups = [_run_json(_python("worker.py", json.dumps(
        dict(spec, mode="setup", t0=time.monotonic())))) for _ in range(SETUP_SAMPLES - 1)]
    mode = "trace" if spec["trace"] else "measure"
    res = _run_json(_python("worker.py", json.dumps(dict(spec, mode=mode, t0=time.monotonic()))))
    setups.append(res)
    # The first round warms up caches and the interpreter; time the rest.
    rounds = res["rounds"][1:] or res["rounds"]
    raw_ms = [ms for r in rounds for ms in r["unit_ms"]]
    scaled_ms = [ms for r in rounds for ms in r["unit_scaled_ms"]]
    out = {
        "attempted": res["attempted"],
        "failed": res["failed"],
        "errors": res["errors"],
        "hashes": res["hashes"],
        "samples": {"setup": len(setups), "timed_rounds": len(rounds), "timed_units": len(raw_ms)},
        "probe_ms": res["probe_ms"],
    }
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "tok_s": statistics.median(r["tokens"] / r["seconds"] for r in rounds),
        "p50_ms": percentile(raw_ms, 50),
        "p90_ms": percentile(raw_ms, 90),
    }
    if spec["trace"]:
        out["layers"] = dict(res["layers"], **{k: 0 for k in SERVICE_LAYERS})
    else:
        out["raw"] = raw
        out["metrics"] = {
            "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "tok_s": statistics.median(r["tokens"] / r["scaled_seconds"] for r in rounds),
            "p50_ms": percentile(scaled_ms, 50),
            "p90_ms": percentile(scaled_ms, 90),
        }
    return out


# ----------------------------------------------------------------- serve

SERVICE_LAYERS = ("service.transport_ms", "service.lateness_ms", "service.status_200",
                  "service.status_4xx", "service.status_5xx", "service.conn_errors")


class Server:
    """One `udbridge serve` process on a free port. Set-up time runs from
    just before the process starts to the first 200 from /health."""

    def __init__(self, model: str, traced_out: Path | None = None):
        flags = ["serve", "--bind", "127.0.0.1:0", "--model", model]
        if traced_out is None:
            cmd = [sys.executable, "-c", "from udbridge.cli import run; run()", *flags]
        else:
            cmd = _python("traced_server.py", str(traced_out), *flags)
        t0 = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     text=True, env=_env())
        line = self.proc.stderr.readline()
        match = re.search(r"http://[^:]+:(\d+)/", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line}{self.proc.stderr.read()}")
        self.port = int(match.group(1))
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/health")
            resp = conn.getresponse()
            resp.read()
        finally:
            conn.close()
        if resp.status != 200:
            self.stop()
            raise RuntimeError(f"/health answered {resp.status}")
        self.setup_s = time.monotonic() - t0

    def stop(self, sig: int = signal.SIGTERM) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stderr.close()


def _client(spec: dict, port: int, phases: list[dict]) -> dict:
    client_spec = {"port": port, "requests": str(Path(spec["workdir"]) / "requests.json"),
                   "model": spec["model"], "connections": CONNECTIONS, "phases": phases}
    return _run_json(_python("loadclient.py", json.dumps(client_spec)), env=_env())


def _failures(client: dict) -> int:
    bad = sum(n for status, n in client["status"].items() if not status.startswith("2"))
    return bad + client["mismatches"]


def bench_serve(spec: dict) -> dict:
    seconds = spec["seconds"]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = Server(spec["model"])
        setups.append(probe.setup_s)
        probe.stop()
    server = Server(spec["model"])
    setups.append(server.setup_s)
    try:
        if spec["trace"]:
            phases = [{"kind": "closed", "seconds": seconds * 0.2},
                      {"kind": "open", "rate": OPEN_RATE, "seconds": seconds * 0.3}]
        else:
            phases = [{"kind": "closed", "seconds": seconds * 0.2},
                      {"kind": "open", "rate": OPEN_RATE, "seconds": seconds * 0.8}]
        client = _client(spec, server.port, phases)
        rss = peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    closed, opened = client["phases"]
    clients = [client]
    out = {"samples": {"setup": len(setups), "closed_requests": closed["sent"],
                       "open_requests": opened["sent"]},
           "rps": closed["rps"], "status": client["status"], "mismatches": client["mismatches"],
           "setup_samples_s": setups, "hashes": {}, "errors": []}
    if spec["trace"]:
        traced_out = Path(spec["workdir"]) / "server-layers.json"
        traced = Server(spec["model"], traced_out)
        try:
            again = _client(spec, traced.port, [{"kind": "closed", "count": closed["sent"]}])
        finally:
            traced.stop(signal.SIGINT)
        clients.append(again)
        shutil.copy(traced_out.with_suffix(".tsv"), spec["spans_out"])
        status: dict[str, int] = {}
        for c in clients:
            for code, n in c["status"].items():
                status[code] = status.get(code, 0) + n
        layers = json.loads(traced_out.read_text(encoding="utf-8"))
        layers.update({
            "service.transport_ms": statistics.median(opened["transport_ms"]),
            "service.lateness_ms": percentile(opened["lateness_ms"], 95),
            "service.status_200": status.get("200", 0),
            "service.status_4xx": sum(n for c, n in status.items() if c.startswith("4")),
            "service.status_5xx": sum(n for c, n in status.items() if c.startswith("5")),
            "service.conn_errors": status.get("conn_error", 0),
            "trace_overhead_ratio": again["phases"][0]["seconds"] / closed["seconds"],
        })
        out["layers"] = layers
    else:
        out["metrics"] = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "tok_s": closed["tok_s"],
            "p50_ms": percentile(opened["latencies_ms"], 50),
            "p90_ms": percentile(opened["latencies_ms"], 90),
        }
    out["attempted"] = sum(p["sent"] for c in clients for p in c["phases"])
    out["failed"] = sum(_failures(c) for c in clients)
    return out


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test only: alter one output so the hash gate must trip")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "udbridge" / "__init__.py").is_file():
        print(f"error: no udbridge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import inputs

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        props = inputs.prepare(args.workload, args.seed, args.size, ROOT, workdir)
        expected = {}
        if args.seed == DEFAULT_SEED:
            hashes = json.loads((BENCH / "hashes.json").read_text(encoding="utf-8"))
            expected = hashes[args.size].get(args.workload, {})
        spec = {
            "workload": args.workload, "root": str(ROOT), "workdir": str(workdir),
            "seconds": args.seconds, "trace": args.trace, "corrupt": args.corrupt,
            "expected_hashes": expected,
            "model": str(inputs.model_path(ROOT, args.size)) if args.workload != "train" else "",
            "epochs": inputs.SIZES[args.size]["train_epochs"],
            "documents": inputs.SIZES[args.size]["project_docs"],
            "spans_out": str(ROOT / ".perfbench_work" / f"spans-{args.workload}.tsv"),
        }
        res = (bench_serve if args.workload == "serve" else bench_inprocess)(spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = res["layers" if args.trace else "metrics"]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "inputs": props,
        **{k: v for k, v in res.items() if k not in ("layers", "metrics", "attempted", "failed")},
    }
    if args.trace:
        info["spans"] = spec["spans_out"]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
