"""Load client for the serve workload, run in its own process.

Usage: python3 loadclient.py SPEC_JSON

It first computes, in-process with the same model, the response each
request must get (annotate + serializer, the stats reports, the health
record) and how long the in-process work took. Then it drives the server
over at most `connections` keep-alive connections, one thread each, in the
phases the spec lists:

- closed: each connection sends its next request when the reply to the
  previous one is in; runs for `seconds` or for `count` requests.
- open: requests fall due at a fixed `rate`, dealt round-robin to the
  connections, as from independent users each sending at rate/connections.
  The dispatcher hands each request over at its due time and latency is
  timed from that due time, so a stall also delays the requests queued
  behind it. `lateness` is how late the dispatcher itself ran.

Every response is compared with the in-process one; a non-2xx status, a
connection error or a different body counts as a failure.
"""

import http.client
import itertools
import json
import queue
import sys
import threading
import time


def expected_responses(requests: list[dict], model_path: str) -> list[tuple]:
    """(expected body, in-process ms) per request."""
    from udbridge import conllu, pipeline, service, stats
    from udbridge.pipeline import EvalSetting
    from udbridge.util import short_hash

    model = pipeline.PipelineModel.load(model_path)
    with open(model_path, "rb") as fh:
        health = {"status": "ok", "model": short_hash(fh.read())}
    out = []
    for req in requests:
        body = req["body"]
        t = time.perf_counter()
        if body is None:
            want = health
        else:
            doc = pipeline.annotate(body["text"], model, EvalSetting.RAW_TEXT)
            if req["path"] == "/stats":
                report = body["report"]
                if report == "upos":
                    rows = [[tag, n] for tag, n in stats.upos_frequencies(doc)]
                elif report == "top":
                    rows = [[tag, rank, form, n]
                            for tag, items in stats.top_tokens_per_upos(doc, body["top_n"]).items()
                            for rank, (form, n) in enumerate(items, start=1)]
                else:
                    rows = [[e.lemma_a, e.lemma_b, e.weight]
                            for e in stats.cooccurrence(doc, body["upos_filter"], 1)]
                want = {"report": report, "rows": rows}
            elif body["format"] == "json":
                want = json.loads(json.dumps(service.document_to_object(doc)))
            elif body["format"] == "tsv":
                want = conllu.serialize_tsv(doc)
            else:
                want = conllu.serialize_conllu(doc)
        out.append((want, (time.perf_counter() - t) * 1000))
    return out


class Client:
    def __init__(self, port: int, requests: list[dict], expected: list[tuple]):
        self.port = port
        self.requests = requests
        self.expected = expected
        self.payloads = [None if r["body"] is None else json.dumps(r["body"]).encode("utf-8")
                         for r in requests]
        self.lock = threading.Lock()
        self.status: dict[str, int] = {}
        self.mismatches = 0

    def send(self, conn_box: list, k: int) -> tuple[bool, int]:
        """Send request k on the connection in conn_box (reconnecting if
        needed); True when the reply is a 2xx equal to the expected one."""
        req = self.requests[k]
        try:
            if conn_box[0] is None:
                conn_box[0] = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            conn = conn_box[0]
            headers = {"Content-Type": "application/json"} if self.payloads[k] else {}
            conn.request(req["method"], req["path"], body=self.payloads[k], headers=headers)
            resp = conn.getresponse()
            data = resp.read()
            status = str(resp.status)
            if resp.will_close:
                conn.close()
                conn_box[0] = None
        except (OSError, http.client.HTTPException):
            if conn_box[0] is not None:
                conn_box[0].close()
            conn_box[0] = None
            status = "conn_error"
            data = b""
        ok = status.startswith("2")
        same = ok and self._same(k, data)
        with self.lock:
            self.status[status] = self.status.get(status, 0) + 1
            if ok and not same:
                self.mismatches += 1
        return same, req["tokens"]

    def _same(self, k: int, data: bytes) -> bool:
        want = self.expected[k][0]
        text = data.decode("utf-8")
        return text == want if isinstance(want, str) else json.loads(text) == want

    def closed(self, connections: int, seconds: float | None, count: int | None) -> dict:
        order = itertools.count()
        done = []  # (ok, tokens) per reply
        deadline = time.perf_counter() + (seconds or 1e9)

        def loop():
            box = [None]
            while time.perf_counter() < deadline:
                n = next(order)
                if count is not None and n >= count:
                    break
                done.append(self.send(box, n % len(self.requests)))
            if box[0] is not None:
                box[0].close()

        start = time.perf_counter()
        threads = [threading.Thread(target=loop) for _ in range(connections)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        ok = [tokens for same, tokens in done if same]
        return {"kind": "closed", "sent": len(done), "ok": len(ok), "seconds": elapsed,
                "rps": len(done) / elapsed, "tok_s": sum(ok) / elapsed}

    def open(self, connections: int, rate: float, seconds: float | None, count: int | None) -> dict:
        n = count if count is not None else int(rate * seconds)
        queues = [queue.Queue() for _ in range(connections)]
        latencies, transport, lateness, results = [], [], [], []

        def sender(due_q: queue.Queue):
            box = [None]
            while True:
                item = due_q.get()
                if item is None:
                    break
                i, due = item
                k = i % len(self.requests)
                same, _ = self.send(box, k)
                lat = (time.perf_counter() - due) * 1000
                latencies.append(lat)
                transport.append(lat - self.expected[k][1])
                results.append(same)
            if box[0] is not None:
                box[0].close()

        threads = [threading.Thread(target=sender, args=(q,)) for q in queues]
        for t in threads:
            t.start()
        start = time.perf_counter()
        for i in range(n):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lateness.append((time.perf_counter() - due) * 1000)
            queues[i % connections].put((i, due))
        for q in queues:
            q.put(None)
        for t in threads:
            t.join()
        return {"kind": "open", "sent": len(results), "ok": sum(results), "rate": rate,
                "latencies_ms": latencies, "transport_ms": transport, "lateness_ms": lateness}


def main(spec: dict) -> dict:
    with open(spec["requests"], encoding="utf-8") as fh:
        requests = json.load(fh)
    client = Client(spec["port"], requests, expected_responses(requests, spec["model"]))
    phases = []
    for phase in spec["phases"]:
        if phase["kind"] == "closed":
            phases.append(client.closed(spec["connections"], phase.get("seconds"), phase.get("count")))
        else:
            phases.append(client.open(spec["connections"], phase["rate"],
                                      phase.get("seconds"), phase.get("count")))
    return {"phases": phases, "status": client.status, "mismatches": client.mismatches}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
