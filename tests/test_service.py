import builtins
import http.client
import io
import json
import random
import socket
import threading
import time

import pytest

from synth import make_corpus
from udbridge import service
from udbridge.cli import main
from udbridge.conllu import parse_conllu
from udbridge.errors import DataError
from udbridge.pipeline import EvalSetting, PipelineModel, annotate, train_pipeline
from udbridge.service import (
    BIND_ENV_VAR,
    MAX_COOC_PAIRS,
    ServiceConfig,
    build_config,
    document_to_object,
    make_server,
    read_config_file,
)
from udbridge.stats import lemma_sets
from udbridge.util import short_hash


@pytest.fixture(scope="module")
def model_path(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("svc_model") / "model.json")
    train_pipeline(make_corpus(120, seed=1), epochs=3).save(path)
    return path


@pytest.fixture(scope="module")
def server(model_path):
    cfg = ServiceConfig(
        bind="127.0.0.1:0", model_path=model_path, max_request_bytes=4096
    )
    srv = make_server(cfg)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def request(srv, method: str, path: str, payload=None, content_length=None):
    host, port = srv.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        if content_length is None:
            conn.request(method, path, body=body)
        else:
            conn.putrequest(method, path)
            conn.putheader("Content-Length", str(content_length))
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            if body:
                conn.send(body)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


# ----------------------------------------------------------------- config


def test_config_defaults(model_path):
    cfg = ServiceConfig(model_path=model_path)
    assert cfg.bind == "127.0.0.1:8570"
    assert cfg.host == "127.0.0.1" and cfg.port == 8570
    assert cfg.max_request_bytes == 1 << 20
    assert cfg.default_format == "conllu"
    assert cfg.workers == 8


def test_config_validation(model_path, tmp_path):
    with pytest.raises(DataError, match="model"):
        ServiceConfig(model_path="")
    # a bad path passes config validation; loading the model is what fails
    with pytest.raises(DataError, match="cannot load"):
        make_server(ServiceConfig(model_path=str(tmp_path / "absent.json")))
    with pytest.raises(DataError, match="format"):
        ServiceConfig(model_path=model_path, default_format="excel")
    with pytest.raises(DataError, match="workers"):
        ServiceConfig(model_path=model_path, workers=0)
    with pytest.raises(DataError, match="bind"):
        ServiceConfig(model_path=model_path, bind="localhost")
    with pytest.raises(DataError, match="bind"):
        ServiceConfig(model_path=model_path, bind="127.0.0.1:notaport")


def test_read_config_file(tmp_path, model_path):
    cfg_file = tmp_path / "service.cfg"
    cfg_file.write_text(
        "# annotation service\n"
        "bind = 127.0.0.1:9001\n"
        f"model = {model_path}\n"
        "workers = 3\n"
        "\n"
        "format = tsv\n",
        encoding="utf-8",
    )
    values = read_config_file(str(cfg_file))
    assert values["bind"] == "127.0.0.1:9001"
    assert values["workers"] == "3"
    assert values["format"] == "tsv"


def test_read_config_file_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("colour = blue\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"bad\.cfg:1"):
        read_config_file(str(bad))

    noequals = tmp_path / "noeq.cfg"
    noequals.write_text("bind\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"noeq\.cfg:1"):
        read_config_file(str(noequals))


def test_build_config_precedence(tmp_path, model_path, monkeypatch):
    cfg_file = tmp_path / "service.cfg"
    cfg_file.write_text(
        f"bind = 127.0.0.1:9001\nmodel = {model_path}\nworkers = 3\n",
        encoding="utf-8",
    )
    monkeypatch.delenv(BIND_ENV_VAR, raising=False)

    from_file = build_config(config_path=str(cfg_file), overrides={})
    assert from_file.bind == "127.0.0.1:9001"
    assert from_file.workers == 3  # file strings are coerced

    monkeypatch.setenv(BIND_ENV_VAR, "127.0.0.1:9100")
    with_env = build_config(config_path=str(cfg_file), overrides={})
    assert with_env.bind == "127.0.0.1:9100"
    assert with_env.workers == 3  # env var only covers bind

    flags = build_config(
        config_path=str(cfg_file),
        overrides={"bind": "127.0.0.1:9200", "workers": None},
    )
    assert flags.bind == "127.0.0.1:9200"  # flag beats env beats file
    assert flags.workers == 3              # None overrides are ignored


# ------------------------------------------------------------- json shape


def test_document_to_object():
    doc = parse_conllu(
        "# sent_id = s1\n"
        "1-2\toant'e\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\toant\toant\tADP\tvz\t_\t3\tcase\t_\t_\n"
        "2\te\tit\tDET\tlw\tDefinite=Def\t3\tdet\t_\t_\n"
        "3\thûs\thûs\tNOUN\tn\tNumber=Sing\t0\troot\t_\t_\n"
    )
    obj = document_to_object(doc)
    sent = obj["sentences"][0]
    assert sent["sent_id"] == "s1"
    assert sent["text"] == "oant'e hûs"
    assert len(sent["tokens"]) == 3
    det = sent["tokens"][1]
    assert det["form"] == "e"
    assert det["feats"] == {"Definite": "Def"}
    assert det["head"] == 3
    assert sent["ranges"] == [{"start": 1, "end": 2, "form": "oant'e"}]


# ------------------------------------------------------------- endpoints


def test_health_reports_model_hash(server, model_path):
    status, _, body = request(server, "GET", "/health")
    assert status == 200
    payload = json.loads(body)
    assert payload["status"] == "ok"
    assert len(payload["model"]) == 12


def test_annotate_matches_cli_bytes(server, model_path):
    text = "De man sjocht it hûs."
    status, headers, body = request(server, "POST", "/annotate", {"text": text})
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")

    out = io.StringIO()
    assert main(["annotate", "--model", model_path], stdin=io.StringIO(text), stdout=out, stderr=io.StringIO()) == 0
    assert body == out.getvalue().encode("utf-8")


def test_annotate_json_format(server):
    status, headers, body = request(
        server, "POST", "/annotate", {"text": "De man rint.", "format": "json"}
    )
    assert status == 200
    assert headers["Content-Type"].startswith("application/json")
    payload = json.loads(body)
    forms = [t["form"] for t in payload["sentences"][0]["tokens"]]
    assert forms == ["De", "man", "rint", "."]


def test_annotate_tsv_format(server):
    status, _, body = request(
        server, "POST", "/annotate", {"text": "De man rint.", "format": "tsv"}
    )
    assert status == 200
    assert body.decode("utf-8").splitlines()[0].startswith("doc_id\tsent_id")


def test_annotate_goldtok_setting(server):
    bare = (
        "1\tDe\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "2\tman\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "3\trint\t_\t_\t_\t_\t_\t_\t_\t_\n"
    )
    status, _, body = request(
        server, "POST", "/annotate", {"text": bare, "setting": "goldtok"}
    )
    assert status == 200
    doc = parse_conllu(body.decode("utf-8"))
    assert all(t.upos is not None for t in doc.sentences[0].tokens)


def test_a_goldtok_body_with_a_carriage_return_in_a_column_is_400(server):
    # annotated and written back, the FORM would split its line in a file
    status, _, body = request(
        server, "POST", "/annotate",
        {"text": "1\ta\rb\t_\tX\t_\t_\t0\troot\t_\t_\n", "setting": "goldtok"},
    )
    assert status == 400
    assert json.loads(body) == {"error": "line 1: carriage return inside the line"}
    assert request(server, "GET", "/health")[0] == 200


def test_annotate_error_statuses(server):
    cases = [
        ({"text": ""}, 400),
        ({"text": "   "}, 400),
        ({}, 400),
        ({"text": 42}, 400),
        ({"text": "wat", "format": "excel"}, 400),
        ({"text": "wat", "setting": "nope"}, 400),
        ({"text": "1\tbroken", "setting": "goldtok"}, 400),
    ]
    for payload, expected in cases:
        status, _, body = request(server, "POST", "/annotate", payload)
        assert status == expected, payload
        assert "error" in json.loads(body)


def test_oversize_request_is_413(server):
    status, headers, body = request(
        server, "POST", "/annotate", {"text": "wat"}, content_length=100000
    )
    assert status == 413
    assert "error" in json.loads(body)
    assert headers.get("Connection") == "close"


def test_negative_content_length_is_400(server):
    # a body larger than max_request_bytes, and no half-close: a server
    # that reads to EOF never answers, and the client timeout fails the test
    body = json.dumps({"text": "wat " * 2500}).encode("utf-8")
    assert len(body) > server.config.max_request_bytes
    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        sock.sendall(b"POST /annotate HTTP/1.1\r\nHost: udbridge\r\n"
                     b"Content-Type: application/json\r\nContent-Length: -1\r\n\r\n" + body)
        reply = sock.recv(4096)
    assert reply.startswith(b"HTTP/1.1 400 "), reply[:80]


def test_bad_json_is_400(server):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("POST", "/annotate", body=b"{not json")
        resp = conn.getresponse()
        assert resp.status == 400
        resp.read()
    finally:
        conn.close()


def test_unknown_paths_are_404(server):
    assert request(server, "GET", "/nope")[0] == 404
    assert request(server, "POST", "/nope", {"text": "x"})[0] == 404
    assert request(server, "GET", "/annotate")[0] == 404


def test_stats_endpoint(server):
    status, _, body = request(
        server, "POST", "/stats", {"text": "De man rint. De frou rint.", "report": "upos"}
    )
    assert status == 200
    payload = json.loads(body)
    assert payload["report"] == "upos"
    rows = dict(map(tuple, payload["rows"]))
    assert rows.get("VERB") == 2

    # the report name is required
    assert request(server, "POST", "/stats", {"text": "wat"})[0] == 400

    top = json.loads(
        request(server, "POST", "/stats", {"text": "De man rint.", "report": "top"})[2]
    )
    assert all(len(row) == 4 for row in top["rows"])

    status, _, body = request(
        server, "POST", "/stats", {"text": "De man rint.", "report": "cooc"}
    )
    assert status == 400  # cooc needs upos_filter
    ok = request(
        server,
        "POST",
        "/stats",
        {"text": "De man sjocht it hûs.", "report": "cooc", "upos_filter": "NOUN"},
    )
    assert ok[0] == 200
    assert json.loads(ok[2])["report"] == "cooc"

    status, _, _ = request(server, "POST", "/stats", {"text": "wat", "report": "nope"})
    assert status == 400


@pytest.mark.parametrize(
    "extra",
    [
        {"report": "top", "top_n": True},
        {"report": "top", "top_n": 2.0},
        {"report": "cooc", "upos_filter": "NOUN", "min_weight": True},
        {"report": "cooc", "upos_filter": "NOUN", "min_weight": False},
    ],
)
def test_stats_counts_must_be_integers(server, extra):
    status, _, body = request(server, "POST", "/stats", {"text": "De man rint.", **extra})
    assert status == 400
    assert "must be a positive integer" in json.loads(body)["error"]


def test_stats_checks_parameters_before_annotating(server, monkeypatch):
    calls = []
    monkeypatch.setattr(service, "annotate", lambda *args: calls.append(args))
    for extra, message in [
        ({"report": "top", "top_n": 0}, "top_n must be a positive integer"),
        ({"report": "cooc"}, "report 'cooc' needs upos_filter"),
        (
            {"report": "cooc", "upos_filter": "NOUN", "min_weight": 0},
            "min_weight must be a positive integer",
        ),
    ]:
        status, _, body = request(server, "POST", "/stats", {"text": "De man rint.", **extra})
        assert status == 400
        assert json.loads(body) == {"error": message}
    assert calls == []


def test_config_rejects_a_port_out_of_range(model_path):
    assert ServiceConfig(model_path=model_path, bind="127.0.0.1:65535").port == 65535
    with pytest.raises(DataError, match=r"port 0-65535\), got '127\.0\.0\.1:65536'"):
        ServiceConfig(model_path=model_path, bind="127.0.0.1:65536")
    with pytest.raises(DataError, match="bind"):
        ServiceConfig(model_path=model_path, bind="127.0.0.1:²")


def test_concurrent_requests_identical(server):
    payload = {"text": "De man sjocht it hûs by de wei."}
    results = [None] * 20

    def worker(i):
        results[i] = request(server, "POST", "/annotate", payload)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(20)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    statuses = {r[0] for r in results}
    bodies = {r[2] for r in results}
    assert statuses == {200}
    assert len(bodies) == 1


# ------------------------------------------------------------- transport


class _CountingSocket:
    """An accepted socket that records each write made on it. The count
    goes up before the bytes leave, so a client that has read a response
    sees every write that produced it."""

    def __init__(self, sock, writes: list):
        self._sock = sock
        self._writes = writes

    def sendall(self, data, *args):
        self._writes.append(len(data))
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self._writes.append(len(data))
        return self._sock.send(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture
def probe(model_path):
    """A server that records, for each accepted connection, its
    TCP_NODELAY setting and the writes made on it."""
    connections = []

    class Handler(service._Handler):
        def setup(self):
            writes = []
            self.request = _CountingSocket(self.request, writes)
            super().setup()
            nodelay = self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            connections.append({"nodelay": nodelay, "writes": writes})

    srv = make_server(ServiceConfig(bind="127.0.0.1:0", model_path=model_path,
                                    max_request_bytes=4096))
    srv.RequestHandlerClass = Handler
    srv.connections = connections
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_accepted_sockets_set_tcp_nodelay(probe):
    assert request(probe, "GET", "/health")[0] == 200
    assert request(probe, "POST", "/annotate", {"text": "De man rint."})[0] == 200
    assert [c["nodelay"] != 0 for c in probe.connections] == [True, True]


def test_every_response_is_one_write(probe, monkeypatch):
    cases = [
        ("GET", "/health", None, 200),
        ("GET", "/nope", None, 404),
        ("POST", "/nope", {"text": "x"}, 404),
        ("POST", "/annotate", {"text": "De man rint."}, 200),
        ("POST", "/annotate", {"text": "De man rint.", "format": "tsv"}, 200),
        ("POST", "/annotate", {"text": "De man rint.", "format": "json"}, 200),
        ("POST", "/stats", {"text": "De man rint.", "report": "upos"}, 200),
        ("POST", "/annotate", {"text": ""}, 400),
        ("PUT", "/annotate", None, 501),  # the standard library's own error reply
    ]
    for method, path, payload, expected in cases:
        assert request(probe, method, path, payload)[0] == expected, (method, path)
    assert request(probe, "POST", "/annotate", {"text": "wat"}, content_length=100000)[0] == 413

    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(service, "annotate", boom)
    assert request(probe, "POST", "/annotate", {"text": "wat"})[0] == 500
    assert [len(c["writes"]) for c in probe.connections] == [1] * (len(cases) + 2)


def test_keep_alive_sequence_matches_fresh_connections(probe):
    texts = ["De man sjocht it hûs.", "De frou rint. De man rint.", "It hûs by de wei."]
    bare = "1\tDe\t_\t_\t_\t_\t_\t_\t_\t_\n2\tman\t_\t_\t_\t_\t_\t_\t_\t_\n"
    sequence = [("GET", "/health", None)]
    sequence += [("POST", "/annotate", {"text": text, "format": fmt})
                 for text in texts for fmt in ("conllu", "tsv", "json")]
    sequence += [
        ("POST", "/annotate", {"text": texts[1]}),
        ("POST", "/annotate", {"text": bare, "setting": "goldtok"}),
        ("POST", "/stats", {"text": texts[1], "report": "upos"}),
        ("POST", "/stats", {"text": texts[1], "report": "top", "top_n": 2}),
        ("POST", "/stats", {"text": texts[0], "report": "cooc", "upos_filter": "NOUN"}),
        ("GET", "/health", None),
        ("POST", "/annotate", {"text": texts[2]}),
        ("POST", "/stats", {"text": texts[2], "report": "upos"}),
        ("POST", "/annotate", {"text": texts[0], "format": "json"}),
        ("GET", "/health", None),
    ]
    assert len(sequence) == 20

    def key(status, headers, body):
        return status, headers["Content-Type"], headers["Content-Length"], body

    fresh = [key(*request(probe, method, path, payload)) for method, path, payload in sequence]
    assert {k[0] for k in fresh} == {200}
    n_fresh = len(probe.connections)

    host, port = probe.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    kept = []
    try:
        for method, path, payload in sequence:
            body = None if payload is None else json.dumps(payload).encode("utf-8")
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            kept.append(key(resp.status, dict(resp.getheaders()), resp.read()))
            assert not resp.will_close
    finally:
        conn.close()
    assert kept == fresh
    # all twenty went over one connection, one write each
    assert [len(c["writes"]) for c in probe.connections[n_fresh:]] == [20]


def test_expect_continue_is_answered_before_the_body(server):
    body = json.dumps({"text": "De man rint."}).encode("utf-8")
    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b"POST /annotate HTTP/1.1\r\nHost: udbridge\r\n"
                     b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n" % len(body))
        assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert reader.readline() == b"\r\n"
        sock.sendall(body)
        assert reader.readline() == b"HTTP/1.1 200 OK\r\n"
        reader.close()


def test_stalled_bodies_hold_no_worker_slot(model_path):
    cfg = ServiceConfig(bind="127.0.0.1:0", model_path=model_path, workers=2)
    srv = make_server(cfg)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    address = srv.server_address[:2]
    stalled = []
    try:
        for _ in range(cfg.workers):
            sock = socket.create_connection(address, timeout=5)
            sock.sendall(b"POST /annotate HTTP/1.1\r\nHost: udbridge\r\n"
                         b"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n")
            stalled.append(sock)
        time.sleep(0.2)  # let every stalled request reach its body read
        for method, path, payload in [("GET", "/health", None),
                                      ("POST", "/annotate", {"text": "De man rint."})]:
            conn = http.client.HTTPConnection(*address, timeout=3)
            try:
                body = None if payload is None else json.dumps(payload).encode("utf-8")
                conn.request(method, path, body=body)
                resp = conn.getresponse()
                assert resp.status == 200, path
                resp.read()
            finally:
                conn.close()
    finally:
        for sock in stalled:
            sock.close()
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_handler_sockets_time_out():
    # the tests below shorten it; unset, a stalled client holds its thread
    assert 0 < service._Handler.timeout <= 60


@pytest.fixture
def quick_timeout_server(model_path, monkeypatch):
    """A server whose sockets time out after a fifth of a second."""
    monkeypatch.setattr(service._Handler, "timeout", 0.2)
    srv = make_server(ServiceConfig(bind="127.0.0.1:0", model_path=model_path))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def read_until_closed(sock) -> bytes:
    data = b""
    while chunk := sock.recv(4096):
        data += chunk
    return data


def test_a_stalled_body_gets_408_and_a_closed_connection(quick_timeout_server):
    with socket.create_connection(quick_timeout_server.server_address[:2], timeout=5) as sock:
        sock.sendall(b"POST /annotate HTTP/1.1\r\nHost: udbridge\r\n"
                     b"Content-Length: 100\r\n\r\n{\"text\": ")
        reply = read_until_closed(sock)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 408 ")
    assert b"\r\nConnection: close" in head
    assert json.loads(body) == {"error": "timed out reading the request body"}


def test_an_idle_keep_alive_connection_is_closed(quick_timeout_server):
    with socket.create_connection(quick_timeout_server.server_address[:2], timeout=5) as sock:
        sock.sendall(b"GET /health HTTP/1.1\r\nHost: udbridge\r\n\r\n")
        started = time.monotonic()
        reply = read_until_closed(sock)
    assert reply.startswith(b"HTTP/1.1 200 ")
    assert b"Connection: close" not in reply
    assert time.monotonic() - started < 4


# ------------------------------------------------------------ model file


def test_model_file_is_read_once(model_path, monkeypatch):
    real_open = builtins.open
    opened = []

    def counting_open(file, *args, **kwargs):
        if file == model_path:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    srv = make_server(ServiceConfig(bind="127.0.0.1:0", model_path=model_path))
    srv.server_close()
    monkeypatch.undo()
    assert len(opened) == 1
    with open(model_path, "rb") as fh:
        assert srv.model_hash == short_hash(fh.read())


@pytest.mark.parametrize("path, extra", [
    ("/annotate", {"format": "conllu"}),
    ("/annotate", {"format": "json"}),
    ("/stats", {"report": "top"}),
])
def test_a_text_with_an_unpaired_surrogate_is_400(server, path, extra):
    # valid JSON (the surrogate is escaped), but no reply could encode it
    payload = {"text": "De man \udc80 rint.", **extra}
    status, _, body = request(server, "POST", path, payload)
    assert status == 400
    assert json.loads(body) == {"error": "text holds an unpaired surrogate"}
    assert request(server, "GET", "/health")[0] == 200


@pytest.mark.parametrize("report", [["top"], {"top": 1}, 3, None])
def test_a_report_that_is_not_a_name_is_400(server, report):
    status, _, body = request(server, "POST", "/stats", {"text": "wat", "report": report})
    assert status == 400
    assert json.loads(body)["error"].startswith("unknown report")


@pytest.mark.parametrize("flags", [
    {"report": "top", "top_n": 2},
    {"report": "cooc", "upos_filter": "NOUN"},
])
def test_stats_rows_match_the_cli_report(server, flags):
    text = "De man sjocht it hûs. It hûs stiet by de dyk. De man en de frou rinne."
    status, _, conllu = request(server, "POST", "/annotate", {"text": text})
    assert status == 200
    status, _, body = request(server, "POST", "/stats", {"text": text, **flags})
    assert status == 200
    rows = json.loads(body)["rows"]
    assert rows
    argv = ["stats"]
    for key, value in flags.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    out = io.StringIO()
    code = main(argv, stdin=io.StringIO(conllu.decode("utf-8")), stdout=out, stderr=io.StringIO())
    assert code == 0
    assert out.getvalue().splitlines()[1:] == ["\t".join(map(str, row)) for row in rows]


def test_a_cooc_report_too_costly_to_count_is_413(model_path):
    # One ~30 kB sentence of random words. Under its most used tag it holds
    # over a million lemma pairs: counting them all would take the worker
    # slot for many seconds and hundreds of MB; the count comes first.
    rng = random.Random(5)
    text = " ".join("".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                            for _ in range(rng.randint(3, 8))) for _ in range(5000))
    doc = annotate(text, PipelineModel.load(model_path), EvalSetting.RAW_TEXT)
    assert len(doc.sentences) == 1

    def pairs(tag):
        k = len(lemma_sets(doc, tag)[0])
        return k * (k - 1) // 2

    tag = max({tok.upos for tok in doc.tokens()}, key=pairs)
    assert pairs(tag) > 5 * MAX_COOC_PAIRS
    srv = make_server(ServiceConfig(bind="127.0.0.1:0", model_path=model_path))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        start = time.monotonic()
        status, _, body = request(srv, "POST", "/stats",
                                  {"text": text, "report": "cooc", "upos_filter": tag})
        assert time.monotonic() - start < 5
        assert status == 413
        assert json.loads(body) == {
            "error": f"report 'cooc' would count over {MAX_COOC_PAIRS} lemma pairs"}
        assert request(srv, "GET", "/health")[0] == 200
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
