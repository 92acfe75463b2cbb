"""Malformed /annotate and /stats bodies, drawn at random: every reply is a
400 or 413 with a JSON {"error": ...} body, never a 500 or a dropped
connection, and /health still answers afterwards."""

import http.client
import json
import threading

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from synth import make_corpus

from udbridge.pipeline import train_pipeline
from udbridge.service import FORMATS, ServiceConfig, make_server
from udbridge.stats import REPORT_COLUMNS

TEXT = "De man rint. It hûs is grut."
SETTINGS = ("raw", "goldtok", "goldtokmorph")
BOUNDED = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# per endpoint, a valid body and the fields it reads; a /stats field is
# read only under some reports
VALID = {
    "/annotate": {"text": TEXT, "format": "conllu", "setting": "raw"},
    "/stats top": {"text": TEXT, "report": "top", "top_n": 3},
    "/stats cooc": {"text": TEXT, "report": "cooc", "upos_filter": "NOUN", "min_weight": 1},
}
FIELDS = [(where, key) for where, body in VALID.items() for key in body]


def _positive_int(value) -> bool:
    return type(value) is int and value >= 1


def _is_valid(key: str, value) -> bool:
    if key in ("text", "upos_filter"):
        return isinstance(value, str) and bool(value.strip())
    if key in ("top_n", "min_weight"):
        return _positive_int(value)
    allowed = {"format": FORMATS, "setting": SETTINGS, "report": tuple(REPORT_COLUMNS)}[key]
    return isinstance(value, str) and value in allowed


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8))
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), SCALARS, max_size=2),
)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bodies_model") / "model.json")
    train_pipeline(make_corpus(30, seed=1), epochs=1).save(path)
    srv = make_server(ServiceConfig(bind="127.0.0.1:0", model_path=path,
                                    max_request_bytes=1 << 14))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def _request(srv, method: str, path: str, body: bytes | None = None):
    host, port = srv.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def check_refused(srv, path: str, body: bytes) -> None:
    status, reply = _request(srv, "POST", path, body)
    assert status in (400, 413), (status, body[:200])
    error = json.loads(reply.decode("utf-8"))
    assert set(error) == {"error"} and isinstance(error["error"], str)


def check_health(srv) -> None:
    status, reply = _request(srv, "GET", "/health")
    assert status == 200 and json.loads(reply)["status"] == "ok"


@pytest.mark.parametrize("path", ["/annotate", "/stats"])
def test_random_bytes_are_refused(server, path):
    @BOUNDED
    @given(body=st.binary(max_size=300))
    # nesting past the recursion limit and an integer too long to convert
    # once made json.loads raise what the handler answered with 500
    @example(body=b"[" * 5000)
    @example(body=b'{"text": ' + b"1" * 5000 + b"}")
    @example(body=b"")
    def check(body):
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError):
            payload = None
        assume(not isinstance(payload, dict))
        check_refused(server, path, body)

    check()
    check_health(server)


@pytest.mark.parametrize("path", ["/annotate", "/stats"])
def test_json_that_is_not_an_object_is_refused(server, path):
    @BOUNDED
    @given(value=st.one_of(SCALARS, st.lists(VALUES, max_size=3)))
    def check(value):
        check_refused(server, path, json.dumps(value).encode("utf-8"))

    check()
    check_health(server)


@pytest.mark.parametrize("where,key", FIELDS, ids=[f"{w}-{k}" for w, k in FIELDS])
def test_a_wrong_typed_field_is_refused(server, where, key):
    @BOUNDED
    @given(value=VALUES, drop=st.booleans())
    def check(value, drop):
        body = dict(VALID[where])
        if drop and key in ("text", "report", "upos_filter"):
            del body[key]  # these have no default
        else:
            assume(not _is_valid(key, value))
            body[key] = value
        check_refused(server, where.split()[0], json.dumps(body).encode("utf-8"))

    check()
    check_health(server)
