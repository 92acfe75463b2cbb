"""HTTP annotation service.

Endpoints: POST /annotate, POST /stats, GET /health. Request bodies are
UTF-8 JSON. /annotate returns the annotated document itself (CoNLL-U or
TSV as plain text, "json" as a structured document); errors and the other
endpoints return JSON objects. The model is loaded once at startup and
never mutated, so worker threads share it freely.

Connections are kept alive between requests. Each response leaves in one
write on a socket with TCP_NODELAY: sent as two segments, the body would
wait for the client's delayed ACK of the headers, about 40 ms a request.

`serve` runs the server on one process per CPU. The process that bound the
socket forks the others after loading the model, so they share its pages
copy-on-write (the heap is frozen first, so that no collection writes to
them), and it alone accepts connections: it deals them round-robin
to itself and to the workers, passing each one over a Unix socket pair, and
a connection stays in the process it was dealt to. Dealing, rather than
letting every process accept, spreads even two connections evenly, and
a worker notices its parent's death as the end of its channel.
"""

import gc
import io
import json
import os
import signal
import socket
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from math import comb

from .conllu import Document, parse_conllu, serialize_conllu, serialize_tsv
from .errors import DataError, UdbridgeError
from .parallel import can_fork, fork, stop
from .pipeline import EvalSetting, PipelineModel, annotate, read_model_file
from .stats import REPORT_COLUMNS, lemma_sets, report_rows
from .util import read_text, short_hash

BIND_ENV_VAR = "UDBRIDGE_BIND"
FORMATS = ("conllu", "tsv", "json")
MAX_COOC_PAIRS = 200_000  # lemma pairs a /stats cooc request may count: ~1 s of work

# config file keys -> ServiceConfig fields
_CONFIG_KEYS = {
    "bind": "bind",
    "model": "model_path",
    "max_request_bytes": "max_request_bytes",
    "format": "default_format",
    "workers": "workers",
}


@dataclass
class ServiceConfig:
    bind: str = "127.0.0.1:8570"
    model_path: str = ""
    max_request_bytes: int = 1 << 20
    default_format: str = "conllu"
    workers: int = 8

    def __post_init__(self):
        if not self.model_path:
            raise DataError("service config needs a model path")
        if self.max_request_bytes < 1024:
            raise DataError("max_request_bytes must be >= 1024")
        if self.default_format not in FORMATS:
            raise DataError(f"unknown output format {self.default_format!r}")
        if self.workers < 1:
            raise DataError("workers must be >= 1")
        host, _, port = self.bind.rpartition(":")
        if not host or not port.isdecimal() or int(port) > 65535:
            raise DataError(f"bind address must be host:port (port 0-65535), got {self.bind!r}")

    @property
    def host(self) -> str:
        return self.bind.rpartition(":")[0]

    @property
    def port(self) -> int:
        return int(self.bind.rpartition(":")[2])


def read_config_file(path: str) -> dict[str, str]:
    """Parse a key=value config file. '#' starts a comment line."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in _CONFIG_KEYS:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def build_config(config_path=None, overrides=None) -> ServiceConfig:
    """Merge defaults, config file, environment, and flag overrides.

    Precedence, lowest to highest: built-in defaults, config file, the
    bind-address environment variable, explicit overrides (flags).
    """
    merged: dict[str, object] = {}
    if config_path:
        for key, value in read_config_file(config_path).items():
            merged[_CONFIG_KEYS[key]] = value
    env_bind = os.environ.get(BIND_ENV_VAR)
    if env_bind:
        merged["bind"] = env_bind
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _CONFIG_KEYS:
            raise DataError(f"unknown config override {key!r}")
        merged[_CONFIG_KEYS[key]] = value
    for field in ("max_request_bytes", "workers"):
        if field in merged:
            try:
                merged[field] = int(merged[field])
            except (TypeError, ValueError):
                raise DataError(f"{field} must be an integer") from None
    return ServiceConfig(**merged)


def document_to_object(doc: Document) -> dict:
    """Structured form of a document: sentences -> tokens -> all ten fields."""
    sentences = []
    for sent in doc.sentences:
        tokens = []
        for tok in sent.tokens:
            tokens.append(
                {
                    "id": tok.id,
                    "form": tok.form,
                    "lemma": tok.lemma,
                    "upos": tok.upos,
                    "xpos": tok.xpos,
                    "feats": dict(tok.feats),
                    "head": tok.head,
                    "deprel": tok.deprel,
                    "deps": tok.deps,
                    "misc": tok.misc,
                }
            )
        ranges = [
            {"start": r.start, "end": r.end, "form": r.surface_form}
            for r in sent.ranges
        ]
        sentences.append(
            {
                "sent_id": sent.sent_id,
                "text": sent.text(),
                "tokens": tokens,
                "ranges": ranges,
            }
        )
    return {"sentences": sentences}


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _request_text(payload: dict) -> str:
    """The request's `text`: a non-blank string that UTF-8 can encode."""
    text = payload.get("text")
    if not isinstance(text, str) or not text.strip():
        raise _HttpError(400, "empty text")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise _HttpError(400, "text holds an unpaired surrogate") from None
    return text


class _ResponseWriter(io.BytesIO):
    """A handler's wfile: collects what one response writes and sends it
    with a single sendall when flushed. The server flushes once after each
    request and once when the connection closes."""

    def __init__(self, sock):
        super().__init__()
        self._sock = sock

    def flush(self) -> None:
        data = self.getvalue()
        if data:
            self.seek(0)
            self.truncate()
            self._sock.sendall(data)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    # seconds a socket read or write may wait: a client that stalls
    # mid-body gets a 408, and an idle keep-alive connection is closed, so
    # neither holds its thread and socket forever
    timeout = 30

    def setup(self):
        super().setup()
        self.wfile = _ResponseWriter(self.connection)

    def handle_expect_100(self):
        # the client holds the body back until this interim reply arrives
        ok = super().handle_expect_100()
        self.wfile.flush()
        return ok

    # quiet: the base class logs every request to stderr
    def log_message(self, format, *args):
        pass

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        if status != 200:
            # error paths may leave the request body unread; a reused
            # connection would then misparse, so force a fresh one
            self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        self._send(status, body, "application/json; charset=utf-8")

    def _send_text(self, text: str) -> None:
        self._send(200, text.encode("utf-8"), "text/plain; charset=utf-8")

    def _read_body(self) -> dict:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise _HttpError(400, "missing Content-Length")
        try:
            length = int(length_header)
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would read to EOF, past max_request_bytes
            raise _HttpError(400, "bad Content-Length")
        if length > self.server.config.max_request_bytes:
            raise _HttpError(413, "request body too large")
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise _HttpError(408, "timed out reading the request body") from None
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError):
            # ValueError: bad UTF-8, bad JSON, or an integer of more than
            # sys.get_int_max_str_digits() digits; RecursionError: nesting
            # deeper than the interpreter's recursion limit
            raise _HttpError(400, "body must be UTF-8 JSON") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "body must be a JSON object")
        return payload

    def do_GET(self):
        if self.path == "/health":
            self._send_json(200, {"status": "ok", "model": self.server.model_hash})
        else:
            self._send_json(404, {"error": "not found"})

    def do_POST(self):
        try:
            if self.path == "/annotate":
                self._annotate()
            elif self.path == "/stats":
                self._stats()
            else:
                self._send_json(404, {"error": "not found"})
        except _HttpError as err:
            self._send_json(err.status, {"error": str(err)})
        except UdbridgeError as err:
            self._send_json(400, {"error": str(err)})
        except Exception:
            # nothing internal leaks to the client
            self._send_json(500, {"error": "internal error"})

    def _annotate(self) -> None:
        payload = self._read_body()
        text = _request_text(payload)
        fmt = payload.get("format", self.server.config.default_format)
        if fmt not in FORMATS:
            raise _HttpError(400, f"unknown format {fmt!r}")
        setting = EvalSetting.parse(payload.get("setting", EvalSetting.RAW_TEXT.value))
        source = text if setting is EvalSetting.RAW_TEXT else parse_conllu(text)
        with self.server.worker_slots:
            doc = annotate(source, self.server.model, setting)
        if fmt == "json":
            self._send_json(200, document_to_object(doc))
        elif fmt == "tsv":
            self._send_text(serialize_tsv(doc))
        else:
            self._send_text(serialize_conllu(doc))

    def _stats(self) -> None:
        payload = self._read_body()
        text = _request_text(payload)
        report = payload.get("report")
        if not isinstance(report, str) or report not in REPORT_COLUMNS:
            raise _HttpError(400, f"unknown report {report!r}")
        top_n = payload.get("top_n", 10)
        upos_filter = payload.get("upos_filter")
        min_weight = payload.get("min_weight", 1)
        # checked before annotation takes a worker slot
        if report == "top" and (type(top_n) is not int or top_n < 1):
            raise _HttpError(400, "top_n must be a positive integer")
        if report == "cooc" and not (isinstance(upos_filter, str) and upos_filter):
            raise _HttpError(400, "report 'cooc' needs upos_filter")
        if report == "cooc" and (type(min_weight) is not int or min_weight < 1):
            raise _HttpError(400, "min_weight must be a positive integer")
        with self.server.worker_slots:
            doc = annotate(text, self.server.model, EvalSetting.RAW_TEXT)
        if report == "cooc" and sum(comb(len(s), 2) for s in lemma_sets(doc, upos_filter)) > MAX_COOC_PAIRS:
            raise _HttpError(413, f"report 'cooc' would count over {MAX_COOC_PAIRS} lemma pairs")
        rows = report_rows(doc, report, top_n, upos_filter, min_weight)
        self._send_json(200, {"report": report, "rows": rows})


class AnnotationServer(ThreadingHTTPServer):
    daemon_threads = True
    # the default listen backlog of 5 drops connections under bursts
    request_queue_size = 128

    def __init__(self, config: ServiceConfig):
        self.config = config
        # hash the very bytes that were parsed: a second read could see
        # a file replaced in between
        data = read_model_file(config.model_path)
        self.model = PipelineModel.from_bytes(data, config.model_path)
        self.model_hash = short_hash(data)
        # taken only around annotation, after the request body has been
        # read and checked: a client that stalls mid-request holds none
        self.worker_slots = threading.BoundedSemaphore(config.workers)
        # this process's ends of the channels to forked workers (see serve)
        self.channels: list[socket.socket] = []
        self._turn = 0
        super().__init__((config.host, config.port), _Handler)

    def process_request(self, request, client_address):
        """Serve the connection here or hand it to the next worker in turn."""
        turn = self._turn
        self._turn = (turn + 1) % (len(self.channels) + 1)
        if turn:
            try:
                socket.send_fds(self.channels[turn - 1], [b"c"], [request.fileno()])
            except OSError:
                # the worker is gone: this process takes its turns
                self.channels.pop(turn - 1).close()
                self._turn = 0
            else:
                # close only this process's descriptor; shutting the socket
                # down would end the connection for the worker too
                self.close_request(request)
                return
        super().process_request(request, client_address)


def make_server(config: ServiceConfig) -> AnnotationServer:
    """Load the model and bind the listening socket. Port 0 picks a free port."""
    return AnnotationServer(config)


def serve(server: AnnotationServer) -> None:
    """Run `server` on `os.cpu_count()` processes until SIGINT or SIGTERM.

    The calling process forks one worker per CPU but its own, then accepts
    every connection and deals them round-robin (see the module docstring);
    `workers` caps concurrent annotations in each process. It serves alone
    on one CPU, without `os.fork` or `socket.send_fds`, or while another
    thread is alive. SIGINT or SIGTERM ends the call: the workers are
    killed and reaped, and the server is closed. Call it from the main
    thread, which receives the signals.
    """
    pids = []
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        if hasattr(socket, "send_fds") and can_fork():
            # the collector writes to every object it visits, which would
            # copy the shared model's pages into each process; frozen, it
            # leaves what exists now alone
            gc.freeze()
            for _ in range((os.cpu_count() or 1) - 1):
                pids.append(_fork_worker(server))
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        stop(pids)
        gc.unfreeze()
        for channel in server.channels:
            channel.close()
        server.server_close()


def _interrupt(signum, frame):
    # SIGTERM stops the server the way SIGINT does
    raise KeyboardInterrupt


def _fork_worker(server: AnnotationServer) -> int:
    """Fork a worker fed through a new channel in `server.channels`; return
    its pid."""
    ours, theirs = socket.socketpair()
    pid = fork(lambda channel: _work(server, channel), ours, theirs)
    server.channels.append(ours)
    return pid


def _work(server: AnnotationServer, channel: socket.socket) -> None:
    """A worker's loop: serve each connection that arrives on `channel` in
    a thread of this process, until the channel ends."""
    # Ctrl-C reaches the whole process group; the parent stops the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    server.socket.close()
    # the parent's ends of earlier workers' channels: held open here, they
    # would keep those workers from seeing the end of theirs
    for other in server.channels:
        other.close()
    server.channels = []
    while True:
        _, fds, _, _ = socket.recv_fds(channel, 1, 1)
        if not fds:
            return  # the parent closed the channel or died
        request = socket.socket(fileno=fds[0])
        try:
            address = request.getpeername()
        except OSError:  # the client is gone already
            request.close()
            continue
        server.process_request(request, address)
