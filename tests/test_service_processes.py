"""The service on one process per CPU: `service.serve` in this process, and
real `udbridge serve` processes watched through /proc."""

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from synth import make_corpus
from udbridge import service
from udbridge.conllu import serialize_conllu, serialize_tsv
from udbridge.pipeline import EvalSetting, PipelineModel, annotate, train_pipeline
from udbridge.service import ServiceConfig, make_server

SRC = Path(__file__).resolve().parents[1] / "src"

linux = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
two_or_more_cpus = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs")


@pytest.fixture(scope="module")
def model_path(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("fork_model") / "model.json")
    train_pipeline(make_corpus(120, seed=1), epochs=3).save(path)
    return path


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ------------------------------------------------------------ in process


def refuse_fork():
    raise AssertionError("serve forked")


@pytest.mark.parametrize("case", ["one CPU", "no send_fds", "no fork", "a second thread"])
def test_serve_stays_in_one_process(model_path, monkeypatch, case):
    monkeypatch.setattr(os, "cpu_count", lambda: 1 if case == "one CPU" else 2)
    if case == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", refuse_fork)
    if case == "no send_fds":
        monkeypatch.delattr(socket, "send_fds")
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if case == "a second thread":
        thread.start()
    srv = make_server(ServiceConfig(bind="127.0.0.1:0", model_path=model_path))
    srv.serve_forever = lambda: None
    try:
        service.serve(srv)
    finally:
        release.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert srv.channels == []
    assert srv.socket.fileno() == -1


def test_serve_forks_one_worker_per_further_cpu(model_path, two_cpus):
    srv = make_server(ServiceConfig(bind="127.0.0.1:0", model_path=model_path))
    seen = []
    srv.serve_forever = lambda: seen.append(list(srv.channels))
    before = signal.getsignal(signal.SIGTERM)
    service.serve(srv)
    assert len(two_cpus) == 1
    assert len(seen[0]) == 1 and seen[0][0].fileno() == -1
    assert srv.socket.fileno() == -1
    assert signal.getsignal(signal.SIGTERM) is before


# ------------------------------------------------------------- processes


def children(pid: int) -> list[int]:
    """Pids whose parent is `pid`."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # the process is gone
            continue
        if int(fields[1]) == pid:
            kids.append(int(stat.parent.name))
    return kids


def has_exited(pid: int) -> bool:
    """Gone, or a zombie that nobody has reaped yet."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
    except OSError:
        return True
    return state in ("Z", "X")


def socket_inodes(pid: int) -> set[int]:
    inodes = set()
    for fd in Path(f"/proc/{pid}/fd").iterdir():
        try:
            target = os.readlink(fd)
        except OSError:  # closed meanwhile
            continue
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:["):-1]))
    return inodes


def server_side_inode(server_port: int, client_port: int) -> int:
    """The inode of the server's end of the TCP connection from `client_port`."""
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        with open(table, encoding="ascii") as fh:
            rows = [line.split() for line in fh.readlines()[1:]]
        for row in rows:
            local, remote, inode = row[1], row[2], int(row[9])
            if (int(local.rpartition(":")[2], 16) == server_port
                    and int(remote.rpartition(":")[2], 16) == client_port):
                return inode
    raise AssertionError(f"no connection from port {client_port}")


def holders(server: subprocess.Popen, conn: http.client.HTTPConnection) -> list[int]:
    """The server processes that hold `conn`'s socket. The parent closes
    its copy of a dealt connection just after passing it on, so wait a
    little for that."""
    inode = server_side_inode(conn.port, conn.sock.getsockname()[1])
    deadline = time.monotonic() + 5
    while True:
        pids = [pid for pid in [server.pid, *children(server.pid)] if inode in socket_inodes(pid)]
        if len(pids) == 1 or time.monotonic() > deadline:
            return pids
        time.sleep(0.05)


@pytest.fixture
def start_server(model_path):
    """Starts `udbridge serve` processes; kills what is left at the end."""
    started = []

    def start(**env) -> subprocess.Popen:
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "udbridge", "serve", "--bind", "127.0.0.1:0",
             "--model", model_path],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=pythonpath, **env),
        )
        started.append(proc)
        line = proc.stderr.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)/", line)
        assert match, line
        proc.port = int(match.group(1))
        # the workers are forked before the first connection is accepted
        assert get(connect(proc), "/health")["status"] == "ok"
        return proc

    yield start
    for proc in started:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)
        proc.stderr.close()


def connect(server: subprocess.Popen) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)


def get(conn: http.client.HTTPConnection, path: str) -> dict:
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        assert resp.status == 200
        return json.loads(resp.read())
    finally:
        conn.close()


def post(conn: http.client.HTTPConnection, payload: dict) -> bytes:
    conn.request("POST", "/annotate", body=json.dumps(payload).encode("utf-8"))
    resp = conn.getresponse()
    body = resp.read()
    assert resp.status == 200 and not resp.will_close, body
    return body


@linux
@two_or_more_cpus
def test_two_keep_alive_connections_are_served_by_two_processes(start_server, model_path):
    server = start_server()
    texts = ["De man sjocht it hûs.", "De frou rint. De man rint.", "It hûs by de wei."]
    model = PipelineModel.load(model_path)
    expected = {}
    for text in texts:
        doc = annotate(text, model, EvalSetting.RAW_TEXT)
        expected[text, "conllu"] = serialize_conllu(doc).encode("utf-8")
        expected[text, "tsv"] = serialize_tsv(doc).encode("utf-8")
    conns = [connect(server), connect(server)]
    try:
        # one request each, in turn, so that both are accepted and dealt
        for conn in conns:
            assert post(conn, {"text": texts[0]}) == expected[texts[0], "conllu"]
        owners = [holders(server, conn) for conn in conns]
        assert [len(pids) for pids in owners] == [1, 1]
        assert owners[0] != owners[1]

        replies = {0: [], 1: []}

        def talk(k):
            for _ in range(5):
                for (text, fmt) in expected:
                    replies[k].append(((text, fmt), post(conns[k], {"text": text, "format": fmt})))

        threads = [threading.Thread(target=talk, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        for k in (0, 1):
            assert len(replies[k]) == 5 * len(expected)
            assert all(body == expected[key] for key, body in replies[k])
        # each connection stayed where it was dealt
        assert [holders(server, conn) for conn in conns] == owners
    finally:
        for conn in conns:
            conn.close()


@linux
@two_or_more_cpus
def test_sigterm_exits_zero_and_leaves_no_child(start_server):
    server = start_server()
    workers = children(server.pid)
    assert len(workers) == os.cpu_count() - 1
    server.send_signal(signal.SIGTERM)
    assert server.wait(timeout=10) == 0
    # reaped by the parent before it exited, so not even a zombie is left
    assert [pid for pid in workers if Path(f"/proc/{pid}").exists()] == []


@linux
@two_or_more_cpus
def test_workers_exit_when_the_parent_is_killed(start_server):
    server = start_server()
    workers = children(server.pid)
    assert workers
    server.kill()
    server.wait(timeout=10)
    deadline = time.monotonic() + 5
    while not all(has_exited(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert [pid for pid in workers if not has_exited(pid)] == []


@linux
@pytest.mark.skipif(sys.version_info < (3, 13), reason="PYTHON_CPU_COUNT is read from 3.13 on")
def test_one_cpu_serves_from_one_process(start_server):
    server = start_server(PYTHON_CPU_COUNT="1")
    assert children(server.pid) == []
    conns = [connect(server), connect(server)]
    try:
        for conn in conns:
            post(conn, {"text": "De man rint."})
        assert [holders(server, conn) for conn in conns] == [[server.pid], [server.pid]]
    finally:
        for conn in conns:
            conn.close()
    server.send_signal(signal.SIGTERM)
    assert server.wait(timeout=10) == 0
