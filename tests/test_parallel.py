import os
import threading
import time

import pytest

from udbridge import parallel
from udbridge.errors import ConlluParseError, DataError
from udbridge.parallel import map_jobs


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def refuse_fork():
    raise AssertionError("map_jobs forked")


@pytest.mark.parametrize("n", [1, 2, 5])
def test_results_come_back_in_item_order(two_cpus, n):
    parent = os.getpid()
    results = map_jobs(lambda x: (x * x, os.getpid()), range(n))
    assert [square for square, _ in results] == [x * x for x in range(n)]
    assert [pid == parent for _, pid in results] == [i % 2 == 0 for i in range(n)]
    assert len(two_cpus) == (n > 1)


def test_no_fork_on_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", refuse_fork)
    assert map_jobs(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]


def test_no_fork_without_os_fork(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert map_jobs(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]


def test_no_fork_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", refuse_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert map_jobs(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_nested_map_jobs_runs_inline(two_cpus):
    def job(x):
        return map_jobs(lambda y: os.getpid(), range(3))

    outer = map_jobs(job, range(2))
    assert len(two_cpus) == 1
    assert outer[0] == [os.getpid()] * 3
    assert outer[1][0] != os.getpid() and outer[1] == [outer[1][0]] * 3
    assert parallel._running is False


@pytest.mark.parametrize("error", [
    DataError("sentence 4: token 2 has no head"),
    ConlluParseError("expected 10 columns, found 3", line=7),
])
def test_a_childs_error_keeps_its_type_message_and_line(two_cpus, error):
    def job(x):
        if x == 1:  # item 1 runs in the child
            raise error
        return x

    with pytest.raises(type(error)) as caught:
        map_jobs(job, range(2))
    assert len(two_cpus) == 1
    assert type(caught.value) is type(error)
    assert str(caught.value) == str(error)
    assert getattr(caught.value, "line", None) == getattr(error, "line", None)


@pytest.mark.parametrize("failing, first", [
    ({0, 1}, 0),  # the caller's own job comes first
    ({1, 2}, 1),  # the child's comes first, though the caller's failed too
    ({3, 4}, 3),
])
def test_the_first_failing_job_in_item_order_wins(two_cpus, failing, first):
    def job(x):
        if x in failing:
            raise DataError(f"job {x}")
        return x

    with pytest.raises(DataError, match=f"^job {first}$"):
        map_jobs(job, range(5))
    assert len(two_cpus) == 1


def test_a_child_that_dies_is_a_runtime_error(two_cpus):
    parent = os.getpid()

    def job(x):
        if os.getpid() != parent:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="status 3"):
        map_jobs(job, range(2))


@pytest.mark.parametrize("error", [KeyboardInterrupt, DataError])
def test_a_failure_in_the_callers_first_job_kills_the_child(two_cpus, error):
    parent = os.getpid()

    def job(x):
        if os.getpid() == parent:
            raise error
        time.sleep(30)
        return x

    start = time.monotonic()
    with pytest.raises(error):
        map_jobs(job, range(2))
    assert time.monotonic() - start < 10  # killed, not waited for
    assert parallel._running is False
