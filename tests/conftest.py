import os

import pytest


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs, whatever the machine has, so that `parallel.map_jobs`
    forks; the fixture's value lists one entry per `os.fork` call."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    return calls
