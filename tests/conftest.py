import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test, compare's forks included, leaves no child process, running
    or exited, behind."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids that called os.fork during the test."""
    calls = []
    fork = os.fork

    def spy():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", spy)
    return calls
