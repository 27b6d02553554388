"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that os.fork makes during the test, in order."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def assert_reaped():
    """A check that this process has no child left, running or unreaped."""
    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return check
