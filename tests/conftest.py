"""Checks that run after every test."""

import os
import threading

import pytest


def use_cpus(monkeypatch, n):
    """Make ``run_calls`` see ``n`` CPUs: it forks where ``n`` > 1, and
    ``run_experiment`` cuts a trial into at most ``n`` parts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture(autouse=True)
def no_child_left():
    """Every process a test forks is reaped, and every thread it starts has
    ended, by the time it ends."""
    threads = threading.active_count()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads
