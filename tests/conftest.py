"""Checks that run after every test."""

import os
import threading

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Every process a test forks is reaped, and every thread it starts has
    ended, by the time it ends."""
    threads = threading.active_count()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads
