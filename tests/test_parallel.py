"""run_calls: call 1 here, calls 2..k each in a forked child."""

import os

import pytest
from conftest import use_cpus

from robustmsd.parallel import ForkError, run_calls, usable_cpus


class Failed(Exception):
    pass


class Unpicklable(Exception):
    def __init__(self, text):
        super().__init__(text)
        self.callback = lambda: None  # pickle cannot send a lambda


class TwoArgs(Exception):
    def __init__(self, text, more):  # unpickling calls TwoArgs(text) and fails
        super().__init__(text)


def fail(text):
    def call():
        raise Failed(text)

    return call


def pid_and(value):
    return lambda: (os.getpid(), value)


def test_results_come_back_in_call_order_from_one_child_per_call(monkeypatch):
    use_cpus(monkeypatch, 3)
    results = run_calls([(f"call {i}", pid_and(i)) for i in range(4)])
    assert [value for _, value in results] == [0, 1, 2, 3]
    pids = [pid for pid, _ in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 4


@pytest.mark.parametrize("cpus", [1, None])  # one CPU, no os.fork
def test_calls_run_here_in_order_on_one_cpu_or_without_fork(monkeypatch, cpus):
    if cpus is None:
        monkeypatch.delattr(os, "fork")
    else:
        use_cpus(monkeypatch, cpus)
    assert usable_cpus() == 1
    ran = []
    calls = [(f"call {i}", lambda i=i: ran.append(i) or (os.getpid(), i)) for i in range(3)]
    assert run_calls(calls) == [(os.getpid(), i) for i in range(3)]
    assert ran == [0, 1, 2]


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize(
    "failing, expected",
    [
        ((0, 1, 2), "call 0"),  # the caller's exception wins over a child's
        ((1, 2), "call 1"),  # then the lowest child's
        ((2,), "call 2"),
    ],
)
def test_the_callers_exception_wins_then_the_lowest_childs(monkeypatch, cpus, failing, expected):
    use_cpus(monkeypatch, cpus)
    calls = [(f"call {i}", fail(f"call {i}") if i in failing else pid_and(i)) for i in range(3)]
    with pytest.raises(Failed, match=f"^{expected}$"):
        run_calls(calls)
    with pytest.raises(ChildProcessError):  # every child has been reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("error", [Unpicklable("no pickle"), TwoArgs("no pickle", "!")])
def test_an_exception_that_does_not_pickle_comes_back_as_runtime_error(monkeypatch, error):
    use_cpus(monkeypatch, 2)

    def unpicklable():
        raise error

    with pytest.raises(RuntimeError, match=f"^{type(error).__name__}: no pickle$"):
        run_calls([("here", pid_and(0)), ("there", unpicklable)])


def test_a_result_that_does_not_pickle_comes_back_as_runtime_error(monkeypatch):
    use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^(Pickling|Attribute)Error: .*lambda"):
        run_calls([("here", pid_and(0)), ("there", lambda: lambda: None)])


def test_a_child_that_ends_without_a_result_is_named(monkeypatch):
    use_cpus(monkeypatch, 3)
    calls = [("here", pid_and(0)), ("the first child", pid_and(1)),
             ("the second child", lambda: os._exit(3))]
    with pytest.raises(ForkError, match="^the second child ended without a result$"):
        run_calls(calls)
