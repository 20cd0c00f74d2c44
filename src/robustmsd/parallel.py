"""Run a few calls at once: the first in the caller, the rest in forked children.

A forked child starts with the caller's imports and data in place, so it
pays neither a fresh import of scipy nor a pickled copy of its inputs;
only its result crosses back, pickled down a pipe.
"""

import os
import pickle
from typing import Any, Callable, List, NoReturn, Sequence, Tuple

__all__ = ["ForkError", "run_calls", "usable_cpus"]


class ForkError(RuntimeError):
    """A forked call ended without sending its result back."""


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _child(write: int, call: Callable[[], Any]) -> NoReturn:
    """In a forked child: send ``(error, call())`` down the pipe ``write``
    (error None, or the exception ``call`` raised, and no result), then
    leave through ``os._exit`` without running the caller's cleanup."""
    code = 1
    try:
        try:
            message = (None, call())
        except BaseException as err:  # every exit of the child goes through the pipe
            message = (err, None)
        try:
            payload = pickle.dumps(message)
            if message[0] is not None:
                pickle.loads(payload)  # an exception class may not rebuild from its args
        except Exception as err:  # keep the type name and text of what does not pickle
            failed = message[0] or err
            payload = pickle.dumps((RuntimeError(f"{type(failed).__name__}: {failed}"), None))
        with open(write, "wb") as f:
            f.write(payload)
        code = 0
    finally:
        os._exit(code)


def run_calls(calls: Sequence[Tuple[str, Callable[[], Any]]]) -> List[Any]:
    """Run each named call of ``calls`` and return their results in call order.

    Calls 2..k each run in their own forked child while call 1 runs here;
    where the platform cannot fork or the process may run on one CPU only
    (``usable_cpus``), every call runs here, in order.  Call 1's exception
    wins, else the lowest child's (an exception that does not pickle and
    unpickle comes back as a ``RuntimeError`` with its type name and
    text), and a child that ends without a result raises ``ForkError``
    naming its call.  Every child has been reaped when this returns or
    raises.

    The caller must run no other Python thread, as a forked child holds a
    copy of only the forking one; numpy's OpenBLAS stops its own pool
    before a fork (a ``pthread_atfork`` handler).
    """
    if len(calls) < 2 or usable_cpus() < 2:
        return [call() for _, call in calls]
    pids, reads = [], []
    try:
        for _, call in calls[1:]:
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:  # the child leaves inside _child
                    _child(write, call)
            finally:
                os.close(write)
            pids.append(pid)
        results = [calls[0][1]()]
        for (name, _), read in zip(calls[1:], reads):
            with open(read, "rb", closefd=False) as f:
                payload = f.read()
            try:
                error, result = pickle.loads(payload)
            except (EOFError, pickle.UnpicklingError):  # no payload, or one cut short
                raise ForkError(f"{name} ended without a result") from None
            if error is not None:
                raise error
            results.append(result)
        return results
    finally:
        for read in reads:  # a child still writing gets a broken pipe and exits
            os.close(read)
        for pid in pids:
            os.waitpid(pid, 0)
