"""One pass of a workload in a fresh process.

    python3 worker.py ROOT WORKLOAD SEED WORKDIR MODE [--smoke]

MODE is ``setup`` (import robustmsd, generate the inputs, report when the
first operation is ready and exit), ``pass`` (then run every operation
back to back, untraced) or ``trace`` (the same with the tracer installed
before set-up; spans are written to WORKDIR/spans.csv).  A calibration
loop runs before each operation and after the last one.  The last line of
standard output is one JSON object; the benchmark process reads it.
"""

import contextlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    import ctypes
    import glob
    import os

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv):
    root, workload, seed, workdir, mode = argv[:5]
    smoke = "--smoke" in argv[5:]
    sys.path.insert(0, str(Path(root) / "src"))
    import robustmsd.cli as cli
    from workloads import CALIBRATIONS, WORKLOADS

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = Path(workdir)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        ops = WORKLOADS[workload].setup(cli.main, workdir, int(seed), smoke)
    out = {"ready": time.monotonic()}
    if mode != "setup":
        calibrate = CALIBRATIONS[WORKLOADS[workload].calibration][0]
        out.update(run_ops(cli.main, ops, calibrate, tracer, sink))
        if tracer is not None:
            out["layers"] = tracer.layer_metrics(out["wall_s"])
            out["spans"] = len(tracer.start)
            tracer.write_spans(workdir / "spans.csv")
    import numpy
    import scipy

    out["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    out["blas_threads"] = blas_threads()
    print(json.dumps(out))
    return 0


def run_ops(cli_main, ops, calibrate, tracer, sink):
    """Issue the ops back to back with calibration between them.

    Returns exit codes, per-op wall times, calibration times and peak RSS.
    """
    codes, op_s, cal_s = [], [], []
    calibrate()  # the first call in a process is slow; it is not a sample
    with contextlib.redirect_stdout(sink):
        for i, argv_op in enumerate(ops):
            cal_s.append(calibrate())
            t_op = time.perf_counter()
            try:
                if tracer is None:
                    code = cli_main(argv_op)
                else:
                    tracer.op = i
                    code = tracer.call("cli.main", cli_main, argv_op)
            except Exception as err:  # an operation that raised has failed
                code = f"{type(err).__name__}: {err}"
            op_s.append(time.perf_counter() - t_op)
            codes.append(code)
    cal_s.append(calibrate())
    return {
        "wall_s": sum(op_s),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "codes": codes,
        "op_s": op_s,
        "cal_s": cal_s,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
