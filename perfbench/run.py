"""robustmsd benchmark: time a workload end to end, or layer by layer.

    python3 perfbench/run.py --workload planar-gd --seed 0 --seconds 25 --trace 0

Closed loop, one client: each pass runs the workload's operations back to
back through ``robustmsd.cli.main`` in a fresh process (interpreter and
numpy/BLAS defaults, no extra threads), so ``getrusage`` gives the pass's
own peak resident set.  Inputs come from ``--seed`` and every output goes
to a scratch directory under ``.perfbench/`` that is removed at the end.

``--trace 0`` measures set-up several times, then runs untraced passes
until ``--seconds`` would be exceeded (at least one) and reports medians
of the end-to-end metrics.  ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics.  Every pass is checked: exit
codes, finite outputs, the stored reference at seed 0 and the paper's
gates.  The last line of standard output is the JSON result; the exit
code is 1 when a check fails, 2 when the benchmark cannot run at all.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CALIBRATIONS, WORKLOADS, failed_items

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEED = 0
REL_TOL = 1e-12  # largest relative drift from the reference that still matches
SETUP_SAMPLES = 3  # set-up-only processes after one discarded warm-up
PASS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def machine_record():
    record = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None}
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
    for level in ("L2", "L3"):
        record[f"{level}_cache"] = None
    try:
        lscpu = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        for level in ("L2", "L3"):
            if line.startswith(f"{level} cache:"):
                record[f"{level}_cache"] = line.split(":", 1)[1].strip()
    return record


class Bench:
    def __init__(self, args):
        self.workload = WORKLOADS[args.workload]
        self.seed = args.seed
        self.smoke = args.smoke
        self.work = self.workload.smoke_work if self.smoke else self.workload.work
        self.workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
        self.passes = 0
        self.attempted = 0
        self.failed = []
        self.gates = {}
        reference = REFERENCE_DIR / f"{args.workload}.json"
        self.reference = None
        compare = not (self.smoke or args.write_reference)
        if self.seed == REFERENCE_SEED and compare and reference.exists():
            self.reference = json.loads(reference.read_text(encoding="utf-8"))

    def spawn(self, mode):
        """Run one worker process; return its result with ``setup_s`` added."""
        pass_dir = self.workdir / f"pass{self.passes}"
        self.passes += 1
        pass_dir.mkdir(parents=True)
        argv = [
            sys.executable, str(HERE / "worker.py"), str(ROOT),
            self.workload.name, str(self.seed), str(pass_dir), mode,
        ] + (["--smoke"] if self.smoke else [])
        t_spawn = time.monotonic()
        proc = subprocess.run(
            argv, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} process exited with {proc.returncode}")
        out = json.loads(lines[-1])
        out["setup_s"] = out["ready"] - t_spawn
        out["dir"] = pass_dir
        if mode != "setup":
            self.check(out)
        if mode != "trace":
            shutil.rmtree(pass_dir)
        return out

    def check(self, out):
        w = self.workload
        items = w.collect(out["dir"], out["codes"], self.smoke)
        self.attempted += len(items)
        self.failed += failed_items(w, items, self.reference, REL_TOL)
        for gate, ok in w.gates(out["dir"], items, self.smoke).items():
            self.gates[gate] = self.gates.get(gate, True) and ok
        out["items"] = items

    def reference_speed_s(self, p):
        """A pass's op time rescaled to the reference calibration speed.

        The host's speed drifts by up to 2x over seconds to minutes; the
        calibration loop run between the ops drifts with it, so the ratio
        of op time to calibration time holds still.  The calibration's
        reference time turns the ratio back into seconds on a host running
        at reference speed.
        """
        ref_s = CALIBRATIONS[self.workload.calibration][1]
        return p["wall_s"] * ref_s / statistics.fmean(p["cal_s"])

    @property
    def correct(self):
        # the paper states its gates at the protocol's seeds; elsewhere they
        # are printed for information only
        gates_hold = all(self.gates.values()) or self.seed != REFERENCE_SEED
        return not self.failed and gates_hold


def end_to_end(bench, seconds):
    warm = bench.spawn("setup")  # first import in a checkout compiles bytecode
    setups = [bench.spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes = []
    t0 = time.monotonic()
    while True:
        passes.append(bench.spawn("pass"))
        setups.append(passes[-1]["setup_s"])
        elapsed = time.monotonic() - t0
        typical = statistics.median(p["wall_s"] + p["setup_s"] for p in passes)
        if elapsed + typical > seconds:
            break
    wall_s = statistics.median(bench.reference_speed_s(p) for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "ref_wall_s": wall_s,
        "ref_work_per_s": bench.work / wall_s,
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in passes),
    }
    samples = {
        "setup_s": len(setups), "ref_wall_s": len(passes),
        "ref_work_per_s": len(passes), "peak_rss_mb": len(passes),
    }
    extra = {
        "versions": warm["versions"],
        "blas_threads": warm["blas_threads"],
        "measured_pass_s": [p["wall_s"] for p in passes],
        "calibration_s": [p["cal_s"] for p in passes],
        "op_s": [p["op_s"] for p in passes],
    }
    return metrics, samples, extra


def per_layer(bench):
    plain = bench.spawn("pass")
    traced = bench.spawn("trace")
    metrics = dict(traced["layers"])
    untraced_s, traced_s = bench.reference_speed_s(plain), bench.reference_speed_s(traced)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    spans = bench.workdir.parent / f"spans-{bench.workload.name}.csv"
    os.replace(traced["dir"] / "spans.csv", spans)
    extra = {
        "spans": traced["spans"],
        "spans_file": str(spans.relative_to(ROOT)),
        "untraced_ref_wall_s": untraced_s,
        "traced_ref_wall_s": traced_s,
        "versions": plain["versions"],
        "blas_threads": plain["blas_threads"],
    }
    return metrics, {}, extra


def write_reference(bench):
    out = bench.spawn("pass")
    if not bench.correct:
        raise BenchError(f"refusing to store a failing reference: {bench.failed[:5]}")
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{bench.workload.name}.json"
    lines = ",\n".join(json.dumps(item) for item in out["items"])
    path.write_text(f"[\n{lines}\n]\n", encoding="utf-8")  # one item per line
    print(f"wrote {path}: {len(out['items'])} items")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time; defaults to run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shortened operations; skips the reference and gates")
    p.add_argument("--write-reference", action="store_true",
                   help=f"store the outputs of one pass at seed {REFERENCE_SEED}")
    return p.parse_args(argv)


def main(argv=None):
    # on SIGTERM, unwind so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "robustmsd" / "__init__.py").exists():
        print(f"error: no robustmsd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = Bench(args)
    try:
        if args.write_reference:
            if args.seed != REFERENCE_SEED or args.smoke:
                raise BenchError(f"the reference is taken at --seed {REFERENCE_SEED}")
            write_reference(bench)
            return 0
        if args.trace:
            metrics, samples, extra = per_layer(bench)
            wanted = spec["per_layer"]
        else:
            seconds = args.seconds or spec["run_seconds"]
            metrics, samples, extra = end_to_end(bench, seconds)
            wanted = spec["end_to_end"]
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)

    record = {
        "workload": bench.workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "work": f"{bench.work} {bench.workload.work_unit} per pass",
        "machine": machine_record(),
        "samples": samples,
        "reference_checked": bench.reference is not None,
        "gates": bench.gates,
        "gates_counted": args.seed == REFERENCE_SEED,
        "failed_items": bench.failed,
        "failed_frac": len(bench.failed) / bench.attempted,
        **extra,
    }
    result = {"correct": bench.correct, "attempted": bench.attempted,
              "failed": len(bench.failed), "metrics": {}}
    for m in wanted:
        value = metrics[m["name"]]
        result["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
        note = ", computed from array and file sizes" if m["unit"] == "bytes" else ""
        print(f"{m['name']} = {value!r} {m['unit']} "
              f"({samples.get(m['name'], 1)} samples, {m['better']} is better{note})")
    print(f"failed_frac = {record['failed_frac']!r} "
          f"({len(bench.failed)} of {bench.attempted} checked items)")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if bench.correct else 1


if __name__ == "__main__":
    sys.exit(main())
