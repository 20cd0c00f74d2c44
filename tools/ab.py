#!/usr/bin/env python3
"""Size a change and check its outputs: two source trees, one process per run.

    python3 tools/ab.py SRC_A SRC_B {step,sweep,verify} [--seed S] [--quick] [--config INI]

Each SRC holds the ``robustmsd`` package, or its ``src/`` does.  Each run of
a ``WORKLOADS`` row is a fresh process in a fresh directory; after one
untimed round the sides alternate in order.  It prints timings and peak
RSS per side and compares every file the runs wrote byte for byte; any
difference exits 1.  README.md ("Performance") has the details.
"""

import argparse
import csv
import io
import json
import math
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, NamedTuple, Tuple

# one trial of configs/credit690.ini (format and lam at their defaults); the
# commands set its out and seed
CREDIT_TRIAL = """\
[data]
path = bundled:credit690
[experiment]
trials = 1
epochs = 30
batch_size = 32
step_sizes = 0.001, 0.003, 0.01, 0.03, 0.1
[methods]
sunhuber = 0.9
erm = yes
cvar = 0.1, 0.25, 0.5, 0.75, 0.9
chisq_dro = 0.1, 0.25, 0.5, 0.75, 0.9
"""


class Workload(NamedTuple):
    """Files to write, set-up and named timed argvs (``{seed}``/``{quick}`` filled), rounds."""

    files: Dict[str, str]
    setup: Tuple[str, ...]
    timed: Dict[str, str]
    rounds: int


GD = "train --data synth.csv --iterations 2000 --step-size 0.01 --checkpoint-every 100"
WORKLOADS = {
    "step": Workload({}, ("synth --n 100 --seed {seed}",), {
        "erm": f"{GD} --criterion erm --out erm",
        "joint": f"{GD} --criterion sunhuber --beta0 0.9 --out joint",
        "cvar": f"{GD} --criterion cvar --xi 0.5 --out cvar",
        "dro": f"{GD} --criterion chisq_dro --eta-tilde 0.5 --out dro",
    }, 20),
    "sweep": Workload({"sweep.ini": CREDIT_TRIAL}, (), {
        "experiment": "experiment --config sweep.ini --out out --seed {seed}",
        "report": "report --manifest out/manifest.json",
    }, 5),
    "verify": Workload({}, (), {"verify": "verify --seed {seed} {quick}"}, 5),
}

# argv: package root, then JSON [set-up argvs, timed argvs]; prints one JSON line
CHILD = """\
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from robustmsd.cli import main
def run(argv):
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code
setup, timed = json.loads(sys.argv[2])
err, seconds = io.StringIO(), []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    codes = [run(argv) for argv in setup]
    for argv in timed:
        start = time.perf_counter()
        codes.append(run(argv))
        seconds.append(time.perf_counter() - start)
print(json.dumps({"codes": codes, "seconds": seconds, "stderr": err.getvalue(),
                  "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""
TIME_LINE = re.compile(r"^time (\S+) (\S+) s$", re.MULTILINE)  # verify's, per property


def package_root(src: str) -> Path:
    """The directory holding the ``robustmsd`` package: ``src`` or its ``src/``."""
    root = Path(src).resolve()
    root = root if (root / "robustmsd").is_dir() else root / "src"
    if not (root / "robustmsd" / "__init__.py").is_file():
        sys.exit(f"error: no robustmsd package under {src}")
    return root


def run(root: Path, cwd: Path, files, setup, timed):
    """One run in a fresh process and directory ``cwd``: its exit codes, the
    seconds of each timed command and stderr time line by name, its peak KiB
    and {relative path: bytes} of every file in ``cwd`` after it."""
    cwd.mkdir()
    for name, text in files.items():
        (cwd / name).write_text(text, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(root),
                           json.dumps([setup, list(timed.values())])],
                          capture_output=True, text=True, cwd=cwd)
    if proc.returncode != 0:
        sys.exit(f"error: a run from {root} failed:\n{proc.stderr}")
    child = json.loads(proc.stdout.splitlines()[-1])
    times = dict(zip(timed, child["seconds"]))
    times.update((name, float(s)) for name, s in TIME_LINE.findall(child["stderr"]))
    outputs = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*"))
               if p.is_file()}
    return tuple(child["codes"]), times, child["peak_kb"], outputs


def quartiles(xs):
    """(first quartile, median, third quartile) of ``xs``; one value is all three."""
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3


def differing_cells(file_a: bytes, file_b: bytes):
    """One line per cell that differs between two CSV files (the row's key,
    the column, the A and B cells) and per row on one side only.  A row's
    key is its fewest leading cells that tell apart the rows of each file,
    or its line number if no number of them does."""
    header, *rows_a = csv.reader(io.StringIO(file_a.decode()))
    rows_b = list(csv.reader(io.StringIO(file_b.decode())))[1:]
    width = next((k for k in range(1, len(header) + 1) if all(
        len({tuple(r[:k]) for r in rows}) == len(rows) for rows in (rows_a, rows_b))), 0)
    tables = [{" ".join(row[:width]) if width else f"line {i}": row
               for i, row in enumerate(rows, start=2)} for rows in (rows_a, rows_b)]
    lines = []
    for key in dict.fromkeys([*tables[0], *tables[1]]):
        a, b = (table.get(key) for table in tables)
        if a is None or b is None:
            lines.append(f"  {key}: only in {'A' if b is None else 'B'}")
        else:
            lines += [f"  {key} {column}: A {x!r}  B {y!r}"
                      for column, x, y in zip(header[width:], a[width:], b[width:]) if x != y]
    return lines


def property_lines(times_a, times_b):
    """One line per name: its median seconds on each side and B/A; each
    side's ``times`` hold one {name: seconds} per run."""
    lines = []
    for name in dict.fromkeys(name for t in (*times_a, *times_b) for name in t):
        a, b = (statistics.median(t.get(name, math.nan) for t in ts) for ts in (times_a, times_b))
        ratio = b / a if a else math.nan  # verify writes its times to 1 ms
        lines.append(f"  {name:<32} {a:8.3f} {b:8.3f} {ratio:8.3f}")
    return lines


def output_lines(outputs):
    """One line per difference between the sides' first runs' files, and per
    side whose own runs' files differ; ``outputs`` holds each side's
    {relative path: bytes} per run."""
    a, b = outputs["A"][0], outputs["B"][0]
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            lines.append(f"only in {'A' if name in a else 'B'}: {name}")
        elif a[name] != b[name]:
            lines.append(f"differs: {name}")
            if name.endswith(".csv") and a[name]:
                lines += differing_cells(a[name], b[name])
    return lines + [f"{s}'s own rounds differ" for s, xs in outputs.items()
                    if xs.count(xs[0]) < len(xs)]


def main(argv):
    parser = argparse.ArgumentParser(prog="ab.py", description=__doc__.split("\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="verify --quick")
    parser.add_argument("--config", help="the sweep's config (default: one credit690 trial)")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.config is not None and "sweep.ini" not in w.files:
        parser.error("--config applies to the sweep workload")
    files = w.files if args.config is None else {
        **w.files, "sweep.ini": Path(args.config).read_text(encoding="utf-8")}
    fill = dict(seed=args.seed, quick="--quick" if args.quick else "")
    setup = [line.format(**fill).split() for line in w.setup]
    timed = {name: line.format(**fill).split() for name, line in w.timed.items()}
    roots = {"A": package_root(args.src_a), "B": package_root(args.src_b)}
    runs = {"A": [], "B": []}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(w.rounds + 1):  # round 0 is the untimed warm-up
            for s in ("A", "B") if r % 2 == 0 else ("B", "A"):
                runs[s].append(run(roots[s], Path(tmp) / f"{s}{r}", files, setup, timed))
    codes = {s: {x[0] for x in xs} for s, xs in runs.items()}
    if codes["A"] != codes["B"] or len(codes["A"]) != 1:
        sys.exit(f"error: exit codes differ: A {sorted(codes['A'])}, B {sorted(codes['B'])}")
    print(f"{w.rounds} alternating rounds of {args.workload}:", *(
        f"  {name}: {' '.join(argv)}" for name, argv in timed.items()),
          f"A = {args.src_a}", f"B = {args.src_b}", sep="\n")
    times = {s: [x[1] for x in xs[1:]] for s, xs in runs.items()}
    seconds = {s: [sum(t[name] for name in timed) for t in ts] for s, ts in times.items()}
    wins = {s: sum(x < y for x, y in zip(seconds[s], seconds[o])) for s, o in ("AB", "BA")}
    for s, xs in runs.items():
        q1, q2, q3 = quartiles(seconds[s])
        peaks = [x[2] / 1024 for x in xs[1:]]
        print(f"{s}: median {q2:.3f} s  quartiles [{q1:.3f}, {q3:.3f}]  wins {wins[s]}/{w.rounds}"
              f"  peak RSS median {statistics.median(peaks):.1f} MB, max {max(peaks):.1f} MB")
    print(f"B/A median {statistics.median(seconds['B']) / statistics.median(seconds['A']):.3f}")
    # each round's B over the same round's A: a drift between rounds cancels
    q1, q2, q3 = quartiles([b / a for a, b in zip(seconds["A"], seconds["B"])])
    print(f"per-round B/A median {q2:.3f}  quartiles [{q1:.3f}, {q3:.3f}]")
    print(f"{'median seconds':<42}A{'B':>9}{'B/A':>9}", *property_lines(times["A"], times["B"]),
          f"exit codes on both sides: {list(next(iter(codes['A'])))}", sep="\n")
    outputs = {s: [x[3] for x in xs] for s, xs in runs.items()}
    differ = output_lines(outputs)
    print(f"{len(outputs['A'][0])} files per run in A, {len(outputs['B'][0])} in B, "
          f"byte-identical: {'NO' if differ else 'yes'}", *differ, sep="\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
