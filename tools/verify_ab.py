#!/usr/bin/env python3
"""Size a change to ``verify``: two source trees, one process per run.

    python3 tools/verify_ab.py SRC_A SRC_B [--seed S] [--quick]

Each SRC is a directory holding the ``robustmsd`` package (``src/``) or a
checkout whose ``src/`` holds it (see ``tools/step_ab.py``).  Each of
``ROUNDS`` rounds runs ``verify --seed S`` (with ``--quick`` if given) once
per side, in an order that alternates between rounds, each in a fresh
``python3`` process that imports that side's tree and reports the seconds
of the command and its own peak RSS (``getrusage(RUSAGE_SELF)``, which
includes the import).  One untimed run per side comes first.  Per side it
prints the median and quartiles of seconds, how many rounds the side was
the faster, and the median and largest peak RSS; then each property's
median seconds per side, from the ``time <property> <seconds> s`` lines
``verify`` writes to stderr, so a change shows which property it moved;
then whether every
``verify_report.csv`` the two sides wrote is the same byte for byte.
When they differ it prints each cell that differs between the first
report of each side, as the property and column with the A and B cells,
and exits 1; it exits with an error when the exit codes of ``verify``
differ.  Needs only the stdlib and numpy.
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

sys.path.insert(0, str(Path(__file__).resolve().parent))
from step_ab import package_root, quartiles  # noqa: E402

ROUNDS = 5

# argv: package root, then the cli arguments; prints one JSON line
CHILD = """\
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from robustmsd.cli import main
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    start = time.perf_counter()
    code = main(sys.argv[2:])
    seconds = time.perf_counter() - start
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"code": code, "seconds": seconds, "peak_kb": peak_kb,
                  "stderr": err.getvalue()}))
"""
# the wall-time line verify writes to stderr for each property
TIME_LINE = re.compile(r"^time (\S+) (\S+) s$", re.MULTILINE)


def run(root: Path, out: Path, flags):
    """One ``verify`` in a fresh process: (exit code, seconds, peak KiB,
    report bytes, {property: seconds})."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(root), "verify", *flags,
                           "--out", str(out)], capture_output=True, text=True, cwd=out.parent)
    if proc.returncode != 0:
        sys.exit(f"error: verify from {root} failed to run:\n{proc.stderr}")
    child = json.loads(proc.stdout.splitlines()[-1])
    report = (out / "verify_report.csv").read_bytes()
    times = {name: float(s) for name, s in TIME_LINE.findall(child["stderr"])}
    return child["code"], child["seconds"], child["peak_kb"], report, times


def differing_cells(report_a: bytes, report_b: bytes):
    """One line per cell that differs between two reports: property, column, A and B."""
    tables = [list(csv.reader(io.StringIO(r.decode()))) for r in (report_a, report_b)]
    header = tables[0][0]
    rows = [{row[0]: row for row in table[1:]} for table in tables]
    lines = []
    for prop in dict.fromkeys([*rows[0], *rows[1]]):
        a, b = (side.get(prop) for side in rows)
        if a is None or b is None:
            lines.append(f"  {prop}: only in {'A' if b is None else 'B'}")
            continue
        for column, cell_a, cell_b in zip(header[1:], a[1:], b[1:]):
            if cell_a != cell_b:
                lines.append(f"  {prop} {column}: A {cell_a!r}  B {cell_b!r}")
    return lines


def property_lines(times_a, times_b):
    """One line per property: its median seconds on each side and B/A; each
    side's ``times`` hold one {property: seconds} per run."""
    lines = []
    for name in dict.fromkeys(name for t in (*times_a, *times_b) for name in t):
        a, b = (statistics.median(t.get(name, math.nan) for t in ts) for ts in (times_a, times_b))
        ratio = b / a if a else math.nan  # verify writes its times to 1 ms
        lines.append(f"  {name:<32} {a:8.3f} {b:8.3f} {ratio:8.3f}")
    return lines


def main(argv):
    parser = argparse.ArgumentParser(prog="verify_ab.py", description=__doc__.split("\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    flags = ["--seed", str(args.seed)] + (["--quick"] if args.quick else [])
    roots = {"A": package_root(args.src_a), "B": package_root(args.src_b)}
    runs = {"A": [], "B": []}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(ROUNDS + 1):  # round 0 is the untimed warm-up
            for s in ("A", "B") if r % 2 == 0 else ("B", "A"):
                runs[s].append(run(roots[s], Path(tmp) / f"{s}{r}", flags))
    codes = {s: {x[0] for x in xs} for s, xs in runs.items()}
    if codes["A"] != codes["B"] or len(codes["A"]) != 1:
        sys.exit(f"error: verify exit codes differ: A {sorted(codes['A'])}, "
                 f"B {sorted(codes['B'])}")
    print(f"{ROUNDS} alternating rounds of verify {' '.join(flags)}")
    print(f"A = {args.src_a}\nB = {args.src_b}")
    times = {s: [x[1] for x in xs[1:]] for s, xs in runs.items()}
    a, b = times["A"], times["B"]
    wins = {"A": sum(x < y for x, y in zip(a, b)), "B": sum(y < x for x, y in zip(a, b))}
    for s, xs in runs.items():
        q1, q2, q3 = quartiles(times[s])
        peaks = [x[2] / 1024 for x in xs[1:]]
        print(f"{s}: median {q2:.3f} s  quartiles [{q1:.3f}, {q3:.3f}]  wins {wins[s]}/{ROUNDS}"
              f"  peak RSS median {statistics.median(peaks):.1f} MB, max {max(peaks):.1f} MB")
    print(f"B/A median {statistics.median(b) / statistics.median(a):.3f}")
    print("median seconds per property:          A        B      B/A")
    print("\n".join(property_lines(*([x[4] for x in runs[s][1:]] for s in ("A", "B")))))
    print(f"verify exit code on both sides: {next(iter(codes['A']))}")
    reports = {s: {x[3] for x in xs} for s, xs in runs.items()}
    same = len(reports["A"] | reports["B"]) == 1
    print(f"{2 * (ROUNDS + 1)} verify_report.csv files byte-identical: {'yes' if same else 'NO'}")
    if not same:
        print("cells that differ between A's and B's first reports:")
        print("\n".join(differing_cells(runs["A"][0][3], runs["B"][0][3]) or ["  (none)"]))
        for s, side in reports.items():
            if len(side) > 1:
                print(f"{s}'s own reports differ between rounds")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
