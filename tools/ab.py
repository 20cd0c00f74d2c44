#!/usr/bin/env python3
"""Check that a change keeps its outputs: two source trees, one process per run.

    python3 tools/ab.py SRC_A SRC_B {step,sweep,verify} [--seed S] [--quick] [--config INI]

Each SRC holds the ``robustmsd`` package, or its ``src/`` does.  Each side
runs a ``WORKLOADS`` row twice, each run a fresh process in a fresh
directory, and every file the runs wrote, each command's standard output
(``stdout.txt``) included, is compared byte for byte; a difference, or a
command that exits non-zero, exits 1.  Where a run writes a
``manifest.json``, each side's count of diverged runs in it is printed, so
a sweep shows whether it reached the diverged-run path.  It times
nothing: timings come from ``perfbench/run.py`` pairs.  README.md ("Performance") has the details.
"""

import argparse
import csv
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

REPO = Path(__file__).resolve().parents[1]


class Workload(NamedTuple):
    """The config file a run gets as ``sweep.ini`` (None: no file) and the
    argvs it runs in order (``{seed}``/``{quick}`` filled)."""

    config: Optional[Path]
    commands: Tuple[str, ...]


GD = "train --data synth.csv --iterations 2000 --step-size 0.01 --checkpoint-every 100"
WORKLOADS = {
    "step": Workload(None, (
        "synth --n 100 --seed {seed}",
        f"{GD} --criterion erm --out erm",
        f"{GD} --criterion sunhuber --beta0 0.9 --out joint",
        f"{GD} --criterion cvar --xi 0.5 --out cvar",
        f"{GD} --criterion chisq_dro --eta-tilde 0.5 --out dro",
        "train --data bundled:credit690 --split-seed {seed} --preprocess --criterion sunhuber "
        "--epochs 3 --out sgd",
    )),
    "sweep": Workload(REPO / "configs" / "credit690.ini", (
        "experiment --config sweep.ini --out out --seed {seed}",
        "report --manifest out/manifest.json",
    )),
    "verify": Workload(None, ("verify --seed {seed} {quick}",)),
}

# argv: package root, then the JSON argvs; each command's stdout goes to
# stdout.txt; prints one JSON line of the exit codes and stderr texts
CHILD = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from robustmsd.cli import main
def run(argv):
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code or 0
codes, errs = [], []
with open("stdout.txt", "w", encoding="utf-8") as out:
    for argv in json.loads(sys.argv[2]):
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(run(argv))
        errs.append(err.getvalue())
print(json.dumps({"codes": codes, "stderr": errs}))
"""


def package_root(src: str) -> Path:
    """The directory holding the ``robustmsd`` package: ``src`` or its ``src/``."""
    root = Path(src).resolve()
    root = root if (root / "robustmsd").is_dir() else root / "src"
    if not (root / "robustmsd" / "__init__.py").is_file():
        sys.exit(f"error: no robustmsd package under {src}")
    return root


def run(root: Path, cwd: Path, config, commands):
    """One run in a fresh process and directory ``cwd``: (exit code, stderr)
    of each command, and {relative path: bytes} of every file in ``cwd``
    after it."""
    cwd.mkdir()
    if config is not None:
        (cwd / "sweep.ini").write_bytes(config)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(root), json.dumps(commands)],
                          capture_output=True, text=True, cwd=cwd)
    if proc.returncode != 0:
        sys.exit(f"error: a run from {root} failed:\n{proc.stderr}")
    child = json.loads(proc.stdout.splitlines()[-1])
    outputs = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*"))
               if p.is_file()}
    return list(zip(child["codes"], child["stderr"])), outputs


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
    return lines + [f"{s}'s own runs differ" for s, xs in outputs.items()
                    if xs.count(xs[0]) < len(xs)]


def diverged_runs(files):
    """``k of n`` runs of a run's ``manifest.json`` that have status
    ``diverged``, from its {relative path: bytes}; None without one."""
    name = next((n for n in sorted(files) if Path(n).name == "manifest.json"), None)
    if name is None:
        return None
    runs = [run for trial in json.loads(files[name])["trials"] for run in trial["runs"]]
    return f"{sum(run['status'] == 'diverged' for run in runs)} of {len(runs)}"


def main(argv):
    parser = argparse.ArgumentParser(prog="ab.py", description=__doc__.split("\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="verify --quick")
    parser.add_argument("--config", help="the sweep's config (default: configs/credit690.ini)")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.config is not None and w.config is None:
        parser.error("--config applies to the sweep workload")
    config = None if w.config is None else Path(args.config or w.config).read_bytes()
    fill = dict(seed=args.seed, quick="--quick" if args.quick else "")
    commands = [line.format(**fill).split() for line in w.commands]
    roots = {"A": package_root(args.src_a), "B": package_root(args.src_b)}
    print(f"{args.workload}, run twice from each tree:", *(
        f"  {' '.join(argv)}" for argv in commands),
          f"A = {args.src_a}", f"B = {args.src_b}", sep="\n")
    outputs = {"A": [], "B": []}
    with tempfile.TemporaryDirectory() as tmp:
        for r in (1, 2):
            for s in "AB":
                results, files = run(roots[s], Path(tmp) / f"{s}{r}", config, commands)
                failed = [f"{s}{r}: `{' '.join(argv)}` exited {code}; its stderr ends:\n"
                          + "\n".join(f"  {line}" for line in err.splitlines()[-5:])
                          for argv, (code, err) in zip(commands, results) if code != 0]
                if failed:
                    print(*failed, sep="\n", file=sys.stderr)
                    return 1
                outputs[s].append(files)
    differ = output_lines(outputs)
    diverged = [diverged_runs(outputs[s][0]) for s in "AB"]
    if diverged != [None, None]:
        print("runs diverged in manifest.json: {} in A, {} in B".format(*diverged))
    print(f"{len(outputs['A'][0])} files per run in A, {len(outputs['B'][0])} in B, "
          f"byte-identical: {'NO' if differ else 'yes'}", *differ, sep="\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
