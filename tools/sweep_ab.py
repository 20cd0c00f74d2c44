#!/usr/bin/env python3
"""Size a change to the sweep's harness: two source trees, one process.

    python3 tools/sweep_ab.py SRC_A SRC_B [--seed S] [--config INI]

Each SRC is a directory holding the ``robustmsd`` package (``src/``) or a
checkout whose ``src/`` holds it; the two trees are imported side by side
as ``robustmsd_a`` and ``robustmsd_b`` (see ``tools/step_ab.py``).  Each of
``ROUNDS`` rounds runs ``experiment`` and then ``report`` through each
side's ``cli.main``, in an order that alternates between rounds.  By
default the sweep is one trial of the credit690 benchmark sweep (60 runs,
30 epochs, split seed ``--seed``); ``--config`` names another config file
instead, whose ``[data] path`` must be absolute or ``bundled:``.  Both
sides write to the same relative ``out`` directory under their own
temporary root, so their manifests' ``out_dir`` agree.  Per side it prints
the median and quartiles of seconds per sweep (experiment + report) and
how many rounds the side was the faster; then the two commands' exit
codes, which must be the same on both sides in every round (a sweep
whose runs all diverge has ``report`` exit 1 on both, and is still
compared), and whether the two output trees are equal byte for byte,
naming every file that differs.  Exits 1 when they differ, and with an
error when the exit codes do.  Needs only the stdlib and numpy.
"""

import argparse
import contextlib
import importlib
import io
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from step_ab import load, quartiles  # noqa: E402

ROUNDS = 5
OUT = "results/sweep"

# one trial of configs/credit690.ini
CREDIT_TRIAL = """\
[data]
path = bundled:credit690
format = csv

[experiment]
trials = 1
epochs = 30
batch_size = 32
lam = auto
step_sizes = 0.001, 0.003, 0.01, 0.03, 0.1

[methods]
sunhuber = 0.9
erm = yes
cvar = 0.1, 0.25, 0.5, 0.75, 0.9
chisq_dro = 0.1, 0.25, 0.5, 0.75, 0.9
"""


class Side:
    """One source tree's ``cli.main``, run in its own temporary root."""

    def __init__(self, src: str, name: str, root: Path, config: str):
        load(src, name)
        self.main = importlib.import_module(f"{name}.cli").main
        self.root = root
        (root / "sweep.ini").write_text(config, encoding="utf-8")

    def run(self, seed: int):
        """Seconds of one experiment + report, from a fresh output directory,
        and the two commands' exit codes; their output goes nowhere."""
        shutil.rmtree(self.root / OUT, ignore_errors=True)
        here = os.getcwd()
        os.chdir(self.root)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                codes = (
                    self.main(["experiment", "--config", "sweep.ini", "--out", OUT,
                               "--seed", str(seed)]),
                    self.main(["report", "--manifest", f"{OUT}/manifest.json"]),
                )
                elapsed = time.perf_counter() - start
        finally:
            os.chdir(here)
        return elapsed, codes

    def outputs(self):
        """Every file under the output directory, keyed by its relative path."""
        out = self.root / OUT
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}


def main(argv):
    parser = argparse.ArgumentParser(prog="sweep_ab.py", description=__doc__.split("\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None, help="config file (default: one credit690 trial)")
    args = parser.parse_args(argv)
    config = CREDIT_TRIAL if args.config is None else Path(args.config).read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for s, src in (("A", args.src_a), ("B", args.src_b)):
            (Path(tmp) / s).mkdir()
            sides[s] = Side(src, f"robustmsd_{s.lower()}", Path(tmp) / s, config)
        runs = {s: [side.run(args.seed)] for s, side in sides.items()}  # warm-up, untimed
        for r in range(ROUNDS):
            for s in ("A", "B") if r % 2 == 0 else ("B", "A"):
                runs[s].append(sides[s].run(args.seed))
        a_out, b_out = sides["A"].outputs(), sides["B"].outputs()
    codes = {s: {c for _, c in xs} for s, xs in runs.items()}
    if codes["A"] != codes["B"] or len(codes["A"]) != 1:
        sys.exit(f"error: exit codes (experiment, report) differ: A {sorted(codes['A'])}, "
                 f"B {sorted(codes['B'])}")
    (code,) = codes["A"]
    times = {s: [t for t, _ in xs[1:]] for s, xs in runs.items()}
    print(f"{ROUNDS} alternating rounds of experiment + report, seed {args.seed}, "
          f"config {args.config or 'one credit690 trial'}")
    print(f"A = {args.src_a}\nB = {args.src_b}")
    a, b = times["A"], times["B"]
    wins = {"A": sum(x < y for x, y in zip(a, b)), "B": sum(y < x for x, y in zip(a, b))}
    for s, xs in (("A", a), ("B", b)):
        q1, q2, q3 = quartiles(xs)
        print(f"{s}: median {q2:.3f} s  quartiles [{q1:.3f}, {q3:.3f}]"
              f"  wins {wins[s]}/{ROUNDS}")
    print(f"B/A median {statistics.median(b) / statistics.median(a):.3f}")
    print(f"exit codes (experiment, report) on both sides: {code}")
    differ = sorted(f for f in a_out.keys() | b_out.keys() if a_out.get(f) != b_out.get(f))
    print(f"{len(a_out)} files in A, {len(b_out)} in B, byte-identical: "
          f"{'NO' if differ else 'yes'}")
    for f in differ:
        print(f"  differs: {f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
