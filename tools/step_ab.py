#!/usr/bin/env python3
"""Size a change to the lone full-batch step: two source trees, one process.

    python3 tools/step_ab.py SRC_A SRC_B

Each SRC is a directory holding the ``robustmsd`` package (``src/``) or a
checkout whose ``src/`` holds it.  The two trees are imported side by side
as ``robustmsd_a`` and ``robustmsd_b``.  Each round trains lone planar GD
runs (n = 100, seed 0, step size 0.01, a checkpoint every 100 steps) of
each criterion kind (ERM, the joint criterion, CVaR at xi = 0.5 and the
chi^2-DRO dual at eta_tilde = 0.5), 2 000 steps each, on both sides, in an
order that alternates between rounds.  Per side and criterion it prints
the median and quartiles of µs per step (checkpoints included), how many
rounds the side was the faster, and whether the two sides' final states
and trajectories agree bit for bit.  Needs only the stdlib and numpy.
"""

import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROUNDS = 20
STEPS = 2000


def package_root(src: str) -> Path:
    """The directory holding the ``robustmsd`` package: ``src`` or its ``src/``."""
    root = Path(src).resolve()
    if not (root / "robustmsd").is_dir():
        root = root / "src"
    if not (root / "robustmsd" / "__init__.py").is_file():
        sys.exit(f"error: no robustmsd package under {src}")
    return root


def load(src: str, name: str):
    """Import the ``robustmsd`` package under ``src`` as module ``name``."""
    pkg = package_root(src) / "robustmsd"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("criteria", "data", "harness", "optimizer"):
        importlib.import_module(f"{name}.{sub}")
    return module


class Side:
    """One source tree's planar task, ready to train each criterion."""

    def __init__(self, src: str, name: str):
        pkg = load(src, name)
        self.data = pkg.data.generate_2d_outlier(pkg.data.SynthConfig(n=100, seed=0))
        self.init = pkg.harness.build_initial_state(self.data)
        n_train = int(self.data.split_indices("train").size)
        lam = pkg.harness.default_lam(n_train)
        self.criteria = {
            "erm": pkg.criteria.CriterionParams("erm"),
            "joint": pkg.criteria.schedule_params(n_train, 0.9, lam),
            "cvar": pkg.criteria.CriterionParams("cvar", xi=0.5),
            "dro": pkg.criteria.CriterionParams("chisq_dro", eta_tilde=0.5),
        }
        self.config = pkg.optimizer.OptConfig(
            step_size=0.01, iterations=STEPS, checkpoint_every=100
        )
        self.run_batch_gd = pkg.optimizer.run_batch_gd

    def run(self, kind: str):
        """Seconds per step of one run, and its outputs as bytes."""
        start = time.perf_counter()
        result = self.run_batch_gd(self.criteria[kind], self.init, self.data, self.config)
        elapsed = time.perf_counter() - start
        state = result.final_state
        trajectory = np.array(
            [[r.checkpoint, r.mean_sd, r.mean_loss, r.error_rate, r.model_norm,
              r.objective, r.a, r.b] for r in result.trajectory]
        )
        splits = "".join(r.split for r in result.trajectory)
        out = state.h.tobytes() + np.array([state.a, state.b]).tobytes()
        return elapsed / STEPS, out + trajectory.tobytes() + splits.encode()


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: python3 tools/step_ab.py SRC_A SRC_B")
    sides = {"A": Side(argv[0], "robustmsd_a"), "B": Side(argv[1], "robustmsd_b")}
    kinds = ("erm", "joint", "cvar", "dro")
    times = {(s, k): [] for s in sides for k in kinds}
    outputs = {}
    for side in sides.values():  # warm-up, untimed
        for kind in kinds:
            side.run(kind)
    for r in range(ROUNDS):
        order = ("A", "B") if r % 2 == 0 else ("B", "A")
        for kind in kinds:
            for s in order:
                seconds, out = sides[s].run(kind)
                times[s, kind].append(1e6 * seconds)
                outputs.setdefault((s, kind), out)
    print(f"{ROUNDS} alternating rounds, {STEPS} lone planar GD steps per run")
    print(f"A = {argv[0]}\nB = {argv[1]}")
    for kind in kinds:
        a, b = times["A", kind], times["B", kind]
        wins = {"A": sum(x < y for x, y in zip(a, b)), "B": sum(y < x for x, y in zip(a, b))}
        same = outputs["A", kind] == outputs["B", kind]
        for s, xs in (("A", a), ("B", b)):
            q1, q2, q3 = quartiles(xs)
            print(
                f"{kind:5s} {s}: median {q2:7.2f} us/step  quartiles [{q1:.2f}, {q3:.2f}]"
                f"  wins {wins[s]}/{ROUNDS}"
            )
        print(f"{kind:5s} B/A median {statistics.median(b) / statistics.median(a):.3f}"
              f"  bitwise equal: {'yes' if same else 'NO'}")


if __name__ == "__main__":
    main(sys.argv[1:])
