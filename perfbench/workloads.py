"""Workload definitions: inputs from the seed, CLI operations, output checks.

Each workload has three parts:

- ``setup(main, workdir, seed, smoke)`` runs inside the pass process after
  ``import robustmsd`` and before timing starts.  It writes the generated
  inputs and returns the ``robustmsd`` argument vectors that make up one
  pass.
- ``collect(workdir, codes, smoke)`` runs in the benchmark process after a
  pass.  It reads the files the pass wrote (stdlib only) and returns the
  checked items: one per operation the failure base counts.
- ``gates(workdir, items, smoke)`` evaluates the paper's acceptance
  conditions on those outputs and returns ``{gate name: passed}``; the
  all-PASS condition of ``verify`` is an item check instead.

This module does not import robustmsd: the benchmark process only reads
files, and the pass process passes its own ``main`` in.
"""

import csv
import json
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Tuple

PLANAR_BETA0 = (0.3, 0.6, 0.9)
PLANAR_SEEDS = 5
PLANAR_CRITERIA = [("erm", ["--criterion", "erm"])] + [
    (f"sunhuber{b:g}", ["--criterion", "sunhuber", "--beta0", repr(b)])
    for b in PLANAR_BETA0
]

CREDIT_CONFIG = """\
[data]
path = bundled:credit690
format = csv

[experiment]
trials = 1
seed = 0
epochs = {epochs}
batch_size = 32
lam = auto
step_sizes = {steps}
out = results/credit690

[methods]
sunhuber = 0.9
erm = yes
cvar = {levels}
chisq_dro = {levels}
"""

# columns after (checkpoint, split) in a trajectory CSV
METRIC_COLUMNS = (
    "mean_sd", "mean_loss", "error_rate", "model_norm", "objective", "a", "b",
)
# a and b are nan by design where a criterion does not optimize them
ALWAYS_FINITE = METRIC_COLUMNS[:5]


def final_rows(path):
    """Rows of the last checkpoint: [checkpoint, split, *metrics as floats]."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    last = max(int(r[0]) for r in rows)
    return [
        [int(r[0]), r[1]] + [float(v) for v in r[2:]]
        for r in rows
        if int(r[0]) == last
    ]


def rows_finite(rows):
    for row in rows:
        metrics = dict(zip(METRIC_COLUMNS, row[2:]))
        if not all(math.isfinite(metrics[m]) for m in ALWAYS_FINITE):
            return False
        if any(math.isinf(metrics[m]) for m in ("a", "b")):
            return False
    return True


def _status(code):
    return "ok" if code == 0 else f"exit {code}"


# --------------------------------------------------------------- planar-gd


def planar_setup(main, workdir, seed, smoke):
    n_seeds = 1 if smoke else PLANAR_SEEDS
    iterations = "300" if smoke else "15000"
    ops = []
    for k in range(n_seeds):
        data = workdir / f"data{k}"
        main(["synth", "--n", "100", "--seed", str(seed + k), "--out", str(data)])
        for name, flags in PLANAR_CRITERIA:
            ops.append([
                "train", "--data", str(data / "synth.csv"), *flags,
                "--iterations", iterations, "--checkpoint-every", "100",
                "--step-size", "0.01", "--lam", "auto",
                "--out", str(workdir / "runs" / f"data{k}_{name}"),
            ])
    return ops


def planar_collect(workdir, codes, smoke):
    items = []
    names = [name for name, _ in PLANAR_CRITERIA]
    for i, code in enumerate(codes):
        k, name = divmod(i, len(names))
        item = {"id": f"data{k}_{names[name]}", "status": _status(code)}
        if code == 0:
            item["final"] = final_rows(
                workdir / "runs" / item["id"] / "trajectory.csv"
            )
        items.append(item)
    return items


def planar_gates(workdir, items, smoke):
    """Criterion 9: the joint criterion beats ERM on final train mean-SD.

    (a) each beta0 wins on at least 4 of 5 data seeds; (b) each beta0 has
    error rate <= 0.05 on at least 4 of 5; (c) ERM's mean-SD is >= 1.1x
    the joint criterion's on every (seed, beta0) pair.
    """
    if smoke:
        return {}
    final = {it["id"]: it.get("final") for it in items}
    if any(v is None for v in final.values()):
        return {"criterion9": False}
    msd_col = 2 + METRIC_COLUMNS.index("mean_sd")
    err_col = 2 + METRIC_COLUMNS.index("error_rate")
    wins = {b: 0 for b in PLANAR_BETA0}
    err_ok = {b: 0 for b in PLANAR_BETA0}
    dominated = 0
    for k in range(PLANAR_SEEDS):
        erm_msd = final[f"data{k}_erm"][-1][msd_col]
        for b in PLANAR_BETA0:
            row = final[f"data{k}_sunhuber{b:g}"][-1]
            wins[b] += row[msd_col] < erm_msd
            err_ok[b] += row[err_col] <= 0.05
            dominated += erm_msd >= 1.1 * row[msd_col]
    return {
        "criterion9.a_wins": all(wins[b] >= 4 for b in PLANAR_BETA0),
        "criterion9.b_error": all(err_ok[b] >= 4 for b in PLANAR_BETA0),
        "criterion9.c_dominated": dominated == PLANAR_SEEDS * len(PLANAR_BETA0),
    }


# ------------------------------------------------------------ credit-sweep
# The sweep's trial t uses split seed ``seed + t``, so one ``experiment``
# per trial (``trials = 1``, ``--seed s+t``) trains exactly the runs of the
# five-trial sweep, and the calibration between ops samples the machine's
# speed five times along the sweep instead of once.

CREDIT_TRIALS = 5
CREDIT_RUNS_PER_TRIAL = 60


def credit_setup(main, workdir, seed, smoke):
    config = workdir / "credit690.ini"
    levels = "0.5" if smoke else "0.1, 0.25, 0.5, 0.75, 0.9"
    config.write_text(
        CREDIT_CONFIG.format(
            epochs=2 if smoke else 30,
            steps="0.01" if smoke else "0.001, 0.003, 0.01, 0.03, 0.1",
            levels=levels,
        ),
        encoding="utf-8",
    )
    ops = []
    for t in range(1 if smoke else CREDIT_TRIALS):
        exp = workdir / f"trial{t}"
        ops.append([
            "experiment", "--config", str(config), "--seed", str(seed + t),
            "--out", str(exp),
        ])
        ops.append(["report", "--manifest", str(exp / "manifest.json")])
    return ops


def credit_collect(workdir, codes, smoke):
    items = []
    for t, (code_exp, code_rep) in enumerate(zip(codes[::2], codes[1::2])):
        exp = workdir / f"trial{t}"
        if code_exp == 0:
            manifest = json.loads((exp / "manifest.json").read_text(encoding="utf-8"))
            for run in manifest["trials"][0]["runs"]:
                item = {
                    "id": f"trial{t}/{run['method']}/{run['setting']}/"
                    f"{run['step_size']:g}",
                    "status": run["status"],
                }
                if run["status"] == "ok":
                    item["final"] = final_rows(exp / run["file"])
                items.append(item)
        else:
            n_runs = 4 if smoke else CREDIT_RUNS_PER_TRIAL
            items += [
                {"id": f"trial{t}/run{i}", "status": _status(code_exp)}
                for i in range(n_runs)
            ]
        report = {"id": f"report{t}", "status": _status(code_rep)}
        if code_rep == 0:
            with open(exp / "aggregate.csv", newline="", encoding="utf-8") as f:
                report["rows"] = len(list(csv.reader(f))) - 1
        items.append(report)
    return items


def credit_gates(workdir, items, smoke):
    """Criterion 10 on the trial-averaged final test mean-SD of selections:
    ours <= ERM and ours <= 1.1 x the best CVaR / chi^2-DRO setting."""
    if smoke:
        return {}
    picks = {}
    for t in range(CREDIT_TRIALS):
        path = workdir / f"trial{t}" / "manifest.json"
        if not path.exists():
            return {"criterion10": False}
        manifest = json.loads(path.read_text(encoding="utf-8"))
        for sel in manifest["trials"][0]["selected"]:
            if sel["all_diverged"]:
                return {"criterion10": False}
            key = (sel["method"], sel["setting"])
            picks.setdefault(key, []).append(sel["final_test_mean_sd"])
    avg = {k: statistics.fmean(v) for k, v in picks.items()}
    ours = avg[("sunhuber", 0.9)]
    best_alt = min(v for (m, _), v in avg.items() if m in ("cvar", "chisq_dro"))
    return {
        "criterion10": ours <= avg[("erm", None)] and ours <= 1.1 * best_alt,
    }


# ------------------------------------------------------------- verify-full

VERIFY_PROPERTIES = 11


def verify_setup(main, workdir, seed, smoke):
    argv = ["verify", "--seed", str(seed), "--out", str(workdir / "verify")]
    return [argv + ["--quick"] if smoke else argv]


def verify_collect(workdir, codes, smoke):
    report = workdir / "verify" / "verify_report.csv"
    if not report.exists():
        return [
            {"id": f"property{i}", "status": _status(codes[0])}
            for i in range(VERIFY_PROPERTIES)
        ]
    with open(report, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    return [{"id": r["property"], "status": r["status"]} for r in rows]


# ------------------------------------------------------------- calibration
# A fixed loop, run between ops, that uses no robustmsd code: a change to the
# package leaves it alone, while the host's speed at that moment moves it.
# Each workload uses the loop whose work is most like its own.


def small_array_steps(steps=2000):
    """Seconds for small-array numpy steps, like one full-batch GD step."""
    import numpy as np

    X = np.linspace(-1.0, 1.0, 300).reshape(100, 3)
    w = np.zeros(3)
    t0 = time.perf_counter()
    for _ in range(steps):
        values = np.logaddexp(0.0, -(X @ w))
        w = w - 1e-3 * (values[:, None] * X).mean(axis=0)
    return time.perf_counter() - t0


def large_array_sweeps(sweeps=48):
    """Seconds for elementwise sweeps over a 2 MB array, like verify's
    threshold bisection.  Of 2, 8 and 32 MB arrays, 2 MB tracked verify's
    drift best, and it stays far below verify's own peak memory.  The loop
    writes into buffers touched before timing, so it does not depend on
    how the allocator was left by the ops."""
    import numpy as np

    X = np.linspace(-3.0, 3.0, 1000 * 250).reshape(1000, 250)
    t, u = np.ones_like(X), np.ones_like(X)
    a = np.zeros(1000)
    t0 = time.perf_counter()
    for _ in range(sweeps):
        np.subtract(X, a[:, None], out=t)
        t *= 0.05
        np.multiply(t, t, out=u)
        u += 1.0
        np.sqrt(u, out=u)
        t /= u
        a = a + t.mean(axis=1)
    return time.perf_counter() - t0


# name -> (loop, reference seconds): the references are close to the
# fastest times seen on a 2-vCPU Intel Xeon KVM guest (Python 3.11, numpy 2.4)
CALIBRATIONS = {
    "small": (small_array_steps, 0.03),
    "large": (large_array_sweeps, 0.07),
}


def no_gates(workdir, items, smoke):
    # every property must PASS, which the per-item check already enforces
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    work: int  # work units in one full pass
    smoke_work: int  # work units in one shortened pass
    work_unit: str
    setup: Callable
    collect: Callable
    gates: Callable
    ok_status: Tuple[str, ...]  # item statuses that are not failures
    calibration: str  # key of CALIBRATIONS


WORKLOADS = {
    w.name: w
    for w in (
        Workload("planar-gd", 300_000, 4 * 300, "GD steps",
                 planar_setup, planar_collect, planar_gates, ("ok",), "small"),
        # a diverged sweep run is flagged and excluded by design; only a
        # status that differs from the stored reference counts as failed
        Workload("credit-sweep", 162_000, 4 * 2 * 18, "SGD steps",
                 credit_setup, credit_collect, credit_gates, ("ok", "diverged"),
                 "small"),
        Workload("verify-full", 8_000_000, 2 * 300 * 2000, "Monte-Carlo losses",
                 verify_setup, verify_collect, no_gates, ("PASS",), "large"),
    )
}


def matches(value, ref, rel_tol):
    """Bitwise equal (nan == nan), or within ``rel_tol`` of the reference."""
    if isinstance(ref, float):
        if math.isnan(ref):
            return math.isnan(value)
        return value == ref or abs(value - ref) <= rel_tol * abs(ref)
    return value == ref


def failed_items(workload, items, reference, rel_tol):
    """Ids of failed items: bad status, non-finite output, reference mismatch."""
    failed = []
    ref = {it["id"]: it for it in reference} if reference is not None else None
    if ref is not None and [it["id"] for it in items] != [it["id"] for it in reference]:
        # a different set of operations: every item is a mismatch
        return [it["id"] for it in items] or ["missing outputs"]
    for it in items:
        bad = it["status"] not in workload.ok_status
        if "final" in it and not rows_finite(it["final"]):
            bad = True
        if ref is not None:
            r = ref[it["id"]]
            bad |= it["status"] != r["status"]
            bad |= it.get("rows") != r.get("rows")
            mine, theirs = it.get("final"), r.get("final")
            if (mine is None) != (theirs is None):
                bad = True
            elif mine is not None:
                bad |= len(mine) != len(theirs) or not all(
                    len(a) == len(b) and all(matches(x, y, rel_tol) for x, y in zip(a, b))
                    for a, b in zip(mine, theirs)
                )
        if bad:
            failed.append(it["id"])
    return failed
