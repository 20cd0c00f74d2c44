"""Harness: CSV round trips, aggregation arithmetic, experiment manifests."""

import json
import math

import numpy as np
import pytest

from robustmsd.data import load_tabular
from robustmsd.harness import (
    ExperimentSpec,
    MethodGrid,
    TrajectoryRecord,
    aggregate_records,
    aggregate_trials,
    build_initial_state,
    default_lam,
    make_criterion,
    read_trajectory_csv,
    run_experiment,
    write_aggregate_csv,
    write_trajectory_csv,
)

BUNDLED = "src/robustmsd/datasets/credit690.csv"


def rec(cp, split, base=1.0):
    return TrajectoryRecord(
        checkpoint=cp,
        split=split,
        mean_sd=base + 0.5,
        mean_loss=base,
        error_rate=0.25,
        model_norm=2.0 * base,
        objective=base / 2.0,
        a=base - 1.0,
        b=0.1 * base,
    )


def records_equal(a, b):
    if (a.checkpoint, a.split) != (b.checkpoint, b.split):
        return False
    for m in ("mean_sd", "mean_loss", "error_rate", "model_norm", "objective", "a", "b"):
        x, y = getattr(a, m), getattr(b, m)
        if not (x == y or (math.isnan(x) and math.isnan(y))):
            return False
    return True


def test_trajectory_csv_round_trip(tmp_path):
    records = [rec(1, "train", 1.25), rec(1, "val", float("nan")), rec(2, "train", 1e-17)]
    records[1] = TrajectoryRecord(1, "val", 0.7, 0.5, 0.1, 1.0, 0.3, float("nan"), float("nan"))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, records)
    back = read_trajectory_csv(path)
    assert len(back) == len(records)
    assert all(records_equal(x, y) for x, y in zip(records, back))


def test_read_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_trajectory_csv(path)


def test_aggregate_identical_trials_zero_sd():
    traj = [rec(1, "train"), rec(2, "train")]
    rows = aggregate_records([traj, traj, traj])
    assert all(row["mean_sd_sd"] == 0.0 for row in rows)
    assert rows[0]["mean_sd_mean"] == traj[0].mean_sd


def test_aggregate_mean_and_population_sd():
    t1 = [TrajectoryRecord(1, "train", 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)]
    t2 = [TrajectoryRecord(1, "train", 3.0, 3.0, 0.0, 1.0, 3.0, 0.0, 1.0)]
    rows = aggregate_records([t1, t2])
    assert rows[0]["mean_sd_mean"] == 2.0
    assert rows[0]["mean_sd_sd"] == 1.0  # divisor n, not n-1


def test_aggregate_single_trial_zero_sd():
    rows = aggregate_records([[rec(1, "train")]])
    assert rows[0]["mean_loss_sd"] == 0.0


def test_aggregate_rejects_misaligned():
    t1 = [rec(1, "train"), rec(2, "train")]
    t2 = [rec(1, "train"), rec(3, "train")]
    with pytest.raises(ValueError, match="misaligned"):
        aggregate_records([t1, t2])


@pytest.mark.parametrize("n_trials", [1, 9, 20])
def test_aggregate_matches_per_cell_numpy_bitwise(n_trials):
    rng = np.random.Generator(np.random.PCG64(n_trials))
    cells = [(cp, split) for cp in (1, 2, 3) for split in ("train", "val", "test")]
    trajs = [
        [TrajectoryRecord(cp, split, *rng.lognormal(size=7)) for cp, split in cells]
        for _ in range(n_trials)
    ]
    rows = aggregate_records(trajs)
    assert [(r["checkpoint"], r["split"]) for r in rows] == cells
    for i, row in enumerate(rows):
        for metric in ("mean_sd", "mean_loss", "error_rate", "model_norm", "objective", "a", "b"):
            vals = np.array([getattr(traj[i], metric) for traj in trajs])
            assert row[f"{metric}_mean"] == float(np.mean(vals))
            assert row[f"{metric}_sd"] == float(np.std(vals))


def test_make_criterion_dispatch():
    lam = default_lam(100)
    p = make_criterion("sunhuber", 0.9, 100, lam)
    assert p.kind == "sunhuber" and p.beta == pytest.approx(0.09)
    assert make_criterion("erm", None, 100, lam).kind == "erm"
    assert make_criterion("cvar", 0.25, 100, lam).xi == 0.25
    assert make_criterion("chisq_dro", 0.75, 100, lam).eta_tilde == 0.75
    with pytest.raises(ValueError):
        make_criterion("nope", None, 100, lam)


def small_spec(out_dir, **kw):
    base = dict(
        data=BUNDLED,
        methods=[MethodGrid("sunhuber", (0.9,)), MethodGrid("erm")],
        out_dir=str(out_dir),
        step_sizes=(0.01, 0.1),
        epochs=2,
        batch_size=64,
        trials=2,
        seed=5,
    )
    base.update(kw)
    return ExperimentSpec(**base)


@pytest.mark.parametrize("field", ["epochs", "batch_size"])
def test_spec_rejects_nonpositive_epochs_and_batch_size(tmp_path, field):
    with pytest.raises(ValueError, match=field):
        small_spec(tmp_path / "exp", **{field: 0})
    assert not (tmp_path / "exp").exists()


def test_run_experiment_manifest_structure(tmp_path):
    spec = small_spec(tmp_path / "exp")
    dataset = load_tabular(BUNDLED)
    manifest = run_experiment(spec, dataset)
    assert manifest["rng_algorithm"] == "pcg64"
    assert [t["split_seed"] for t in manifest["trials"]] == [5, 6]
    for trial in manifest["trials"]:
        assert len(trial["runs"]) == 2 * 2  # methods x step sizes
        assert len(trial["selected"]) == 2
        for sel in trial["selected"]:
            assert not sel["all_diverged"]
            chosen = [
                r
                for r in trial["runs"]
                if r["method"] == sel["method"]
                and r["status"] == "ok"
            ]
            best = min(chosen, key=lambda r: r["final_val_mean_loss"])
            assert sel["step_size"] == best["step_size"]
            assert (tmp_path / "exp" / sel["file"]).exists()
    # manifest file round-trips through json
    on_disk = json.loads((tmp_path / "exp" / "manifest.json").read_text())
    assert on_disk["trials"][0]["split_seed"] == 5


def test_run_experiment_flags_diverged_and_selects_finite(tmp_path):
    spec = small_spec(
        tmp_path / "exp", methods=[MethodGrid("erm")], step_sizes=(0.01, 1e14), trials=1
    )
    manifest = run_experiment(spec, load_tabular(BUNDLED))
    runs = manifest["trials"][0]["runs"]
    statuses = {r["step_size"]: r["status"] for r in runs}
    assert statuses[1e14] == "diverged"
    assert statuses[0.01] == "ok"
    sel = manifest["trials"][0]["selected"][0]
    assert sel["step_size"] == 0.01 and not sel["all_diverged"]


def test_run_experiment_reproducible_bytes(tmp_path):
    dataset = load_tabular(BUNDLED)
    out = tmp_path / "exp"
    run_experiment(small_spec(out), dataset)
    first = {
        p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    run_experiment(small_spec(out), dataset)
    second = {
        p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert first == second


def test_aggregate_trials_from_manifest(tmp_path):
    out = tmp_path / "exp"
    manifest = run_experiment(small_spec(out), load_tabular(BUNDLED))
    rows = aggregate_trials(manifest, out)
    # 2 methods x 2 epochs x 3 splits
    assert len(rows) == 2 * 2 * 3
    assert {row["method"] for row in rows} == {"sunhuber", "erm"}
    csv_path = tmp_path / "agg.csv"
    write_aggregate_csv(csv_path, rows)
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("method,setting,checkpoint,split,mean_sd_mean,mean_sd_sd")


def test_build_initial_state_uses_first_batch_statistics():
    dataset = load_tabular(BUNDLED)
    state = build_initial_state(dataset)
    # zero weights: every loss is log 2 exactly, so a = log2 and b hits the floor 1e-2
    assert state.a == pytest.approx(math.log(2.0), rel=1e-12)
    assert state.b == 1e-2
    assert state.h.shape == (1, dataset.n_features + 1)
