"""Harness: CSV round trips, aggregation arithmetic, experiment manifests."""

import csv
import dataclasses
import io
import json
import math
import os
import re
import shutil
import warnings

import numpy as np
import pytest
from conftest import use_cpus

from robustmsd import harness
from robustmsd.cli import main
from robustmsd.criteria import default_lam
from robustmsd.data import Dataset, load_tabular
from robustmsd.harness import (
    METRIC_FIELDS,
    TRAJECTORY_HEADER,
    ExperimentSpec,
    MethodGrid,
    TrajectoryRecord,
    aggregate_records,
    aggregate_trials,
    build_initial_state,
    make_criterion,
    read_trajectory_csv,
    run_experiment,
    write_aggregate_csv,
    write_trajectory_csv,
)
from robustmsd.optimizer import DivergenceError
from robustmsd.parallel import ForkError

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


@pytest.mark.parametrize(
    "body, match",
    [
        ("", "unexpected header"),
        ("1,train,1,1,1,1,1,1,1,9\n", "line 2 has 10 fields"),
        ("1,train,1,1\n", "line 2 has 4 fields"),
        ("1,train,1,1,1,1,1,1,1\n1,val,x,1,1,1,1,1,1\n", "line 3: could not convert"),
    ],
)
def test_read_rejects_malformed_rows_with_their_line(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    header = ",".join(TRAJECTORY_HEADER) + "\n" if body else ""
    path.write_text(header + body, encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        read_trajectory_csv(path)


@pytest.mark.parametrize(
    "row, match",
    [
        (b"1,train," + b"9" * 140_000 + b",1,1,1,1,1,1\n", "line 2: field larger than field limit"),
        (b"1,train,1,1,1,1,1,1,1\n1,val,\xff,1,1,1,1,1,1\n", "line 3: not UTF-8 text"),
    ],
)
def test_read_names_file_and_line_of_an_unreadable_row(tmp_path, row, match):
    path = tmp_path / "bad.csv"
    path.write_bytes(",".join(TRAJECTORY_HEADER).encode() + b"\n" + row)
    with pytest.raises(ValueError, match=f"bad.csv: {match}"):
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


@pytest.mark.parametrize(
    "steps, match",
    [((), "at least one"), ((0.1, -0.1), "got -0.1"), ((0.0,), "got 0.0"),
     ((math.nan,), "got nan"), ((0.1, math.inf), "got inf")],
)
def test_spec_rejects_step_sizes_that_are_not_finite_and_positive(tmp_path, steps, match):
    with pytest.raises(ValueError, match=match):
        small_spec(tmp_path / "exp", step_sizes=steps)
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


def test_build_initial_state_takes_flat_or_shaped_weights():
    binary = load_tabular(BUNDLED)
    d = binary.n_features + 1
    flat = np.linspace(-0.1, 0.1, d)
    assert build_initial_state(binary, flat).h.tolist() == [flat.tolist()]
    rng = np.random.Generator(np.random.PCG64(0))
    three = Dataset(rng.normal(size=(12, 2)), np.arange(12) % 3, 3, np.full(12, "train"))
    weights = np.arange(9.0).reshape(3, 3) / 10
    for h0 in (weights, weights.ravel(), list(weights.ravel())):
        assert build_initial_state(three, h0).h.tolist() == weights.tolist()
    with pytest.raises(ValueError, match="need 3 x 3 values, got 8"):
        build_initial_state(three, np.zeros(8))


def test_build_initial_state_names_weights_whose_losses_are_not_finite():
    binary = load_tabular(BUNDLED)
    for scale in (1e308, 1e200):  # losses overflow; losses finite but their sd overflows
        h0 = np.full(binary.n_features + 1, scale)
        with pytest.raises(ValueError, match="initial weights give non-finite train losses"):
            build_initial_state(binary, h0)


# ------------------------------------------- byte identity of the CSV writers
# The trajectory writers join their lines themselves; these references are
# the former ``csv.writer`` code, whose bytes every file must keep.


def csv_writer_bytes(header, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def fmt(x):
    return repr(float(x))


def reference_trajectory_bytes(records):
    return csv_writer_bytes(
        TRAJECTORY_HEADER,
        [[str(r.checkpoint), r.split] + [fmt(getattr(r, m)) for m in METRIC_FIELDS]
         for r in records],
    )


def reference_aggregate_bytes(rows):
    header = list(rows[0])
    return csv_writer_bytes(
        header,
        [[fmt(row[k]) if isinstance(row[k], float) else str(row[k]) for k in header]
         for row in rows],
    )


EXTREMES = [1e-17, -0.0, float("nan"), float("inf"), -1e300, 5e-324, 0.1 + 0.2]


def test_trajectory_writer_bytes_match_csv_writer(tmp_path):
    records = [
        TrajectoryRecord(np.int64(3), split, *(EXTREMES[(k + j) % len(EXTREMES)] for k in range(7)))
        for j, split in enumerate(("train", "val", "test"))
    ]
    records.append(TrajectoryRecord(4, "train", *np.float64([0.5, 1.0, 0, 2.0, -0.0, 1e-17, 3.0])))
    path = tmp_path / "nested" / "traj.csv"
    write_trajectory_csv(path, records)
    assert path.read_bytes() == reference_trajectory_bytes(records)
    write_trajectory_csv(path, [])
    assert path.read_bytes() == reference_trajectory_bytes([])


def test_aggregate_writer_bytes_match_csv_writer(tmp_path):
    rows = [
        {"method": "erm", "setting": None, "checkpoint": 1, "split": "val",
         **{f"{m}_mean": x for m, x in zip(METRIC_FIELDS, EXTREMES)}},
        {"method": "cvar", "setting": 0.25, "checkpoint": 2, "split": "test",
         **{f"{m}_mean": -x for m, x in zip(METRIC_FIELDS, EXTREMES)}},
    ]
    path = tmp_path / "nested" / "agg.csv"
    write_aggregate_csv(path, rows)
    assert path.read_bytes() == reference_aggregate_bytes(rows)


def test_report_quotes_commas_in_a_method_setting_or_split(tmp_path):
    records = [TrajectoryRecord(1, split, *EXTREMES) for split in ("tr,ain", 'v"al')]
    with open(tmp_path / "run.csv", "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(
            [TRAJECTORY_HEADER]
            + [[r.checkpoint, r.split] + [fmt(getattr(r, m)) for m in METRIC_FIELDS]
               for r in records]
        )
    pick = {"method": "cvar,v2", "setting": [0.5, "a,b"], "file": "run.csv",
            "all_diverged": False}
    (tmp_path / "manifest.json").write_text(json.dumps({"trials": [{"selected": [pick]}]}))
    assert main(["report", "--manifest", str(tmp_path / "manifest.json")]) == 0
    with open(tmp_path / "aggregate.csv", newline="", encoding="utf-8") as f:
        header, *rows = list(csv.reader(f))
    assert [row[:4] for row in rows] == [
        ["cvar,v2", "[0.5, 'a,b']", "1", "tr,ain"],
        ["cvar,v2", "[0.5, 'a,b']", "1", 'v"al'],
    ]
    assert {len(row) for row in rows} == {len(header)}


def test_report_on_extreme_metrics_raises_no_warning(tmp_path):
    # two trials, the second the negation of the first: the inf cell's sd is
    # nan (inf - inf), the +-1e300 cell's overflows to inf, neither warns
    trials = []
    for t, sign in enumerate((1.0, -1.0)):
        name = f"run{t}.csv"
        write_trajectory_csv(tmp_path / name, [
            TrajectoryRecord(1, "train", *(sign * x for x in EXTREMES))
        ])
        pick = {"method": "erm", "setting": None, "file": name, "all_diverged": False}
        trials.append({"selected": [pick]})
    (tmp_path / "manifest.json").write_text(json.dumps({"trials": trials}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["report", "--manifest", str(tmp_path / "manifest.json")]) == 0
    with open(tmp_path / "aggregate.csv", newline="", encoding="utf-8") as f:
        (row,) = list(csv.DictReader(f))
    assert [row[f"{m}_sd"] for m in ("mean_sd", "mean_loss", "model_norm", "objective")] == [
        "1e-17", "0.0", "nan", "inf"
    ]


def test_trajectory_writer_rejects_a_split_it_would_not_quote(tmp_path):
    records = [TrajectoryRecord(1, "train", *EXTREMES), TrajectoryRecord(1, "tr,ain", *EXTREMES)]
    match = r"split 'tr,ain' is not one of \('train', 'val', 'test'\)"
    with pytest.raises(ValueError, match=match):
        write_trajectory_csv(tmp_path / "traj.csv", records)
    assert not (tmp_path / "traj.csv").exists()


def three_class_dataset():
    rng = np.random.Generator(np.random.PCG64(11))
    centers = np.array([[-2.0, 0.0, 1.0], [2.0, 1.0, -1.0], [0.0, -2.5, 0.5]])
    labels = np.repeat(np.arange(3), 40)
    features = centers[labels] + rng.normal(size=(labels.size, 3))
    features[0] = [15.0, 15.0, -15.0]
    return Dataset(features, labels, 3, np.full(labels.size, "train"))


def run_keeping_stacks(monkeypatch, spec, dataset):
    """``run_experiment`` with each trial's ``StackedRuns`` kept, after setting
    some of its metrics to 1e-17 and -0.0.  A run's model_norm, a and b stay
    one value per checkpoint across splits, as training leaves them."""
    stacks = []
    train = harness.train

    def spy(runs, init, ds):
        trained = train(runs, init, ds)
        m = trained.metrics  # (checkpoints, splits, runs, metrics)
        column = {name: k for k, name in enumerate(METRIC_FIELDS)}
        m[0, :, 0, column["mean_sd"]] = 1e-17
        m[-1, 0, 0, column["objective"]] = -0.0
        m[:, :, 1, column["model_norm"]] = -0.0
        m[0, :, 1, column["a"]] = 1e-17
        m[-1, 1, 1, column["mean_loss"]] = -0.0  # run 1's final val mean loss
        m[-1, 2, 3, column["mean_sd"]] = -0.0  # run 3's final test mean-SD
        stacks.append(trained)
        return trained

    monkeypatch.setattr(harness, "train", spy)
    use_cpus(monkeypatch, 1)  # a forked part's stack would not reach this process
    return run_experiment(spec, dataset), stacks


@pytest.mark.parametrize("dataset", ["binary", "three_class"])
def test_sweep_files_are_the_csv_writer_bytes_of_each_run(tmp_path, monkeypatch, dataset):
    data = load_tabular(BUNDLED) if dataset == "binary" else three_class_dataset()
    out = tmp_path / "exp"
    spec = small_spec(
        out, methods=[MethodGrid("sunhuber", (0.9,)), MethodGrid("erm"), MethodGrid("cvar", (0.5,))],
        step_sizes=(0.01, 0.1, 1e14),
    )
    manifest, stacks = run_keeping_stacks(monkeypatch, spec, data)
    assert len(stacks) == len(manifest["trials"]) == 2
    written, diverged = set(), 0
    for trial, trained in zip(manifest["trials"], stacks):
        assert len(trial["runs"]) == len(trained.errors) == 9
        for i, run in enumerate(trial["runs"]):
            if run["status"] == "diverged":
                diverged += 1
                assert run["error"] == trained.errors[i]
                with pytest.raises(DivergenceError, match=re.escape(run["error"])):
                    trained.result(i)
                continue
            records = trained.result(i).trajectory
            assert (out / run["file"]).read_bytes() == reference_trajectory_bytes(records)
            last = {r.split: r for r in records if r.checkpoint == records[-1].checkpoint}
            assert repr(run["final_val_mean_loss"]) == repr(last["val"].mean_loss)
            assert repr(run["final_test_mean_sd"]) == repr(last["test"].mean_sd)
            written.add(run["file"])
    assert diverged > 0
    # a diverged run has no file
    assert {f"runs/{p.name}" for p in (out / "runs").iterdir()} == written
    texts = [(out / f).read_text(encoding="utf-8") for f in sorted(written)]
    for value in ("1e-17", ",-0.0,", ",nan,nan"):
        assert any(value in text for text in texts), value
    rows = aggregate_trials(manifest, out)
    write_aggregate_csv(out / "aggregate.csv", rows)
    assert (out / "aggregate.csv").read_bytes() == reference_aggregate_bytes(rows)


@pytest.mark.parametrize("split", ["val", "test"])
def test_run_experiment_names_a_missing_final_split(tmp_path, monkeypatch, split):
    train = harness.train

    def without_split(runs, init, ds):
        trained = train(runs, init, ds)
        keep = [k for k, name in enumerate(trained.split_names) if name != split]
        return dataclasses.replace(
            trained, split_names=tuple(trained.split_names[k] for k in keep),
            metrics=trained.metrics[:, keep],
        )

    monkeypatch.setattr(harness, "train", without_split)
    use_cpus(monkeypatch, 1)  # a forked part would not see the patched train
    with pytest.raises(ValueError, match=f"no final-checkpoint record for split '{split}'"):
        run_experiment(small_spec(tmp_path / "exp", trials=1), load_tabular(BUNDLED))


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "dataset, methods, step_sizes",
    [
        # 9 runs, one diverging per setting
        ("binary", ("sunhuber", "erm", "cvar"), (0.01, 0.1, 1e14)),
        ("three_class", ("sunhuber", "erm", "cvar"), (0.01, 0.1, 1e14)),
        # 4 runs: the last part's runs all diverge, whether it has 2 or 3 parts
        ("binary", ("erm",), (0.01, 0.1, 1e14, 1e15)),
    ],
)
def test_sweep_outputs_are_the_same_bytes_in_any_number_of_parts(
        tmp_path, monkeypatch, dataset, methods, step_sizes):
    data = load_tabular(BUNDLED) if dataset == "binary" else three_class_dataset()
    grids = {"sunhuber": MethodGrid("sunhuber", (0.9,)), "erm": MethodGrid("erm"),
             "cvar": MethodGrid("cvar", (0.5,))}
    out, trees = tmp_path / "exp", {}
    for parts in (1, 2, 3):
        use_cpus(monkeypatch, parts)
        manifest = run_experiment(small_spec(out, methods=[grids[m] for m in methods],
                                             step_sizes=step_sizes), data)
        trees[parts] = tree_bytes(out), manifest
        shutil.rmtree(out)
    assert trees[2] == trees[1] and trees[3] == trees[1]
    expected = ["diverged" if step > 1 else "ok" for step in step_sizes] * len(methods)
    for trial in trees[1][1]["trials"]:
        assert [r["status"] for r in trial["runs"]] == expected


def test_part_count_follows_the_cpus_the_process_may_run_on(monkeypatch):
    use_cpus(monkeypatch, 3)
    assert [harness._part_count(n) for n in (1, 2, 3, 60)] == [1, 2, 3, 3]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._part_count(60) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert harness._part_count(60) == 4
    monkeypatch.delattr(os, "fork")
    assert harness._part_count(60) == 1


class PartFailure(Exception):
    pass


class Unpicklable(Exception):
    def __init__(self, text):
        super().__init__(text)
        self.callback = lambda: None  # pickle cannot send a lambda


@pytest.mark.parametrize(
    "where, failure, raised, match",
    [
        ("child", PartFailure("a child's part failed"), PartFailure, "^a child's part failed$"),
        ("parent", PartFailure("the parent's part failed"), PartFailure,
         "^the parent's part failed$"),
        # an exception the child cannot send, a child that dies
        ("child", Unpicklable("no pickle"), RuntimeError, "^Unpicklable: no pickle$"),
        ("child", None, ForkError, "^training part 2 of 2 ended without a result$"),
    ],
)
def test_a_failing_part_reaches_the_caller(tmp_path, monkeypatch, where, failure, raised, match):
    parent, train = os.getpid(), harness.train

    def failing(runs, init, ds):
        if (os.getpid() == parent) == (where == "parent"):
            if failure is None:
                os._exit(3)  # the child dies without a word
            raise failure
        return train(runs, init, ds)

    monkeypatch.setattr(harness, "train", failing)
    use_cpus(monkeypatch, 2)
    with pytest.raises(raised, match=match):
        run_experiment(small_spec(tmp_path / "exp", trials=1), load_tabular(BUNDLED))
    assert not (tmp_path / "exp" / "manifest.json").exists()


def test_all_diverged_sweep_selects_nothing_and_report_exits_1(tmp_path, capsys):
    out = tmp_path / "exp"
    manifest = run_experiment(small_spec(out, step_sizes=(1e14,)), load_tabular(BUNDLED))
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8")) == json.loads(
        json.dumps(manifest)
    )
    picks = [p for t in manifest["trials"] for p in t["selected"]]
    assert len(picks) == 4
    for pick in picks:
        assert pick["all_diverged"] is True
        assert pick["step_size"] is None and pick["file"] is None
        assert pick["final_test_mean_sd"] is None
    assert all(r["status"] == "diverged" for t in manifest["trials"] for r in t["runs"])
    assert list((out / "runs").iterdir()) == []
    assert main(["report", "--manifest", str(out / "manifest.json")]) == 1
    err = capsys.readouterr().err
    assert err == "error: nothing to aggregate\n"
    assert not (out / "aggregate.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["--data", BUNDLED, "--criterion", "sunhuber", "--epochs", "3", "--preprocess",
         "--split-seed", "2"],
        ["--data", "three.csv", "--criterion", "cvar", "--iterations", "250",
         "--checkpoint-every", "50", "--step-size", "0.3"],
        ["--data", BUNDLED, "--criterion", "erm", "--iterations", "0"],
    ],
)
def test_train_trajectory_is_the_csv_writer_bytes_of_its_records(tmp_path, args):
    ds = three_class_dataset()
    with open(tmp_path / "three.csv", "w", encoding="utf-8") as f:
        f.write("x1,x2,x3,label\n")
        for row, label in zip(ds.features.tolist(), ds.labels):
            f.write(",".join(map(repr, row)) + f",{'abc'[label]}\n")
    args = [str(tmp_path / a) if a == "three.csv" else a for a in args]
    assert main(["train", *args, "--out", str(tmp_path / "out")]) == 0
    path = tmp_path / "out" / "trajectory.csv"
    # floats are written in shortest round-trip form, so the records read
    # back are the records written
    assert path.read_bytes() == reference_trajectory_bytes(read_trajectory_csv(path))
