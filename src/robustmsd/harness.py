"""Experiment orchestration: trials, step-size selection, CSV emission.

The experiment protocol mirrors the real-data benchmark: for each trial the
dataset is reshuffled into 80/10/10 splits with a trial-derived seed, every
criterion setting is trained under every candidate step size, and the step
size minimizing the final-checkpoint validation mean loss is selected.  One
CSV is written per run plus a JSON manifest listing files, seeds and
selections; manifests carry no timing information so re-runs are
byte-identical.
"""

import csv
import json
import math
import operator
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .criteria import JointState, criterion_record, make_criterion
from .data import (
    SPLITS,
    DataError,
    Dataset,
    data_dir,
    load_tabular,
    open_text,
    preprocess,
    shuffle_split,
)
from .model import LinearModel, loss_values
from .optimizer import (
    METRIC_FIELDS,
    RNG_ALGORITHM,
    OptConfig,
    TrajectoryRecord,
    check_step_size,
    train,
)
from .parallel import run_calls, usable_cpus

__all__ = [
    "TrajectoryRecord",
    "MethodGrid",
    "ExperimentSpec",
    "SpecError",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "make_criterion",
    "load_dataset",
    "build_initial_state",
    "default_lam",
    "run_experiment",
    "aggregate_records",
    "load_manifest",
    "aggregate_trials",
    "write_aggregate_csv",
    "TRAJECTORY_HEADER",
    "DEFAULT_STEP_SIZES",
    "DEFAULT_LEVELS",
]

TRAJECTORY_HEADER = ("checkpoint", "split") + METRIC_FIELDS

# documented defaults for the under-specified sweeps
DEFAULT_STEP_SIZES = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
DEFAULT_LEVELS = (0.1, 0.25, 0.5, 0.75, 0.9)


def _fmt(x: float) -> str:
    # shortest round-trip decimal; parsing it back recovers the exact double
    return repr(float(x))


_HEADER_LINE = ",".join(TRAJECTORY_HEADER)
_metrics_of = operator.attrgetter(*METRIC_FIELDS)
# A trajectory row: checkpoint, split and the METRIC_FIELDS, each float in
# ``_fmt``'s form.  csv.writer would write the same fields unquoted, as no
# split in SPLITS or float repr holds a comma, quote or line break.  The
# per-run metrics take "%s", which writes a float as its repr and a string
# as it is, so the sweep passes them formatted once per checkpoint.
_PER_RUN = tuple(METRIC_FIELDS.index(m) for m in ("model_norm", "a", "b"))
_ROW = "%s,%s," + ",".join("%s" if k in _PER_RUN else "%r" for k in range(len(METRIC_FIELDS)))


def _write_lines(path, lines: Sequence[str]) -> None:
    """Write CSV lines in one write, with ``csv.writer``'s ``\\r\\n`` ends."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("\r\n".join(lines) + "\r\n")


def write_trajectory_csv(path, records: Sequence[TrajectoryRecord]) -> None:
    """Write ``records`` as a trajectory CSV; a split outside ``SPLITS``
    raises ValueError, since ``_ROW`` would not quote it."""
    foreign = {r.split for r in records} - set(SPLITS)
    if foreign:
        raise ValueError(f"split {min(foreign)!r} is not one of {SPLITS}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [_HEADER_LINE]
    lines += [_ROW % (r.checkpoint, r.split, *map(float, _metrics_of(r))) for r in records]
    _write_lines(path, lines)


def _trajectory_lines(checkpoints, split_names, block: np.ndarray) -> List[str]:
    """``write_trajectory_csv``'s lines for one run's ``(checkpoints, splits,
    METRIC_FIELDS)`` metrics block, without building its records.

    A run's per-run metrics are the same on every split of a checkpoint
    (``StackedRuns``), so the first split's are formatted for all.
    """
    norm, a, b = _PER_RUN
    lines = [_HEADER_LINE]
    for checkpoint, rows in zip(checkpoints, block.tolist()):
        first = rows[0]
        texts = repr(first[norm]), repr(first[a]), repr(first[b])
        for split, row in zip(split_names, rows):
            row[norm], row[a], row[b] = texts
            lines.append(_ROW % (checkpoint, split, *row))
    return lines


def read_trajectory_csv(path) -> List[TrajectoryRecord]:
    reader = csv.reader(open_text(path, newline=""))
    out = []
    try:
        header = tuple(next(reader, ()))
        if header != TRAJECTORY_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line, row in enumerate(reader, start=2):
            if len(row) != len(TRAJECTORY_HEADER):
                raise ValueError(
                    f"{path}: line {line} has {len(row)} fields, "
                    f"expected {len(TRAJECTORY_HEADER)}"
                )
            cp, split, *metrics = row
            try:
                out.append(
                    TrajectoryRecord(int(cp), split, *[float(m) for m in metrics])
                )
            except ValueError as err:
                raise ValueError(f"{path}: line {line}: {err}") from None
    except csv.Error as err:  # e.g. a field over csv.field_size_limit()
        raise ValueError(f"{path}: line {reader.line_num}: {err}") from None
    return out


@dataclass(frozen=True)
class MethodGrid:
    """One criterion family plus its hyperparameter settings.

    ``settings`` holds beta0 values for the joint robust criterion, quantile
    levels for CVaR, robustness levels for the divergence ball, and is empty
    for the plain mean.
    """

    method: str
    settings: Tuple[float, ...] = ()

    def expanded(self):
        if criterion_record(self.method).setting is None:
            return [None]
        if not self.settings:
            raise ValueError(f"method {self.method!r} needs settings")
        return list(self.settings)


@dataclass
class ExperimentSpec:
    """Full sweep description: data, criterion grids, optimizer, trials, output."""

    data: str
    methods: List[MethodGrid]
    out_dir: str
    step_sizes: Tuple[float, ...] = DEFAULT_STEP_SIZES
    epochs: int = 30
    batch_size: int = 32
    trials: int = 5
    seed: int = 0
    lam: Optional[float] = None  # None -> log(n_train)/sqrt(n_train)
    data_format: str = "csv"
    label_col: Optional[str] = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.methods:
            raise ValueError("at least one method is required")
        if not self.step_sizes:
            raise ValueError("step_sizes must list at least one step size")
        for step in self.step_sizes:
            check_step_size(step)


class SpecError(ValueError):
    """An ``ExperimentSpec`` the loaded data or its run-file names rule out;
    the text names the config values at fault."""


def default_lam(n_train: int) -> float:
    return math.log(n_train) / math.sqrt(n_train)


@np.errstate(over="ignore", invalid="ignore")  # JointState rejects a non-finite a or b
def build_initial_state(dataset: Dataset, h0: Optional[np.ndarray] = None) -> JointState:
    """Zero weights, or ``h0``'s K x (d + 1) values (flat or shaped; K = 1 for binary
    data), with a = the mean and b = max(sd, 1e-2) of the initial train losses."""
    shape = (1 if dataset.n_classes == 2 else dataset.n_classes, dataset.n_features + 1)
    h0 = np.zeros(shape) if h0 is None else np.array(h0, dtype=float)
    if h0.size != shape[0] * shape[1]:
        raise ValueError(f"initial weights need {shape[0]} x {shape[1]} values, got {h0.size}")
    h0 = h0.reshape(shape)
    idx = dataset.split_indices("train")
    if idx.size == 0:
        raise ValueError("dataset has no training examples")
    values = loss_values(LinearModel(weights=h0), dataset.features[idx], dataset.labels[idx])
    mean, sd = float(np.mean(values)), float(np.std(values))
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise ValueError("the initial weights give non-finite train losses "
                         f"(mean {mean!r}, sd {sd!r})")
    return JointState(h=h0, a=mean, b=max(sd, 1e-2))


_MEAN_SD, _MEAN_LOSS = METRIC_FIELDS.index("mean_sd"), METRIC_FIELDS.index("mean_loss")
# the fields a setting's selection copies from its chosen run
_PICKED = ("step_size", "file", "final_test_mean_sd")


def load_dataset(ref: str, fmt: str = "csv", label_col: Optional[str] = None) -> Dataset:
    """Resolve a data reference: bundled:<name>, a path, or a data_dir()-relative path."""
    if ref.startswith("bundled:"):
        name = ref.split(":", 1)[1]
        path = Path(__file__).parent / "datasets" / f"{name}.csv"
        if not path.exists():
            raise FileNotFoundError(f"no bundled dataset {name!r}")
        return load_tabular(path, "csv", label_col)
    path = Path(ref)
    if not path.exists():
        candidate = data_dir() / ref
        if candidate.exists():
            path = candidate
        else:
            raise FileNotFoundError(f"dataset {ref!r} not found (also tried {candidate})")
    return load_tabular(path, fmt, label_col)


def _run_files(trial: int, settings, runs) -> List[str]:
    """Each run's CSV name; SpecError names two runs whose names coincide,
    as settings or step sizes that print alike under ``%g`` make."""
    files, first = [], {}
    n_steps = len(runs) // len(settings)

    def run(i):
        method, setting = settings[i // n_steps]
        what = method if setting is None else f"{method} {setting!r}"
        return f"{what} at step size {runs[i][1].step_size!r}"

    for i, (params, opt) in enumerate(runs):
        fname = f"runs/trial{trial}_{params.label()}_step={opt.step_size:g}.csv"
        if fname in first:
            raise SpecError(f"runs {run(first[fname])} and {run(i)} would both write {fname}")
        first[fname] = i
        files.append(fname)
    return files


def _train_part(runs, files, init: JointState, ds: Dataset, out: Path) -> List[tuple]:
    """Train ``runs`` together in one ``train`` call and write each finished
    run's CSV to ``out / files[i]``, straight from its block of the stacked
    metrics array, with the bytes ``write_trajectory_csv`` would write for
    its records.  Returns ``(error, final_val_mean_loss, final_test_mean_sd)``
    per run; a diverged run has its message and no numbers."""
    trained = train(runs, init, ds)
    names = trained.split_names
    for split in ("val", "test"):
        if split not in names:
            raise ValueError(f"no final-checkpoint record for split {split!r}")
    val, test = names.index("val"), names.index("test")
    finals = []
    for i, error in enumerate(trained.errors):
        if error is not None:
            finals.append((error, None, None))
            continue
        block = trained.metrics[:, :, i]
        _write_lines(out / files[i], _trajectory_lines(trained.checkpoints, names, block))
        last = block[-1].tolist()
        finals.append((None, last[val][_MEAN_LOSS], last[test][_MEAN_SD]))
    return finals


def _part_count(n_runs: int) -> int:
    """One part per CPU ``run_calls`` may use, at most one per run."""
    return min(usable_cpus(), n_runs)


def _train_in_parts(runs, files, init: JointState, ds: Dataset, out: Path) -> List[tuple]:
    """``_train_part`` over ``_part_count`` contiguous parts of ``runs``, in order.

    ``run_calls`` trains the first part here and parts 2..k each in a
    forked child, which writes its runs' files and sends back only their
    finals.  A run keeps the bits it has when trained alone, so the files
    and finals are the same for every split.  The first part's exception,
    else the lowest child's, reaches the caller, and a child that ends
    without a result raises ``ForkError`` naming its part.

    A forked child starts with the parent's imports and the trial's data
    in place; a spawned one would import scipy again, about as long as one
    part's training.
    """
    k = _part_count(len(runs))
    cuts = [len(runs) * p // k for p in range(k + 1)]
    calls = [(f"training part {p} of {k}",
              partial(_train_part, runs[lo:hi], files[lo:hi], init, ds, out))
             for p, (lo, hi) in enumerate(zip(cuts, cuts[1:]), start=1)]
    return [final for finals in run_calls(calls) for final in finals]


def run_experiment(spec: ExperimentSpec, dataset: Optional[Dataset] = None) -> dict:
    """Execute the full sweep and return (and write) the manifest.

    Run ``i = k*S + j`` of a trial is criterion setting ``k`` under step
    size ``j`` (S step sizes): criterion-major, as the stack's blocks are
    stretches of rows of one kind.  Each trial's runs are cut into one
    contiguous part per CPU the process may run on (``_train_in_parts``);
    each part trains its runs together in one ``train`` call, parts 2..k in
    forked children that live for the trial, and writes each finished run's
    CSV itself.  Every output is byte-identical whatever the number of
    parts.  Diverged runs are flagged and excluded from step-size
    selection; a setting with no surviving run is recorded with a null
    selection.  Two runs whose file names would coincide raise SpecError
    before the trial trains or writes anything.  The manifest is written
    once every part of every trial is in.
    """
    out = Path(spec.out_dir)
    if dataset is None:
        dataset = load_dataset(spec.data, spec.data_format, spec.label_col)
    manifest = {"rng_algorithm": RNG_ALGORITHM, "spec": asdict(spec), "trials": []}
    n_steps = len(spec.step_sizes)
    settings = [(grid.method, setting) for grid in spec.methods for setting in grid.expanded()]

    for trial in range(spec.trials):
        split_seed = spec.seed + trial
        ds = preprocess(shuffle_split(dataset, split_seed))
        n_train = int(ds.split_indices("train").size)
        if spec.batch_size > n_train:
            raise SpecError(
                f"[experiment] batch_size {spec.batch_size} exceeds train size {n_train}"
            )
        lam = spec.lam if spec.lam is not None else default_lam(n_train)
        # every method and setting is checked before anything is written
        criteria = [make_criterion(method, setting, n_train, lam) for method, setting in settings]
        config = OptConfig(step_size=spec.step_sizes[0], epochs=spec.epochs,
                           batch_size=spec.batch_size, seed=split_seed)
        runs = [(params, replace(config, step_size=step))
                for params in criteria for step in spec.step_sizes]
        files = _run_files(trial, settings, runs)
        (out / "runs").mkdir(parents=True, exist_ok=True)
        finals = _train_in_parts(runs, files, build_initial_state(ds), ds, out)
        entries = []
        for i, ((_, opt), (error, val_loss, test_sd)) in enumerate(zip(runs, finals)):
            method, setting = settings[i // n_steps]
            entry = {"method": method, "setting": setting, "step_size": opt.step_size}
            entries.append(entry)
            if error is not None:
                entry.update(status="diverged", error=error)
                continue
            entry.update(status="ok", file=files[i], final_val_mean_loss=val_loss,
                         final_test_mean_sd=test_sd)
        selected = []
        for k, (method, setting) in enumerate(settings):
            finished = [e for e in entries[k * n_steps : (k + 1) * n_steps] if e["status"] == "ok"]
            # min keeps the first of equal losses
            best = min(finished, key=operator.itemgetter("final_val_mean_loss"), default=None)
            pick = {key: best[key] if best else None for key in _PICKED}
            selected.append({"method": method, "setting": setting, **pick,
                             "all_diverged": best is None})
        manifest["trials"].append(
            {"trial": trial, "split_seed": split_seed, "runs": entries, "selected": selected}
        )

    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def aggregate_records(trajectories: Sequence[Sequence[TrajectoryRecord]]) -> List[dict]:
    """Per-checkpoint mean and standard deviation (divisor n) across trials."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    keys = [(r.checkpoint, r.split) for r in trajectories[0]]
    for traj in trajectories[1:]:
        if [(r.checkpoint, r.split) for r in traj] != keys:
            raise ValueError("misaligned checkpoint grids across trials")
    # (metric, cell, trial), C-contiguous: each cell's values across trials
    # form one contiguous row, which numpy reduces with the same bits as a
    # separate 1-D array
    table = np.array([[_metrics_of(r) for r in traj] for traj in trajectories])
    shape = (len(trajectories), len(keys), len(METRIC_FIELDS))
    table = np.ascontiguousarray(table.reshape(shape).T)
    with np.errstate(invalid="ignore", over="ignore"):  # an inf cell's sd is nan, unwarned
        means, sds = table.mean(axis=2).tolist(), table.std(axis=2).tolist()
    rows = []
    for i, (cp, split) in enumerate(keys):
        row = {"checkpoint": cp, "split": split}
        for k, metric in enumerate(METRIC_FIELDS):
            row[f"{metric}_mean"] = means[k][i]
            row[f"{metric}_sd"] = sds[k][i]
        rows.append(row)
    return rows


_SELECTION_FIELDS = ("method", "setting", "file", "all_diverged")


def load_manifest(path) -> dict:
    """Read a manifest, checking every field that ``aggregate_trials`` reads.

    A file that is not JSON, lists no trials, lacks one of those fields,
    has a non-boolean ``all_diverged``, or pairs a selection with another
    (method, setting) than trial 0's selection at that index, raises
    ``DataError`` naming the file and the field or the selection.
    """
    try:
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
    except json.JSONDecodeError as err:
        raise DataError(f"manifest {str(path)!r} is not JSON: {err}") from None

    def fail(what):
        raise DataError(f"manifest {str(path)!r}: {what}")

    if not isinstance(manifest, dict) or not isinstance(manifest.get("trials"), list):
        fail("no list field 'trials'")
    if not manifest["trials"]:
        fail("no trials")
    for i, trial in enumerate(manifest["trials"]):
        if not isinstance(trial, dict) or not isinstance(trial.get("selected"), list):
            fail(f"trial {i} has no list field 'selected'")
        if len(trial["selected"]) != len(manifest["trials"][0]["selected"]):
            fail(f"trial {i} has a different number of selections than trial 0")
        for j, pick in enumerate(trial["selected"]):
            for key in _SELECTION_FIELDS:
                if not isinstance(pick, dict) or key not in pick:
                    fail(f"selection {j} of trial {i} has no field {key!r}")
            if not isinstance(pick["all_diverged"], bool):
                fail(f"selection {j} of trial {i} has no boolean in field 'all_diverged'")
            if not pick["all_diverged"] and not isinstance(pick["file"], str):
                fail(f"selection {j} of trial {i} has no file name in field 'file'")
            # aggregate_trials pools the selections at one index across trials
            first = manifest["trials"][0]["selected"][j]
            ours, theirs = (pick["method"], pick["setting"]), (first["method"], first["setting"])
            if ours != theirs:
                fail(f"selection {j} of trial {i} is (method, setting) {ours!r}, "
                     f"but selection {j} of trial 0 is {theirs!r}")
    return manifest


def aggregate_trials(manifest: dict, base_dir) -> List[dict]:
    """Aggregate each criterion's selected runs across trials.

    Returns one row per (method, setting, checkpoint, split).  Criteria whose
    selection diverged in any trial are omitted; the manifest already carries
    their divergence flags.
    """
    base = Path(base_dir)
    rows: List[dict] = []
    for picks in zip(*(t["selected"] for t in manifest["trials"])):
        if any(p["all_diverged"] for p in picks):
            continue
        trajs = [read_trajectory_csv(base / p["file"]) for p in picks]
        labels = {"method": picks[0]["method"], "setting": picks[0]["setting"]}
        rows += [{**labels, **row} for row in aggregate_records(trajs)]
    return rows


def write_aggregate_csv(path, rows: List[dict]) -> None:
    if not rows:
        raise ValueError("nothing to aggregate")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            out = []
            for key in header:
                v = row[key]
                out.append(_fmt(v) if isinstance(v, float) else str(v))
            writer.writerow(out)
