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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .criteria import CriterionParams, JointState, schedule_params
from .data import Dataset, data_dir, load_tabular, preprocess, shuffle_split
from .model import LinearModel, loss_values
from .optimizer import (
    METRIC_FIELDS,
    RNG_ALGORITHM,
    DivergenceError,
    OptConfig,
    TrajectoryRecord,
    initial_joint_state,
    run_stacked_sgd,
)

__all__ = [
    "TrajectoryRecord",
    "MethodGrid",
    "ExperimentSpec",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "make_criterion",
    "load_dataset",
    "build_initial_state",
    "default_lam",
    "run_experiment",
    "aggregate_records",
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


def write_trajectory_csv(path, records: Sequence[TrajectoryRecord]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(TRAJECTORY_HEADER)
        for r in records:
            writer.writerow(
                [str(r.checkpoint), r.split]
                + [_fmt(getattr(r, m)) for m in METRIC_FIELDS]
            )


def read_trajectory_csv(path) -> List[TrajectoryRecord]:
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = tuple(next(reader))
        if header != TRAJECTORY_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        out = []
        for row in reader:
            cp, split, *metrics = row
            out.append(
                TrajectoryRecord(
                    int(cp), split, *[float(m) for m in metrics]
                )
            )
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
        if self.method == "erm":
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
    b_floor: float = 1e-8

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.methods:
            raise ValueError("at least one method is required")


def default_lam(n_train: int) -> float:
    return math.log(n_train) / math.sqrt(n_train)


def make_criterion(
    method: str, setting: Optional[float], n_train: int, lam: float
) -> CriterionParams:
    """Build the criterion parameters for one (method, setting) pair."""
    if method == "sunhuber":
        return schedule_params(n_train, setting, lam)
    if method == "erm":
        return CriterionParams("erm")
    if method == "cvar":
        return CriterionParams("cvar", xi=setting)
    if method == "chisq_dro":
        return CriterionParams("chisq_dro", eta_tilde=setting)
    raise ValueError(f"unknown method {method!r}")


def build_initial_state(dataset: Dataset, h0: Optional[np.ndarray] = None) -> JointState:
    """Zero weights (or given h0) with (a, b) seeded from the initial train losses."""
    rows = 1 if dataset.n_classes == 2 else dataset.n_classes
    if h0 is None:
        h0 = np.zeros((rows, dataset.n_features + 1))
    h0 = np.atleast_2d(np.asarray(h0, dtype=float))
    train = dataset.split_indices("train")
    values = loss_values(
        LinearModel(weights=h0), dataset.features[train], dataset.labels[train]
    )
    return initial_joint_state(h0, values)


def _final_metric(records: Sequence[TrajectoryRecord], split: str, metric: str):
    last = max(r.checkpoint for r in records)
    for r in records:
        if r.checkpoint == last and r.split == split:
            return getattr(r, metric)
    raise ValueError(f"no final-checkpoint record for split {split!r}")


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


def run_experiment(spec: ExperimentSpec, dataset: Optional[Dataset] = None) -> dict:
    """Execute the full sweep and return (and write) the manifest.

    Each trial trains all its runs together in one ``run_stacked_sgd`` call.
    Diverged runs are flagged and excluded from step-size selection; a
    criterion with no surviving run is recorded with a null selection.
    """
    out = Path(spec.out_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    if dataset is None:
        dataset = load_dataset(spec.data, spec.data_format, spec.label_col)

    spec_echo = asdict(spec)
    spec_echo["methods"] = [
        {"method": g.method, "settings": list(g.settings)} for g in spec.methods
    ]
    spec_echo["step_sizes"] = list(spec.step_sizes)
    manifest = {
        "rng_algorithm": RNG_ALGORITHM,
        "spec": spec_echo,
        "trials": [],
    }

    for trial in range(spec.trials):
        split_seed = spec.seed + trial
        ds = preprocess(shuffle_split(dataset, split_seed))
        n_train = int(ds.split_indices("train").size)
        lam = spec.lam if spec.lam is not None else default_lam(n_train)
        criteria = [
            (grid.method, setting, make_criterion(grid.method, setting, n_train, lam))
            for grid in spec.methods
            for setting in grid.expanded()
        ]
        runs = [
            (
                params,
                OptConfig(
                    step_size=step,
                    epochs=spec.epochs,
                    batch_size=spec.batch_size,
                    seed=split_seed,
                    b_floor=spec.b_floor,
                ),
            )
            for _, _, params in criteria
            for step in spec.step_sizes
        ]
        trained = run_stacked_sgd(runs, build_initial_state(ds), ds)
        trial_entry = {"trial": trial, "split_seed": split_seed, "runs": [], "selected": []}
        run_index = iter(range(len(runs)))
        for method, setting, params in criteria:
            best = None
            for step in spec.step_sizes:
                run_entry = {"method": method, "setting": setting, "step_size": step}
                try:
                    result = trained.result(next(run_index))
                except DivergenceError as err:
                    run_entry["status"] = "diverged"
                    run_entry["error"] = str(err)
                    trial_entry["runs"].append(run_entry)
                    continue
                fname = f"trial{trial}_{params.label()}_step={step:g}.csv"
                write_trajectory_csv(runs_dir / fname, result.trajectory)
                val_loss = _final_metric(result.trajectory, "val", "mean_loss")
                run_entry.update(
                    {
                        "status": "ok",
                        "file": f"runs/{fname}",
                        "final_val_mean_loss": val_loss,
                        "final_test_mean_sd": _final_metric(
                            result.trajectory, "test", "mean_sd"
                        ),
                    }
                )
                trial_entry["runs"].append(run_entry)
                if best is None or val_loss < best["final_val_mean_loss"]:
                    best = run_entry
            selection = {
                "method": method,
                "setting": setting,
                "step_size": best["step_size"] if best else None,
                "file": best["file"] if best else None,
                "final_test_mean_sd": best["final_test_mean_sd"] if best else None,
                "all_diverged": best is None,
            }
            trial_entry["selected"].append(selection)
        manifest["trials"].append(trial_entry)

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
    metrics = operator.attrgetter(*METRIC_FIELDS)
    # (metric, cell, trial), C-contiguous: each cell's values across trials
    # form one contiguous row, which numpy reduces with the same bits as a
    # separate 1-D array
    table = np.array([[metrics(r) for r in traj] for traj in trajectories])
    shape = (len(trajectories), len(keys), len(METRIC_FIELDS))
    table = np.ascontiguousarray(table.reshape(shape).T)
    means, sds = table.mean(axis=2).tolist(), table.std(axis=2).tolist()
    rows = []
    for i, (cp, split) in enumerate(keys):
        row = {"checkpoint": cp, "split": split}
        for k, metric in enumerate(METRIC_FIELDS):
            row[f"{metric}_mean"] = means[k][i]
            row[f"{metric}_sd"] = sds[k][i]
        rows.append(row)
    return rows


def aggregate_trials(manifest: dict, base_dir) -> List[dict]:
    """Aggregate each criterion's selected runs across trials.

    Returns one row per (method, setting, checkpoint, split).  Criteria whose
    selection diverged in any trial are omitted; the manifest already carries
    their divergence flags.
    """
    base = Path(base_dir)
    trials = manifest["trials"]
    if not trials:
        raise ValueError("manifest has no trials")
    rows: List[dict] = []
    n_sel = len(trials[0]["selected"])
    for k in range(n_sel):
        head = trials[0]["selected"][k]
        picks = [t["selected"][k] for t in trials]
        if any(p["all_diverged"] for p in picks):
            continue
        trajs = [read_trajectory_csv(base / p["file"]) for p in picks]
        for row in aggregate_records(trajs):
            rows.append(
                {"method": head["method"], "setting": head["setting"], **row}
            )
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
