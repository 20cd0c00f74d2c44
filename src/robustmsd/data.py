"""Dataset generation, tabular ingestion, preprocessing and split handling.

Datasets carry a dense feature matrix, integer class labels (0..K-1, with
binary classes mapped from their sorted raw label values), per-row split
tags, and per-column metadata so preprocessing can re-derive train-only
statistics after one-hot expansion.
"""

import csv
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "DataError",
    "ColumnGroup",
    "Dataset",
    "SynthConfig",
    "generate_2d_outlier",
    "load_tabular",
    "TabularScaler",
    "fit_scaler",
    "preprocess",
    "shuffle_split",
    "data_dir",
]

SPLITS = ("train", "val", "test")
MISSING = "?"  # missing-value marker of the public credit-approval tables


class DataError(ValueError):
    """Malformed or inconsistent dataset input."""


def data_dir() -> Path:
    """Dataset directory, configurable via ROBUSTMSD_DATA_DIR (default ./data)."""
    return Path(os.environ.get("ROBUSTMSD_DATA_DIR", "data"))


@dataclass
class ColumnGroup:
    """One source column: either a single numeric feature or a one-hot block."""

    name: str
    kind: str  # "numeric" | "onehot"
    indices: List[int]
    categories: Optional[List[str]] = None


@dataclass
class Dataset:
    """Feature matrix with labels, split tags and provenance."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    split: np.ndarray
    source: str
    columns: Optional[List[ColumnGroup]] = None
    class_names: Optional[List[str]] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        self.split = np.asarray(self.split)
        n = self.features.shape[0]
        if self.labels.shape[0] != n or self.split.shape[0] != n:
            raise DataError("features, labels and split must have equal length")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features must be finite")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.n_classes
        ):
            raise DataError("labels must lie in [0, n_classes)")
        bad = set(np.unique(self.split)) - set(SPLITS)
        if bad:
            raise DataError(f"unknown split tags: {sorted(bad)}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def split_indices(self, name: str) -> np.ndarray:
        if name not in SPLITS:
            raise DataError(f"unknown split {name!r}")
        return np.flatnonzero(self.split == name)

    def splits_present(self):
        return tuple(s for s in SPLITS if np.any(self.split == s))


def _numeric_columns(names: Sequence[str]) -> List[ColumnGroup]:
    return [ColumnGroup(n, "numeric", [i]) for i, n in enumerate(names)]


@dataclass
class SynthConfig:
    """Two spherical Gaussian classes on the plane plus one scaled outlier."""

    n: int = 100
    class_means: tuple = ((-2.0, -2.0), (2.0, 2.0))
    covariance_scale: float = 1.0
    outlier_scale: float = -10.0
    seed: int = 0

    def __post_init__(self):
        if self.n <= 0 or self.n % 2 != 0:
            raise DataError(f"n must be even and positive, got {self.n!r}")
        if self.covariance_scale <= 0.0:
            raise DataError("covariance_scale must be positive")


def generate_2d_outlier(config: SynthConfig) -> Dataset:
    """Generate the planar two-class task with a single multiplied outlier.

    n/2 points per class are drawn from N(mean_k, covariance_scale * I); one
    uniformly chosen row has its feature vector multiplied by
    ``outlier_scale``.  All rows are tagged as training data.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    half = config.n // 2
    sd = math.sqrt(config.covariance_scale)
    mean0 = np.asarray(config.class_means[0], dtype=float)
    mean1 = np.asarray(config.class_means[1], dtype=float)
    X = np.vstack(
        [
            mean0 + sd * rng.standard_normal((half, 2)),
            mean1 + sd * rng.standard_normal((half, 2)),
        ]
    )
    labels = np.repeat([0, 1], half)
    outlier_row = int(rng.integers(config.n))
    X[outlier_row] *= config.outlier_scale
    return Dataset(
        features=X,
        labels=labels,
        n_classes=2,
        split=np.full(config.n, "train"),
        source=f"synth2d(seed={config.seed}, outlier_scale={config.outlier_scale:g})",
        columns=_numeric_columns(["x1", "x2"]),
    )


def _parse_label_classes(raw_labels: List[str]):
    """Map raw label strings to class indices, sorting numerically if possible."""
    uniq = sorted(set(raw_labels))
    try:
        uniq = sorted(uniq, key=float)
    except ValueError:
        pass
    if len(uniq) < 2:
        raise DataError(f"need at least two distinct label values, got {uniq}")
    index = {v: i for i, v in enumerate(uniq)}
    return np.array([index[v] for v in raw_labels], dtype=int), uniq


def _load_csv(path: Path, label_col: Optional[str]):
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows, line_nums = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {reader.line_num}: expected {len(header)} "
                    f"fields, got {len(row)}"
                )
            rows.append([c.strip() for c in row])
            line_nums.append(reader.line_num)
    if not rows:
        raise DataError(f"{path}: no data rows")
    if label_col is None:
        label_idx = len(header) - 1
    else:
        try:
            label_idx = header.index(label_col)
        except ValueError:
            raise DataError(f"{path}: no column named {label_col!r}") from None

    raw_labels = [r[label_idx] for r in rows]
    feature_cols = [j for j in range(len(header)) if j != label_idx]

    # A column is numeric when its values other than the missing-value marker
    # parse as floats.  The first such value decides: a later value that does
    # not parse, or the marker itself, is rejected with its line number.
    def is_num(s):
        try:
            float(s)
            return True
        except ValueError:
            return False

    groups: List[ColumnGroup] = []
    blocks = []
    out_idx = 0
    for j in feature_cols:
        name = header[j]
        col = [r[j] for r in rows]
        first = next((s for s in col if s != MISSING), None)
        if first is None or is_num(first):
            vals = np.empty(len(col))
            for i, s in enumerate(col):
                if s == MISSING:
                    raise DataError(
                        f"{path}: line {line_nums[i]}: missing value {s!r} "
                        f"in numeric column {name!r}"
                    )
                try:
                    vals[i] = float(s)
                except ValueError:
                    raise DataError(
                        f"{path}: line {line_nums[i]}: non-numeric value {s!r} "
                        f"in numeric column {name!r}"
                    ) from None
            blocks.append(vals[:, None])
            groups.append(ColumnGroup(name, "numeric", [out_idx]))
            out_idx += 1
        else:
            levels = sorted(set(col))
            onehot = np.zeros((len(col), len(levels)))
            pos = {v: k for k, v in enumerate(levels)}
            for i, s in enumerate(col):
                onehot[i, pos[s]] = 1.0
            blocks.append(onehot)
            groups.append(
                ColumnGroup(
                    name,
                    "onehot",
                    list(range(out_idx, out_idx + len(levels))),
                    categories=levels,
                )
            )
            out_idx += len(levels)
    features = np.hstack(blocks)
    labels, class_names = _parse_label_classes(raw_labels)
    return features, labels, class_names, groups


def _load_svmlight(path: Path):
    raw_labels, feature_maps = [], []
    max_idx = 0
    with open(path, encoding="utf-8") as f:
        for line_num, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            raw_labels.append(tokens[0])
            fmap = {}
            for tok in tokens[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise DataError(
                        f"{path}: line {line_num}: malformed feature token {tok!r}"
                    ) from None
                if idx < 1:
                    raise DataError(
                        f"{path}: line {line_num}: feature index {idx} < 1"
                    )
                if idx in fmap:
                    raise DataError(
                        f"{path}: line {line_num}: duplicate feature index {idx}"
                    )
                fmap[idx] = val
                max_idx = max(max_idx, idx)
            feature_maps.append(fmap)
    if not raw_labels:
        raise DataError(f"{path}: no data rows")
    features = np.zeros((len(raw_labels), max_idx))
    for i, fmap in enumerate(feature_maps):
        for idx, val in fmap.items():
            features[i, idx - 1] = val
    labels, class_names = _parse_label_classes(raw_labels)
    groups = _numeric_columns([f"f{j+1}" for j in range(max_idx)])
    return features, labels, class_names, groups


def load_tabular(path, fmt: str = "csv", label_col: Optional[str] = None) -> Dataset:
    """Load a CSV (header required, label column named or last) or svmlight file.

    A CSV column whose first value other than the missing-value marker
    ``?`` is non-numeric is one-hot encoded over the levels seen in the file
    (``?`` among them); any other column is numeric and rejects a ``?`` or a
    non-numeric value with the offending line number.  svmlight rows are
    ``label index:value`` with 1-based indices, densified to the maximum
    index in the file.
    """
    path = Path(path)
    if fmt == "csv":
        features, labels, class_names, groups = _load_csv(path, label_col)
    elif fmt == "svmlight":
        if label_col is not None:
            raise DataError("label_col applies to csv files only")
        features, labels, class_names, groups = _load_svmlight(path)
    else:
        raise DataError(f"unknown format {fmt!r}")
    return Dataset(
        features=features,
        labels=labels,
        n_classes=len(class_names),
        split=np.full(features.shape[0], "train"),
        source=f"{fmt}:{path}",
        columns=groups,
        class_names=class_names,
    )


@dataclass
class TabularScaler:
    """Train-split preprocessing statistics.

    ``numeric_ranges`` maps feature-column index -> (min, max) over the
    train rows; ``onehot_keep`` maps a group's first column index -> mask of
    category columns that appear at least once in the train split.
    """

    numeric_ranges: dict
    onehot_keep: dict

    def transform(self, dataset: Dataset) -> Dataset:
        X = dataset.features
        blocks = []
        new_groups: List[ColumnGroup] = []
        out_idx = 0
        for g in _groups_of(dataset):
            if g.kind == "numeric":
                j = g.indices[0]
                mn, mx = self.numeric_ranges[j]
                if mx > mn:
                    col = (X[:, j] - mn) / (mx - mn)
                else:
                    col = np.zeros(dataset.n)
                blocks.append(col[:, None])
                new_groups.append(ColumnGroup(g.name, "numeric", [out_idx]))
                out_idx += 1
            else:
                keep = self.onehot_keep[g.indices[0]]
                cols = X[:, g.indices][:, keep]
                cats = [c for c, k in zip(g.categories, keep) if k]
                blocks.append(cols)
                new_groups.append(
                    ColumnGroup(
                        g.name,
                        "onehot",
                        list(range(out_idx, out_idx + cols.shape[1])),
                        categories=cats,
                    )
                )
                out_idx += cols.shape[1]
        return replace(
            dataset,
            features=np.hstack(blocks) if blocks else X[:, :0],
            columns=new_groups,
            source=dataset.source + "|preprocessed",
        )


def _groups_of(dataset: Dataset) -> List[ColumnGroup]:
    if dataset.columns is not None:
        return dataset.columns
    return _numeric_columns([f"f{j}" for j in range(dataset.n_features)])


def fit_scaler(dataset: Dataset) -> TabularScaler:
    """Fit min-max ranges and one-hot vocabularies on the train split only."""
    train = dataset.split_indices("train")
    if train.size == 0:
        raise DataError("preprocess requires a nonempty train split")
    X = dataset.features
    numeric_ranges, onehot_keep = {}, {}
    for g in _groups_of(dataset):
        if g.kind == "numeric":
            j = g.indices[0]
            col = X[train, j]
            numeric_ranges[j] = (float(col.min()), float(col.max()))
        else:
            present = X[np.ix_(train, g.indices)].any(axis=0)
            onehot_keep[g.indices[0]] = present
    return TabularScaler(numeric_ranges, onehot_keep)


def preprocess(dataset: Dataset) -> Dataset:
    """Min-max scale numeric features to [0,1] with train-split statistics.

    Constant train columns map to 0; out-of-range val/test values are left
    unclamped.  One-hot groups keep only categories seen in the train split,
    so unseen categories become all-zero rows within their group.
    """
    return fit_scaler(dataset).transform(dataset)


def shuffle_split(dataset: Dataset, seed: int) -> Dataset:
    """Seeded permutation, then 80/10/10 assignment with remainders to train."""
    n = dataset.n
    if n < 10:
        raise DataError(f"shuffle_split requires n >= 10, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    n_val = n // 10
    n_test = n // 10
    n_train = n - n_val - n_test
    split = np.empty(n, dtype="<U5")
    split[perm[:n_train]] = "train"
    split[perm[n_train : n_train + n_val]] = "val"
    split[perm[n_train + n_val :]] = "test"
    return replace(dataset, split=split)
