"""Dataset generation, dataset references (``load_dataset``), tabular
ingestion, preprocessing and split handling.

Datasets carry a dense feature matrix, integer class labels (0..K-1, with
binary classes mapped from their sorted raw label values), per-row split
tags, and a one-hot column mask so preprocessing can tell the columns it
min-max scales with train-split statistics from those it keeps or drops.
"""

import codecs
import csv
import io
import math
import os
from dataclasses import KW_ONLY, dataclass, replace
from pathlib import Path
from typing import List, Optional

import numpy as np

__all__ = [
    "DataError",
    "Dataset",
    "FORMATS",
    "check_format",
    "load_dataset",
    "SynthConfig",
    "generate_2d_outlier",
    "load_tabular",
    "preprocess",
    "shuffle_split",
    "data_dir",
    "open_text",
]

SPLITS = ("train", "val", "test")
FORMATS = ("csv", "svmlight")  # the file formats load_tabular reads
BUNDLED = "bundled:"  # the prefix of a reference to a dataset packaged with robustmsd
MISSING = "?"  # missing-value marker of the public credit-approval tables
# an svmlight file densifies to its largest feature index and a CSV to its
# one-hot width; past these the loader refuses it before allocating (2**24
# cells is a 128 MiB matrix)
SVMLIGHT_MAX_WIDTH = 2**16
SVMLIGHT_MAX_CELLS = 2**24


class DataError(ValueError):
    """Malformed or inconsistent dataset input."""


def data_dir() -> Path:
    """Dataset directory, configurable via ROBUSTMSD_DATA_DIR (default ./data)."""
    return Path(os.environ.get("ROBUSTMSD_DATA_DIR", "data"))


@dataclass
class Dataset:
    """Feature matrix with labels, split tags and a one-hot column mask: ``onehot[j]``
    marks column j as one level of a one-hot block; None marks no column."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    split: np.ndarray
    _: KW_ONLY
    onehot: Optional[np.ndarray] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        self.split = np.asarray(self.split)
        n = self.features.shape[0]
        if self.labels.shape[0] != n or self.split.shape[0] != n:
            raise DataError("features, labels and split must have equal length")
        if self.onehot is not None:
            self.onehot = np.asarray(self.onehot, dtype=bool)
            if self.onehot.shape != self.features.shape[1:]:
                raise DataError("onehot must have one entry per feature column")
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


@dataclass
class SynthConfig:
    """Two classes on the plane, N((-2, -2), I) and N((2, 2), I), plus one scaled outlier."""

    n: int = 100
    outlier_scale: float = -10.0
    seed: int = 0

    def __post_init__(self):
        if self.n <= 0 or self.n % 2 != 0:
            raise DataError(f"n must be even and positive, got {self.n!r}")


def generate_2d_outlier(config: SynthConfig) -> Dataset:
    """Generate the planar two-class task with a single multiplied outlier.

    n/2 points per class are drawn from N((-2, -2), I) and n/2 from
    N((2, 2), I); one uniformly chosen row has its feature vector multiplied
    by ``outlier_scale``.  All rows are tagged as training data.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    half = config.n // 2
    X = np.vstack([-2.0 + rng.standard_normal((half, 2)),
                   2.0 + rng.standard_normal((half, 2))])
    labels = np.repeat([0, 1], half)
    outlier_row = int(rng.integers(config.n))
    with np.errstate(over="ignore", invalid="ignore"):
        X[outlier_row] *= config.outlier_scale
    if not np.isfinite(X[outlier_row]).all():
        raise DataError(f"outlier_scale {config.outlier_scale!r} takes the outlier "
                        "row past the finite range")
    return Dataset(
        features=X,
        labels=labels,
        n_classes=2,
        split=np.full(config.n, "train"),
    )


def open_text(path, newline=None) -> io.StringIO:
    """The file as ``open(path, encoding="utf-8", newline=newline)`` reads it, decoded
    up front and without a leading UTF-8 byte-order mark: a byte that is not
    UTF-8 raises DataError naming its line."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise DataError(f"{path}: line {line}: not UTF-8 text ({err.reason})") from None


def _number(text: str) -> Optional[float]:
    """The float ``text`` spells, or None where it spells none."""
    try:
        return float(text)
    except ValueError:
        return None


def _parse_label_classes(path: Path, raw_labels: List[str]):
    """Map raw label strings to class indices and the class count.  When
    every label parses as a number (callers reject a non-finite one), ``1``
    and ``1.0`` are one class and classes sort numerically; otherwise
    classes are texts, sorted as texts."""
    try:
        keys = [float(s) for s in raw_labels]
    except ValueError:
        keys = raw_labels
    uniq = sorted(set(keys))
    if len(uniq) < 2:
        raise DataError(f"{path}: need at least two distinct label values, got {raw_labels[:1]}")
    index = {k: i for i, k in enumerate(uniq)}
    return np.array([index[k] for k in keys], dtype=int), len(uniq)


def _load_csv(path: Path, label_col: Optional[str]):
    reader = csv.reader(open_text(path, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
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
    except csv.Error as err:  # e.g. a field over csv.field_size_limit()
        raise DataError(f"{path}: line {reader.line_num}: {err}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    if label_col is None:
        label_idx = len(header) - 1
    elif label_col not in header:
        raise DataError(f"{path}: no column named {label_col!r}")
    elif (count := header.count(label_col)) > 1:
        raise DataError(f"{path}: {count} columns are named {label_col!r}")
    else:
        label_idx = header.index(label_col)

    raw_labels = [r[label_idx] for r in rows]
    feature_cols = [j for j in range(len(header)) if j != label_idx]

    for s, line in zip(raw_labels, line_nums):
        if (value := _number(s)) is not None and not math.isfinite(value):
            raise DataError(
                f"{path}: line {line}: label {s!r} in column {header[label_idx]!r} "
                "is not a finite number"
            )

    # A column is numeric when its first value other than the missing-value
    # marker is a number.  Its first cell that is not a finite number, the
    # marker included, is rejected with its line number.
    columns = []  # (values, None) per numeric column, (texts, levels) per one-hot one
    for j in feature_cols:
        col = [r[j] for r in rows]
        first = next((s for s in col if s != MISSING), None)
        if first is not None and _number(first) is None:
            columns.append((col, sorted(set(col))))
            continue
        try:
            vals = np.array(col, dtype=float)  # a str cell parses by float()'s rules
        except ValueError:
            vals = np.array([_number(s) for s in col], dtype=float)  # None reads as nan
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            s = col[bad[0]]
            what = ("missing" if s == MISSING else
                    "non-numeric" if _number(s) is None else "non-finite")
            raise DataError(f"{path}: line {line_nums[bad[0]]}: {what} value {s!r} "
                            f"in numeric column {header[j]!r}")
        columns.append((vals, None))
    widths = [1 if levels is None else len(levels) for _, levels in columns]
    onehot = np.repeat(np.array([levels is not None for _, levels in columns], bool), widths)
    if onehot.any() and len(rows) * onehot.size > SVMLIGHT_MAX_CELLS:
        k = max(range(len(columns)), key=lambda k: len(columns[k][1] or ()))
        raise DataError(
            f"{path}: column {header[feature_cols[k]]!r} has {widths[k]} levels; one-hot "
            f"encoding would densify to a {len(rows)} x {onehot.size} matrix (at most "
            f"{SVMLIGHT_MAX_CELLS} cells)"
        )
    features = np.zeros((len(rows), onehot.size))
    at = 0
    for (col, levels), width in zip(columns, widths):
        if levels is None:
            features[:, at] = col
        else:
            pos = {v: at + k for k, v in enumerate(levels)}
            features[np.arange(len(col)), [pos[s] for s in col]] = 1.0
        at += width
    labels, n_classes = _parse_label_classes(path, raw_labels)
    return features, labels, n_classes, onehot


def _load_svmlight(path: Path):
    raw_labels, feature_maps = [], []
    max_idx = max_line = 0
    for line_num, line in enumerate(open_text(path), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        label = _number(tokens[0])
        if label is None or not math.isfinite(label):
            raise DataError(f"{path}: line {line_num}: label {tokens[0]!r} is not a finite number")
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
                raise DataError(f"{path}: line {line_num}: feature index {idx} < 1")
            if not math.isfinite(val):
                raise DataError(
                    f"{path}: line {line_num}: non-finite value {val_s!r} at feature index {idx}"
                )
            if idx in fmap:
                raise DataError(f"{path}: line {line_num}: duplicate feature index {idx}")
            fmap[idx] = val
            if idx > max_idx:
                max_idx, max_line = idx, line_num
        feature_maps.append(fmap)
    if not raw_labels:
        raise DataError(f"{path}: no data rows")
    shape = (len(raw_labels), max_idx)
    if max_idx > SVMLIGHT_MAX_WIDTH or shape[0] * max_idx > SVMLIGHT_MAX_CELLS:
        raise DataError(
            f"{path}: line {max_line}: feature index {max_idx} would densify to a "
            f"{shape[0]} x {max_idx} matrix (at most {SVMLIGHT_MAX_WIDTH} columns "
            f"and {SVMLIGHT_MAX_CELLS} cells)"
        )
    features = np.zeros(shape)
    for i, fmap in enumerate(feature_maps):
        for idx, val in fmap.items():
            features[i, idx - 1] = val
    labels, n_classes = _parse_label_classes(path, raw_labels)
    return features, labels, n_classes, None


def check_format(fmt: str, label_col: Optional[str] = None, ref: Optional[str] = None) -> None:
    """Raise DataError unless ``fmt`` is one of FORMATS, for a ``label_col``
    given with a format other than csv (only a CSV has named columns), and
    for a bundled reference ``ref`` read as other than csv: it is a CSV."""
    if fmt not in FORMATS:
        raise DataError(f"unknown format {fmt!r} (known: {', '.join(FORMATS)})")
    if label_col is not None and fmt != "csv":
        raise DataError("label_col applies to csv files only")
    if ref is not None and ref.startswith(BUNDLED) and fmt != "csv":
        raise DataError(f"format {fmt!r}: bundled dataset {ref!r} is a csv file")


def load_tabular(path, fmt: str = "csv", label_col: Optional[str] = None) -> Dataset:
    """Load a CSV (header required, label column named or last) or svmlight file.

    A CSV column whose first value other than the missing-value marker
    ``?`` is non-numeric is one-hot encoded over the levels seen in the file
    (``?`` among them); any other column is numeric, and its first cell in
    line order that is a ``?``, a non-numeric or a non-finite value (``nan``,
    ``inf``, ``1e400``) is rejected with its line number.  svmlight rows are
    ``label index:value`` with a finite number as label and 1-based indices,
    densified to the maximum index in the file; a label or value that is
    not a finite number is rejected with its line, and a file whose largest
    index exceeds ``SVMLIGHT_MAX_WIDTH``, or whose rows x largest index
    exceed ``SVMLIGHT_MAX_CELLS``, raises DataError before anything is
    allocated; so does a CSV with a one-hot column whose rows x width exceed
    the latter.
    ``onehot`` marks a CSV's one-hot levels; an svmlight file has none.
    """
    check_format(fmt, label_col)
    path = Path(path)
    features, labels, n_classes, onehot = (
        _load_csv(path, label_col) if fmt == "csv" else _load_svmlight(path))
    return Dataset(
        features=features,
        labels=labels,
        n_classes=n_classes,
        split=np.full(features.shape[0], "train"),
        onehot=onehot,
    )


def load_dataset(ref: str, fmt: str = "csv", label_col: Optional[str] = None) -> Dataset:
    """``load_tabular`` of the file a reference names: ``bundled:<name>``, a
    path, or a path under ``data_dir()``.  A reference that names no file
    raises FileNotFoundError, and a format ``check_format`` refuses DataError."""
    check_format(fmt, label_col, ref)
    if ref.startswith(BUNDLED):
        name = ref[len(BUNDLED):]
        path = Path(__file__).parent / "datasets" / f"{name}.csv"
        if not path.exists():
            raise FileNotFoundError(f"no bundled dataset {name!r}")
    elif not (path := Path(ref)).exists():
        path = data_dir() / ref
        if not path.exists():
            raise FileNotFoundError(f"dataset {ref!r} not found (also tried {path})")
    return load_tabular(path, fmt, label_col)


def preprocess(dataset: Dataset) -> Dataset:
    """Min-max scale numeric features to [0,1] with train-split statistics.

    A numeric column x becomes ``(x - mn) / (mx - mn)`` over its train min
    (-0.0 counts as 0.0) and max, or 0 where the train column is constant;
    val/test values are left unclamped.  A one-hot column is kept, unscaled,
    where a train row has it, so a category unseen in train becomes an
    all-zero row within its block.  An overflowing scaling raises DataError.
    """
    rows = (dataset.split == "train")[:, None]
    if not rows.any():
        raise DataError("preprocess requires a nonempty train split")
    X = dataset.features
    onehot = np.zeros(X.shape[1], bool) if dataset.onehot is None else dataset.onehot
    mn = X.min(axis=0, where=rows, initial=np.inf) + 0.0
    mx = X.max(axis=0, where=rows, initial=-np.inf)
    keep = ~onehot | (mx > 0)  # a one-hot column stays where a train row has its 1
    scaled = ~onehot & (mx > mn)  # the other numeric columns are constant: zeroed
    with np.errstate(over="ignore", invalid="ignore"):
        features = X.compress(keep, axis=1)  # C-ordered, as minibatch row gathers want
        features -= np.where(scaled, mn, 0.0)[keep]
        features /= np.where(scaled, mx - mn, 1.0)[keep]
    features[:, (~onehot & ~scaled)[keep]] = 0.0
    bad = ~np.isfinite(features).all(axis=0)
    if bad.any():
        j = np.flatnonzero(keep)[bad.argmax()]
        raise DataError(f"preprocess: feature column {j}: its train range [{mn[j]:g}, "
                        f"{mx[j]:g}] does not min-max scale to finite values")
    return replace(dataset, features=features, onehot=onehot[keep])


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
