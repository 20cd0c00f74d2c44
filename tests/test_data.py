"""Synthetic generation, tabular parsing, preprocessing and splits."""

import itertools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robustmsd import data
from robustmsd.cli import main
from robustmsd.data import (
    SPLITS,
    SVMLIGHT_MAX_WIDTH,
    DataError,
    Dataset,
    SynthConfig,
    generate_2d_outlier,
    load_dataset,
    load_tabular,
    preprocess,
    shuffle_split,
)

# ------------------------------------------------------------- synthetic


def test_synth_shape_balance_and_outlier():
    ds = generate_2d_outlier(SynthConfig(n=100, seed=3))
    assert ds.n == 100 and ds.n_features == 2
    assert int(np.sum(ds.labels == 0)) == 50
    assert int(np.sum(ds.labels == 1)) == 50
    assert set(ds.split) == {"train"}
    norms = np.linalg.norm(ds.features, axis=1)
    i = int(np.argmax(norms))
    rest = np.delete(norms, i)
    assert int(np.sum(norms > 5.0 * np.percentile(rest, 99))) == 1


def test_synth_deterministic():
    a = generate_2d_outlier(SynthConfig(n=100, seed=7))
    b = generate_2d_outlier(SynthConfig(n=100, seed=7))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = generate_2d_outlier(SynthConfig(n=100, seed=8))
    assert not np.array_equal(a.features, c.features)


@pytest.mark.parametrize("scale", [1e308, -1e308, np.inf, np.nan])
def test_synth_refuses_an_outlier_row_past_the_finite_range(scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="^outlier_scale .* past the finite range$"):
            generate_2d_outlier(SynthConfig(n=100, seed=0, outlier_scale=scale))


def test_synth_keeps_the_bits_of_its_fixed_class_geometry():
    # the arithmetic of N(mean, 1.0 * I) per class, then the scaled outlier row
    for n, seed, scale in itertools.product((2, 100), range(4), (-10.0, 1.0, -1000.0)):
        rng = np.random.Generator(np.random.PCG64(seed))
        X = np.vstack([np.array([mean, mean]) + 1.0 * rng.standard_normal((n // 2, 2))
                       for mean in (-2.0, 2.0)])
        X[int(rng.integers(n))] *= scale
        ds = generate_2d_outlier(SynthConfig(n=n, seed=seed, outlier_scale=scale))
        assert ds.features.tobytes() == X.tobytes(), (n, seed, scale)
        np.testing.assert_array_equal(ds.labels, np.repeat([0, 1], n // 2))


def test_synth_identity_outlier_scale():
    a = generate_2d_outlier(SynthConfig(n=60, seed=5, outlier_scale=1.0))
    b = generate_2d_outlier(SynthConfig(n=60, seed=5, outlier_scale=1.0))
    np.testing.assert_array_equal(a.features, b.features)


def test_synth_rejects_odd_n():
    with pytest.raises(DataError):
        SynthConfig(n=99)


# ------------------------------------------------------------------- csv


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_csv_onehot_expansion(tmp_path):
    p = write(
        tmp_path,
        "toy.csv",
        "age,color,label\n1.0,red,1\n2.0,blue,1\n3.0,red,-1\n",
    )
    ds = load_tabular(p, "csv")
    assert ds.n == 3 and ds.n_features == 3  # age + 2 one-hot columns
    np.testing.assert_array_equal(ds.features[:, 0], [1.0, 2.0, 3.0])
    # levels sorted: blue before red
    np.testing.assert_array_equal(ds.features[:, 1], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(ds.features[:, 2], [1.0, 0.0, 1.0])
    # labels sorted numerically: -1 -> 0, 1 -> 1
    np.testing.assert_array_equal(ds.labels, [1, 1, 0])
    assert ds.n_classes == 2


def test_each_loader_gives_its_onehot_mask(tmp_path):
    # CSV: False per numeric column, True per level of a one-hot column
    ds = load_tabular(write(tmp_path, "mix.csv", "a,c,b,label\n1,x,2,1\n3,y,4,0\n5,z,6,1\n"))
    np.testing.assert_array_equal(ds.onehot, [False, True, True, True, False])
    assert ds.onehot.dtype == bool
    assert load_tabular(write(tmp_path, "toy.svm", "1 3:0.5\n-1 1:2\n"), "svmlight").onehot is None
    assert generate_2d_outlier(SynthConfig(n=10)).onehot is None


def test_csv_refuses_a_onehot_matrix_too_large_before_allocating(tmp_path, monkeypatch):
    p = write(tmp_path, "ids.csv", "f,id,label\n" + "".join(
        f"{i}.5,id{i},{i % 2}\n" for i in range(12)))
    monkeypatch.setattr(data, "SVMLIGHT_MAX_CELLS", 12 * 13)
    assert load_tabular(p).features.shape == (12, 13)  # at the cap: f + 12 levels
    monkeypatch.setattr(data, "SVMLIGHT_MAX_CELLS", 12 * 13 - 1)
    with pytest.raises(DataError, match=re.escape(
            "ids.csv: column 'id' has 12 levels; one-hot encoding would densify to a "
            "12 x 13 matrix (at most 155 cells)")):
        load_tabular(p)
    # a CSV without a one-hot column is bounded by its own text, so uncapped
    monkeypatch.setattr(data, "SVMLIGHT_MAX_CELLS", 1)
    assert load_tabular(write(tmp_path, "num.csv", "f,label\n1,0\n2,1\n")).n == 2


def test_csv_named_label_column(tmp_path):
    p = write(tmp_path, "toy.csv", "y,f\n1,0.5\n0,0.25\n")
    ds = load_tabular(p, "csv", label_col="y")
    assert ds.n_features == 1
    np.testing.assert_array_equal(ds.labels, [1, 0])


def test_csv_non_numeric_in_numeric_column_names_line(tmp_path):
    p = write(tmp_path, "bad.csv", "f,label\n1.0,1\noops,0\n3.0,1\n")
    with pytest.raises(DataError, match="line 3"):
        load_tabular(p, "csv")


def test_csv_missing_marker_in_numeric_column_names_line(tmp_path):
    # a leading "?" must not turn the numeric column into one-hot levels
    p = write(tmp_path, "missing.csv", "f,g,label\n?,a,1\n2.0,b,0\n3.0,a,1\n")
    with pytest.raises(DataError, match=r"line 2: missing value '\?' in numeric column 'f'"):
        load_tabular(p, "csv")
    p = write(tmp_path, "late.csv", "f,label\n1.0,1\n2.0,0\n?,1\n")
    with pytest.raises(DataError, match="line 4"):
        load_tabular(p, "csv")


def test_csv_missing_marker_is_a_level_of_a_categorical_column(tmp_path):
    p = write(tmp_path, "cat.csv", "g,f,label\n?,1.0,1\nred,2.0,0\n?,3.0,1\n")
    ds = load_tabular(p, "csv")
    assert ds.n_features == 3  # one-hot over {?, red} + f
    np.testing.assert_array_equal(ds.features[:, 0], [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(ds.features[:, 2], [1.0, 2.0, 3.0])


def test_csv_inconsistent_field_count(tmp_path):
    p = write(tmp_path, "bad.csv", "a,b,label\n1,2,1\n1,2\n")
    with pytest.raises(DataError, match="line 3"):
        load_tabular(p, "csv")


def test_csv_single_label_rejected(tmp_path):
    p = write(tmp_path, "bad.csv", "f,label\n1.0,1\n2.0,1\n")
    with pytest.raises(DataError, match="label"):
        load_tabular(p, "csv")


def test_csv_label_column_only_gives_no_features(tmp_path):
    p = write(tmp_path, "labels.csv", "label\n1\n0\n1\n")
    ds = load_tabular(p, "csv")
    assert ds.features.shape == (3, 0) and ds.onehot.shape == (0,)
    np.testing.assert_array_equal(ds.labels, [1, 0, 1])


def test_csv_field_over_the_size_limit_names_file_and_line(tmp_path):
    p = write(tmp_path, "big.csv", "f,label\n1.0,1\n" + "9" * 140_000 + ",0\n")
    with pytest.raises(DataError, match=r"big\.csv: line 3: field larger than field limit"):
        load_tabular(p, "csv")


@pytest.mark.parametrize(
    "fmt, raw, line",
    [("csv", b"f,label\n1.0,1\n2.0,caf\xe9\n", 3), ("svmlight", b"1 1:2\n-1 1:\xff\n", 2),
     # a byte-order mark does not shift the line count
     ("csv", b"\xef\xbb\xbfa,b\n1,2\n\xff3,4\n", 3)],
)
def test_non_utf8_file_names_file_and_line(tmp_path, fmt, raw, line):
    p = tmp_path / "latin1.txt"
    p.write_bytes(raw)
    with pytest.raises(DataError, match=rf"latin1\.txt: line {line}: not UTF-8 text"):
        load_tabular(p, fmt)


@pytest.mark.parametrize("fmt, body, label_col", [
    ("csv", "label,f\n1,1.0\n0,2.0\n1,3.0\n", "label"),
    ("svmlight", "1 1:1.0\n-1 1:2.0\n1 1:3.0\n", None),
], ids=["csv-label-col", "svmlight"])
def test_utf8_byte_order_mark_is_not_part_of_the_data(tmp_path, fmt, body, label_col):
    plain = load_tabular(write(tmp_path, "plain.txt", body), fmt, label_col)
    bom = load_tabular(write(tmp_path, "bom.txt", "\ufeff" + body), fmt, label_col)
    np.testing.assert_array_equal(bom.features, plain.features)
    np.testing.assert_array_equal(bom.labels, plain.labels)
    np.testing.assert_array_equal(bom.labels, [1, 0, 1])


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("fmt, body, where", [
    ("csv", "f,g,label\n1.0,2.0,1\n3.0,{},0\n", "line 3: non-finite value '{}' in numeric "
                                                 "column 'g'"),
    ("svmlight", "1 1:2\n-1 1:0 3:{}\n", "line 2: non-finite value '{}' at feature index 3"),
    # a column's first bad cell is reported, whatever is wrong with a later one
    ("csv", "f,label\n1.0,1\n{},0\noops,1\n", "line 3: non-finite value '{}' in numeric "
                                                "column 'f'"),
], ids=["csv", "svmlight", "csv-before-a-word"])
def test_non_finite_value_names_file(tmp_path, fmt, body, where, value):
    p = write(tmp_path, "nan.txt", body.format(value))
    with pytest.raises(DataError, match=re.escape(f"nan.txt: {where.format(value)}")):
        load_tabular(p, fmt)


@pytest.mark.parametrize("fmt, body, label_col, where", [
    ("csv", "f,label\n1.0,1\n2.0,0\n", "y", "no column named 'y'"),
    ("csv", "a,a,label\n1.0,2.0,1\n3.0,4.0,0\n", "a", "2 columns are named 'a'"),
    ("svmlight", "1 1:2\n-1 0:1\n", None, "line 2: feature index 0 < 1"),
], ids=["csv-label-col", "csv-label-col-twice", "svmlight-index"])
def test_loader_refusal_names_file_and_fault(tmp_path, fmt, body, label_col, where):
    p = write(tmp_path, "bad.txt", body)
    with pytest.raises(DataError, match=re.escape(f"bad.txt: {where}")):
        load_tabular(p, fmt, label_col)


@pytest.mark.parametrize("fmt, body", [
    ("csv", "f,label\n1.0,1.0\n2.0,1\n3.0,-1\n4.0,1e0\n"),
    ("svmlight", "1.0 1:1\n1 1:2\n-1 1:3\n1e0 1:4\n"),
], ids=["csv", "svmlight"])
def test_one_number_spelled_several_ways_is_one_class(tmp_path, fmt, body):
    # numeric labels are classes by value, sorted numerically
    ds = load_tabular(write(tmp_path, "spelled.txt", body), fmt)
    assert ds.n_classes == 2
    np.testing.assert_array_equal(ds.labels, [1, 1, 0, 1])


def test_csv_text_labels_are_classes_by_text(tmp_path):
    ds = load_tabular(write(tmp_path, "text.csv", "f,label\n1,yes\n2,no\n3,Yes\n4,yes\n"), "csv")
    assert ds.n_classes == 3  # "Yes" < "no" < "yes"
    np.testing.assert_array_equal(ds.labels, [2, 1, 0, 2])


@pytest.mark.parametrize("label", ["nan", "inf", "-inf", "1e400"])
def test_csv_non_finite_label_names_file_line_and_column(tmp_path, label):
    p = write(tmp_path, "nan.csv", f"f,y\n1.0,1\n2.0,{label}\n3.0,0\n")
    with pytest.raises(DataError, match=re.escape(
            f"nan.csv: line 3: label {label!r} in column 'y' is not a finite number")):
        load_tabular(p, "csv")


# -------------------------------------------------------------- svmlight


def test_svmlight_densify(tmp_path):
    p = write(tmp_path, "toy.svm", "1 3:0.5\n-1 4:1.0 1:2.0\n")
    ds = load_tabular(p, "svmlight")
    np.testing.assert_array_equal(ds.features[0], [0.0, 0.0, 0.5, 0.0])
    np.testing.assert_array_equal(ds.features[1], [2.0, 0.0, 0.0, 1.0])
    np.testing.assert_array_equal(ds.labels, [1, 0])


def test_svmlight_malformed_token(tmp_path):
    p = write(tmp_path, "bad.svm", "1 3:0.5\n1 nope\n")
    with pytest.raises(DataError, match="line 2"):
        load_tabular(p, "svmlight")
    p2 = write(tmp_path, "bad2.svm", "1 2:1 2:3\n-1 1:0\n")
    with pytest.raises(DataError, match="duplicate"):
        load_tabular(p2, "svmlight")
    # a label must be a finite number: a CSV header, a word or a nan is not
    for name, body, line, token in [
        ("synth.csv", "x1,x2,label\n1.0,2.0,1\n", 1, "x1,x2,label"),
        ("abc.svm", "1 1:1\nabc 1:1\n", 2, "abc"),
        ("nan.svm", "1 1:1\nnan 1:1\n", 2, "nan"),
    ]:
        p = write(tmp_path, name, body)
        with pytest.raises(DataError, match=re.escape(
                f"{name}: line {line}: label {token!r} is not a finite number")):
            load_tabular(p, "svmlight")


@pytest.mark.parametrize(
    "body, match",
    [
        ("1 1000000000:1\n", "line 1: feature index 1000000000 would densify to a 1 x 1000000000"),
        ("1 1:1\n0 65537:2 3:1\n", "line 2: feature index 65537 would densify to a 2 x 65537"),
        ("0 1:1\n" * 300 + "1 60000:1\n", "line 301: feature index 60000 would densify to a "
                                          "301 x 60000"),
    ],
)
def test_svmlight_rejects_a_matrix_too_large_before_allocating(tmp_path, body, match):
    p = write(tmp_path, "wide.svm", body)
    with pytest.raises(DataError, match=f"wide.svm: {match} matrix"):
        load_tabular(p, "svmlight")


def test_svmlight_loads_at_the_width_cap(tmp_path):
    p = write(tmp_path, "edge.svm", f"1 {SVMLIGHT_MAX_WIDTH}:1\n0 1:1\n")
    ds = load_tabular(p, "svmlight")
    assert ds.features.shape == (2, SVMLIGHT_MAX_WIDTH)
    assert ds.features[0, -1] == 1.0


SVM_TOKEN = st.one_of(
    # indices up to one past the width cap, which the loader refuses before allocating
    st.builds("{}:{}".format, st.integers(-2, SVMLIGHT_MAX_WIDTH + 1),
              st.sampled_from(["1", "-0.5", "nan", "x"])),
    st.sampled_from(["1", "-1", "0", "2", "#", ":", "1:", ":1", "3:4:5"]),
    st.text(max_size=6),
)
SVM_TEXT = st.lists(
    st.lists(SVM_TOKEN, max_size=5).map(" ".join), max_size=6
).map("\n".join)
CSV_TEXT = st.lists(
    st.lists(
        st.one_of(st.sampled_from(["1", "0", "2.5", "?", "nan", "a", "b", '"', ""]),
                  st.text(max_size=6)),
        min_size=1, max_size=4,
    ).map(",".join),
    max_size=6,
).map("\n".join)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(["csv", "svmlight"]),
    st.one_of(CSV_TEXT, SVM_TEXT, st.text(max_size=80)).map(str.encode)
    | st.binary(max_size=80),
)
def test_loader_returns_dataset_or_raises_data_error(tmp_path_factory, fmt, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_bytes(raw)
    try:
        ds = load_tabular(path, fmt)
    except DataError:
        return
    assert isinstance(ds, Dataset) and ds.n == ds.labels.size and ds.n_classes >= 2


NUMBER_CELL = st.one_of(
    st.floats().map(repr),  # nan and inf among them
    st.sampled_from(["1_000", " 1 ", "\u0661\u0662", "1e400", "-1e-400", "infinity", "-0",
                     ".5", "1.", "?", "x", "1__0", "0x10"]),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(NUMBER_CELL, min_size=2, max_size=8))
def test_csv_numeric_column_reads_each_cell_as_float_does(tmp_path_factory, cells):
    # the reference: float() per cell, the first that is not a finite number reported
    path = tmp_path_factory.getbasetemp() / "cells.csv"
    path.write_text("f,label\n1,0\n" + "".join(f"{c},1\n" for c in cells), encoding="utf-8")
    reference = []
    for line, cell in enumerate(cells, start=3):
        try:
            value = float(cell)
        except ValueError:
            value = None
        if value is None or not math.isfinite(value):
            with pytest.raises(DataError, match=re.escape(f"line {line}: ")):
                load_tabular(path, "csv")
            return
        reference.append(value)
    column = load_tabular(path, "csv").features[1:, 0]
    np.testing.assert_array_equal(column.view(np.uint64), np.array(reference).view(np.uint64))


# ------------------------------------------------------------ preprocess


def _tabular_with_splits():
    features = np.array(
        [
            # numeric, constant, onehot(a), onehot(b), onehot(c)
            [2.0, 7.0, 1.0, 0.0, 0.0],
            [6.0, 7.0, 0.0, 1.0, 0.0],
            [4.0, 7.0, 1.0, 0.0, 0.0],
            [10.0, 7.0, 0.0, 0.0, 1.0],  # val row, category unseen in train
        ]
    )
    return Dataset(
        features=features,
        labels=np.array([0, 1, 0, 1]),
        n_classes=2,
        split=np.array(["train", "train", "train", "val"]),
        onehot=[False, False, True, True, True],
    )


def test_preprocess_minmax_from_train_only():
    ds = preprocess(_tabular_with_splits())
    # train range [2, 6] exactly (the train extremes map to exactly 0 and 1):
    # 4 -> 0.5; val value 10 -> 2.0 unclamped
    np.testing.assert_array_equal(ds.features[:, 0], [0.0, 1.0, 0.5, 2.0])
    # constant column maps to zero everywhere
    np.testing.assert_array_equal(ds.features[:, 1], np.zeros(4))


def test_preprocess_onehot_vocabulary_fixed_on_train():
    ds = preprocess(_tabular_with_splits())
    # category "c" never appears in train: its column is dropped and the
    # val row becomes all-zero within the block
    np.testing.assert_array_equal(ds.onehot, [False, False, True, True])
    onehot = ds.features[:, ds.onehot]
    np.testing.assert_array_equal(onehot.sum(axis=1), [1.0, 1.0, 1.0, 0.0])


def _reference_preprocess(features, split, onehot):
    """Column by column: numeric columns min-max scaled with their train
    statistics (constant ones zeroed), one-hot ones kept where a train row
    has them.  numpy's min may give either zero's sign, so -0.0 counts as 0.0."""
    train = np.flatnonzero(split == "train")
    columns, mask = [], []
    for j, is_onehot in enumerate(onehot):
        col = features[:, j]
        if is_onehot:
            if col[train].any():
                columns.append(col)
                mask.append(True)
            continue
        mn, mx = float(col[train].min()) + 0.0, float(col[train].max())
        columns.append((col - mn) / (mx - mn) if mx > mn else np.zeros(col.size))
        mask.append(False)
    return np.column_stack(columns) if columns else features[:, :0], mask


@st.composite
def mixed_tables(draw):
    """Features, split tags (one train row at least) and one-hot mask of a table
    of numeric, constant and one-hot columns."""
    n = draw(st.integers(1, 8))
    split = draw(st.lists(st.sampled_from(SPLITS), min_size=n, max_size=n))
    split[draw(st.integers(0, n - 1))] = "train"
    value = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [0.0, -0.0, 1.0, -2.5])
    columns, onehot = [], []
    for kind in draw(st.lists(st.sampled_from(["numeric", "constant", "onehot"]), max_size=4)):
        if kind == "onehot":  # a level missing from train drops its column
            width = draw(st.integers(1, 4))
            picks = draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n))
            columns += [[float(p == k) for p in picks] for k in range(width)]
            onehot += [True] * width
        else:
            columns.append([draw(value)] * n if kind == "constant"
                           else draw(st.lists(value, min_size=n, max_size=n)))
            onehot.append(False)
    features = np.array(columns, dtype=float).T.reshape(n, len(columns))
    return features, np.array(split), onehot


@settings(max_examples=300, deadline=None)
@given(mixed_tables(), st.booleans())
def test_preprocess_matches_a_per_column_reference_bit_for_bit(table, mask_none):
    features, split, onehot = table
    ds = Dataset(features, np.zeros(len(split), dtype=int), 2, split,
                 onehot=None if mask_none and not any(onehot) else onehot)
    with np.errstate(over="ignore", invalid="ignore"):
        expected, mask = _reference_preprocess(features, split, onehot)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not np.isfinite(expected).all():
            with pytest.raises(DataError, match="does not min-max scale to finite values"):
                preprocess(ds)
            return
        out = preprocess(ds)
    assert out.features.shape == expected.shape
    assert out.features.tobytes() == expected.tobytes()
    assert out.features.flags.c_contiguous  # row-major like the loaders' matrices
    np.testing.assert_array_equal(out.onehot, mask)


def test_preprocess_overflowing_train_range_is_one_error_line(tmp_path, capsys):
    # every split of 12 rows leaves both extremes in its 10 train rows
    p = write(tmp_path, "huge.csv", "g,f,label\n" + "".join(
        f"{i},{(-1) ** i}e308,{i % 2}\n" for i in range(12)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--data", str(p), "--split-seed", "1", "--preprocess",
                     "--criterion", "erm", "--out", str(tmp_path / "run")])
    assert code == 1 and caught == []
    assert capsys.readouterr().err == ("error: preprocess: feature column 1: its train range "
                                       "[-1e+308, 1e+308] does not min-max scale to finite "
                                       "values\n")
    assert not (tmp_path / "run").exists()


def test_preprocess_requires_train_rows():
    ds = _tabular_with_splits()
    bad = Dataset(
        features=ds.features,
        labels=ds.labels,
        n_classes=2,
        split=np.array(["val", "val", "val", "val"]),
        onehot=ds.onehot,
    )
    with pytest.raises(DataError):
        preprocess(bad)


# ----------------------------------------------------------------- split


def test_shuffle_split_sizes():
    def sizes(n, seed=0):
        ds = Dataset(
            features=np.zeros((n, 1)),
            labels=np.zeros(n, dtype=int),
            n_classes=2,
            split=np.full(n, "train"),
            )
        out = shuffle_split(ds, seed)
        return tuple(int(np.sum(out.split == s)) for s in ("train", "val", "test"))

    assert sizes(10) == (8, 1, 1)
    assert sizes(101) == (81, 10, 10)
    assert sizes(690) == (552, 69, 69)


def test_shuffle_split_deterministic_and_covering():
    ds = generate_2d_outlier(SynthConfig(n=50, seed=1))
    a = shuffle_split(ds, 9)
    b = shuffle_split(ds, 9)
    np.testing.assert_array_equal(a.split, b.split)
    c = shuffle_split(ds, 10)
    assert not np.array_equal(a.split, c.split)
    assert set(a.split) == {"train", "val", "test"}


def test_shuffle_split_rejects_tiny():
    ds = Dataset(
        features=np.zeros((9, 1)),
        labels=np.zeros(9, dtype=int),
        n_classes=2,
        split=np.full(9, "train"),
    )
    with pytest.raises(DataError):
        shuffle_split(ds, 0)


def test_data_dir_env_override(monkeypatch):
    from robustmsd.data import data_dir

    monkeypatch.delenv("ROBUSTMSD_DATA_DIR", raising=False)
    assert str(data_dir()) == "data"
    monkeypatch.setenv("ROBUSTMSD_DATA_DIR", "/somewhere/else")
    assert str(data_dir()) == "/somewhere/else"


@pytest.mark.parametrize("ref, fmt, file", [
    ("bundled:credit690", "csv", "BUNDLED"),
    ("ABSOLUTE", "csv", "here.csv"),
    ("here.csv", "csv", "here.csv"),  # relative to the working directory
    ("under.csv", "csv", "store/under.csv"),  # relative to ROBUSTMSD_DATA_DIR
    ("under.svm", "svmlight", "store/under.svm"),
    ("nope.csv", "csv", "dataset 'nope.csv' not found (also tried store/nope.csv)"),
    ("bundled:nope", "csv", "no bundled dataset 'nope'"),
])
def test_load_dataset_reads_the_one_file_a_reference_names(tmp_path, monkeypatch, ref, fmt,
                                                           file):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ROBUSTMSD_DATA_DIR", "store")
    write(tmp_path, "here.csv", "f,label\n1,0\n2,1\n")
    (tmp_path / "store").mkdir()
    write(tmp_path, "store/under.csv", "f,g,label\n1,5,a\n2,6,b\n3,7,c\n")
    write(tmp_path, "store/under.svm", "1 2:0.5\n-1 1:2\n")
    ref = str(tmp_path / "here.csv") if ref == "ABSOLUTE" else ref
    if file == "BUNDLED":
        file = Path(data.__file__).parent / "datasets" / "credit690.csv"
    elif not Path(file).exists():
        with pytest.raises(FileNotFoundError, match=re.escape(file)):
            load_dataset(ref, fmt)
        return
    got, want = load_dataset(ref, fmt), load_tabular(file, fmt)
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.labels, want.labels) and got.n_classes == want.n_classes


def test_load_dataset_reads_a_bundled_dataset_as_csv_only():
    with pytest.raises(DataError, match=re.escape(
            "format 'svmlight': bundled dataset 'bundled:credit690' is a csv file")):
        load_dataset("bundled:credit690", "svmlight")
