"""Synthetic generation, tabular parsing, preprocessing and splits."""

import numpy as np
import pytest

from robustmsd.data import (
    DataError,
    Dataset,
    SynthConfig,
    fit_scaler,
    generate_2d_outlier,
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
    assert ds.class_names == ["-1", "1"]


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
    from robustmsd.data import ColumnGroup

    columns = [
        ColumnGroup("num", "numeric", [0]),
        ColumnGroup("const", "numeric", [1]),
        ColumnGroup("cat", "onehot", [2, 3, 4], categories=["a", "b", "c"]),
    ]
    return Dataset(
        features=features,
        labels=np.array([0, 1, 0, 1]),
        n_classes=2,
        split=np.array(["train", "train", "train", "val"]),
        source="unit",
        columns=columns,
    )


def test_preprocess_minmax_from_train_only():
    ds = preprocess(_tabular_with_splits())
    # train range [2, 6]: 4 -> 0.5; val value 10 -> 2.0 unclamped
    np.testing.assert_allclose(ds.features[:, 0], [0.0, 1.0, 0.5, 2.0])
    # constant column maps to zero everywhere
    np.testing.assert_array_equal(ds.features[:, 1], np.zeros(4))


def test_preprocess_onehot_vocabulary_fixed_on_train():
    ds = preprocess(_tabular_with_splits())
    # category "c" never appears in train: its column is dropped and the
    # val row becomes all-zero within the group
    group = [g for g in ds.columns if g.name == "cat"][0]
    assert group.categories == ["a", "b"]
    onehot = ds.features[:, group.indices]
    np.testing.assert_array_equal(onehot.sum(axis=1), [1.0, 1.0, 1.0, 0.0])


def test_scaler_parameters_equal_train_extremes():
    raw = _tabular_with_splits()
    scaler = fit_scaler(raw)
    assert scaler.numeric_ranges[0] == (2.0, 6.0)
    assert scaler.numeric_ranges[1] == (7.0, 7.0)


def test_preprocess_requires_train_rows():
    ds = _tabular_with_splits()
    bad = Dataset(
        features=ds.features,
        labels=ds.labels,
        n_classes=2,
        split=np.array(["val", "val", "val", "val"]),
        source="unit",
        columns=ds.columns,
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
            source="unit",
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
        source="unit",
    )
    with pytest.raises(DataError):
        shuffle_split(ds, 0)


def test_data_dir_env_override(monkeypatch):
    from robustmsd.data import data_dir

    monkeypatch.delenv("ROBUSTMSD_DATA_DIR", raising=False)
    assert str(data_dir()) == "data"
    monkeypatch.setenv("ROBUSTMSD_DATA_DIR", "/somewhere/else")
    assert str(data_dir()) == "/somewhere/else"
