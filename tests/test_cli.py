"""CLI contract: subcommands, exit codes, file outputs."""

import csv
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustmsd.cli import _spec_from_config, main
from robustmsd.criteria import KINDS
from robustmsd.data import DataError
from robustmsd.harness import ExperimentSpec
from robustmsd.suite import run_property_suite


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required arguments
    assert exc.value.code == 2


def test_synth_writes_csv(tmp_path):
    assert main(["synth", "--n", "100", "--seed", "7", "--out", str(tmp_path)]) == 0
    rows = list(csv.reader(open(tmp_path / "synth.csv")))
    assert rows[0] == ["x1", "x2", "label"]
    assert len(rows) == 101
    assert {r[2] for r in rows[1:]} == {"-1", "1"}


def test_train_batch_mode_row_count(tmp_path):
    main(["synth", "--n", "100", "--seed", "3", "--out", str(tmp_path)])
    code = main(
        [
            "train",
            "--data", str(tmp_path / "synth.csv"),
            "--criterion", "sunhuber",
            "--beta0", "0.9",
            "--step-size", "0.01",
            "--iterations", "1000",
            "--checkpoint-every", "100",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 0
    rows = list(csv.reader(open(tmp_path / "run" / "trajectory.csv")))
    assert len(rows) == 1 + 1000 // 100  # header + one train record per checkpoint


def test_train_zero_iterations_writes_header_only(tmp_path, capsys):
    main(["synth", "--n", "100", "--seed", "3", "--out", str(tmp_path)])
    code = main(
        [
            "train",
            "--data", str(tmp_path / "synth.csv"),
            "--criterion", "sunhuber",
            "--iterations", "0",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 0
    rows = list(csv.reader(open(tmp_path / "run" / "trajectory.csv")))
    assert len(rows) == 1 and rows[0][0] == "checkpoint"
    assert "0 records" in capsys.readouterr().out


def test_experiment_zero_epochs_exits_1_before_training(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[data]\n"
        "path = bundled:credit690\n"
        "\n"
        "[experiment]\n"
        "trials = 1\n"
        "epochs = 0\n"
        f"out = {tmp_path / 'exp'}\n",
        encoding="utf-8",
    )
    assert main(["experiment", "--config", str(cfg)]) == 1
    assert "epochs" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


def test_train_runtime_error_exits_1(tmp_path):
    code = main(
        [
            "train",
            "--data", str(tmp_path / "missing.csv"),
            "--criterion", "erm",
            "--iterations", "10",
        ]
    )
    assert code == 1


def test_train_resolves_data_like_experiment(tmp_path, monkeypatch, capsys):
    # train and experiment share one resolver: bundled names are checked and
    # relative paths fall back to ROBUSTMSD_DATA_DIR
    args = ["train", "--criterion", "cvar", "--xi", "0.25", "--epochs", "1",
            "--out", str(tmp_path / "run")]
    assert main(args + ["--data", "bundled:nope"]) == 1
    assert "no bundled dataset 'nope'" in capsys.readouterr().err
    main(["synth", "--n", "100", "--seed", "3", "--out", str(tmp_path / "d")])
    monkeypatch.setenv("ROBUSTMSD_DATA_DIR", str(tmp_path / "d"))
    monkeypatch.chdir(tmp_path)
    assert main(args + ["--data", "synth.csv"]) == 0
    rows = list(csv.reader(open(tmp_path / "run" / "trajectory.csv")))
    assert len(rows) == 2  # header + the train split's record after one epoch


def test_train_rejects_bad_criterion_setting_with_exit_1(tmp_path, capsys):
    main(["synth", "--n", "100", "--seed", "3", "--out", str(tmp_path)])
    code = main(
        [
            "train",
            "--data", str(tmp_path / "synth.csv"),
            "--criterion", "chisq_dro",
            "--eta-tilde", "1.5",
            "--iterations", "5",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 1
    assert "eta_tilde" in capsys.readouterr().err


def test_experiment_and_report_round_trip(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[data]\n"
        "path = bundled:credit690\n"
        "\n"
        "[experiment]\n"
        "trials = 1\n"
        "seed = 0\n"
        "epochs = 2\n"
        "batch_size = 64\n"
        "step_sizes = 0.01\n"
        f"out = {tmp_path / 'exp'}\n"
        "\n"
        "[methods]\n"
        "erm = yes\n"
        "cvar = 0.5\n",
        encoding="utf-8",
    )
    assert main(["experiment", "--config", str(cfg)]) == 0
    manifest = tmp_path / "exp" / "manifest.json"
    assert manifest.exists()
    assert main(["report", "--manifest", str(manifest)]) == 0
    agg = list(csv.reader(open(tmp_path / "exp" / "aggregate.csv")))
    assert agg[0][0] == "method"
    assert len(agg) == 1 + 2 * 2 * 3  # methods x epochs x splits


def sweep_config(tmp_path, methods):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[data]\n"
        "path = bundled:credit690\n"
        "\n"
        "[experiment]\n"
        "trials = 1\n"
        "epochs = 1\n"
        "step_sizes = 0.01\n"
        f"out = {tmp_path / 'exp'}\n"
        "\n"
        f"[methods]\n{methods}\n",
        encoding="utf-8",
    )
    return cfg


@pytest.mark.parametrize(
    "methods, method",
    [
        ("foo = 0.5", "foo"),  # unknown method
        ("cvar = 1.5", "cvar"),  # level outside (0, 1)
        ("sunhuber = 50", "sunhuber"),  # beta = 50/sqrt(552) >= lam
        ("sunhuber = nan", "sunhuber"),  # no beta0 compares below lam
        ("chisq_dro = ", "chisq_dro"),  # empty settings list
        ("erm = yes\ncvar = 0.5, 1.5", "cvar"),  # one bad setting among good ones
    ],
)
def test_experiment_bad_method_exits_1_before_writing(tmp_path, capsys, methods, method):
    cfg = sweep_config(tmp_path, methods)
    assert main(["experiment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and method in err
    assert not (tmp_path / "exp").exists()


# each kind's setting flag, the run label of that setting and which of (a, b)
# it optimizes
KIND_TABLE = {
    "sunhuber": (["--beta0", "0.9"], "0.9", "sunhuber_b0=0.9", True, True),
    "erm": ([], "yes", "erm", False, False),
    "cvar": (["--xi", "0.25"], "0.25", "cvar_xi=0.25", True, False),
    "chisq_dro": (["--eta-tilde", "0.75"], "0.75", "chisq_dro_eta=0.75", True, False),
}


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_trains_and_sweeps(tmp_path, kind):
    flags, setting, label, updates_a, updates_b = KIND_TABLE[kind]
    main(["synth", "--n", "100", "--seed", "3", "--out", str(tmp_path)])
    args = ["train", "--data", str(tmp_path / "synth.csv"), "--criterion", kind,
            "--iterations", "5", "--checkpoint-every", "5", "--out", str(tmp_path / "run")]
    assert main(args + flags) == 0
    cfg = sweep_config(tmp_path, f"{kind} = {setting}")
    assert main(["experiment", "--config", str(cfg)]) == 0
    for path in (tmp_path / "run" / "trajectory.csv",
                 tmp_path / "exp" / "runs" / f"trial0_{label}_step=0.01.csv"):
        header, *rows = list(csv.reader(open(path)))
        a = [row[header.index("a")] for row in rows]
        b = [row[header.index("b")] for row in rows]
        assert rows and all((v != "nan") == updates_a for v in a)
        assert all((v != "nan") == updates_b for v in b)


def test_verify_quick_passes(tmp_path):
    assert main(["verify", "--quick", "--out", str(tmp_path)]) == 0
    rows = list(csv.reader(open(tmp_path / "verify_report.csv")))
    assert rows[0] == ["property", "status", "detail"]
    assert all(row[1] == "PASS" for row in rows[1:])
    assert len(rows) == 1 + 11


def test_property_suite_outcomes_quick():
    outcomes = run_property_suite(quick=True, seed=0)
    assert all(o.passed for o in outcomes)
    names = [o.name for o in outcomes]
    assert "pair_optimality_equalities" in names
    assert "location_concentration_lognormal" in names


def test_verify_prints_property_times_on_stderr_only(tmp_path, capsys):
    reports = []
    for run in ("a", "b"):
        assert main(["verify", "--quick", "--out", str(tmp_path / run)]) == 0
        captured = capsys.readouterr()
        times = [line.split() for line in captured.err.splitlines()]
        assert len(times) == 11
        assert all(t[0] == "time" and t[3] == "s" and float(t[2]) >= 0.0 for t in times)
        assert "time" not in captured.out
        reports.append((tmp_path / run / "verify_report.csv").read_bytes())
    assert reports[0] == reports[1]
    assert b"time" not in reports[0]


@pytest.mark.parametrize(
    "text",
    [
        "[data]\npath = bundled:credit690\npath = other\n",  # duplicate key
        "path = bundled:credit690\n",  # no section header
        "[experiment]\ntrials = 1\n",  # no [data] section
        "[data]\nformat = csv\n",  # no path key
        "[data]\npath = %(nope)s\n",  # bad interpolation
        "[data]\npath = bundled:credit690\n[experiment]\nepoch = 1\n",  # unknown key
        "[data]\npath = bundled:credit690\ncolumn = label\n",  # unknown key in [data]
        "[data]\npath = bundled:credit690\n[method]\nerm = yes\n",  # unknown section
    ],
)
def test_experiment_malformed_config_exits_1(tmp_path, capsys, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text, encoding="utf-8")
    assert main(["experiment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.ini" in err


@pytest.mark.parametrize(
    "text, named",
    [
        ("[experiment]\nepoch = 1\n", ("'epoch'", "[experiment]")),
        ("column = label\n", ("'column'", "[data]")),
        ("[method]\nerm = yes\n", ("[method]",)),
        ("[methods]\nerm = 0.5\ncvar = 0.5\n", ("erm", "'0.5'")),
        ("[methods]\nerm = ye\n", ("erm", "'ye'")),
    ],
)
def test_config_error_names_the_key_section_or_value(tmp_path, text, named):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[data]\npath = bundled:credit690\n" + text, encoding="utf-8")
    with pytest.raises(DataError) as err:
        _spec_from_config(str(cfg), None, None)
    assert "bad.ini" in str(err.value)
    assert all(part in str(err.value) for part in named)


@pytest.mark.parametrize("flag, kept", [(f, True) for f in ("true", "Yes", "1", "on")]
                         + [(f, False) for f in ("false", "no", "0", "OFF")])
def test_methods_flag_accepts_yes_and_no(tmp_path, flag, kept):
    cfg = sweep_config(tmp_path, f"erm = {flag}\ncvar = 0.5")
    methods = [g.method for g in _spec_from_config(str(cfg), None, None).methods]
    assert methods == (["erm", "cvar"] if kept else ["cvar"])


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"trials": [{}]}', "'selected'"),
        ("[1, 2]", "'trials'"),
        ('{"trials": [{"selected": [{"method": "erm", "file": null}]}]}', "'setting'"),
        (
            '{"trials": [{"selected": [{"method": "erm", "setting": null,'
            ' "file": 5, "all_diverged": false}]}]}',
            "'file'",
        ),
        ("not json", "not JSON"),
    ],
)
def test_report_malformed_manifest_exits_1(tmp_path, capsys, text, field):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text, encoding="utf-8")
    assert main(["report", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest ") and "manifest.json" in err and field in err


CONFIG_LINES = st.one_of(
    st.sampled_from(
        [
            "[data]", "[experiment]", "[methods]", "[DEFAULT]", "[data",
            "path = bundled:credit690", "path = %(x)s", "format = csv",
            "trials = 2", "trials = 0", "epochs = -1", "batch_size = x",
            "lam = auto", "lam = 0.5", "step_sizes = 0.01, y", "seed = 1.5",
            "sunhuber = 0.9", "erm = yes", "cvar = ", "  continued", "= 3", "%%",
        ]
    ),
    st.text(max_size=30),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(CONFIG_LINES, max_size=12))
def test_config_parsing_returns_spec_or_data_or_value_error(tmp_path_factory, lines):
    cfg = tmp_path_factory.getbasetemp() / "fuzz.ini"
    cfg.write_text("\n".join(lines), encoding="utf-8")
    try:
        spec = _spec_from_config(str(cfg), None, None)
    except (DataError, ValueError):
        return
    assert isinstance(spec, ExperimentSpec)


def three_class_csv(path):
    """Three Gaussian classes in the plane with one gross outlier; labels a/b/c."""
    rng = np.random.Generator(np.random.PCG64(7))
    centers = np.array([[-2.0, 0.0], [2.0, 1.0], [0.0, -2.5]])
    labels = np.repeat(np.arange(3), 30)
    features = centers[labels] + rng.normal(size=(labels.size, 2))
    features[0] = [15.0, -15.0]
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["x1", "x2", "label"])
        for row, label in zip(features, labels):
            writer.writerow([repr(float(row[0])), repr(float(row[1])), "abc"[label]])


def test_multiclass_sweep_report_and_train_rerun_byte_identical(tmp_path):
    data = tmp_path / "three.csv"
    three_class_csv(data)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        f"[data]\npath = {data}\n\n"
        "[experiment]\ntrials = 2\nepochs = 2\nbatch_size = 16\n"
        f"step_sizes = 0.01, 0.1\nout = {tmp_path / 'exp'}\n\n"
        "[methods]\nsunhuber = 0.9\nerm = yes\ncvar = 0.5\nchisq_dro = 0.5\n",
        encoding="utf-8",
    )
    train = ["train", "--data", str(data), "--criterion", "sunhuber", "--iterations", "40",
             "--checkpoint-every", "10", "--step-size", "0.05", "--out", str(tmp_path / "gd")]
    outputs = []
    for _ in range(2):
        shutil.rmtree(tmp_path / "exp", ignore_errors=True)
        assert main(["experiment", "--config", str(cfg)]) == 0
        assert main(["report", "--manifest", str(tmp_path / "exp" / "manifest.json")]) == 0
        assert main(train) == 0
        files = sorted((tmp_path / "exp").rglob("*.csv")) + [tmp_path / "exp" / "manifest.json"]
        files.append(tmp_path / "gd" / "trajectory.csv")
        outputs.append({str(p): p.read_bytes() for p in files})
    assert outputs[0] == outputs[1]
    runs = [p for p in outputs[0] if "/runs/" in p]
    assert len(runs) == 2 * 4 * 2  # trials x criteria x step sizes, none diverged
    header, *rows = list(csv.reader(open(tmp_path / "gd" / "trajectory.csv")))
    assert [row[0] for row in rows] == ["10", "20", "30", "40"]  # all rows train
    assert all(row[header.index("b")] != "nan" for row in rows)
