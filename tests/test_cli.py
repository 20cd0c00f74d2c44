"""CLI contract: subcommands, exit codes, file outputs."""

import csv

import pytest

from robustmsd.cli import main
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
