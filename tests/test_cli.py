"""CLI contract: subcommands, exit codes, file outputs."""

import csv
import json
import os
import shutil
import warnings

import numpy as np
import pytest
from conftest import use_cpus
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robustmsd import harness
from robustmsd.cli import _spec_from_config, build_parser, main
from robustmsd.criteria import KINDS
from robustmsd.data import DataError
from robustmsd.harness import ExperimentSpec, MethodGrid
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


@pytest.mark.parametrize(
    "flag, value, named",
    [("--outlier-scale", "nan", "a finite number"),
     ("--outlier-scale", "-inf", "a finite number"),
     ("--outlier-scale", "x", "a finite number")],
)
def test_synth_flag_that_does_not_parse_exits_2_naming_it(tmp_path, capsys, flag, value, named):
    with pytest.raises(SystemExit) as exit_:
        main(["synth", f"{flag}={value}", "--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert f"argument {flag}: takes {named}, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_outlier_scale_past_the_finite_range_exits_1_unwarned(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["synth", "--outlier-scale", "1e308", "--out", str(tmp_path / "out")]) == 1
    one_error_line(capsys, "outlier_scale 1e+308", "finite range")
    assert not (tmp_path / "out").exists()


def test_synth_flags_spelling_the_defaults_write_the_default_file(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "default")]) == 0
    assert main(["synth", "--n=0100", "--seed=00", "--outlier-scale=-1e1",
                 "--out", str(tmp_path / "spelled")]) == 0
    assert ((tmp_path / "default" / "synth.csv").read_bytes()
            == (tmp_path / "spelled" / "synth.csv").read_bytes())


def diverging_train(tmp_path, args):
    """Exit code, stderr and numpy warnings of a ``train`` run that diverges."""
    main(["synth", "--n", "100", "--seed", "0", "--out", str(tmp_path)])
    args = [str(tmp_path / "synth.csv") if a == "PLANAR" else a for a in args]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", *args, "--step-size", "1e300", "--out", str(tmp_path / "run")])
    return code, [str(w.message) for w in caught]


@pytest.mark.parametrize(
    "args, message",
    [
        (["--data", "PLANAR", "--criterion", "cvar", "--xi", "0.5", "--iterations", "30"],
         "error: weight norm exceeded 1e+12 at iteration 3\n"),
        # full-batch SGD on credit690; the joint value kernel sees inf - inf
        (["--data", "bundled:credit690", "--criterion", "sunhuber", "--split-seed", "0",
          "--preprocess", "--epochs", "3", "--batch-size", "552"],
         "error: non-finite objective at checkpoint 1 (train)\n"),
    ],
)
def test_diverging_train_reports_only_the_guard_message(tmp_path, capsys, args, message):
    code, caught = diverging_train(tmp_path, args)
    assert code == 1
    assert caught == []  # no numpy overflow/invalid-value warning reaches stderr
    assert capsys.readouterr().err == message


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


@pytest.mark.parametrize("value", ["nan", "inf", "abc"])
@pytest.mark.parametrize("criterion, flag", [("sunhuber", "--beta0"), ("cvar", "--xi"),
                                             ("chisq_dro", "--eta-tilde")])
def test_train_setting_flag_that_is_not_a_finite_number_exits_2_naming_it(
        tmp_path, capsys, criterion, flag, value):
    with pytest.raises(SystemExit) as exit_:
        main(["train", "--data", "bundled:credit690", "--criterion", criterion,
              flag, value, "--out", str(tmp_path / "run")])
    assert exit_.value.code == 2
    assert f"argument {flag}: takes a finite number, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# how train's refusal of a flag's value that the data rule out starts: sunhuber's
# beta0 / sqrt(n) must stay below lam, which ties --lam to --beta0, and an SGD
# batch must fit in the train split (690 rows)
REFUSED = {"--beta0": "--beta0: sunhuber setting ", "--xi": "--xi: cvar setting ",
           "--eta-tilde": "--eta-tilde: chisq_dro setting ",
           "--lam": "--beta0, --lam: sunhuber setting 0.9: beta = beta0/sqrt(n) = ",
           "--batch-size": "--batch-size: batch_size 1000 exceeds train size 690\n"}


@pytest.mark.parametrize("criterion, flag, value", [("sunhuber", "--beta0", "-1"),
                                                    ("cvar", "--xi", "7"),
                                                    ("chisq_dro", "--eta-tilde", "1.5"),
                                                    ("sunhuber", "--lam", "0.01"),
                                                    ("erm", "--batch-size", "1000")])
def test_train_setting_out_of_range_exits_1_naming_its_flag(tmp_path, capsys, criterion, flag,
                                                            value):
    schedule = ["--epochs", "1"] if flag == "--batch-size" else ["--iterations", "1"]
    assert main(["train", "--data", "bundled:credit690", "--criterion", criterion, flag, value,
                 *schedule, "--out", str(tmp_path / "run")]) == 1
    assert one_error_line(capsys).startswith(f"error: {REFUSED[flag]}")
    assert not (tmp_path / "run").exists()


# the setting flag of each criterion that takes one; erm takes none
SETTING_FLAG = {"sunhuber": "--beta0", "cvar": "--xi", "chisq_dro": "--eta-tilde"}
# the criterion flags each criterion reads: its setting's, and --lam where lam
# is one of its coefficients
READS = {**SETTING_FLAG, "sunhuber": "--beta0, --lam"}


@pytest.mark.parametrize("criterion, flag", [
    (criterion, flag) for criterion in KINDS for flag in SETTING_FLAG.values()
    if SETTING_FLAG.get(criterion) != flag
] + [(criterion, "--lam") for criterion in KINDS if criterion != "sunhuber"])
def test_train_setting_flag_the_criterion_does_not_take_exits_2_naming_it(
        tmp_path, capsys, criterion, flag):
    value = "5" if flag == "--lam" else "0.5"
    with pytest.raises(SystemExit) as exit_:
        main(["train", "--data", "bundled:credit690", "--criterion", criterion, flag, value,
              "--iterations", "1", "--out", str(tmp_path / "run")])
    assert exit_.value.code == 2
    takes = READS.get(criterion, "no criterion flag")
    assert f"argument {flag}: criterion {criterion} takes {takes}\n" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# each schedule's name in train's usage errors and the flags it reads;
# --iterations picks full-batch GD
SCHEDULE = {"gd": ("full-batch GD (--iterations)", ("--checkpoint-every",)),
            "sgd": ("SGD (no --iterations)", ("--epochs", "--batch-size", "--seed"))}


def test_train_label_col_of_an_svmlight_file_exits_2_naming_it(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["train", "--data", "bundled:credit690", "--format", "svmlight", "--label-col",
              "y", "--criterion", "erm", "--out", str(tmp_path / "run")])
    assert exit_.value.code == 2
    assert "argument --label-col: --format svmlight names no columns\n" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mode, flag", [("gd", flag) for flag in SCHEDULE["sgd"][1]]
                         + [("sgd", flag) for flag in SCHEDULE["gd"][1]])
def test_train_schedule_flag_the_run_does_not_read_exits_2_naming_it(
        tmp_path, capsys, mode, flag):
    iterations = ["--iterations", "5"] if mode == "gd" else []
    with pytest.raises(SystemExit) as exit_:
        main(["train", "--data", "bundled:credit690", "--criterion", "erm", *iterations,
              flag, "7", "--out", str(tmp_path / "run")])
    assert exit_.value.code == 2
    who, reads = SCHEDULE[mode]
    assert f"argument {flag}: {who} takes {', '.join(reads)}\n" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_reads_each_flag_of_its_schedule(tmp_path):
    main(["synth", "--n", "60", "--seed", "3", "--out", str(tmp_path)])

    def run(*flags):
        out = tmp_path / ("run" + "".join(flags))
        assert main(["train", "--data", str(tmp_path / "synth.csv"), "--criterion", "erm",
                     *flags, "--out", str(out)]) == 0
        return (out / "trajectory.csv").read_bytes()

    # each flag's default spelled out writes the same file; another value is read
    gd = run("--iterations", "200")
    assert gd == run("--iterations", "200", "--checkpoint-every", "100")
    assert gd != run("--iterations", "200", "--checkpoint-every", "50")
    sgd = run()
    assert sgd == run("--epochs", "30", "--batch-size", "32", "--seed", "0")
    for flags in (["--epochs", "2"], ["--batch-size", "7"], ["--seed", "5"]):
        assert sgd != run(*flags)


@pytest.mark.parametrize("criterion", KINDS)
def test_train_takes_lam_auto_with_every_criterion_and_sunhuber_reads_lam(tmp_path, criterion):
    def run(*lam):
        out = tmp_path / "_".join(("run",) + lam)
        assert main(["train", "--data", "bundled:credit690", "--criterion", criterion, *lam,
                     "--iterations", "1", "--out", str(out)]) == 0
        return (out / "trajectory.csv").read_bytes()

    assert run() == run("--lam", "auto")
    if criterion == "sunhuber":
        assert run() != run("--lam", "0.5")


def test_train_reads_a_bundled_dataset_as_csv_only(tmp_path, capsys):
    # the format is read for every reference; a bundled dataset is a CSV
    assert main(["train", "--data", "bundled:credit690", "--format", "svmlight", "--criterion",
                 "erm", "--iterations", "1", "--out", str(tmp_path / "run")]) == 1
    one_error_line(capsys, "'svmlight'", "'bundled:credit690'")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("criterion, flag", SETTING_FLAG.items())
def test_train_takes_the_criterion_own_setting_flag(tmp_path, criterion, flag):
    runs = {}
    for value in ([], [flag, "0.5"], [flag, "0.25"]):
        out = tmp_path / f"run{len(runs)}"
        assert main(["train", "--data", "bundled:credit690", "--criterion", criterion, *value,
                     "--iterations", "1", "--out", str(out)]) == 0
        runs[tuple(value)] = (out / "trajectory.csv").read_bytes()
    # 0.5 is cvar's and chisq_dro's default; each value is read
    assert (runs[()] == runs[(flag, "0.5")]) == (criterion != "sunhuber")
    assert runs[(flag, "0.5")] != runs[(flag, "0.25")]


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
    # a setting the data rule out is found by the sweep, and named as the file's
    cfg = sweep_config(tmp_path, methods)
    assert main(["experiment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {str(cfg)!r}: ") and err.count("\n") == 1, err
    assert method in err
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


def test_verify_that_cannot_make_its_out_dir_exits_1_before_any_property(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("a file where a directory goes", encoding="utf-8")
    assert main(["verify", "--quick", "--out", str(blocker / "x")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


def test_property_suite_outcomes_quick():
    outcomes = run_property_suite(quick=True, seed=0)
    assert all(o.passed for o in outcomes)
    names = [o.name for o in outcomes]
    assert "pair_optimality_equalities" in names
    assert "location_concentration_lognormal" in names


def test_verify_prints_property_times_on_stderr_only(tmp_path, capsys, monkeypatch):
    # one line per property, in report order, then the summed time of each
    # side that ran properties (no worker on one CPU), then the suite's wall time
    reports = []
    for cpus, run in ((2, "a"), (2, "b"), (1, "c")):
        use_cpus(monkeypatch, cpus)
        sides = ["caller", "worker"][:cpus]
        assert main(["verify", "--quick", "--out", str(tmp_path / run)]) == 0
        captured = capsys.readouterr()
        times = [line.split() for line in captured.err.splitlines()]
        assert len(times) == 11 + len(sides) + 1
        assert all(t[0] == "time" and t[3] == "s" and float(t[2]) >= 0.0 for t in times)
        assert "time" not in captured.out
        reports.append((tmp_path / run / "verify_report.csv").read_bytes())
        rows = list(csv.reader(reports[-1].decode().splitlines()))
        assert [t[1] for t in times] == [row[0] for row in rows[1:]] + sides + ["total"]
        forked = ["(in a forked worker" in line for line in captured.err.splitlines()[:11]]
        seconds = [float(t[2]) for t in times[:11]]
        for side, total in zip(sides, times[11:]):
            on_side = [s for s, f in zip(seconds, forked) if f == (side == "worker")]
            assert float(total[2]) == pytest.approx(sum(on_side), abs=6e-3)  # each rounded to ms
    assert reports[0] == reports[1] == reports[2]
    assert b"time" not in reports[0]


def test_verify_marks_the_forked_workers_time_line(tmp_path, capsys, monkeypatch):
    use_cpus(monkeypatch, 2)
    assert main(["verify", "--quick", "--out", str(tmp_path)]) == 0
    marked = [line for line in capsys.readouterr().err.splitlines() if "forked worker" in line]
    assert len(marked) == 1
    assert marked[0].startswith("time location_concentration_lognormal ")
    assert marked[0].endswith(" s (in a forked worker, beside the others)")


def test_one_cpu_verify_writes_the_same_report(tmp_path, capsys, monkeypatch):
    runs = []
    for cpus in (2, 1):
        use_cpus(monkeypatch, cpus)
        assert main(["verify", "--quick", "--out", str(tmp_path / str(cpus))]) == 0
        captured = capsys.readouterr()
        runs.append((captured.out.replace(str(tmp_path / str(cpus)), "OUT"),
                     (tmp_path / str(cpus) / "verify_report.csv").read_bytes()))
        # on one CPU no property runs in a forked worker
        assert ("forked worker" in captured.err) == (cpus > 1)
    assert runs[0] == runs[1]


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
        "[data]\npath = caf\xe9.csv\n",  # not UTF-8 once written as Latin-1
        "[data]\npath = bundled:credit690\nformat = json\n",  # unknown format
        # only a CSV has named columns
        "[data]\npath = bundled:credit690\nformat = svmlight\nlabel_col = label\n",
        "[data]\npath = bundled:credit690\nformat = svmlight\n",  # a bundled dataset is a CSV
    ],
)
def test_experiment_malformed_config_exits_1(tmp_path, capsys, monkeypatch, text):
    monkeypatch.chdir(tmp_path)  # where the default out directory, results, would go
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text, encoding="latin-1")
    assert main(["experiment", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config file {str(cfg)!r}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.ini"]


@pytest.mark.parametrize(
    "text, error",
    [
        ("garbage\n", "File contains no section headers. file: "),  # MissingSectionHeaderError
        ("[data]\npath = bundled:credit690\nx\n", "Source contains parsing errors: "),  # ParsingError
    ],
)
def test_config_that_does_not_parse_exits_1_with_one_error_line(tmp_path, capsys, text, error):
    # configparser's text for these spans several lines; it is joined into one
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text, encoding="utf-8")
    assert main(["experiment", "--config", str(cfg)]) == 1
    one_error_line(capsys, f"error: config file {str(cfg)!r}: {error}")


@pytest.mark.parametrize("path, named", [
    ("nope.csv", "dataset 'nope.csv' not found (also tried "),
    ("bundled:nope", "no bundled dataset 'nope'"),
])
def test_config_naming_no_dataset_exits_1_naming_the_config_file(tmp_path, capsys, path, named):
    cfg = sweep_config(tmp_path, "erm = yes")
    cfg.write_text(cfg.read_text().replace("bundled:credit690", path))
    assert main(["experiment", "--config", str(cfg)]) == 1
    one_error_line(capsys, f"error: config file {str(cfg)!r}: {named}")
    assert not (tmp_path / "exp").exists()


def test_data_fault_found_by_the_sweep_names_no_config_file(tmp_path, capsys):
    # every split of 12 rows leaves both extremes in its 10 train rows, which
    # preprocess cannot min-max scale
    data = tmp_path / "huge.csv"
    data.write_text("g,f,label\n" + "".join(
        f"{i},{(-1) ** i}e308,{i % 2}\n" for i in range(12)), encoding="utf-8")
    cfg = sweep_config(tmp_path, "erm = yes")
    cfg.write_text(cfg.read_text().replace("bundled:credit690", str(data)))
    assert main(["experiment", "--config", str(cfg)]) == 1
    err = one_error_line(capsys, "error: preprocess: feature column 1: its train range")
    assert "config file" not in err
    assert not (tmp_path / "exp" / "manifest.json").exists()


def test_output_fault_of_an_experiment_names_no_config_file(tmp_path, capsys):
    # an OSError while writing outputs is not the config file's fault
    cfg = sweep_config(tmp_path, "erm = yes")
    (tmp_path / "exp").write_text("a file where the output directory goes")
    assert main(["experiment", "--config", str(cfg)]) == 1
    assert "config file" not in one_error_line(capsys, str(tmp_path / "exp"))


@pytest.mark.parametrize(
    "text, named",
    [
        ("[experiment]\nepoch = 1\n", ("'epoch'", "[experiment]")),
        ("column = label\n", ("'column'", "[data]")),
        ("[method]\nerm = yes\n", ("[method]",)),
        ("[methods]\nerm = 0.5\ncvar = 0.5\n", ("erm", "'0.5'")),
        ("[methods]\nerm = ye\n", ("erm", "'ye'")),
        ("[experiment]\nstep_sizes = 0.1,,0.2\n", ("[experiment] step_sizes", "'0.1,,0.2'")),
        ("[experiment]\nstep_sizes = 0.1, ,0.2\n", ("step_sizes", "'0.1, ,0.2'")),
        ("[experiment]\nstep_sizes = ,0.1\n", ("step_sizes", "',0.1'")),
        ("[experiment]\nstep_sizes = 0.1, y\n", ("step_sizes", "'0.1, y'")),
        ("[methods]\ncvar = 0.5,\n", ("[methods] cvar", "'0.5,'")),
        ("[methods]\nsunhuber = 0.9,,0.5\n", ("sunhuber", "'0.9,,0.5'")),
        ("[experiment]\nepochs = 2.5\n", ("[experiment] epochs", "'2.5'")),
        ("[experiment]\nseed = 1.5\n", ("[experiment] seed", "'1.5'")),
        ("[experiment]\ntrials = x\n", ("[experiment] trials", "'x'")),
        ("[experiment]\nlam = abc\n", ("[experiment] lam", "'abc'")),
        ("[experiment]\ntrials = 0\n", ("trials must be >= 1",)),
        ("[experiment]\nepochs = 0\n", ("epochs must be >= 1", "got 0")),
        ("[experiment]\nbatch_size = 0\n", ("batch_size must be >= 1", "got 0")),
        ("[experiment]\nstep_sizes = -0.1\n", ("step size", "got -0.1")),
        ("[experiment]\nlam = inf\n", ("[experiment] lam", "positive and finite", "'inf'")),
        ("[experiment]\nlam = nan\n", ("[experiment] lam", "'nan'")),
        ("[experiment]\nlam = -0.5\n", ("[experiment] lam", "'-0.5'")),
    ],
)
def test_config_error_names_the_key_section_or_value(tmp_path, text, named):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[data]\npath = bundled:credit690\n" + text, encoding="utf-8")
    with pytest.raises(DataError) as err:
        _spec_from_config(str(cfg), None, None)
    assert str(err.value).startswith(f"config file {str(cfg)!r}: ")
    assert all(part in str(err.value) for part in named)


def test_empty_level_list_item_exits_1_before_writing(tmp_path, capsys):
    cfg = sweep_config(tmp_path, "cvar = 0.5,")
    assert main(["experiment", "--config", str(cfg)]) == 1
    one_error_line(capsys, "cfg.ini", "[methods] cvar", "'0.5,'")
    assert not (tmp_path / "exp").exists()


def test_batch_larger_than_train_split_exits_1_before_writing(tmp_path, capsys):
    cfg = sweep_config(tmp_path, "erm = yes")
    cfg.write_text(cfg.read_text().replace("epochs = 1\n", "epochs = 1\nbatch_size = 1000\n"))
    assert main(["experiment", "--config", str(cfg)]) == 1
    one_error_line(capsys, "config file", "cfg.ini",
                   "[experiment] batch_size 1000 exceeds train size 552")
    assert not (tmp_path / "exp").exists()


def test_config_lists_keep_every_item(tmp_path):
    cfg = sweep_config(tmp_path, "cvar = 0.5, 0.9 ,0.1")
    cfg.write_text(cfg.read_text().replace("step_sizes = 0.01", "step_sizes = 0.2 , 0.01"))
    spec = _spec_from_config(str(cfg), None, None)
    assert spec.step_sizes == (0.2, 0.01)
    assert [(g.method, g.settings) for g in spec.methods] == [("cvar", (0.5, 0.9, 0.1))]


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
        (
            '{"trials": [{"selected": [{"method": "erm", "setting": null,'
            ' "file": "runs/a.csv", "all_diverged": "false"}]}]}',
            "selection 0 of trial 0 has no boolean in field 'all_diverged'",
        ),
        ("not json", "not JSON"),
        ('{"trials": []}', "no trials"),
        ('{"trials": [{"selected": []}, {"selected": [{}]}]}',
         "trial 1 has a different number of selections than trial 0"),
    ],
)
def test_report_malformed_manifest_exits_1(tmp_path, capsys, text, field):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text, encoding="utf-8")
    assert main(["report", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest ") and "manifest.json" in err and field in err


def test_report_refuses_selections_that_differ_across_trials(tmp_path, capsys):
    cfg = sweep_config(tmp_path, "sunhuber = 0.9\nerm = yes")
    cfg.write_text(cfg.read_text().replace("trials = 1", "trials = 2"))
    assert main(["experiment", "--config", str(cfg)]) == 0
    path = tmp_path / "exp" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    picks = manifest["trials"][1]["selected"]
    picks[0], picks[1] = picks[1], picks[0]
    path.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--manifest", str(path)]) == 1
    one_error_line(capsys, "selection 0 of trial 1 is (method, setting) ('erm', None), "
                           "but selection 0 of trial 0 is ('sunhuber', 0.9)")
    assert not (tmp_path / "exp" / "aggregate.csv").exists()


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


def one_error_line(capsys, *named):
    """The run's stderr, which is exactly one ``error:`` line naming each of ``named``."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(part in err for part in named), err
    return err


def test_settings_sharing_a_run_file_exit_1_before_writing(tmp_path, capsys):
    cfg = sweep_config(tmp_path, "erm = yes\ncvar = 0.5, 0.5000000001")
    assert main(["experiment", "--config", str(cfg)]) == 1
    one_error_line(capsys, "config file", "cfg.ini",
                   "runs cvar 0.5 at step size 0.01 and cvar 0.5000000001 at step size 0.01 "
                   "would both write runs/trial0_cvar_xi=0.5_step=0.01.csv")
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize(
    "flags, value, named",
    [("--lam", "abc", "auto or a number"), ("--lam", "", "auto or a number"),
     ("--lam", "inf", "positive and finite"), ("--lam", "nan", "positive and finite"),
     ("--lam", "0", "positive and finite"), ("--lam", "-1", "positive and finite"),
     ("--criterion erm --lam", "-1", "positive and finite"),  # read also where unused
     ("--init", "a,b,c", "comma-separated list"), ("--init", "1,,2", "no empty item"),
     # a count flag is parsed before the run's schedule is known
     ("--epochs", "-1", "a non-negative integer"),
     ("--iterations", "-1", "a non-negative integer"),
     ("--iterations 1 --epochs", "-1", "a non-negative integer"),
     ("--iterations 1 --batch-size", "0", "a positive integer"),
     ("--iterations 1 --checkpoint-every", "-3", "a positive integer"),
     ("--epochs 1 --batch-size 5 --checkpoint-every", "-3", "a positive integer"),
     ("--epochs", "1.5", "a non-negative integer")],
)
def test_train_flag_that_does_not_parse_exits_2_naming_it(tmp_path, capsys, flags, value, named):
    # the flag named is the last of ``flags``, which come before ``value``
    flag = flags.split()[-1]
    with pytest.raises(SystemExit) as exit_:
        main(["train", "--data", "bundled:credit690", "--criterion", "sunhuber",
              *flags.split(), value, "--out", str(tmp_path / "run")])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: takes" in err and named in err and repr(value) in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["synth", "--seed", "-1"], "--seed"),
        (["train", "--data", "bundled:credit690", "--criterion", "erm", "--split-seed", "-1"],
         "--split-seed"),
        (["train", "--data", "bundled:credit690", "--criterion", "erm", "--epochs", "1",
          "--batch-size", "10", "--seed", "-1"], "--seed"),
        (["experiment", "--config", "missing.ini", "--seed", "-3"], "--seed"),
        (["verify", "--seed", "-100"], "--seed"),
        (["verify", "--quick", "--seed", "-1"], "--seed"),
    ],
)
def test_negative_seed_flag_exits_2_naming_it(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert f"argument {flag}: takes a non-negative integer, got '-" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_in_a_config_or_spec_is_refused(tmp_path):
    cfg = tmp_path / "neg.ini"
    cfg.write_text("[data]\npath = bundled:credit690\n[experiment]\nseed = -2\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"neg\.ini.*\[experiment\] seed takes a non-negative "
                                        r"integer, got '-2'"):
        _spec_from_config(str(cfg), None, None)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ExperimentSpec(data="bundled:credit690", methods=[MethodGrid("erm")],
                       out_dir=str(tmp_path), seed=-1)
    for seed in ("0", "7", str(2**70)):
        assert build_parser().parse_args(["verify", "--seed", seed]).seed == int(seed)


def test_initial_weights_with_non_finite_losses_exit_1_naming_them(tmp_path, capsys):
    main(["synth", "--n", "40", "--seed", "0", "--out", str(tmp_path)])
    capsys.readouterr()
    for init in ("1e308,1e308,1e308", "1e200,1e200,1e200"):
        assert main(["train", "--data", str(tmp_path / "synth.csv"), "--criterion", "sunhuber",
                     "--iterations", "3", "--init", init, "--out", str(tmp_path / "run")]) == 1
        one_error_line(capsys, "the initial weights give non-finite train losses")
    assert not (tmp_path / "run").exists()


def test_train_lam_and_init_flags_parse_as_the_config_reads_them():
    parse = build_parser().parse_args
    base = ["train", "--data", "bundled:credit690", "--criterion", "erm"]
    assert (parse(base).lam, parse(base).init) == (None, None)  # auto: log(n)/sqrt(n)
    args = parse(base + ["--lam", "0.5", "--init", "1,-2.5,3e2"])
    assert (args.lam, args.init) == (0.5, (1.0, -2.5, 300.0))
    assert parse(base + ["--lam", "auto"]).lam is None


@pytest.mark.parametrize("step", ["nan", "inf", "-0.1", "0", "-1", "1e400"])
def test_train_rejects_step_size_before_training(tmp_path, capsys, step):
    main(["synth", "--n", "100", "--seed", "0", "--out", str(tmp_path)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(["train", "--data", str(tmp_path / "synth.csv"), "--criterion", "erm",
              "--iterations", "5", "--step-size", step, "--out", str(tmp_path / "run")])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert (f"argument --step-size: takes a number that is positive and finite, got {step!r}"
            in err), err
    assert not (tmp_path / "run").exists()


def test_experiment_part_that_dies_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch):
    parent, train = os.getpid(), harness.train

    def dying(runs, init, ds):
        if os.getpid() != parent:
            os._exit(3)  # a child ends without a result, as one the OOM killer ends
        return train(runs, init, ds)

    monkeypatch.setattr(harness, "train", dying)
    use_cpus(monkeypatch, 2)  # two parts
    cfg = sweep_config(tmp_path, "erm = yes")
    cfg.write_text(cfg.read_text().replace("step_sizes = 0.01", "step_sizes = 0.01, 0.1"))
    assert main(["experiment", "--config", str(cfg)]) == 1
    one_error_line(capsys, "training part 2 of 2 ended without a result")
    assert not (tmp_path / "exp" / "manifest.json").exists()


@pytest.mark.parametrize(
    "steps, named",
    [("0.1, -0.1", "-0.1"), ("", "step_sizes"), ("nan", "nan"), ("0.1, inf", "inf"),
     ("0.1,,0.2", "'0.1,,0.2'"), ("0.01,", "'0.01,'"),
     # step sizes that share a run file name
     ("0.01, 0.0100000001", "erm at step size 0.01 and erm at step size 0.0100000001 "
                            "would both write runs/trial0_erm_step=0.01.csv"),
     ("0.1, 0.01, 0.01", "erm at step size 0.01 and erm at step size 0.01 would")],
)
def test_experiment_bad_step_sizes_exit_1_before_writing(tmp_path, capsys, steps, named):
    cfg = sweep_config(tmp_path, "erm = yes")
    cfg.write_text(cfg.read_text().replace("step_sizes = 0.01", f"step_sizes = {steps}"))
    assert main(["experiment", "--config", str(cfg)]) == 1
    one_error_line(capsys, named)
    assert not (tmp_path / "exp").exists()


def test_unreadable_data_exits_1_naming_file_and_line(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text("f,label\n1.0,1\n" + "9" * 140_000 + ",0\n2.0,0\n", encoding="utf-8")
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"f,label\n1.0,1\n2.0,caf\xe9\n")
    for path, line in ((big, 3), (latin1, 3)):
        code = main(["train", "--data", str(path), "--criterion", "erm", "--iterations", "3",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        one_error_line(capsys, f"{path}: line {line}: ")
        cfg = sweep_config(tmp_path, "erm = yes")
        cfg.write_text(cfg.read_text().replace("bundled:credit690", str(path)))
        assert main(["experiment", "--config", str(cfg)]) == 1
        one_error_line(capsys, f"{path}: line {line}: ")
    assert not (tmp_path / "run").exists() and not (tmp_path / "exp").exists()


def test_report_on_an_unreadable_trajectory_exits_1_naming_it(tmp_path, capsys):
    cfg = sweep_config(tmp_path, "erm = yes")
    assert main(["experiment", "--config", str(cfg)]) == 0
    run = next((tmp_path / "exp" / "runs").glob("*.csv"))
    lines = run.read_text().splitlines()
    run.write_text("\n".join([lines[0], lines[1] + "9" * 140_000] + lines[2:]) + "\n")
    capsys.readouterr()
    assert main(["report", "--manifest", str(tmp_path / "exp" / "manifest.json")]) == 1
    one_error_line(capsys, f"{run}: line 2: field larger than field limit")


def test_label_only_csv_trains_a_bias(tmp_path):
    data = tmp_path / "labels.csv"
    data.write_text("label\n" + "".join(f"{i % 2}\n" for i in range(20)), encoding="utf-8")
    args = ["train", "--data", str(data), "--criterion", "erm", "--iterations", "3",
            "--init", "0.25", "--out", str(tmp_path / "run")]
    assert main(args) == 0
    header, *rows = list(csv.reader(open(tmp_path / "run" / "trajectory.csv")))
    assert len(rows) == 1


def test_train_init_takes_k_rows_of_weights(tmp_path, capsys):
    data = tmp_path / "three.csv"
    three_class_csv(data)
    args = ["train", "--data", str(data), "--criterion", "erm", "--iterations", "3",
            "--out", str(tmp_path / "run")]
    assert main(args + ["--init", ",".join(["0.1"] * 9)]) == 0  # 3 classes x (2 + 1)
    capsys.readouterr()
    assert main(args + ["--init", ",".join(["0.1"] * 3)]) == 1
    one_error_line(capsys, "need 3 x 3 values, got 3")


# ------------------------------------------------------------ flag fuzzing

# Values are mostly of the flag's type, extremes included, so most runs get
# past argparse into the program; one flag may instead get garbage text.
# Sizes that set the amount of work (--n, --iterations, --epochs,
# --batch-size) are drawn from small ranges and their garbage never parses.
INT = st.one_of(st.integers(-3, 50), st.sampled_from([2**70, -(2**70)])).map(str)
FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([2.0**70, -1.0, 0.0, 1e-3, 0.5, 0.9]),
).map(repr)
FLOATS = st.lists(FLOAT, max_size=10).map(",".join)
GARBAGE = st.one_of(st.sampled_from(["", "x", "1.5", "1e3", "-", "1,2", " "]), st.text(max_size=8))
WORDS = st.sampled_from(["", "x", "1.5", "1e3", "-", "nan", " "])  # parse as no int


def size(lo, hi):
    return st.integers(lo, hi).map(str)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Inputs the fuzzed commands read: a planar and a 3-class CSV, a tiny
    sweep config and its manifest."""
    root = tmp_path_factory.mktemp("fuzz")
    main(["synth", "--n", "40", "--seed", "0", "--out", str(root)])
    three_class_csv(root / "three.csv")
    (root / "sweep.ini").write_text(
        "[data]\npath = bundled:credit690\n[experiment]\ntrials = 1\nepochs = 1\n"
        "batch_size = 64\nstep_sizes = 0.1\n[methods]\nerm = yes\ncvar = 0.5\n",
        encoding="utf-8",
    )
    assert main(["experiment", "--config", str(root / "sweep.ini"),
                 "--out", str(root / "made")]) == 0
    (root / "not_a_dir").write_text("", encoding="utf-8")
    return root


def fuzzed_argv(data, command, fixed, optional, sizes=()):
    """``command`` with the ``fixed`` flags and a drawn subset of the
    ``optional`` ones (a None strategy marks a bare switch).  In one run in
    four, one optional flag's value is replaced by garbage (words that never
    parse for the flags in ``sizes``); the fixed ones, which name files and
    directories, never are."""
    flags = data.draw(st.fixed_dictionaries(fixed, optional=optional))
    valued = [f for f in optional if flags.get(f) is not None]
    if valued and data.draw(st.integers(0, 3)) == 0:
        flag = data.draw(st.sampled_from(valued))
        flags[flag] = data.draw(WORDS if flag in sizes else GARBAGE)
    return [command] + [f if v is None else f"{f}={v}" for f, v in flags.items()]


def run_fuzzed(argv):
    """Exit codes 0-2 only, by return or SystemExit; any other exception fails."""
    try:
        code = main(argv)
    except SystemExit as exit_:
        assert exit_.code in (0, 2), argv
        return
    assert code in (0, 1, 2), argv


def fuzz(max_examples):
    return settings(max_examples=max_examples, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def paths(root, *names):
    return st.sampled_from([str(root / n) for n in names])


@fuzz(50)
@given(data=st.data())
def test_fuzzed_synth_flags_exit_cleanly(fuzz_dir, data):
    run_fuzzed(fuzzed_argv(
        data, "synth", {"--out": paths(fuzz_dir, "out", "out", "not_a_dir")},
        {"--n": size(-2, 200), "--seed": INT, "--outlier-scale": FLOAT},
        sizes=("--n",),
    ))


@fuzz(120)
@given(data=st.data())
def test_fuzzed_train_flags_exit_cleanly(fuzz_dir, data):
    data_ref = st.one_of(paths(fuzz_dir, "synth.csv", "three.csv", "missing.csv", "made"),
                         st.sampled_from(["bundled:credit690", "bundled:credit690",
                                          "bundled:nope"]))
    run_fuzzed(fuzzed_argv(
        data, "train",
        {"--data": data_ref, "--criterion": st.sampled_from(KINDS),
         "--out": paths(fuzz_dir, "out", "out", "not_a_dir")},
        {"--format": st.sampled_from(["csv", "svmlight"]),
         "--label-col": st.sampled_from(["label", "x1", "nope"]),
         "--beta0": FLOAT, "--xi": FLOAT, "--eta-tilde": FLOAT,
         "--lam": st.one_of(st.just("auto"), FLOAT), "--step-size": FLOAT,
         "--iterations": size(-2, 5), "--checkpoint-every": INT, "--epochs": size(-2, 2),
         "--batch-size": size(-2, 600), "--split-seed": INT, "--preprocess": st.none(),
         "--init": FLOATS, "--seed": INT},
        sizes=("--iterations", "--epochs", "--batch-size"),
    ))


@fuzz(20)
@given(data=st.data())
def test_fuzzed_experiment_and_report_flags_exit_cleanly(fuzz_dir, data):
    configs = paths(fuzz_dir, "sweep.ini", "sweep.ini", "synth.csv", "missing.ini", "made")
    run_fuzzed(fuzzed_argv(
        data, "experiment",
        {"--config": configs, "--out": paths(fuzz_dir, "exp", "not_a_dir")}, {"--seed": INT},
    ))
    manifests = paths(fuzz_dir, "made/manifest.json", "sweep.ini", "missing.json", "made")
    outs = paths(fuzz_dir, "made/aggregate.csv", "out/aggregate.csv", "made", "not_a_dir/a.csv")
    run_fuzzed(fuzzed_argv(data, "report", {"--manifest": manifests, "--out": outs}, {}))


@fuzz(2)
@given(data=st.data())
def test_fuzzed_verify_seed_exits_cleanly(fuzz_dir, data):
    run_fuzzed(fuzzed_argv(
        data, "verify", {"--quick": st.none(), "--out": paths(fuzz_dir, "verify")},
        {"--seed": INT},
    ))
