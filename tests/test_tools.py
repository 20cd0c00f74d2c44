"""The scripts under tools/: the output check ab.py and the credit690 generator."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def fake_tree(root, body):
    """A source tree whose ``robustmsd.cli.main(argv)`` runs ``body``."""
    package = root / "robustmsd"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "cli.py").write_text(
        f"import sys\ndef main(argv):\n    {body}\n", encoding="utf-8")
    return str(root)


def test_ab_names_each_differing_cell():
    tool = load_tool("ab")
    head = b"property,status,detail\r\nrho,PASS,deviation 1e-12\r\n"
    a = head + b"pair,PASS,worst residual 9.35e-11\r\nold,PASS,x\r\n"
    b = head + b"pair,FAIL,worst residual 2.60e-16\r\n"
    assert tool.differing_cells(a, a) == []
    assert tool.differing_cells(a, b) == [
        "  pair status: A 'PASS'  B 'FAIL'",
        "  pair detail: A 'worst residual 9.35e-11'  B 'worst residual 2.60e-16'",
        "  old: only in A",
    ]


def test_ab_names_each_differing_file_and_a_side_whose_runs_differ():
    tool = load_tool("ab")
    head = b"checkpoint,split,mean_sd\r\n"
    a = head + b"1,train,0.5\r\n1,val,0.25\r\n"
    b = head + b"1,train,0.5\r\n1,val,0.125\r\n"
    same = {"erm/trajectory.csv": a, "synth.csv": b"x"}
    outputs = {"A": [{**same, "extra": b""}, {**same, "extra": b""}],
               "B": [{**same, "erm/trajectory.csv": b}, same]}
    assert tool.output_lines(outputs) == [
        "differs: erm/trajectory.csv",
        "  1 val mean_sd: A '0.25'  B '0.125'",
        "only in A: extra",
        "B's own runs differ",
    ]
    assert tool.output_lines({"A": [same, same], "B": [same, same]}) == []


def test_ab_counts_the_diverged_runs_of_a_manifest():
    tool = load_tool("ab")

    def manifest(*statuses_per_trial):
        trials = [{"runs": [{"status": s} for s in statuses]} for statuses in statuses_per_trial]
        return json.dumps({"trials": trials}).encode()
    a = {"out/manifest.json": manifest(["ok", "diverged", "ok"], ["diverged", "diverged", "ok"]),
         "out/runs/x.csv": b""}
    b = {"out/manifest.json": manifest(["ok", "ok"])}
    assert tool.diverged_runs(a) == "3 of 6"
    assert tool.diverged_runs(b) == "0 of 2"
    assert tool.diverged_runs({"synth.csv": b"x"}) is None


def test_ab_same_tree_on_both_sides_gives_identical_outputs(monkeypatch, capsys):
    tool = load_tool("ab")
    tiny = tool.Workload(None, ("synth --n 20 --seed {seed}",
                                "train --data synth.csv --criterion erm --iterations 5 --out erm"))
    monkeypatch.setitem(tool.WORKLOADS, "step", tiny)
    assert tool.main([str(REPO), str(REPO), "step", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("step, run twice from each tree:\n  synth --n 20 --seed 3\n")
    # synth.csv, erm/trajectory.csv and stdout.txt
    assert out.endswith("3 files per run in A, 3 in B, byte-identical: yes\n")


def test_ab_names_a_differing_stdout_and_leaves_stderr_uncompared(tmp_path, capsys):
    tool = load_tool("ab")
    a = fake_tree(tmp_path / "a", "print('PASS x'); print('a', file=sys.stderr); return 0")
    b = fake_tree(tmp_path / "b", "print('FAIL x'); print('b', file=sys.stderr); return 0")
    assert tool.main([a, a, "verify"]) == 0
    assert capsys.readouterr().out.endswith("byte-identical: yes\n")
    assert tool.main([a, b, "verify"]) == 1
    assert capsys.readouterr().out.endswith("byte-identical: NO\ndiffers: stdout.txt\n")


def test_ab_command_failing_on_both_sides_exits_1_naming_it(tmp_path, capsys):
    tool = load_tool("ab")
    tree = fake_tree(tmp_path / "t", "print('error: boom', file=sys.stderr); return 1")
    assert tool.main([tree, tree, "verify", "--seed", "2"]) == 1
    captured = capsys.readouterr()
    assert "byte-identical" not in captured.out
    assert captured.err == "A1: `verify --seed 2` exited 1; its stderr ends:\n  error: boom\n"


def test_make_credit690_regenerates_the_bundled_file(tmp_path):
    out = tmp_path / "credit690.csv"
    load_tool("make_credit690").main(str(out))
    assert out.read_bytes() == (REPO / "src/robustmsd/datasets/credit690.csv").read_bytes()
