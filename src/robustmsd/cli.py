"""Command-line interface: synth / train / experiment / verify / report.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  All outputs are
deterministic given the seeds, so repeated invocations rewrite identical
files.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .criteria import KINDS, criterion_record
from .data import DataError, SynthConfig, generate_2d_outlier, preprocess, shuffle_split
from .harness import (
    DEFAULT_LEVELS,
    DEFAULT_STEP_SIZES,
    ExperimentSpec,
    MethodGrid,
    aggregate_trials,
    build_initial_state,
    default_lam,
    load_dataset,
    load_manifest,
    make_criterion,
    run_experiment,
    write_aggregate_csv,
    write_trajectory_csv,
)
from .optimizer import DivergenceError, OptConfig, run_batch_gd, run_minibatch_sgd
from .suite import run_property_suite


def _parse_pair(text):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated reals: {text!r}")
    return tuple(parts)


def _cmd_synth(args) -> int:
    config = SynthConfig(
        n=args.n,
        seed=args.seed,
        class_means=(args.mean0, args.mean1),
        covariance_scale=args.covariance_scale,
        outlier_scale=args.outlier_scale,
    )
    ds = generate_2d_outlier(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "synth.csv"
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["x1", "x2", "label"])
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(row[0])), repr(float(row[1])), 2 * label - 1])
    print(f"wrote {path}: {ds.n} rows")
    return 0


def _cmd_train(args) -> int:
    dataset = load_dataset(args.data, args.format, args.label_col)
    if args.split_seed is not None:
        dataset = shuffle_split(dataset, args.split_seed)
    if args.preprocess:
        dataset = preprocess(dataset)
    n_train = int(dataset.split_indices("train").size)
    lam = default_lam(n_train) if args.lam == "auto" else float(args.lam)
    # each setting flag is named after the CriterionParams field it fills
    field = criterion_record(args.criterion).setting
    setting = getattr(args, field) if field else None
    params = make_criterion(args.criterion, setting, n_train, lam)

    h0 = None
    if args.init is not None:
        rows = 1 if dataset.n_classes == 2 else dataset.n_classes
        flat = np.array([float(v) for v in args.init.split(",")])
        h0 = flat.reshape(rows, dataset.n_features + 1)
    init = build_initial_state(dataset, h0)

    if args.iterations is not None:
        config = OptConfig(
            step_size=args.step_size,
            iterations=args.iterations,
            seed=args.seed,
            checkpoint_every=args.checkpoint_every,
        )
        result = run_batch_gd(params, init, dataset, config)
    else:
        config = OptConfig(
            step_size=args.step_size,
            epochs=args.epochs,
            batch_size=args.batch_size,
            seed=args.seed,
        )
        result = run_minibatch_sgd(params, init, dataset, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "trajectory.csv"
    write_trajectory_csv(path, result.trajectory)
    if not result.trajectory:
        # zero steps: no checkpoint is reached, so only the header is written
        print(f"wrote {path}: 0 records")
        return 0
    last = result.trajectory[-1]
    print(
        f"wrote {path}: {len(result.trajectory)} records; "
        f"final {last.split} mean_sd={last.mean_sd:.6g} "
        f"error_rate={last.error_rate:.4g}"
    )
    return 0


def _parse_floats(text):
    return tuple(float(p.strip()) for p in text.split(",") if p.strip())


# the keys each config section takes; [methods] takes criterion kinds
_CONFIG_KEYS = {
    "data": ("path", "format", "label_col"),
    "experiment": ("trials", "seed", "epochs", "batch_size", "lam", "step_sizes", "out"),
    "methods": KINDS,
}


def _spec_from_config(path, out_override, seed_override) -> ExperimentSpec:
    import configparser

    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
        # reading every value here also runs its interpolation, which can fail
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as err:
        raise DataError(f"malformed config file {path!r}: {err}") from None
    if not read:
        raise DataError(f"cannot read config file {path!r}")
    for name, entries in sections.items():
        if name not in _CONFIG_KEYS:
            raise DataError(f"config file {path!r} has an unknown section [{name}] "
                            f"(known: {', '.join(_CONFIG_KEYS)})")
        for key in entries:
            if key not in _CONFIG_KEYS[name]:
                raise DataError(f"config file {path!r} has an unknown key {key!r} in "
                                f"[{name}] (known: {', '.join(_CONFIG_KEYS[name])})")
    data_sec = sections.get("data", {})
    if "path" not in data_sec:
        raise DataError(f"config file {path!r} has no [data] section with a path")
    exp = sections.get("experiment", {})
    methods = []
    if "methods" in sections:
        for method, raw in sections["methods"].items():
            if criterion_record(method).setting is not None:
                methods.append(MethodGrid(method, _parse_floats(raw)))
                continue
            chosen = parser.BOOLEAN_STATES.get(raw.strip().lower())
            if chosen is None:
                raise DataError(f"config file {path!r}: [methods] {method} takes yes/no "
                                f"(true/false, on/off, 1/0), got {raw!r}")
            if chosen:
                methods.append(MethodGrid(method))
    else:
        methods = [
            MethodGrid("sunhuber", (0.9,)),
            MethodGrid("erm"),
            MethodGrid("cvar", DEFAULT_LEVELS),
            MethodGrid("chisq_dro", DEFAULT_LEVELS),
        ]
    lam_raw = exp.get("lam", "auto")
    out_dir = out_override or exp.get("out", "results")
    return ExperimentSpec(
        data=data_sec["path"],
        data_format=data_sec.get("format", "csv"),
        label_col=data_sec.get("label_col", None),
        methods=methods,
        out_dir=str(out_dir),
        step_sizes=_parse_floats(exp.get("step_sizes", "")) or DEFAULT_STEP_SIZES,
        epochs=int(exp.get("epochs", 30)),
        batch_size=int(exp.get("batch_size", 32)),
        trials=int(exp.get("trials", 5)),
        seed=seed_override if seed_override is not None else int(exp.get("seed", 0)),
        lam=None if lam_raw == "auto" else float(lam_raw),
    )


def _cmd_experiment(args) -> int:
    spec = _spec_from_config(args.config, args.out, args.seed)
    manifest = run_experiment(spec)
    n_runs = sum(len(t["runs"]) for t in manifest["trials"])
    n_div = sum(
        1 for t in manifest["trials"] for r in t["runs"] if r["status"] == "diverged"
    )
    print(
        f"wrote {Path(spec.out_dir) / 'manifest.json'}: "
        f"{spec.trials} trials, {n_runs} runs ({n_div} diverged)"
    )
    return 0


def _cmd_verify(args) -> int:
    outcomes = run_property_suite(quick=args.quick, seed=args.seed)
    for o in outcomes:
        print(f"{o.status} {o.name} ({o.detail})")
        print(f"time {o.name} {o.seconds:.3f} s", file=sys.stderr)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "verify_report.csv"
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["property", "status", "detail"])
        for o in outcomes:
            writer.writerow([o.name, o.status, o.detail])
    failed = [o for o in outcomes if not o.passed]
    print(f"wrote {path}: {len(outcomes) - len(failed)}/{len(outcomes)} passed")
    return 1 if failed else 0


def _cmd_report(args) -> int:
    manifest_path = Path(args.manifest)
    manifest = load_manifest(manifest_path)
    rows = aggregate_trials(manifest, manifest_path.parent)
    out = Path(args.out) if args.out else manifest_path.parent / "aggregate.csv"
    write_aggregate_csv(out, rows)
    print(f"wrote {out}: {len(rows)} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustmsd",
        description="Robust mean-plus-standard-deviation risk minimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the planar two-class task")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.add_argument("--outlier-scale", type=float, default=-10.0)
    p.add_argument("--covariance-scale", type=float, default=1.0)
    p.add_argument("--mean0", type=_parse_pair, default=(-2.0, -2.0))
    p.add_argument("--mean1", type=_parse_pair, default=(2.0, 2.0))
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="single training run with trajectory CSV")
    p.add_argument("--data", required=True, help="path or bundled:<name>")
    p.add_argument("--format", choices=("csv", "svmlight"), default="csv")
    p.add_argument("--label-col", default=None)
    p.add_argument(
        "--criterion",
        choices=KINDS,
        required=True,
    )
    p.add_argument("--beta0", type=float, default=0.9)
    p.add_argument("--xi", type=float, default=0.5)
    p.add_argument("--eta-tilde", type=float, default=0.5)
    p.add_argument("--lam", default="auto", help="'auto' = log(n)/sqrt(n)")
    p.add_argument("--step-size", type=float, default=0.01)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--checkpoint-every", type=int, default=100)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--split-seed", type=int, default=None)
    p.add_argument("--preprocess", action="store_true")
    p.add_argument("--init", default=None, help="comma-separated initial weights")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("experiment", help="full sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="run the numerical property suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="aggregate selected runs across trials")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, DivergenceError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
