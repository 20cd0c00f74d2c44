"""Command-line interface: synth / train / experiment / verify / report.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  All outputs are
deterministic given the seeds, so repeated invocations rewrite identical
files.
"""

import argparse
import csv
import math
import sys
import time
from pathlib import Path

from .criteria import KINDS, criterion_record
from .data import DataError, SynthConfig, generate_2d_outlier, preprocess, shuffle_split
from .harness import (
    DEFAULT_LEVELS,
    ExperimentSpec,
    MethodGrid,
    SpecError,
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
from .optimizer import DivergenceError, OptConfig, run_batch_gd, train
from .parallel import ForkError
from .suite import run_property_suite


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
    field = criterion_record(args.criterion).setting
    for other in _SETTING_DEFAULTS:
        if other != field and getattr(args, other) is not None:
            takes = "no setting flag" if field is None else _setting_flag(field)
            args.usage_error(f"argument {_setting_flag(other)}: criterion "
                             f"{args.criterion} takes {takes}")
    dataset = load_dataset(args.data, args.format, args.label_col)
    if args.split_seed is not None:
        dataset = shuffle_split(dataset, args.split_seed)
    if args.preprocess:
        dataset = preprocess(dataset)
    n_train = int(dataset.split_indices("train").size)
    lam = default_lam(n_train) if args.lam is None else args.lam
    setting = None
    if field is not None:
        setting = getattr(args, field)
        setting = _SETTING_DEFAULTS[field] if setting is None else setting
    try:
        params = make_criterion(args.criterion, setting, n_train, lam)
    except ValueError as err:  # a finite setting out of its kind's range; erm takes none
        raise ValueError(f"{_setting_flag(field)}: {err}") from None

    init = build_initial_state(dataset, args.init)

    gd = args.iterations is not None
    # SGD checkpoints at each epoch's end, so --checkpoint-every is GD's alone
    schedule = (dict(iterations=args.iterations, checkpoint_every=args.checkpoint_every) if gd
                else dict(epochs=args.epochs, batch_size=args.batch_size))
    config = OptConfig(step_size=args.step_size, seed=args.seed, **schedule)
    if gd:  # tests/test_acceptance.py imports run_batch_gd; perfbench counts its spans
        result = run_batch_gd(params, init, dataset, config)
    else:
        result = train([(params, config)], init, dataset).result(0)

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


def _floats(text):
    """The numbers of a comma-separated value; an empty item (as in ``0.1,,0.2``
    or ``0.5,``) is not a number."""
    return tuple(float(item) for item in text.split(","))


def _finite(text):
    """The number, if it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _pair(text):
    """The two finite numbers of a comma-separated value."""
    values = tuple(_finite(item) for item in text.split(","))
    if len(values) != 2:
        raise ValueError(text)
    return values


def _positive(text):
    """The number, if it is finite and positive."""
    value = _finite(text)
    if not value > 0.0:
        raise ValueError(text)
    return value


def _lam(text):
    """None for ``auto``, else the number, if it is finite and positive."""
    return None if text == "auto" else _positive(text)


def _at_least(low):
    """A reader of integers no less than ``low``."""
    def read(text):
        value = int(text)
        if value < low:
            raise ValueError(text)
        return value
    return read


# train's setting flags, each named after the CriterionParams field it fills,
# with the value a criterion takes when its own flag is absent; a flag the
# chosen criterion does not take is a usage error
_SETTING_DEFAULTS = {"beta0": 0.9, "xi": 0.5, "eta_tilde": 0.5}


def _setting_flag(field):
    return "--" + field.replace("_", "-")


_non_negative = _at_least(0)  # seeds too: numpy's generators take no negative seed
_FLOATS = "a comma-separated list of numbers with no empty item"
_POSITIVE = "a number that is positive and finite"
_LAM = "auto or " + _POSITIVE
_NON_NEGATIVE = "a non-negative integer"


def _flag(convert, what):
    """An argparse type that reads a flag as the config file reads its key, so
    a value it refuses is a usage error naming the flag and ``what`` it takes."""
    def parse(text):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"takes {what}, got {text!r}") from None
    return parse


# train reads its counts and sizes whichever mode the run takes
_NON_NEGATIVE_FLAG = _flag(_non_negative, _NON_NEGATIVE)  # seeds, --iterations, --epochs
_POSITIVE_FLAG = _flag(_at_least(1), "a positive integer")  # --batch-size, --checkpoint-every
_FINITE_FLAG = _flag(_finite, "a finite number")  # synth's scales, train's settings
_PAIR_FLAG = _flag(_pair, "two comma-separated finite numbers")  # synth's class means


def _parse(text, path, key, convert, what):
    """``convert(text)``; a value it refuses is a DataError naming the file and key."""
    try:
        return convert(text)
    except (KeyError, ValueError):
        raise DataError(f"config file {path!r}: {key} takes {what}, got {text!r}") from None


# each [experiment] key that is not text: the ExperimentSpec field it fills,
# how its value is read and what it takes; an absent key leaves the default
_NUMBERS = {
    "trials": ("trials", int, "an integer"),
    "seed": ("seed", _non_negative, _NON_NEGATIVE),
    "epochs": ("epochs", int, "an integer"),
    "batch_size": ("batch_size", int, "an integer"),
    "lam": ("lam", _lam, _LAM),
    "step_sizes": ("step_sizes", _floats, _FLOATS),
}
# the ExperimentSpec field of each [data] key
_DATA = {"path": "data", "format": "data_format", "label_col": "label_col"}
# the keys each config section takes; [methods] takes criterion kinds
_CONFIG_KEYS = {"data": tuple(_DATA), "experiment": (*_NUMBERS, "out"), "methods": KINDS}


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
    values = {_DATA[key]: raw for key, raw in sections.get("data", {}).items()}
    experiment = dict(sections.get("experiment", {}))
    values["out_dir"] = experiment.pop("out", "results")
    for key, raw in experiment.items():
        field, convert, what = _NUMBERS[key]
        values[field] = _parse(raw, path, f"[experiment] {key}", convert, what)
    if "data" not in values:
        raise DataError(f"config file {path!r} has no [data] section with a path")
    methods = []
    if "methods" in sections:
        for method, raw in sections["methods"].items():
            key = f"[methods] {method}"
            if criterion_record(method).setting is not None:
                methods.append(MethodGrid(method, _parse(raw, path, key, _floats, _FLOATS)))
            elif _parse(raw, path, key, lambda text: parser.BOOLEAN_STATES[text.lower()],
                        "yes/no (true/false, on/off, 1/0)"):
                methods.append(MethodGrid(method))
    else:
        methods = [
            MethodGrid("sunhuber", (0.9,)),
            MethodGrid("erm"),
            MethodGrid("cvar", DEFAULT_LEVELS),
            MethodGrid("chisq_dro", DEFAULT_LEVELS),
        ]
    if out_override:
        values["out_dir"] = out_override
    if seed_override is not None:
        values["seed"] = seed_override
    try:
        return ExperimentSpec(methods=methods, **values)
    except ValueError as err:  # an out-of-range value; the text names its field
        raise DataError(f"config file {path!r}: {err}") from None


def _cmd_experiment(args) -> int:
    spec = _spec_from_config(args.config, args.out, args.seed)
    try:
        manifest = run_experiment(spec)
    except SpecError as err:  # the text names the config values at fault
        raise DataError(f"config file {args.config!r}: {err}") from None
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
    start = time.perf_counter()
    outcomes = run_property_suite(quick=args.quick, seed=args.seed)
    total = time.perf_counter() - start  # the properties' own times overlap
    for o in outcomes:
        print(f"{o.status} {o.name} ({o.detail})")
        side = " (in a forked worker, beside the others)" if o.forked else ""
        print(f"time {o.name} {o.seconds:.3f} s{side}", file=sys.stderr)
    print(f"time total {total:.3f} s", file=sys.stderr)
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
    p.add_argument("--seed", type=_NON_NEGATIVE_FLAG, default=0)
    p.add_argument("--out", default=".")
    p.add_argument("--outlier-scale", type=_FINITE_FLAG, default=-10.0)
    p.add_argument("--covariance-scale", type=_FINITE_FLAG, default=1.0)
    p.add_argument("--mean0", type=_PAIR_FLAG, default=(-2.0, -2.0))
    p.add_argument("--mean1", type=_PAIR_FLAG, default=(2.0, 2.0))
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
    for field in _SETTING_DEFAULTS:
        p.add_argument(_setting_flag(field), type=_FINITE_FLAG, default=None)
    p.add_argument("--lam", type=_flag(_lam, _LAM), default="auto",
                   help="'auto' = log(n)/sqrt(n)")
    p.add_argument("--step-size", type=_flag(_positive, _POSITIVE), default=0.01)
    p.add_argument("--iterations", type=_NON_NEGATIVE_FLAG, default=None)
    p.add_argument("--checkpoint-every", type=_POSITIVE_FLAG, default=100)
    p.add_argument("--epochs", type=_NON_NEGATIVE_FLAG, default=30)
    p.add_argument("--batch-size", type=_POSITIVE_FLAG, default=32)
    p.add_argument("--split-seed", type=_NON_NEGATIVE_FLAG, default=None)
    p.add_argument("--preprocess", action="store_true")
    p.add_argument("--init", type=_flag(_floats, _FLOATS), default=None,
                   help="comma-separated initial weights")
    p.add_argument("--seed", type=_NON_NEGATIVE_FLAG, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_train, usage_error=p.error)

    p = sub.add_parser("experiment", help="full sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_NON_NEGATIVE_FLAG, default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="run the numerical property suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=_NON_NEGATIVE_FLAG, default=0)
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
    except (DataError, DivergenceError, ValueError, OSError, MemoryError,
            ForkError) as err:  # ForkError: a forked call died without a result
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
