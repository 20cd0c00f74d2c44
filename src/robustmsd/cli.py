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

from .criteria import KINDS, BoundError, criterion_record
from .data import (FORMATS, DataError, SynthConfig, generate_2d_outlier, load_dataset,
                   preprocess, shuffle_split)
from .harness import (
    DEFAULT_LEVELS,
    ExperimentSpec,
    MethodGrid,
    aggregate_trials,
    build_initial_state,
    load_manifest,
    make_criterion,
    run_experiment,
    write_aggregate_csv,
    write_trajectory_csv,
)
from .optimizer import DivergenceError, OptConfig, check_batch_size, run_batch_gd, train
from .parallel import ForkError
from .suite import run_property_suite


def _cmd_synth(args) -> int:
    config = SynthConfig(
        n=args.n,
        seed=args.seed,
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
    record = criterion_record(args.criterion)
    reads = tuple(f for f in _CRITERION_DEFAULTS if f in (record.setting, *record.coefficients))
    _fill_flags(args, _CRITERION_DEFAULTS, reads, f"criterion {args.criterion}")
    gd = args.iterations is not None
    schedule = _GD_FLAGS if gd else _SGD_FLAGS
    _fill_flags(args, _SCHEDULE_DEFAULTS, schedule,
                "full-batch GD (--iterations)" if gd else "SGD (no --iterations)")
    if args.label_col is not None and args.format != "csv":
        args.usage_error(f"argument --label-col: --format {args.format} names no columns")
    dataset = load_dataset(args.data, args.format, args.label_col)
    if args.split_seed is not None:
        dataset = shuffle_split(dataset, args.split_seed)
    if args.preprocess:
        dataset = preprocess(dataset)
    n_train = int(dataset.split_indices("train").size)
    if not gd:
        check_batch_size(args.batch_size, n_train, "--batch-size: ")
    setting = None if record.setting is None else getattr(args, record.setting)
    try:
        params = make_criterion(args.criterion, setting, n_train, args.lam)
    except ValueError as err:  # a setting out of its kind's range, or sunhuber's past lam
        named = reads if isinstance(err, BoundError) else (record.setting,)
        raise ValueError(f"{', '.join(map(_flag_name, named))}: {err}") from None

    init = build_initial_state(dataset, args.init)

    config = OptConfig(step_size=args.step_size, iterations=args.iterations,
                       **{name: getattr(args, name) for name in schedule})
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
# with the value a criterion takes when its own flag is absent
_SETTING_DEFAULTS = {"beta0": 0.9, "xi": 0.5, "eta_tilde": 0.5}
# the flags a criterion may read: its setting's, and --lam where lam is one of
# its coefficients (None, as "auto" reads, is log(n)/sqrt(n))
_CRITERION_DEFAULTS = {**_SETTING_DEFAULTS, "lam": None}
# train's schedule flags, each named after the OptConfig field it fills, with
# its value when absent; --iterations picks full-batch GD, which reads the
# first, and SGD, which checkpoints at each epoch's end, reads the others
_SCHEDULE_DEFAULTS = {"checkpoint_every": 100, "epochs": 30, "batch_size": 32, "seed": 0}
_GD_FLAGS, _SGD_FLAGS = ("checkpoint_every",), ("epochs", "batch_size", "seed")


def _flag_name(field):
    return "--" + field.replace("_", "-")


def _fill_flags(args, defaults, read, who):
    """Fill each flag of ``read`` that the command line leaves out with its value
    in ``defaults``.  Another flag of ``defaults`` that it gives would go unread,
    so it is a usage error naming the flag and the ones ``who`` takes."""
    for field, default in defaults.items():
        if field in read:
            if getattr(args, field) is None:
                setattr(args, field, default)
        elif getattr(args, field) is not None:
            takes = ", ".join(map(_flag_name, read)) or "no criterion flag"
            args.usage_error(f"argument {_flag_name(field)}: {who} takes {takes}")


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


_NON_NEGATIVE_FLAG = _flag(_non_negative, _NON_NEGATIVE)  # seeds, --iterations, --epochs
_POSITIVE_FLAG = _flag(_at_least(1), "a positive integer")  # --batch-size, --checkpoint-every
_FINITE_FLAG = _flag(_finite, "a finite number")  # synth's --outlier-scale, train's settings


def _parse(text, key, convert, what):
    """``convert(text)``; a value it refuses is a ValueError naming the key."""
    try:
        return convert(text)
    except (KeyError, ValueError):
        raise ValueError(f"{key} takes {what}, got {text!r}") from None


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
        if not parser.read(path, encoding="utf-8"):
            raise ValueError("cannot be read")
        # reading every value here also runs its interpolation, which can fail
        sections = {name: dict(parser[name]) for name in parser.sections()}
        for name, entries in sections.items():
            if name not in _CONFIG_KEYS:
                raise ValueError(f"unknown section [{name}] (known: {', '.join(_CONFIG_KEYS)})")
            for key in entries:
                if key not in _CONFIG_KEYS[name]:
                    raise ValueError(f"unknown key {key!r} in [{name}] "
                                     f"(known: {', '.join(_CONFIG_KEYS[name])})")
        values = {_DATA[key]: raw for key, raw in sections.get("data", {}).items()}
        experiment = dict(sections.get("experiment", {}))
        values["out_dir"] = experiment.pop("out", "results")
        for key, raw in experiment.items():
            field, convert, what = _NUMBERS[key]
            values[field] = _parse(raw, f"[experiment] {key}", convert, what)
        if "data" not in values:
            raise ValueError("no [data] section with a path")
        methods = []
        if "methods" in sections:
            for method, raw in sections["methods"].items():
                key = f"[methods] {method}"
                if criterion_record(method).setting is not None:
                    methods.append(MethodGrid(method, _parse(raw, key, _floats, _FLOATS)))
                elif _parse(raw, key, lambda text: parser.BOOLEAN_STATES[text.lower()],
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
        # ExperimentSpec refuses an out-of-range value; the text names its field
        return ExperimentSpec(methods=methods, **values)
    except (configparser.Error, ValueError) as err:
        raise _config_error(path, err) from None


def _config_error(path, err) -> DataError:
    """``err`` as a fault of the config file ``path``, on one line (some of
    configparser's texts span several)."""
    text = " ".join(line.strip() for line in str(err).splitlines())
    return DataError(f"config file {path!r}: {text}")


def _cmd_experiment(args) -> int:
    spec = _spec_from_config(args.config, args.out, args.seed)
    try:
        dataset = load_dataset(spec.data, spec.data_format, spec.label_col)
    except FileNotFoundError as err:  # [data] path names no dataset
        raise _config_error(args.config, err) from None
    try:
        manifest = run_experiment(spec, dataset)
    except DataError:  # a data file's fault; the text names that file
        raise
    except ValueError as err:  # what the data or the run-file names rule out in the spec
        raise _config_error(args.config, err) from None
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # an --out that cannot be made stops it first
    start = time.perf_counter()
    outcomes = run_property_suite(quick=args.quick, seed=args.seed)
    total = time.perf_counter() - start  # the properties' own times overlap
    for o in outcomes:
        print(f"{o.status} {o.name} ({o.detail})")
        side = " (in a forked worker, beside the others)" if o.forked else ""
        print(f"time {o.name} {o.seconds:.3f} s{side}", file=sys.stderr)
    for side, forked in (("caller", False), ("worker", True)):
        times = [o.seconds for o in outcomes if o.forked == forked]
        if times:  # on one CPU no property runs in a forked worker
            print(f"time {side} {sum(times):.3f} s", file=sys.stderr)
    print(f"time total {total:.3f} s", file=sys.stderr)
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
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="single training run with trajectory CSV")
    p.add_argument("--data", required=True, help="path or bundled:<name>")
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--label-col", default=None)
    p.add_argument(
        "--criterion",
        choices=KINDS,
        required=True,
    )
    for field in _SETTING_DEFAULTS:
        p.add_argument(_flag_name(field), type=_FINITE_FLAG, default=None)
    p.add_argument("--lam", type=_flag(_lam, _LAM), default="auto",
                   help="'auto' = log(n)/sqrt(n)")
    p.add_argument("--step-size", type=_flag(_positive, _POSITIVE), default=0.01)
    p.add_argument("--iterations", type=_NON_NEGATIVE_FLAG, default=None)
    p.add_argument("--checkpoint-every", type=_POSITIVE_FLAG, default=None)
    p.add_argument("--epochs", type=_NON_NEGATIVE_FLAG, default=None)
    p.add_argument("--batch-size", type=_POSITIVE_FLAG, default=None)
    p.add_argument("--split-seed", type=_NON_NEGATIVE_FLAG, default=None)
    p.add_argument("--preprocess", action="store_true")
    p.add_argument("--init", type=_flag(_floats, _FLOATS), default=None,
                   help="comma-separated initial weights")
    p.add_argument("--seed", type=_NON_NEGATIVE_FLAG, default=None)
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
    except (DivergenceError, ValueError, OSError, MemoryError,
            ForkError) as err:  # ForkError: a forked call died without a result
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
