"""In-memory span tracer that wraps robustmsd's layer functions.

A wrapper replaces a function at every place a caller looks it up: each
``robustmsd`` module attribute bound to the original function object
(``optimizer`` binds ``loss_batch`` by ``from .model import``, so the
wrapper goes on ``robustmsd.optimizer.loss_batch`` as well as on
``robustmsd.model.loss_batch``).  Each call records a span (name, start,
end, parent span, op id) in flat lists; nothing is written until
``write_spans`` runs after the pass.  Byte counters are computed from
array and file sizes, not measured I/O.
"""

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, module, function): the public boundaries of each layer, plus the
# optimizer's per-checkpoint metrics step, which has no public name.
TARGETS = (
    ("data", "robustmsd.data", "load_tabular"),
    ("data", "robustmsd.data", "generate_2d_outlier"),
    ("data", "robustmsd.data", "shuffle_split"),
    ("data", "robustmsd.data", "preprocess"),
    ("model", "robustmsd.model", "loss_batch"),
    ("model", "robustmsd.model", "loss_values"),
    ("model", "robustmsd.model", "zero_one_error"),
    ("criteria", "robustmsd.criteria", "evaluate_objective"),
    ("criteria", "robustmsd.criteria", "criterion_value"),
    ("criteria", "robustmsd.criteria", "mean_sd"),
    ("optimizer", "robustmsd.optimizer", "run_batch_gd"),
    ("optimizer", "robustmsd.optimizer", "run_minibatch_sgd"),
    ("optimizer", "robustmsd.optimizer", "_checkpoint_records"),
    ("harness", "robustmsd.harness", "run_experiment"),
    ("harness", "robustmsd.harness", "build_initial_state"),
    ("harness", "robustmsd.harness", "write_trajectory_csv"),
    ("harness", "robustmsd.harness", "read_trajectory_csv"),
    ("harness", "robustmsd.harness", "aggregate_trials"),
    ("verify", "robustmsd.verify", "check_location_concentration"),
    ("verify", "robustmsd.verify", "check_scale_bounds"),
    ("verify", "robustmsd.verify", "check_pair_optimality"),
    ("verify", "robustmsd.verify", "check_stationarity_equivalence"),
    ("verify", "robustmsd.verify", "check_scale_optimized_limit"),
    ("suite", "robustmsd.suite", "run_property_suite"),
    ("rho", "robustmsd.rho", "rho_conjugate"),
    ("rho", "robustmsd.rho", "catoni_envelope_check"),
)
CLI_SPAN = "cli.main"
RUN_SPANS = ("optimizer.run_batch_gd", "optimizer.run_minibatch_sgd")
CHECKPOINT_SPAN = "optimizer._checkpoint_records"


def _grad_bytes(args, kwargs, result):
    # every array the loss layer returns besides the loss values
    return sum(
        v.nbytes for k, v in getattr(result, "__dict__", {}).items()
        if k != "values" and isinstance(v, np.ndarray)
    )


def _path_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _records(args, kwargs, result):
    return len(result)


def _failed_properties(args, kwargs, result):
    return sum(not o.passed for o in result)


def _sample_bytes_of(fn):
    signature = inspect.signature(fn)

    def sample_bytes(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        return 8 * int(bound["trials"]) * int(bound["n"])  # float64 draws

    return sample_bytes


class Tracer:
    """Collects spans for one pass.  ``op`` is the id stamped on new spans."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op_id = []
        self.stack = []
        self.op = -1  # set-up spans carry op id -1
        self.counters = defaultdict(int)  # (span name, counter) -> total
        self.raised = defaultdict(int)  # (span name, exception type) -> count

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        i = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def wrap(self, name, fn, counters=()):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self._close(i)
                self.raised[name, type(err).__name__] += 1
                raise
            self._close(i)
            for key, count in counters:
                self.counters[name, key] += count(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target at each robustmsd module attribute bound to it."""
        modules = [m for n, m in sys.modules.items() if n.startswith("robustmsd")]
        for layer, module, attr in TARGETS:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                continue  # a layer without this boundary reports zeros
            name = f"{layer}.{attr}"
            counters = {
                "model.loss_batch": (("grad_bytes", _grad_bytes),),
                "harness.write_trajectory_csv": (("bytes", _path_bytes),),
                "harness.read_trajectory_csv": (("bytes", _path_bytes),),
                CHECKPOINT_SPAN: (("records", _records),),
                "suite.run_property_suite": (
                    ("properties", _records), ("failed", _failed_properties),
                ),
                "verify.check_location_concentration": (
                    ("sample_bytes", _sample_bytes_of(fn)),
                ),
            }.get(name, ())
            wrapped = self.wrap(name, fn, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def write_spans(self, path):
        """One line per span: name,start_s,end_s,parent_index,op_id."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start_s,end_s,parent,op\n")
            for nid, s, e, p, op in zip(
                self.span_name, self.start, self.end, self.parent, self.op_id
            ):
                f.write(f"{self.names[nid]},{s!r},{e!r},{p},{op}\n")

    def layer_metrics(self, ops_wall_s):
        """Per-layer metrics of all spans; only set-up generates planar data."""
        names = np.array(self.span_name, dtype=np.int64)
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - covered
        by_name = {}
        for name, nid in self.name_ids.items():
            sel = names == nid
            by_name[name] = (
                int(sel.sum()), float(dur[sel].sum()), float(self_time[sel].sum())
            )

        def calls(name):
            return by_name.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return by_name.get(name, (0, 0.0, 0.0))[1]

        def self_s(*span_names):
            return sum(by_name.get(n, (0, 0.0, 0.0))[2] for n in span_names)

        def per_call(name, scale):
            return scale * total(name) / calls(name) if calls(name) else 0.0

        m = {}
        m["cli.main.calls"] = calls(CLI_SPAN)
        m["cli.main.self_s"] = self_s(CLI_SPAN)
        m["data.load_tabular.calls"] = calls("data.load_tabular")
        for fn in ("load_tabular", "generate_2d_outlier", "shuffle_split", "preprocess"):
            m[f"data.{fn}.self_s"] = self_s(f"data.{fn}")
        for fn in ("loss_batch", "loss_values", "zero_one_error"):
            m[f"model.{fn}.calls"] = calls(f"model.{fn}")
            m[f"model.{fn}.self_s"] = self_s(f"model.{fn}")
        m["model.loss_batch.us_per_call"] = per_call("model.loss_batch", 1e6)
        m["model.loss_batch.grad_bytes"] = self.counters["model.loss_batch", "grad_bytes"]
        for fn in ("evaluate_objective", "criterion_value", "mean_sd"):
            m[f"criteria.{fn}.calls"] = calls(f"criteria.{fn}")
            m[f"criteria.{fn}.self_s"] = self_s(f"criteria.{fn}")
        m["criteria.evaluate_objective.us_per_call"] = per_call(
            "criteria.evaluate_objective", 1e6
        )

        runs = sum(calls(n) for n in RUN_SPANS)
        diverged = sum(self.raised[n, "DivergenceError"] for n in RUN_SPANS)
        run_ids = [self.name_ids[n] for n in RUN_SPANS if n in self.name_ids]
        lb = names == self.name_ids.get("model.loss_batch", -1)
        steps = int((lb & has_parent & np.isin(names[np.maximum(parent, 0)], run_ids)).sum())
        run_s = sum(total(n) for n in RUN_SPANS)
        checkpoint_s = total(CHECKPOINT_SPAN)
        m["optimizer.runs"] = runs
        m["optimizer.diverged"] = diverged
        m["optimizer.useful_frac"] = (runs - diverged) / runs if runs else 0.0
        m["optimizer.steps"] = steps
        m["optimizer.checkpoint_records"] = self.counters[CHECKPOINT_SPAN, "records"]
        m["optimizer.self_s"] = self_s(*RUN_SPANS, CHECKPOINT_SPAN)
        m["optimizer.us_per_step"] = 1e6 * (run_s - checkpoint_s) / steps if steps else 0.0
        m["optimizer.ms_per_checkpoint"] = per_call(CHECKPOINT_SPAN, 1e3)
        m["optimizer.checkpoint_share"] = checkpoint_s / run_s if run_s else 0.0

        for fn in ("run_experiment", "build_initial_state", "aggregate_trials"):
            m[f"harness.{fn}.self_s"] = self_s(f"harness.{fn}")
        for fn in ("write_trajectory_csv", "read_trajectory_csv"):
            m[f"harness.{fn}.calls"] = calls(f"harness.{fn}")
            m[f"harness.{fn}.self_s"] = self_s(f"harness.{fn}")
            m[f"harness.{fn}.bytes"] = self.counters[f"harness.{fn}", "bytes"]

        m["verify.check_location_concentration.calls"] = calls(
            "verify.check_location_concentration"
        )
        m["verify.check_location_concentration.sample_bytes"] = self.counters[
            "verify.check_location_concentration", "sample_bytes"
        ]
        m["verify.check_scale_bounds.calls"] = calls("verify.check_scale_bounds")
        for fn in (
            "check_location_concentration", "check_scale_bounds",
            "check_pair_optimality", "check_stationarity_equivalence",
            "check_scale_optimized_limit",
        ):
            m[f"verify.{fn}.self_s"] = self_s(f"verify.{fn}")

        m["suite.run_property_suite.self_s"] = self_s("suite.run_property_suite")
        m["suite.properties"] = self.counters["suite.run_property_suite", "properties"]
        m["suite.failed"] = self.counters["suite.run_property_suite", "failed"]
        for fn in ("rho_conjugate", "catoni_envelope_check"):
            m[f"rho.{fn}.calls"] = calls(f"rho.{fn}")
            m[f"rho.{fn}.self_s"] = self_s(f"rho.{fn}")

        top = (np.array(self.op_id) >= 0) & ~has_parent
        m["trace.unattributed_frac"] = (
            (ops_wall_s - float(dur[top].sum())) / ops_wall_s if ops_wall_s else 0.0
        )
        return m
