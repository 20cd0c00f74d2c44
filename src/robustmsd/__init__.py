"""Robust mean-plus-standard-deviation risk minimization with a learned scale.

Library layout:

- ``rho``: the smooth Huber dispersion function, derivatives, conjugate.
- ``model``: linear logistic losses (binary and multiclass), zero-one error.
- ``criteria``: training objectives (joint robust, mean, CVaR, chi^2-DRO),
  the sqrt(n) parameter schedule, mean-SD / mean-variance evaluation.
- ``optimizer``: seeded batch GD and mini-batch SGD over (h, a, b); SGD
  trains many runs together as one stacked array program.
- ``data``: synthetic planar task, CSV/svmlight ingestion, preprocessing,
  80/10/10 splits.
- ``verify``: numerical oracles for the formal properties of the criterion.
- ``harness``: experiment orchestration, trajectory CSVs, trial aggregation.
- ``cli``: the ``robustmsd`` command.
"""

__version__ = "0.1.0"

from .criteria import (
    CriterionParams,
    JointState,
    ObjectiveEval,
    mean_sd,
    mean_variance,
    schedule_params,
)
from .data import Dataset, SynthConfig, generate_2d_outlier, load_tabular
from .model import LinearModel, LossBatch
from .optimizer import OptConfig, RunResult, run_batch_gd, run_minibatch_sgd

__all__ = [
    "__version__",
    "CriterionParams",
    "JointState",
    "ObjectiveEval",
    "mean_sd",
    "mean_variance",
    "schedule_params",
    "Dataset",
    "SynthConfig",
    "generate_2d_outlier",
    "load_tabular",
    "LinearModel",
    "LossBatch",
    "OptConfig",
    "RunResult",
    "run_batch_gd",
    "run_minibatch_sgd",
]
