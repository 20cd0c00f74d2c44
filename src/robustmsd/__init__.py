"""Robust mean-plus-standard-deviation risk minimization with a learned scale.

Library layout:

- ``rho``: the smooth Huber dispersion function, derivatives, conjugate.
- ``model``: linear logistic losses (binary and multiclass), scored for
  one model or a stack of models at once.
- ``criteria``: training objectives (joint robust, mean, CVaR, chi^2-DRO),
  the sqrt(n) parameter schedule, mean-SD evaluation.
- ``optimizer``: one seeded training loop over (h, a, b) with a full-batch
  (GD) and a mini-batch (SGD) schedule; it trains many runs together as one
  stacked array program and a lone run on plain floats.
- ``data``: synthetic planar task, dataset references, CSV/svmlight
  ingestion, preprocessing, 80/10/10 splits.
- ``verify``: numerical oracles for the formal properties of the criterion.
- ``harness``: experiment orchestration, trajectory CSVs, trial aggregation.
- ``parallel``: runs calls 2..k in forked children beside call 1.
- ``cli``: the ``robustmsd`` command.

Each name is imported from the module that defines it; the package itself
exports only ``__version__``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
