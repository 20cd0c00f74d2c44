"""Base loss functions: linear logistic models.

Binary models use a single weight row and labels in {-1, +1}; multiclass
models keep one weight row per class and integer class labels.  The bias is
folded in as a constant-1 feature appended to the design rows, so gradients
always have the same shape as the weight matrix.

The batch loss layer returns each example's loss and its derivative with
respect to the K scores; since the scores are linear in the weights, that
derivative and the design rows determine every per-example gradient, and a
criterion's gradient is one weighted contraction of the two.  Metrics work
from one scoring pass: ``score_rows`` then ``losses_from_scores`` and
``classes_from_scores``.  Scores have shape (n, K), K = 1 for binary
models, with a leading run axis (R, n, K) when R weight matrices are
scored together; ``loss_batch`` and the functions after ``score_rows``
accept either.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

__all__ = [
    "LinearModel",
    "LossBatch",
    "design_rows",
    "score_rows",
    "losses_from_scores",
    "losses_and_dscore",
    "classes_from_scores",
    "binary_logistic",
    "multiclass_logistic",
    "loss_batch",
    "loss_values",
]


@dataclass
class LinearModel:
    """Linear scorer with weights of shape (classes, features).

    ``classes`` is 1 for binary models.  When ``includes_bias`` is set, a
    constant-1 feature is appended to every input, so ``features`` counts
    the raw input dimension plus one.  Weights of shape (R, classes,
    features) score R models at once.
    """

    weights: np.ndarray
    includes_bias: bool = True

    def __post_init__(self):
        self.weights = np.atleast_2d(np.asarray(self.weights, dtype=float))
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("model weights must be finite")

    @property
    def n_outputs(self) -> int:
        return self.weights.shape[-2]


@dataclass
class LossBatch:
    """Per-example losses and their derivatives with respect to the scores.

    Example i is scored as ``s_i = W @ rows[i]``, so the gradient of its loss
    in the weights is the outer product ``dscore[i] (x) rows[i]`` of shape
    (K, d).  The batch keeps the two factors and never builds the (n, K, d)
    tensor of per-example gradients; a criterion contracts its per-example
    weights with them (see ``criteria``).  A batch scored for R stacked
    models has (R, n) values and (R, n, K) dscore over the shared rows.
    """

    values: np.ndarray  # (n,) losses
    dscore: np.ndarray  # (n, K) derivative of each loss in its scores
    rows: np.ndarray  # (n, d) design rows the scores were computed from


def design_rows(model: LinearModel, features) -> np.ndarray:
    """Bring features to the model's design shape (n, d), appending the bias column.

    A loop that evaluates the same examples many times builds these rows
    once and scores them with ``LinearModel(weights, includes_bias=False)``,
    which takes them as they are.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim < 2:
        X = np.atleast_2d(X)
    if model.includes_bias:
        X = np.hstack([X, np.ones((X.shape[0], 1))])
    if X.shape[1] != model.weights.shape[-1]:
        raise ValueError(
            f"feature dimension {X.shape[1]} does not match "
            f"model dimension {model.weights.shape[-1]}"
        )
    return X


def binary_logistic(model: LinearModel, features, label: int):
    """Binary logistic loss log(1 + exp(-y * <w, x>)) and its gradient.

    ``label`` must be -1 or +1.  Uses log1p/expit formulations so large
    margins neither overflow nor lose the tail.
    """
    if label not in (-1, 1):
        raise ValueError(f"binary label must be -1 or +1, got {label!r}")
    if model.n_outputs != 1:
        raise ValueError("binary_logistic requires a single-output model")
    x = design_rows(model, features)[0]
    t = -label * float(x @ model.weights[0])
    loss = float(np.logaddexp(0.0, t))
    grad = (-label * expit(t)) * x
    return loss, grad.reshape(model.weights.shape)


def multiclass_logistic(model: LinearModel, features, label: int):
    """Multiclass logistic loss logsumexp(s) - s[label] and its gradient."""
    k = model.n_outputs
    if k < 2:
        raise ValueError("multiclass_logistic requires >= 2 output rows")
    if not 0 <= int(label) < k:
        raise ValueError(f"label {label!r} out of range [0, {k})")
    x = design_rows(model, features)[0]
    scores = model.weights @ x
    lse = logsumexp(scores)
    loss = float(lse - scores[int(label)])
    p = np.exp(scores - lse)
    p[int(label)] -= 1.0
    return loss, np.outer(p, x)


def _negated_signs(labels) -> np.ndarray:
    # class indices {0, 1} -> -y for signs y in {-1, +1}
    return 1.0 - 2.0 * np.asarray(labels)


def score_rows(weights: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Scores of design rows, shape (..., n, K), for weights of shape (..., K, d).

    A stack of R weight matrices is scored in one call, one BLAS product per
    matrix, so each run's scores carry the same bits as scoring it alone.
    """
    return X @ weights.swapaxes(-1, -2)


def losses_from_scores(scores: np.ndarray, labels) -> np.ndarray:
    """Per-example logistic losses (..., n) from ``score_rows`` output."""
    if scores.shape[-1] == 1:
        t = _negated_signs(labels) * scores[..., 0]
        return np.logaddexp(0.0, t, out=t)
    labels = np.asarray(labels, dtype=int)
    lse = logsumexp(scores, axis=-1)
    return lse - scores[..., np.arange(labels.size), labels]


def losses_and_dscore(scores: np.ndarray, labels):
    """Per-example losses (..., n) and their score derivatives (..., n, K)."""
    if scores.shape[-1] == 1:
        neg_y = _negated_signs(labels)
        t = neg_y * scores[..., 0]
        return np.logaddexp(0.0, t), (neg_y * expit(t))[..., None]
    labels = np.asarray(labels, dtype=int)
    lse = logsumexp(scores, axis=-1)
    picked = ..., np.arange(labels.size), labels
    dscore = np.exp(scores - lse[..., None])
    values = lse - scores[picked]
    dscore[picked] -= 1.0
    return values, dscore


def classes_from_scores(scores: np.ndarray) -> np.ndarray:
    """Predicted class indices (..., n); ties go to the lowest index."""
    if scores.shape[-1] == 1:
        # score exactly 0 predicts class 0 (the lower index)
        return (scores[..., 0] > 0.0).astype(int)
    return np.argmax(scores, axis=-1)


def loss_batch(model: LinearModel, features, labels) -> LossBatch:
    """Per-example losses and their score derivatives over a feature matrix.

    ``labels`` are class indices (0..K-1); for single-output models index 1
    is mapped to +1 and index 0 to -1 before applying the binary loss.  A
    model with stacked (R, K, d) weights gives each of its R models' losses.
    """
    X = design_rows(model, features)
    values, dscore = losses_and_dscore(score_rows(model.weights, X), labels)
    return LossBatch(values=values, dscore=dscore, rows=X)


def loss_values(model: LinearModel, features, labels) -> np.ndarray:
    """Per-example loss values only (no derivatives); used for metrics."""
    X = design_rows(model, features)
    return losses_from_scores(score_rows(model.weights, X), labels)
