"""The step loop against a reference built from per-example gradients.

The reference below is the direct formulation of every training step: it
augments the features with the bias column at each step, builds the
(n, K, d) tensor of per-example loss gradients, contracts it with
``np.tensordot`` and reduces with ``np.mean``.  The library never builds
that tensor; on binary data its trajectories must still agree bit for bit,
and on multiclass data (where the contraction order differs) to 1e-12.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit, logsumexp

from robustmsd.criteria import CriterionParams, schedule_params
from robustmsd.data import Dataset, SynthConfig, generate_2d_outlier, load_tabular
from robustmsd.data import preprocess, shuffle_split
from robustmsd.harness import build_initial_state, default_lam
from robustmsd.optimizer import OptConfig, run_batch_gd, run_minibatch_sgd

BUNDLED = Path(__file__).resolve().parents[1] / "src/robustmsd/datasets/credit690.csv"
KINDS = ("sunhuber", "erm", "cvar", "chisq_dro")


def criterion_for(kind, n_train):
    if kind == "sunhuber":
        return schedule_params(n_train, 0.9, default_lam(n_train))
    if kind == "erm":
        return CriterionParams("erm")
    if kind == "cvar":
        return CriterionParams("cvar", xi=0.5)
    return CriterionParams("chisq_dro", eta_tilde=0.5)


# ---------------------------------------------------------------- reference


def ref_design(features):
    return np.hstack([features, np.ones((features.shape[0], 1))])


def ref_scores(h, X):
    return X @ h[0] if h.shape[0] == 1 else X @ h.T


def ref_losses(h, X, labels):
    scores = ref_scores(h, X)
    if h.shape[0] == 1:
        return np.logaddexp(0.0, -(2.0 * labels.astype(float) - 1.0) * scores)
    lse = logsumexp(scores, axis=1)
    return lse - scores[np.arange(len(labels)), labels]


def ref_loss_grads(h, X, labels):
    """Per-example losses and the (n, K, d) tensor of their gradients in h."""
    if h.shape[0] == 1:
        y = 2.0 * labels.astype(float) - 1.0
        t = -y * (X @ h[0])
        return np.logaddexp(0.0, t), ((-y * expit(t))[:, None] * X)[:, None, :]
    scores = X @ h.T
    lse = logsumexp(scores, axis=1)
    picked = np.arange(len(labels)), labels
    p = np.exp(scores - lse[:, None])
    p[picked] -= 1.0
    return lse - scores[picked], p[:, :, None] * X[:, None, :]


def ref_objective(values, grads, a, b, params):
    """(value, grad_h, grad_a, grad_b) of one criterion on one batch."""
    n = len(values)
    if params.kind == "sunhuber":
        r = values - a
        s = np.sqrt(r * r + b * b)
        value = params.alpha * a + params.beta * b + params.lam * np.mean(r * r / (s + b))
        w = r / s
        grad_a = params.alpha - params.lam * float(np.mean(w))
        grad_b = params.beta - params.lam * float(np.mean(r * r / (s * (s + b))))
        return float(value), params.lam * np.tensordot(w, grads, axes=1) / n, grad_a, grad_b
    if params.kind == "erm":
        return float(np.mean(values)), np.mean(grads, axis=0), 0.0, None
    if params.kind == "cvar":
        inv = 1.0 / (1.0 - params.xi)
        pos = values - a
        active = pos > 0.0
        value = a + inv * float(np.mean(np.where(active, pos, 0.0)))
        grad_h = inv * np.tensordot(active.astype(float), grads, axes=1) / n
        return value, grad_h, 1.0 - inv * float(np.mean(active)), None
    eta = (1.0 / (1.0 - params.eta_tilde) - 1.0) / 2.0
    coef = math.sqrt(1.0 + 2.0 * eta)
    pos = np.maximum(values - a, 0.0)
    mean_sq = float(np.mean(pos * pos))
    if mean_sq == 0.0:
        return float(a), np.zeros_like(grads[0]), 1.0, None
    root = math.sqrt(mean_sq)
    grad_a = 1.0 - coef * float(np.mean(pos)) / root
    grad_h = coef * np.tensordot(pos, grads, axes=1) / (n * root)
    return a + coef * root, grad_h, grad_a, None


def ref_criterion_value(values, a, b, params):
    if params.kind == "erm":
        return float(np.mean(values))
    if params.kind == "cvar":
        return a + float(np.mean(np.maximum(values - a, 0.0))) / (1.0 - params.xi)
    if params.kind == "chisq_dro":
        eta = (1.0 / (1.0 - params.eta_tilde) - 1.0) / 2.0
        pos = np.maximum(values - a, 0.0)
        return a + math.sqrt((1.0 + 2.0 * eta) * float(np.mean(pos * pos)))
    r = values - a
    dev = r * r / (np.sqrt(r * r + b * b) + b)
    return params.alpha * a + params.beta * b + params.lam * float(np.mean(dev))


def ref_records(checkpoint, dataset, h, a, b, params):
    """Checkpoint rows as tuples in TrajectoryRecord field order."""
    rows = []
    rec_a = a if params.kind != "erm" else float("nan")
    rec_b = b if params.kind == "sunhuber" else float("nan")
    for split in dataset.splits_present():
        idx = dataset.split_indices(split)
        X, labels = ref_design(dataset.features[idx]), dataset.labels[idx]
        values = ref_losses(h, X, labels)
        scores = ref_scores(h, X)
        pred = (scores > 0.0).astype(int) if h.shape[0] == 1 else np.argmax(scores, axis=1)
        rows.append(
            (
                checkpoint,
                split,
                float(np.mean(values)) + math.sqrt(float(np.var(values))),
                float(np.mean(values)),
                float(np.mean(pred != labels)),
                float(np.linalg.norm(h.ravel())),
                ref_criterion_value(values, a, b, params),
                rec_a,
                rec_b,
            )
        )
    return rows


def ref_run(params, init, dataset, config):
    """Final (h, a, b) and checkpoint rows of the reference GD or SGD loop."""
    h, a, b = init.h.copy(), init.a, init.b
    train = dataset.split_indices("train")
    records = []

    def step(idx):
        nonlocal h, a, b
        X = ref_design(dataset.features[idx])
        values, grads = ref_loss_grads(h, X, dataset.labels[idx])
        _, grad_h, grad_a, grad_b = ref_objective(values, grads, a, b, params)
        h = h - config.step_size * grad_h
        if params.kind != "erm":
            a = a - config.step_size * grad_a
        if params.kind == "sunhuber":
            b = max(b - config.step_size * grad_b, config.b_floor)

    if config.mode == "batch":
        for t in range(1, config.iterations + 1):
            step(train)
            if t % config.checkpoint_every == 0 or t == config.iterations:
                records += ref_records(t, dataset, h, a, b, params)
    else:
        rng = np.random.Generator(np.random.PCG64(config.seed))
        for epoch in range(1, config.epochs + 1):
            perm = rng.permutation(train)
            for start in range(0, train.size, config.batch_size):
                step(np.sort(perm[start : start + config.batch_size]))
            records += ref_records(epoch, dataset, h, a, b, params)
    return (h, a, b), records


# ------------------------------------------------------------- comparisons


def numeric_fields(rows):
    return np.array([[float(v) for v in row[:1] + row[2:]] for row in rows])


def run_both(kind, dataset, config):
    n_train = int(dataset.split_indices("train").size)
    params = criterion_for(kind, n_train)
    init = build_initial_state(dataset)
    run = run_batch_gd if config.mode == "batch" else run_minibatch_sgd
    result = run(params, init, dataset, config)
    got_rows = [
        (r.checkpoint, r.split, r.mean_sd, r.mean_loss, r.error_rate,
         r.model_norm, r.objective, r.a, r.b)
        for r in result.trajectory
    ]
    state = result.final_state
    (h, a, b), want_rows = ref_run(params, init, dataset, config)
    assert [r[:2] for r in got_rows] == [r[:2] for r in want_rows]
    assert state.h.shape == h.shape
    got = np.concatenate([state.h.ravel(), [state.a, state.b]])
    want = np.concatenate([h.ravel(), [a, b]])
    return got, want, numeric_fields(got_rows), numeric_fields(want_rows)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_relative(got, want, rtol=1e-12):
    """Agreement to rtol relative to the largest entry of each column.

    Small entries are differences of larger ones, so their own relative
    error can exceed rtol while the column agrees to rounding.
    """
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    scale = np.nan_to_num(np.abs(want)).max(axis=0)
    err = np.nan_to_num(np.abs(got - want))
    assert np.all(err <= rtol * scale), f"column errors {err.max(axis=0)} vs scale {scale}"


@pytest.fixture(scope="module")
def planar():
    return generate_2d_outlier(SynthConfig(n=100, seed=0))


@pytest.fixture(scope="module")
def credit():
    return preprocess(shuffle_split(load_tabular(BUNDLED), 0))


@pytest.fixture(scope="module")
def three_class():
    rng = np.random.Generator(np.random.PCG64(11))
    centers = np.array([[-2.0, 0.0, 1.0], [2.0, 1.0, -1.0], [0.0, -2.5, 0.5]])
    labels = np.repeat(np.arange(3), 40)
    features = centers[labels] + rng.normal(size=(labels.size, 3))
    features[0] = [15.0, 15.0, -15.0]  # one gross outlier in class 0
    ds = Dataset(features, labels, 3, np.full(labels.size, "train"), "three-class")
    return shuffle_split(ds, 3)


@pytest.mark.parametrize("kind", KINDS)
def test_batch_gd_matches_reference_bitwise(planar, kind):
    config = OptConfig(step_size=0.05, iterations=200, checkpoint_every=20)
    got, want, got_rows, want_rows = run_both(kind, planar, config)
    assert_bitwise(got, want)
    assert_bitwise(got_rows, want_rows)


@pytest.mark.parametrize("kind", KINDS)
def test_minibatch_sgd_matches_reference_bitwise(credit, kind):
    config = OptConfig(step_size=0.1, epochs=2, batch_size=32, seed=4)
    got, want, got_rows, want_rows = run_both(kind, credit, config)
    assert_bitwise(got, want)
    assert_bitwise(got_rows, want_rows)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", ["batch", "sgd"])
def test_multiclass_matches_reference_closely(three_class, kind, mode):
    # Multiclass contractions sum in another order, so each step agrees to
    # rounding only.  The step size is small enough that the threshold does
    # not oscillate; at 0.05 the divergence dual swings between 3 and 96
    # active examples per step and amplifies that rounding to ~1e-5.
    if mode == "batch":
        config = OptConfig(step_size=0.01, iterations=60, checkpoint_every=20)
    else:
        config = OptConfig(step_size=0.01, epochs=3, batch_size=16, seed=2)
    got, want, got_rows, want_rows = run_both(kind, three_class, config)
    assert_relative(got[:, None], want[:, None])
    assert_relative(got_rows, want_rows)
