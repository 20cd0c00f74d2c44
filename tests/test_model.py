"""Loss function checks: stability, gradients, batch/single agreement."""

import math

import numpy as np
import pytest

from robustmsd.model import (
    LinearModel,
    binary_logistic,
    classes_from_scores,
    design_rows,
    loss_batch,
    loss_values,
    multiclass_logistic,
    score_rows,
)


def predict_classes(model, features):
    """Predicted class indices; ties resolve to the lowest class index."""
    return classes_from_scores(score_rows(model.weights, design_rows(model, features)))


def zero_one_error(model, features, labels):
    """Fraction of examples whose prediction mismatches the label."""
    labels = np.asarray(labels, dtype=int)
    if labels.size == 0:
        raise ValueError("zero_one_error requires a nonempty dataset")
    return float(np.mean(predict_classes(model, features) != labels))


def test_binary_zero_margin_gives_log2():
    model = LinearModel(weights=np.zeros((1, 3)), includes_bias=False)
    loss, grad = binary_logistic(model, np.array([1.0, 2.0, 3.0]), 1)
    assert loss == pytest.approx(math.log(2.0), rel=1e-14)
    # sigma(0) = 1/2
    np.testing.assert_allclose(grad, -0.5 * np.array([[1.0, 2.0, 3.0]]))


def test_binary_large_margin_no_overflow():
    model = LinearModel(weights=np.array([[50.0]]), includes_bias=False)
    loss, _ = binary_logistic(model, np.array([1.0]), 1)
    assert 0.0 < loss < 1e-20
    # mirrored: hugely wrong margin stays finite and ~linear
    loss_bad, _ = binary_logistic(model, np.array([1.0]), -1)
    assert math.isfinite(loss_bad)
    assert loss_bad == pytest.approx(50.0, rel=1e-10)


def test_binary_rejects_bad_labels_and_shapes():
    model = LinearModel(weights=np.zeros((1, 2)), includes_bias=False)
    with pytest.raises(ValueError):
        binary_logistic(model, np.array([1.0, 2.0]), 0)
    with pytest.raises(ValueError):
        binary_logistic(model, np.array([1.0, 2.0, 3.0]), 1)


def test_multiclass_uniform_scores():
    model = LinearModel(weights=np.zeros((4, 3)), includes_bias=False)
    loss, grad = multiclass_logistic(model, np.array([0.3, -0.7, 2.0]), 2)
    assert loss == pytest.approx(math.log(4.0), rel=1e-14)
    np.testing.assert_allclose(grad.sum(axis=0), np.zeros(3), atol=1e-15)


def test_multiclass_label_out_of_range():
    model = LinearModel(weights=np.zeros((3, 2)), includes_bias=False)
    with pytest.raises(ValueError):
        multiclass_logistic(model, np.array([1.0, 1.0]), 3)
    with pytest.raises(ValueError):
        multiclass_logistic(model, np.array([1.0, 1.0]), -1)


def test_two_class_softmax_reduces_to_binary():
    # scores (0, m) with label 1 must equal the binary loss at margin m
    for m in np.linspace(-30.0, 30.0, 61):
        model = LinearModel(weights=np.array([[0.0], [m]]), includes_bias=False)
        loss, _ = multiclass_logistic(model, np.array([1.0]), 1)
        bin_model = LinearModel(weights=np.array([[m]]), includes_bias=False)
        bin_loss, _ = binary_logistic(bin_model, np.array([1.0]), 1)
        # the logsumexp(s) - s[label] path carries O(eps*|m|) absolute error
        assert loss == pytest.approx(bin_loss, rel=1e-12, abs=1e-12)


def test_gradient_rows_sum_to_zero():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(20):
        W = rng.normal(size=(5, 4))
        x = rng.normal(size=4)
        _, grad = multiclass_logistic(
            LinearModel(weights=W, includes_bias=False), x, int(rng.integers(5))
        )
        np.testing.assert_allclose(grad.sum(axis=0), np.zeros(4), atol=1e-12)


def _fd_grad(fn, w0, eps=1e-6):
    g = np.zeros_like(w0)
    it = np.nditer(w0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        wp = w0.copy()
        wp[idx] += eps
        wm = w0.copy()
        wm[idx] -= eps
        g[idx] = (fn(wp) - fn(wm)) / (2.0 * eps)
        it.iternext()
    return g


def test_binary_gradient_matches_finite_difference():
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(100):
        w = rng.normal(size=(1, 4))
        x = rng.normal(size=4)
        y = int(rng.choice([-1, 1]))

        def value(weights):
            return binary_logistic(
                LinearModel(weights=weights, includes_bias=False), x, y
            )[0]

        _, grad = binary_logistic(LinearModel(weights=w, includes_bias=False), x, y)
        fd = _fd_grad(value, w)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-9)


def test_multiclass_gradient_matches_finite_difference():
    rng = np.random.Generator(np.random.PCG64(22))
    for _ in range(100):
        w = rng.normal(size=(3, 4))
        x = rng.normal(size=4)
        y = int(rng.integers(3))

        def value(weights):
            return multiclass_logistic(
                LinearModel(weights=weights, includes_bias=False), x, y
            )[0]

        _, grad = multiclass_logistic(LinearModel(weights=w, includes_bias=False), x, y)
        fd = _fd_grad(value, w)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-9)


def test_batch_equals_single_example_evaluations():
    rng = np.random.Generator(np.random.PCG64(5))
    X = rng.normal(size=(12, 3))
    labels = rng.integers(2, size=12)
    model = LinearModel(weights=rng.normal(size=(1, 4)))  # bias appended
    batch = loss_batch(model, X, labels)
    for i in range(12):
        y = 1 if labels[i] == 1 else -1
        li, gi = binary_logistic(model, X[i], y)
        assert batch.values[i] == pytest.approx(li, rel=1e-12)
        gb = np.outer(batch.dscore[i], batch.rows[i])
        np.testing.assert_allclose(gb, gi, rtol=1e-12)
    np.testing.assert_allclose(loss_values(model, X, labels), batch.values, rtol=0)

    Wm = rng.normal(size=(4, 4))
    labels_m = rng.integers(4, size=12)
    model_m = LinearModel(weights=Wm)
    batch_m = loss_batch(model_m, X, labels_m)
    for i in range(12):
        li, gi = multiclass_logistic(model_m, X[i], int(labels_m[i]))
        assert batch_m.values[i] == pytest.approx(li, rel=1e-12)
        gb = np.outer(batch_m.dscore[i], batch_m.rows[i])
        np.testing.assert_allclose(gb, gi, rtol=1e-12, atol=1e-15)


def test_losses_nonnegative_and_finite():
    rng = np.random.Generator(np.random.PCG64(9))
    X = rng.normal(size=(50, 3)) * 10.0
    model = LinearModel(weights=rng.normal(size=(1, 4)) * 5.0)
    vals = loss_values(model, X, rng.integers(2, size=50))
    assert np.all(vals >= 0.0) and np.all(np.isfinite(vals))
    model_m = LinearModel(weights=rng.normal(size=(5, 4)) * 5.0)
    vals_m = loss_values(model_m, X, rng.integers(5, size=50))
    assert np.all(vals_m >= 0.0) and np.all(np.isfinite(vals_m))


def test_zero_one_error_separated_toy():
    X = np.array([[-2.0, 0.0], [-3.0, 1.0], [2.0, 0.0], [3.0, -1.0]])
    labels = np.array([0, 0, 1, 1])
    model = LinearModel(weights=np.array([[1.0, 0.0, 0.0]]))
    assert zero_one_error(model, X, labels) == 0.0


def test_zero_one_tie_rule_is_deterministic():
    X = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 3.0], [-2.0, 1.0]])
    labels = np.array([0, 1, 0, 1])
    model = LinearModel(weights=np.zeros((1, 3)))
    # all margins are exactly 0: the tie rule predicts class 0 everywhere
    np.testing.assert_array_equal(predict_classes(model, X), np.zeros(4, dtype=int))
    assert zero_one_error(model, X, labels) == zero_one_error(model, X, labels)
    # multiclass ties also resolve to the lowest class index
    model_m = LinearModel(weights=np.zeros((3, 3)))
    np.testing.assert_array_equal(predict_classes(model_m, X), np.zeros(4, dtype=int))


def test_zero_one_counts_single_mistake():
    rng = np.random.Generator(np.random.PCG64(3))
    X = np.vstack([rng.normal(size=(99, 1)) * 0.1 + 5.0, [[-5.0]]])
    labels = np.ones(100, dtype=int)
    model = LinearModel(weights=np.array([[1.0, 0.0]]))
    assert zero_one_error(model, X, labels) == pytest.approx(0.01)


def test_zero_one_rejects_empty():
    model = LinearModel(weights=np.zeros((1, 2)), includes_bias=False)
    with pytest.raises(ValueError):
        zero_one_error(model, np.zeros((0, 2)), np.zeros(0, dtype=int))
