"""Optimizer mechanics: determinism, projection, equivalences, guards."""

import numpy as np
import pytest

import robustmsd.optimizer as optimizer_module
from robustmsd.criteria import CriterionParams, JointState, schedule_params
from robustmsd.data import Dataset, SynthConfig, generate_2d_outlier, shuffle_split
from robustmsd.harness import build_initial_state
from robustmsd.model import (
    LinearModel,
    LossBatch,
    bind_batch,
    classes_from_scores,
    design_rows,
    loss_values,
    score_rows,
)
from robustmsd.optimizer import (
    DivergenceError,
    OptConfig,
    RunResult,
    run_batch_gd,
    train,
    _LiveRuns,
)
from robustmsd.criteria import criterion_value, evaluate_objective, mean_sd


def toy_dataset(n=50, seed=1):
    return generate_2d_outlier(SynthConfig(n=n, seed=seed))


def toy_init(dataset, scale=0.5):
    return build_initial_state(dataset, np.array([[scale, -scale, 0.0]]))


def sunhuber_for(dataset):
    n = int(dataset.split_indices("train").size)
    lam = np.log(n) / np.sqrt(n)
    return schedule_params(n, 0.9, lam)


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        OptConfig(step_size=0.0, iterations=10)
    with pytest.raises(ValueError):
        OptConfig(step_size=0.1)  # neither mode
    with pytest.raises(ValueError):
        OptConfig(step_size=0.1, iterations=5, epochs=2, batch_size=4)
    with pytest.raises(ValueError):
        OptConfig(step_size=0.1, epochs=3)  # missing batch_size


def test_batch_gd_refuses_an_sgd_config():
    dataset = toy_dataset()
    config = OptConfig(step_size=0.01, epochs=1, batch_size=8)
    with pytest.raises(ValueError, match="^run_batch_gd requires a batch-mode OptConfig$"):
        run_batch_gd(CriterionParams("erm"), toy_init(dataset), dataset, config)


@pytest.mark.parametrize("step", [-0.1, float("nan"), float("inf"), -float("inf")])
def test_config_rejects_a_step_size_that_is_not_finite_and_positive(step):
    with pytest.raises(ValueError, match=f"step size must be finite and positive, got {step!r}"):
        OptConfig(step_size=step, iterations=10)


def test_scale_is_projected_onto_the_floor():
    """A step that would push b below zero leaves it at B_FLOOR = 1e-8,
    lone or stacked; a criterion without a scale keeps its b."""
    assert optimizer_module.B_FLOOR == 1e-8
    joint = CriterionParams("sunhuber", alpha=0.05, beta=0.1, lam=1.0)
    init = JointState(h=np.zeros((1, 2)), a=0.0, b=2.0)
    config = OptConfig(step_size=0.5, iterations=1)
    live = _LiveRuns([joint], [config], init)
    live.update(np.zeros((1, 2)), 0.0, 10.0)
    assert live.b == 1e-8
    live = _LiveRuns([joint, CriterionParams("erm"), joint], [config] * 3, init)
    live.update(np.zeros((3, 1, 2)), np.zeros(3), np.array([10.0, 10.0, 1.0]))
    assert live.b.tolist() == [1e-8, 2.0, 1.5]


def test_zero_iterations_returns_initial_state():
    ds = toy_dataset()
    init = toy_init(ds)
    res = run_batch_gd(
        sunhuber_for(ds), init, ds, OptConfig(step_size=0.01, iterations=0)
    )
    np.testing.assert_array_equal(res.final_state.h, init.h)
    assert res.final_state.a == init.a and res.final_state.b == init.b
    assert res.trajectory == []


# --------------------------------------------------------------- descent


def test_zero_loss_fixed_point():
    """Exactly-zero losses and gradients leave the state untouched."""
    # margins beyond ~750: expit underflows, losses and gradients are exactly 0
    good_dir = np.array([[40_000.0, 40_000.0, 0.0]])
    ds_clean = generate_2d_outlier(SynthConfig(n=50, seed=2, outlier_scale=1.0))
    init = JointState(h=good_dir, a=0.0, b=1.0)
    params = CriterionParams("sunhuber", alpha=0.0, beta=0.0, lam=1.0)
    res = run_batch_gd(
        params, init, ds_clean, OptConfig(step_size=0.01, iterations=25)
    )
    np.testing.assert_array_equal(res.final_state.h, good_dir)
    assert res.final_state.a == 0.0 and res.final_state.b == 1.0


def test_location_block_converges_to_mean_with_large_fixed_scale():
    """GD on the threshold block recovers the sample mean (quadratic regime)."""
    data = np.array([1.0, 2.0, 3.0, 6.0])
    oracle = float(np.mean(data))
    params = CriterionParams("sunhuber", alpha=0.0, beta=0.0, lam=1.0)
    batch = LossBatch(values=data, dscore=np.zeros((4, 1)), rows=np.zeros((4, 1)))
    state = JointState(h=np.zeros((1, 1)), a=5.0, b=50.0)
    config = OptConfig(step_size=10.0, iterations=1)  # step reused manually
    for t in range(10_000):
        ev = evaluate_objective(batch, state, params)
        state.h = state.h - config.step_size * ev.grad_h
        state.a = state.a - config.step_size * ev.grad_a
        # b frozen large: the deviation term is then ~ quadratic in a
        if abs(state.a - oracle) < 1e-3:
            break
    assert abs(state.a - oracle) < 1e-3
    assert t < 10_000 - 1


def test_frozen_h_objective_nonincreasing_after_burn_in():
    """(a, b) descent on a fixed loss set: convex, so monotone for small steps."""
    params = CriterionParams("sunhuber", alpha=0.05, beta=0.1, lam=1.0)
    config = OptConfig(step_size=0.05, iterations=1)
    losses = np.array([0.0, 1.0, 5.0, 10.0])
    # the engine's objective and update of a lone run; zero score derivatives
    # freeze h
    live = _LiveRuns([params], [config], JointState(h=np.zeros((1, 1)), a=0.0, b=5.0))
    values = []
    for _ in range(500):
        value, grad_h, grad_a, grad_b = live.stack.objective(
            losses, np.zeros((4, 1)), np.zeros((4, 1)), live.a, live.b
        )
        values.append(value)
        live.update(grad_h, grad_a, grad_b)
    assert live.h.tolist() == [[0.0]]
    tail = values[10:]
    assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(tail, tail[1:]))


def test_b_positive_at_every_checkpoint():
    ds = toy_dataset()
    res = run_batch_gd(
        sunhuber_for(ds),
        toy_init(ds),
        ds,
        OptConfig(step_size=0.05, iterations=300, checkpoint_every=10),
    )
    assert all(rec.b > 0.0 for rec in res.trajectory)


# ----------------------------------------------------------- equivalence


def test_full_batch_sgd_equals_batch_gd():
    ds = shuffle_split(toy_dataset(n=50, seed=4), 0)
    n_train = int(ds.split_indices("train").size)
    criterion = sunhuber_for(ds)
    init = toy_init(ds)
    epochs = 12
    sgd = OptConfig(step_size=0.02, epochs=epochs, batch_size=n_train, seed=3)
    res_sgd = train([(criterion, sgd)], init, ds).result(0)
    res_gd = run_batch_gd(
        criterion,
        init,
        ds,
        OptConfig(step_size=0.02, iterations=epochs, checkpoint_every=1),
    )
    np.testing.assert_array_equal(res_sgd.final_state.h, res_gd.final_state.h)
    assert res_sgd.final_state.a == res_gd.final_state.a
    assert res_sgd.final_state.b == res_gd.final_state.b
    assert res_sgd.trajectory == res_gd.trajectory


def test_sgd_deterministic_given_seed():
    ds = shuffle_split(toy_dataset(n=60, seed=5), 1)
    criterion = sunhuber_for(ds)
    init = toy_init(ds)
    config = OptConfig(step_size=0.05, epochs=5, batch_size=8, seed=42)
    r1 = train([(criterion, config)], init, ds).result(0)
    r2 = train([(criterion, config)], init, ds).result(0)
    np.testing.assert_array_equal(r1.final_state.h, r2.final_state.h)
    assert r1.trajectory == r2.trajectory


def test_sgd_seed_changes_shuffle_order():
    ds = shuffle_split(toy_dataset(n=60, seed=5), 1)
    criterion = sunhuber_for(ds)
    init = toy_init(ds)
    r1, r2 = (
        train([(criterion, OptConfig(step_size=0.05, epochs=3, batch_size=8, seed=seed))],
              init, ds).result(0)
        for seed in (1, 2)
    )
    # different shuffles give different SGD paths
    assert not np.array_equal(r1.final_state.h, r2.final_state.h)
    # and the permutations themselves differ
    g1 = np.random.Generator(np.random.PCG64(1))
    g2 = np.random.Generator(np.random.PCG64(2))
    assert not np.array_equal(g1.permutation(48), g2.permutation(48))


def test_sgd_batch_size_larger_than_train_rejected():
    ds = shuffle_split(toy_dataset(n=50, seed=4), 0)
    config = OptConfig(step_size=0.05, epochs=1, batch_size=1000, seed=0)
    with pytest.raises(ValueError):
        train([(sunhuber_for(ds), config)], toy_init(ds), ds).result(0)


# -------------------------------------------------------------- metrics


def test_checkpoint_metrics_recomputable_from_final_state():
    ds = shuffle_split(toy_dataset(n=60, seed=6), 2)
    criterion = sunhuber_for(ds)
    config = OptConfig(step_size=0.05, epochs=4, batch_size=16, seed=7)
    res = train([(criterion, config)], toy_init(ds), ds).result(0)
    state = res.final_state
    model = LinearModel(weights=state.h)
    last_epoch = res.trajectory[-1].checkpoint
    for rec in res.trajectory:
        if rec.checkpoint != last_epoch:
            continue
        idx = ds.split_indices(rec.split)
        values = loss_values(model, ds.features[idx], ds.labels[idx])
        assert rec.mean_sd == mean_sd(values)
        assert rec.mean_loss == float(np.mean(values))
        predicted = classes_from_scores(
            score_rows(model.weights, design_rows(model, ds.features[idx]))
        )
        assert rec.error_rate == float(np.mean(predicted != ds.labels[idx]))
        assert rec.model_norm == float(np.linalg.norm(state.h.ravel()))
        assert rec.objective == criterion_value(values, state, criterion)
        assert rec.a == state.a and rec.b == state.b


def test_trajectory_has_one_record_per_split_per_checkpoint():
    ds = shuffle_split(toy_dataset(n=60, seed=6), 2)
    config = OptConfig(step_size=0.05, epochs=3, batch_size=16, seed=7)
    res = train([(sunhuber_for(ds), config)], toy_init(ds), ds).result(0)
    assert len(res.trajectory) == 3 * 3  # epochs x splits
    for rec in res.trajectory:
        assert rec.mean_sd >= rec.mean_loss
        assert 0.0 <= rec.error_rate <= 1.0


def test_divergence_guard_trips_on_huge_step():
    ds = toy_dataset(n=50, seed=8)
    init = toy_init(ds)
    # logistic gradients are bounded, so the guard trips on the weight norm
    with pytest.raises(DivergenceError, match=r"^weight norm exceeded 1e\+12 at iteration 5$"):
        run_batch_gd(
            CriterionParams("erm"),
            init,
            ds,
            OptConfig(step_size=1e12, iterations=100, checkpoint_every=10),
        )


def guard(value, weights, where, *args):
    """The engine's guard on live runs with these weights: lone (K, d) or
    stacked (R, K, d), with a float or (R,) objective value."""
    stacked = weights.ndim == 3
    r = weights.shape[0] if stacked else 1
    live = _LiveRuns(
        [CriterionParams("erm")] * r,
        [OptConfig(step_size=0.1, iterations=1)] * r,
        JointState(h=np.zeros(weights.shape[-2:])),
    )
    live.h = weights
    with np.errstate(over="ignore"):
        return live.diverged(value, where, *args)


def test_divergence_messages_name_the_quantity_and_context():
    h = np.array([[1.0, -2.0, 0.5]])
    huge = np.array([[1e200, 1e200, 0.0]])  # finite weights whose norm overflows
    cases = [
        (float("nan"), h, ("iteration {}", 7), "non-finite objective at iteration 7"),
        (0.3, np.array([[1.0, np.inf, 0.0]]), ("epoch {} step {}", 2, 9),
         "non-finite objective at epoch 2 step 9"),
        (0.3, np.array([[1e12, 1e12, 0.0]]), ("checkpoint {} ({})", 3, "val"),
         "weight norm exceeded 1e+12 at checkpoint 3 (val)"),
        (0.3, huge, ("iteration {}", 1), "weight norm exceeded 1e+12 at iteration 1"),
    ]
    assert guard(0.3, h, "iteration {}", 7) == {}  # finite and small: no trip
    for value, weights, where, message in cases:
        assert guard(value, weights, *where) == {0: message}
    # stacked: every tripping row gets the message it gets alone
    value = np.array([0.3] + [v for v, *_ in cases])
    weights = np.stack([h] + [w for _, w, *_ in cases])
    assert guard(value, weights, "iteration {}", 1) == {
        1: "non-finite objective at iteration 1",
        2: "non-finite objective at iteration 1",
        3: "weight norm exceeded 1e+12 at iteration 1",
        4: "weight norm exceeded 1e+12 at iteration 1",
    }


# the diverging runs overflow on purpose before their guard trips
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "kind, step_size, every, message",
    [
        ("erm", 1e13, 1, "weight norm exceeded 1e+12 at checkpoint 1 (train)"),
        ("sunhuber", 1e300, 1, "non-finite objective at checkpoint 1 (train)"),
        ("erm", 1e13, 2, "weight norm exceeded 1e+12 at iteration 2"),
        ("sunhuber", 1e300, 2, "non-finite objective at iteration 2"),
    ],
)
def test_batch_gd_divergence_names_step_or_checkpoint(kind, step_size, every, message):
    # a step that blows the weights up on a checkpoint iteration trips the
    # checkpoint's guard; otherwise the next iteration's guard trips first
    ds = shuffle_split(toy_dataset(n=50, seed=8), 0)
    params = CriterionParams("erm") if kind == "erm" else sunhuber_for(ds)
    config = OptConfig(step_size=step_size, iterations=10, checkpoint_every=every)
    with pytest.raises(DivergenceError) as err:
        run_batch_gd(params, toy_init(ds), ds, config)
    assert str(err.value) == message


def test_nan_a_and_b_in_records_for_non_joint_criteria():
    ds = toy_dataset(n=50, seed=9)
    init = toy_init(ds)
    res = run_batch_gd(
        CriterionParams("erm"), init, ds, OptConfig(step_size=0.01, iterations=10)
    )
    assert np.isnan(res.trajectory[-1].a) and np.isnan(res.trajectory[-1].b)
    res_cvar = run_batch_gd(
        CriterionParams("cvar", xi=0.5),
        init,
        ds,
        OptConfig(step_size=0.01, iterations=10),
    )
    assert np.isfinite(res_cvar.trajectory[-1].a)
    assert np.isnan(res_cvar.trajectory[-1].b)


# ----------------------------------------------------------------- binding


def three_class_dataset(n=60, seed=2):
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = np.arange(n) % 3
    features = np.array([[-2.0, 0.0], [2.0, 1.0], [0.0, -2.5]])[labels]
    features = features + rng.normal(size=(n, 2))
    return shuffle_split(Dataset(features, labels, 3, np.full(n, "train")), seed)


@pytest.fixture
def label_transforms(monkeypatch):
    """Records the batch size of each label transform (signs 1 - 2y, or
    multiclass indices) the training loop has ``model.bind_batch`` make."""
    calls = []

    def spy(rows, labels, n_outputs):
        calls.append(len(labels))
        return bind_batch(rows, labels, n_outputs)

    monkeypatch.setattr(optimizer_module, "bind_batch", spy)
    return calls


@pytest.mark.parametrize("dataset", [shuffle_split(toy_dataset(), 0), three_class_dataset()])
def test_lone_gd_binds_labels_once_per_run(dataset, label_transforms):
    """A T-step run transforms the train labels once and each split's once,
    whatever T."""
    init = build_initial_state(dataset)
    splits = len(dataset.splits_present())
    for iterations in (3, 30):
        label_transforms.clear()
        config = OptConfig(step_size=0.01, iterations=iterations, checkpoint_every=2)
        run_batch_gd(CriterionParams("erm"), init, dataset, config)
        assert len(label_transforms) == 1 + splits


@pytest.mark.parametrize("dataset", [shuffle_split(toy_dataset(), 0), three_class_dataset()])
def test_sgd_binds_labels_once_per_batch(dataset, label_transforms):
    init = build_initial_state(dataset)
    n_train = int(dataset.split_indices("train").size)
    config = OptConfig(step_size=0.01, epochs=3, batch_size=16, seed=1)
    label_transforms.clear()
    train([(CriterionParams("cvar", xi=0.5), config)], init, dataset).result(0)
    splits = len(dataset.splits_present())
    batches = 3 * -(-n_train // 16)
    assert len(label_transforms) == batches + splits
    assert sorted(set(label_transforms[splits:])) == sorted({16, n_train % 16 or 16})
