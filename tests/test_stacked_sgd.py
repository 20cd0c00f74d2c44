"""Stacked training: many runs trained together equal each run trained alone.

``train`` trains a grid of (criterion, step size) runs as one array
program, by mini-batch SGD or full-batch GD.  Every run must carry the
bits it has when trained alone (``train`` of that one run, or
``run_batch_gd``), diverged runs must carry the message a lone run
raises, and each criterion's block kernel must equal its single-run
objective row by row.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from robustmsd.criteria import (
    CriterionParams,
    CriterionStack,
    JointState,
    criterion_value,
    default_lam,
    evaluate_objective,
    make_criterion,
)
from robustmsd.data import (
    Dataset,
    SynthConfig,
    generate_2d_outlier,
    load_tabular,
    preprocess,
    shuffle_split,
)
from robustmsd.harness import (
    DEFAULT_LEVELS,
    DEFAULT_STEP_SIZES,
    build_initial_state,
    write_trajectory_csv,
)
from robustmsd.model import LossBatch
from robustmsd.optimizer import (
    METRIC_FIELDS,
    DivergenceError,
    OptConfig,
    run_batch_gd,
    train,
)

BUNDLED = Path(__file__).resolve().parents[1] / "src/robustmsd/datasets/credit690.csv"
B_FLOOR = 1e-8


def assert_bitwise(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def sweep_criteria(n_train):
    """The credit690 sweep's 12 criterion settings, in harness order."""
    lam = default_lam(n_train)
    grid = [("sunhuber", 0.9), ("erm", None)]
    grid += [("cvar", level) for level in DEFAULT_LEVELS]
    grid += [("chisq_dro", level) for level in DEFAULT_LEVELS]
    return [make_criterion(m, s, n_train, lam) for m, s in grid]


def grid_runs(dataset, step_sizes, epochs, batch_size, seed):
    n_train = int(dataset.split_indices("train").size)
    return [
        (params, OptConfig(step_size=step, epochs=epochs, batch_size=batch_size, seed=seed))
        for params in sweep_criteria(n_train)
        for step in step_sizes
    ]


def record_array(trajectory):
    return np.array(
        [
            [r.checkpoint, r.mean_sd, r.mean_loss, r.error_rate, r.model_norm,
             r.objective, r.a, r.b]
            for r in trajectory
        ]
    )


def assert_same_run(got, want):
    assert [(r.checkpoint, r.split) for r in got.trajectory] == [
        (r.checkpoint, r.split) for r in want.trajectory
    ]
    assert_bitwise(record_array(got.trajectory), record_array(want.trajectory))
    assert_bitwise(got.final_state.h, want.final_state.h)
    assert_bitwise(
        np.array([got.final_state.a, got.final_state.b]),
        np.array([want.final_state.a, want.final_state.b]),
    )


@pytest.fixture(scope="module")
def credit():
    return preprocess(shuffle_split(load_tabular(BUNDLED), 1))


@pytest.fixture(scope="module")
def three_class():
    rng = np.random.Generator(np.random.PCG64(11))
    centers = np.array([[-2.0, 0.0, 1.0], [2.0, 1.0, -1.0], [0.0, -2.5, 0.5]])
    labels = np.repeat(np.arange(3), 40)
    features = centers[labels] + rng.normal(size=(labels.size, 3))
    features[0] = [15.0, 15.0, -15.0]
    ds = Dataset(features, labels, 3, np.full(labels.size, "train"))
    return shuffle_split(ds, 3)


def test_sixty_runs_equal_each_run_alone(credit):
    runs = grid_runs(credit, DEFAULT_STEP_SIZES, epochs=4, batch_size=32, seed=1)
    assert len(runs) == 60
    init = build_initial_state(credit)
    stacked = train(runs, init, credit)
    assert stacked.errors == [None] * 60
    for i, (params, config) in enumerate(runs):
        assert_same_run(stacked.result(i), train([(params, config)], init, credit).result(0))


def test_three_class_stack_equals_each_run_alone(three_class):
    runs = grid_runs(three_class, (0.01, 0.05), epochs=3, batch_size=16, seed=2)
    init = build_initial_state(three_class)
    stacked = train(runs, init, three_class)
    for i, (params, config) in enumerate(runs):
        assert_same_run(
            stacked.result(i), train([(params, config)], init, three_class).result(0)
        )


def test_diverging_step_leaves_the_others_unchanged(credit, tmp_path):
    # 1e14 trips the weight-norm guard within the first epoch; 1e300 makes
    # the weights non-finite, and a full batch trips the guard at a checkpoint
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # diverged rows step on without a numpy warning
        for batch_size, steps in ((32, (0.01, 1e14, 0.1)), (552, (0.1, 1e11, 1e300))):
            runs = grid_runs(credit, steps, epochs=3, batch_size=batch_size, seed=5)
            init = build_initial_state(credit)
            stacked = train(runs, init, credit)
            assert any(e is not None for e in stacked.errors)
            assert any(e is None for e in stacked.errors)
            for i, (params, config) in enumerate(runs):
                try:
                    alone = train([(params, config)], init, credit).result(0)
                except DivergenceError as err:
                    with pytest.raises(DivergenceError) as got:
                        stacked.result(i)
                    assert str(got.value) == str(err) == stacked.errors[i]
                    continue
                assert stacked.errors[i] is None
                write_trajectory_csv(tmp_path / "stacked.csv", stacked.result(i).trajectory)
                write_trajectory_csv(tmp_path / "alone.csv", alone.trajectory)
                assert (tmp_path / "stacked.csv").read_bytes() == (
                    tmp_path / "alone.csv"
                ).read_bytes()


def test_planar_gd_stack_equals_each_run_alone():
    planar = generate_2d_outlier(SynthConfig(n=100, seed=0))
    n = int(planar.split_indices("train").size)
    lam = default_lam(n)
    criteria = [
        make_criterion(kind, setting, n, lam)
        for kind, setting in (("sunhuber", 0.9), ("erm", None), ("cvar", 0.5), ("chisq_dro", 0.5))
    ]
    runs = [
        (params, OptConfig(step_size=step, iterations=300, checkpoint_every=100))
        for params in criteria
        for step in (0.01, 0.1)
    ]
    init = build_initial_state(planar)
    stacked = train(runs, init, planar)
    assert stacked.errors == [None] * 8
    assert stacked.checkpoints == (100, 200, 300)
    for i, (params, config) in enumerate(runs):
        assert_same_run(stacked.result(i), run_batch_gd(params, init, planar, config))


def test_stacked_runs_must_share_all_but_the_step_size(credit):
    init = build_initial_state(credit)
    erm = CriterionParams("erm")
    sgd, gd = dict(epochs=2, batch_size=32, seed=0), dict(iterations=3)
    for first, second in (
        (sgd, {**sgd, "seed": 1}),
        (sgd, {**sgd, "checkpoint_every": 5}),
        (gd, {**gd, "seed": 1}),
        (gd, {**gd, "checkpoint_every": 5}),
        (gd, {"iterations": 4}),
        (gd, sgd),
    ):
        runs = [(erm, OptConfig(step_size=0.1, **first)), (erm, OptConfig(step_size=0.2, **second))]
        with pytest.raises(ValueError, match="share"):
            train(runs, init, credit)
    with pytest.raises(ValueError, match="no runs"):
        train([], init, credit)


# ------------------------------------------------ block kernels vs scalar


@st.composite
def stacked_batches(draw):
    """Criteria of r runs, an (r, n) loss matrix and per-run (a, b)."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(1, 9))  # n = 1 is batch size 1
    k = draw(st.sampled_from((1, 3)))
    d = draw(st.integers(1, 4))
    level = st.floats(0.01, 0.99)
    params = draw(
        st.lists(
            st.one_of(
                st.builds(
                    lambda alpha, beta, lam: CriterionParams(
                        "sunhuber", alpha=alpha, beta=beta, lam=lam
                    ),
                    st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.01, 5.0),
                ),
                st.just(CriterionParams("erm")),
                st.builds(lambda xi: CriterionParams("cvar", xi=xi), level),
                st.builds(lambda eta: CriterionParams("chisq_dro", eta_tilde=eta), level),
            ),
            min_size=r,
            max_size=r,
        )
    )
    losses = draw(arrays(np.float64, (r, n), elements=st.floats(0.0, 1e6)))
    a = draw(arrays(np.float64, r, elements=st.floats(-10.0, 1e6)))
    b = draw(
        arrays(
            np.float64, r, elements=st.one_of(st.just(B_FLOOR), st.floats(B_FLOOR, 1e8))
        )
    )
    finite = st.floats(-5.0, 5.0)
    dscore = draw(arrays(np.float64, (r, n, k), elements=finite))
    rows = draw(arrays(np.float64, (n, d), elements=finite))
    return params, losses, dscore, rows, a, b


@settings(max_examples=150, deadline=None)
@given(stacked_batches())
def test_block_kernels_equal_scalar_objectives_bitwise(batch):
    params, losses, dscore, rows, a, b = batch
    stack = CriterionStack(params)
    value, grad_h, grad_a, grad_b = stack.objective(losses, dscore, rows, a, b)
    values_only = stack.value(losses, a, b)
    for i, p in enumerate(params):
        state = JointState(h=np.zeros((dscore.shape[2], rows.shape[1])), a=a[i], b=b[i])
        ev = evaluate_objective(LossBatch(losses[i], dscore[i], rows), state, p)
        assert_bitwise(np.array([value[i]]), np.array([ev.value]))
        assert_bitwise(grad_h[i], ev.grad_h)
        assert_bitwise(np.array([grad_a[i]]), np.array([ev.grad_a if p.record.updates_a else 0.0]))
        want_b = ev.grad_b if p.record.updates_b else 0.0
        assert_bitwise(np.array([grad_b[i]]), np.array([want_b]))
        assert_bitwise(
            np.array([values_only[i]]), np.array([criterion_value(losses[i], state, p)])
        )


# ------------------------------------------------ train end to end


@st.composite
def training_problems(draw):
    """A small dataset, an initial state, stacked runs of mixed kinds in any
    order (each with its own step size), and the schedule they share."""
    n_train, d = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    n_classes, n_val = draw(st.sampled_from((2, 3))), draw(st.integers(0, 3))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    n = n_train + n_val
    features = rng.normal(size=(n, d)) * draw(st.sampled_from((1.0, 30.0)))
    labels = rng.integers(0, n_classes, size=n)
    ds = Dataset(features, labels, n_classes, np.array(["train"] * n_train + ["val"] * n_val))
    init = build_initial_state(ds)
    if draw(st.booleans()):
        init = JointState(init.h, init.a, B_FLOOR)
    lam = default_lam(n_train)
    levels = st.sampled_from(DEFAULT_LEVELS)
    # beta0 / sqrt(n) must stay below lam = log(n) / sqrt(n), so beta0 < log 2
    setting = {"sunhuber": st.sampled_from((0.3, 0.6)), "erm": st.none(),
               "cvar": levels, "chisq_dro": levels}
    kinds = draw(st.lists(st.sampled_from(sorted(setting)), min_size=1, max_size=5))
    criteria = [make_criterion(kind, draw(setting[kind]), n_train, lam) for kind in kinds]
    # mostly small steps, some large enough to diverge at a step or a checkpoint
    exponents = st.one_of(st.floats(-3.0, 1.0), st.floats(1.0, 300.0))
    steps = [10.0 ** draw(exponents) for _ in criteria]
    if draw(st.booleans()):
        schedule = dict(iterations=draw(st.integers(1, 30)),
                        checkpoint_every=draw(st.integers(1, 10)))
    else:
        schedule = dict(epochs=draw(st.integers(1, 3)), batch_size=draw(st.integers(1, n_train)),
                        seed=draw(st.integers(0, 2**32 - 1)))
    return ds, init, criteria, steps, schedule


def stack(ds, init, criteria, steps, **schedule):
    return train([(p, OptConfig(step_size=s, **schedule)) for p, s in zip(criteria, steps)],
                 init, ds)


def assert_same_finished_runs(got, want, pairs):
    """Runs ``i`` of ``got`` and ``j`` of ``want`` finished alike, bitwise."""
    assert got.checkpoints == want.checkpoints
    for i, j in pairs:
        assert_bitwise(got.metrics[:, :, i], want.metrics[:, :, j])
        assert_bitwise(got.h[i], want.h[j])
        assert_bitwise([got.a[i], got.b[i]], [want.a[j], want.b[j]])


A_COLUMN, B_COLUMN = METRIC_FIELDS.index("a"), METRIC_FIELDS.index("b")


@settings(max_examples=60, deadline=None)
@given(training_problems())
def test_train_stacks_runs_as_they_train_alone(problem):
    ds, init, criteria, steps, schedule = problem
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may escape
        stacked = stack(ds, init, criteria, steps, **schedule)
        for i, (params, step) in enumerate(zip(criteria, steps)):
            alone = stack(ds, init, [params], [step], **schedule)
            assert stacked.errors[i] == alone.errors[0]
            if alone.errors[0] is not None:
                # a diverged run has its lone twin's metrics up to where it
                # stopped, and nan metrics after that and a nan final state
                k = len(alone.checkpoints)
                assert_bitwise(stacked.metrics[:k, :, i], alone.metrics[:, :, 0])
                assert np.isnan(stacked.metrics[k:, :, i]).all()
                assert np.isnan([*stacked.h[i].ravel(), stacked.a[i], stacked.b[i]]).all()
                continue
            assert_same_finished_runs(stacked, alone, [(i, 0)])
            a, b = stacked.metrics[..., i, A_COLUMN], stacked.metrics[..., i, B_COLUMN]
            # a and b are recorded, at every checkpoint, exactly when the kind optimizes them
            assert (np.isnan(a) != params.record.updates_a).all()
            assert (np.isnan(b) != params.record.updates_b).all()
            if params.record.updates_b:
                assert (b >= B_FLOOR).all() and stacked.b[i] >= B_FLOOR
        # an SGD epoch over the whole train split is one full-batch GD step
        epochs = schedule.get("epochs", 2)
        n_train = int(ds.split_indices("train").size)
        sgd = stack(ds, init, criteria, steps, epochs=epochs, batch_size=n_train, seed=7)
        gd = stack(ds, init, criteria, steps, iterations=epochs, checkpoint_every=1)
    finished = [i for i, pair in enumerate(zip(sgd.errors, gd.errors)) if pair == (None, None)]
    if finished:
        assert_same_finished_runs(sgd, gd, [(i, i) for i in finished])
