"""Stacked SGD: many runs trained together equal each run trained alone.

``run_stacked_sgd`` trains a grid of (criterion, step size) runs as one
array program.  Every run must carry the bits it has when trained alone
(``run_minibatch_sgd``, the one-run case), diverged runs must carry the
message a lone run raises, and each criterion's block kernel must equal
its single-run objective row by row.
"""

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
    evaluate_objective,
)
from robustmsd.data import Dataset, load_tabular, preprocess, shuffle_split
from robustmsd.harness import (
    DEFAULT_LEVELS,
    DEFAULT_STEP_SIZES,
    build_initial_state,
    default_lam,
    make_criterion,
    write_trajectory_csv,
)
from robustmsd.model import LossBatch
from robustmsd.optimizer import (
    DivergenceError,
    OptConfig,
    run_minibatch_sgd,
    run_stacked_sgd,
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
    ds = Dataset(features, labels, 3, np.full(labels.size, "train"), "three-class")
    return shuffle_split(ds, 3)


def test_sixty_runs_equal_each_run_alone(credit):
    runs = grid_runs(credit, DEFAULT_STEP_SIZES, epochs=4, batch_size=32, seed=1)
    assert len(runs) == 60
    init = build_initial_state(credit)
    stacked = run_stacked_sgd(runs, init, credit)
    assert stacked.errors == [None] * 60
    for i, (params, config) in enumerate(runs):
        assert_same_run(stacked.result(i), run_minibatch_sgd(params, init, credit, config))


def test_three_class_stack_equals_each_run_alone(three_class):
    runs = grid_runs(three_class, (0.01, 0.05), epochs=3, batch_size=16, seed=2)
    init = build_initial_state(three_class)
    stacked = run_stacked_sgd(runs, init, three_class)
    for i, (params, config) in enumerate(runs):
        assert_same_run(
            stacked.result(i), run_minibatch_sgd(params, init, three_class, config)
        )


# the diverging runs overflow on purpose before their guard trips
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_diverging_step_leaves_the_others_unchanged(credit, tmp_path):
    # 1e14 trips the weight-norm guard within the first epoch; 1e300 makes
    # the weights non-finite, and a full batch trips the guard at a checkpoint
    for batch_size, steps in ((32, (0.01, 1e14, 0.1)), (552, (0.1, 1e11, 1e300))):
        runs = grid_runs(credit, steps, epochs=3, batch_size=batch_size, seed=5)
        init = build_initial_state(credit)
        stacked = run_stacked_sgd(runs, init, credit)
        assert any(e is not None for e in stacked.errors)
        assert any(e is None for e in stacked.errors)
        for i, (params, config) in enumerate(runs):
            try:
                alone = run_minibatch_sgd(params, init, credit, config)
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


def test_stacked_runs_must_share_all_but_the_step_size(credit):
    init = build_initial_state(credit)
    erm = CriterionParams("erm")
    base = dict(epochs=2, batch_size=32, seed=0)
    with pytest.raises(ValueError, match="share"):
        run_stacked_sgd(
            [
                (erm, OptConfig(step_size=0.1, **base)),
                (erm, OptConfig(step_size=0.1, **{**base, "seed": 1})),
            ],
            init,
            credit,
        )
    with pytest.raises(ValueError, match="sgd-mode"):
        run_stacked_sgd([(erm, OptConfig(step_size=0.1, iterations=3))], init, credit)
    with pytest.raises(ValueError, match="no runs"):
        run_stacked_sgd([], init, credit)


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
        assert_bitwise(np.array([grad_a[i]]), np.array([ev.grad_a if p.updates_a else 0.0]))
        want_b = ev.grad_b if p.updates_b else 0.0
        assert_bitwise(np.array([grad_b[i]]), np.array([want_b]))
        assert_bitwise(
            np.array([values_only[i]]), np.array([criterion_value(losses[i], state, p)])
        )
