"""Local training, gradients and FedAvg algebra on the synthetic tasks."""

import tracemalloc

import numpy as np
import pytest

from otafl.errors import FieldError
from otafl.fl import (
    RoundState,
    Task,
    TrainConfig,
    apply_global,
    average_deltas,
    check_task_shape,
    compute_delta,
    evaluate_loss,
    init_params,
    local_train,
    loss_and_grad,
    make_blobs_task,
    make_linear_task,
)
from oracles import fedavg_digital


def _fd_gradient(theta, task, h=1e-5):
    """Central finite differences, the reference for analytic gradients."""
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (evaluate_loss(theta + e, task) - evaluate_loss(theta - e, task)) / (2 * h)
    return g


def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def _as_float64(task):
    """The same linear task with its float32 features widened to float64."""
    return Task("linear_regression", task.features.astype(np.float64), task.targets)


def test_linear_gradient_matches_finite_differences():
    # Finite differences at h = 1e-5 are noise on float32 features, so the
    # oracle runs on the same features widened to float64.
    task = _as_float64(make_linear_task(0, 1, n_samples=30, n_features=8))
    rng = np.random.default_rng(2)
    theta = rng.normal(size=8)
    _, grad = loss_and_grad(theta, task)
    assert _rel_err(grad, _fd_gradient(theta, task)) < 1e-5


def test_mlp_gradient_matches_finite_differences():
    task = make_blobs_task(0, 1, n_samples=25, n_features=5, n_classes=3, hidden=4)
    theta = init_params(task, seed=3)
    theta += 0.01 * np.random.default_rng(4).normal(size=theta.size)
    _, grad = loss_and_grad(theta, task)
    assert _rel_err(grad, _fd_gradient(theta, task)) < 1e-5


def test_batch_gradient_uses_subset_only():
    task = make_linear_task(0, 1, n_samples=10, n_features=4)
    theta = np.ones(4)
    idx = np.array([0, 3, 7])
    sub = Task("linear_regression", task.features[idx], task.targets[idx])
    full_loss, full_grad = loss_and_grad(theta, task, idx)
    sub_loss, sub_grad = loss_and_grad(theta, sub)
    assert full_loss == pytest.approx(sub_loss, rel=1e-14)
    np.testing.assert_allclose(full_grad, sub_grad, atol=1e-14)


# -------------------------------------------------------- local training


def test_gd_contraction_rate_oracle():
    """On loss = theta^2 each full-batch step multiplies theta by
    (1 - 2 * lr); lr 0.1 contracts by exactly 0.8 per epoch."""
    task = Task("linear_regression", np.ones((4, 1)), np.zeros(4))
    cfg = TrainConfig(learning_rate=0.1, epochs=1)
    theta = np.array([1.0])
    for k in range(1, 6):
        theta = local_train(theta, task, cfg)
        assert theta[0] == pytest.approx(0.8**k, rel=1e-12)


def test_zero_epochs_returns_global_unchanged():
    task = make_linear_task(0, 1, n_samples=10, n_features=4)
    theta = np.arange(4.0)
    out = local_train(theta, task, TrainConfig(epochs=0))
    np.testing.assert_array_equal(out, theta)
    assert out is not theta  # always a copy


def test_minibatch_training_is_seed_deterministic():
    task = make_linear_task(0, 5, n_samples=64, n_features=8)
    theta = init_params(task)
    cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=16, seed=9)
    a = local_train(theta, task, cfg)
    b = local_train(theta, task, cfg)
    np.testing.assert_array_equal(a, b)
    c = local_train(theta, task, TrainConfig(0.05, 3, 16, seed=10))
    assert not np.array_equal(a, c)


def test_full_batch_ignores_permutation_seed():
    task = make_linear_task(0, 5, n_samples=32, n_features=4)
    theta = init_params(task)
    a = local_train(theta, task, TrainConfig(epochs=2, seed=1))
    b = local_train(theta, task, TrainConfig(epochs=2, seed=2))
    np.testing.assert_array_equal(a, b)


def test_sgd_reduces_loss_on_convex_task():
    task = make_linear_task(3, 4, n_samples=100, n_features=10)
    theta = init_params(task)
    cfg = TrainConfig(learning_rate=0.05, epochs=3)
    after = local_train(theta, task, cfg)
    assert evaluate_loss(after, task) < evaluate_loss(theta, task)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
def test_train_config_rejects_a_non_finite_or_non_positive_learning_rate(bad):
    with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
        TrainConfig(learning_rate=bad)


def test_local_train_size_check():
    task = make_linear_task(0, 1, n_samples=10, n_features=4)
    with pytest.raises(ValueError):
        local_train(np.zeros(5), task, TrainConfig())


# ------------------------------------------- carried first-step gradient


def _grad0_case(kind):
    if kind == "linear":
        task = make_linear_task(0, 5, n_samples=40, n_features=6)
    else:
        task = make_blobs_task(0, 2, n_samples=30, n_features=5, n_classes=3, hidden=4)
    theta = init_params(task, seed=1)
    theta = theta + 0.1 * np.random.default_rng(7).normal(size=theta.size)
    return task, theta


@pytest.mark.parametrize("epochs", [1, 2])
@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_carried_gradient_is_bit_identical(kind, epochs):
    task, theta = _grad0_case(kind)
    cfg = TrainConfig(learning_rate=0.05, epochs=epochs)
    grad0 = loss_and_grad(theta, task)[1]
    kept = grad0.copy()
    with_grad0 = local_train(theta, task, cfg, grad0=grad0)
    np.testing.assert_array_equal(with_grad0, local_train(theta, task, cfg))
    np.testing.assert_array_equal(grad0, kept)  # the carried gradient is not modified


def test_carried_gradient_is_used_on_full_batch():
    task, theta = _grad0_case("linear")
    out = local_train(theta, task, TrainConfig(learning_rate=0.05), grad0=np.zeros_like(theta))
    np.testing.assert_array_equal(out, theta)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_minibatch_ignores_carried_gradient(kind):
    task, theta = _grad0_case(kind)
    cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=8, seed=3)
    want = local_train(theta, task, cfg)
    for grad0 in (loss_and_grad(theta, task)[1], np.zeros_like(theta)):
        np.testing.assert_array_equal(local_train(theta, task, cfg, grad0=grad0), want)


# ------------------------------------------------------------ aggregation


def test_delta_apply_round_trip():
    g = np.array([1.0, 2.0, 3.0])
    local = np.array([1.5, 1.0, 3.25])
    np.testing.assert_allclose(apply_global(g, compute_delta(local, g)), local, atol=1e-15)


def test_fedavg_matches_delta_path():
    rng = np.random.default_rng(0)
    g = rng.normal(size=12)
    locals_ = [g + rng.normal(size=12) for _ in range(5)]
    deltas = [compute_delta(l, g) for l in locals_]
    via_deltas = apply_global(g, average_deltas(deltas))
    np.testing.assert_allclose(via_deltas, fedavg_digital(locals_), rtol=1e-12, atol=1e-12)


def test_fedavg_exact_from_zero_global():
    locals_ = [np.array([1.0, 3.0]), np.array([3.0, 5.0])]
    deltas = [compute_delta(l, np.zeros(2)) for l in locals_]
    np.testing.assert_array_equal(
        apply_global(np.zeros(2), average_deltas(deltas)), [2.0, 4.0]
    )


@pytest.mark.parametrize("num_ues", [1, 2, 5, 8, 60, 129])
@pytest.mark.parametrize("params", [2, 3, 65, 10_001])
def test_average_deltas_matches_the_stacked_mean(params, num_ues):
    """Summing in client order into one accumulator gives the bits of
    ``np.mean(np.stack(deltas), axis=0)`` for two or more parameters."""
    rng = np.random.default_rng(params * 1000 + num_ues)
    deltas = [rng.uniform(0.01, 100.0) * rng.normal(size=params) for _ in range(num_ues)]
    before = [d.copy() for d in deltas]
    got = average_deltas(deltas)
    np.testing.assert_array_equal(got.view(np.uint64),
                                  np.mean(np.stack(deltas), axis=0).view(np.uint64))
    for d, b in zip(deltas, before):
        np.testing.assert_array_equal(d, b)  # the inputs are left alone


def test_aggregation_validation():
    with pytest.raises(ValueError):
        average_deltas([])
    with pytest.raises(ValueError):
        average_deltas([np.ones(3), np.ones(1)])
    with pytest.raises(ValueError):
        fedavg_digital([])
    with pytest.raises(ValueError):
        compute_delta(np.ones(3), np.ones(4))


# -------------------------------------------------------------- factories


def test_linear_tasks_share_base_weights():
    """With zero heterogeneity and zero label noise every client draws
    targets from the same generating weights, so per-client least-squares
    fits agree."""
    kw = dict(n_samples=50, n_features=6, heterogeneity=0.0, noise_std=0.0)
    a = make_linear_task(7, 100, **kw)
    b = make_linear_task(7, 200, **kw)
    wa = np.linalg.lstsq(a.features, a.targets, rcond=None)[0]
    wb = np.linalg.lstsq(b.features, b.targets, rcond=None)[0]
    np.testing.assert_allclose(wa, wb, atol=1e-10)
    assert not np.array_equal(a.features, b.features)  # data still differs


def test_heterogeneity_spreads_generating_weights():
    kw = dict(n_samples=200, n_features=6, noise_std=0.0)
    a = make_linear_task(7, 100, heterogeneity=1.0, **kw)
    b = make_linear_task(7, 200, heterogeneity=1.0, **kw)
    wa = np.linalg.lstsq(a.features, a.targets, rcond=None)[0]
    wb = np.linalg.lstsq(b.features, b.targets, rcond=None)[0]
    assert np.linalg.norm(wa - wb) > 0.1 * np.linalg.norm(wa)


def test_tasks_are_seed_deterministic():
    a = make_linear_task(1, 2, n_samples=8, n_features=3)
    b = make_linear_task(1, 2, n_samples=8, n_features=3)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.targets, b.targets)


# ------------------------------------------------------ feature precision


def test_linear_task_features_are_the_float64_draws_rounded_to_float32():
    n, f = 70, 9000  # more rows than one draw block, and a partial last block
    task = make_linear_task(3, 4, n_samples=n, n_features=f)
    rng = np.random.default_rng(4)
    rng.standard_normal(f)  # the client's weight perturbation
    want = rng.standard_normal((n, f)).astype(np.float32)
    assert task.features.dtype == np.float32
    np.testing.assert_array_equal(task.features.view(np.uint32), want.view(np.uint32))
    # the label noise is the generator's next draw, as before
    noiseless = make_linear_task(3, 4, n_samples=n, n_features=f, noise_std=0.0)
    want_targets = noiseless.targets + 0.1 * rng.standard_normal(n)
    assert task.targets.dtype == np.float64
    np.testing.assert_array_equal(task.targets.view(np.uint64), want_targets.view(np.uint64))


def test_float32_features_give_a_float64_loss_and_gradient():
    task = make_linear_task(0, 1, n_samples=200, n_features=40)
    theta = np.random.default_rng(5).normal(size=40) / np.sqrt(40)
    loss, grad = loss_and_grad(theta, task)
    want_loss, want_grad = loss_and_grad(theta, _as_float64(task))
    assert type(loss) is float and grad.dtype == np.float64
    assert abs(loss - want_loss) <= 1e-5 * want_loss
    assert _rel_err(grad, want_grad) < 1e-5


def test_task_keeps_float32_features_and_widens_everything_else():
    x32 = np.ones((3, 2), dtype=np.float32)
    assert Task("linear_regression", x32, np.zeros(3)).features is x32
    for x in (np.ones((3, 2), dtype=np.int64), [[1, 2], [3, 4], [5, 6]]):
        task = Task("linear_regression", x, [0, 1, 2])
        assert task.features.dtype == np.float64
        assert task.targets.dtype == np.float64


def _peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_float32_features_are_never_widened_in_memory():
    """A float32 matrix times a float64 vector silently copies the whole
    matrix to float64; neither training nor task building may do that."""
    n, f = 512, 6656
    task = make_linear_task(0, 1, n_samples=n, n_features=f)
    feature_bytes = task.features.nbytes
    theta = np.random.default_rng(6).normal(size=f)
    assert _peak_bytes(loss_and_grad, theta, task) < 0.05 * feature_bytes
    assert _peak_bytes(make_linear_task, 0, 1, n_samples=n, n_features=f) < 1.25 * feature_bytes


def test_blobs_task_shapes_and_one_hot():
    task = make_blobs_task(0, 1, n_samples=40, n_features=5, n_classes=4, hidden=6)
    assert task.features.shape == (40, 5)
    assert task.targets.shape == (40, 4)
    np.testing.assert_array_equal(np.sum(task.targets, axis=1), np.ones(40))
    assert task.param_count == 5 * 6 + 6 + 6 * 4 + 4


def test_init_params_conventions():
    lin = make_linear_task(0, 1, n_samples=10, n_features=4)
    np.testing.assert_array_equal(init_params(lin), np.zeros(4))
    mlp = make_blobs_task(0, 1, n_samples=10, n_features=4, n_classes=3, hidden=2)
    theta = init_params(mlp, seed=5)
    assert theta.size == mlp.param_count
    np.testing.assert_array_equal(init_params(mlp, seed=5), theta)
    # hidden and output biases start at zero
    w1 = 4 * 2
    np.testing.assert_array_equal(theta[w1:w1 + 2], np.zeros(2))
    np.testing.assert_array_equal(theta[-3:], np.zeros(3))


def test_task_validation():
    with pytest.raises(ValueError):
        Task("ridge", np.ones((2, 2)), np.ones(2))
    with pytest.raises(ValueError):
        Task("linear_regression", np.ones(4), np.ones(4))
    with pytest.raises(ValueError):
        Task("linear_regression", np.ones((3, 2)), np.ones(4))
    with pytest.raises(ValueError):
        Task("mlp_classification", np.ones((3, 2)), np.ones(3), hidden=2)
    with pytest.raises(ValueError):
        Task("mlp_classification", np.ones((3, 2)), np.ones((3, 2)), hidden=0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)


def test_round_state_coerces_dtype():
    state = RoundState(theta=[1, 2, 3])
    assert state.theta.dtype == np.float64
    assert state.round_index == 0


@pytest.mark.parametrize("kwargs, field", [
    (dict(learning_rate=0.0), "learning_rate"),
    (dict(epochs=-1), "epochs"),
    (dict(batch_size=-1), "batch_size"),
])
def test_train_config_names_the_one_field_it_rejects(kwargs, field):
    with pytest.raises(FieldError) as exc:
        TrainConfig(**kwargs)
    assert exc.value.field == field


SHAPE = dict(kind="mlp_classification", samples_per_ue=8, features=4, heterogeneity=0.5,
             noise_std=0.1, classes=3, hidden=2)


@pytest.mark.parametrize("field, bad", [
    ("kind", "ridge"), ("samples_per_ue", 0), ("features", 0), ("heterogeneity", -0.1),
    ("heterogeneity", np.nan), ("noise_std", -0.1), ("classes", 1), ("hidden", 0),
])
def test_task_shape_names_the_argument_it_rejects(field, bad):
    check_task_shape(**SHAPE)
    with pytest.raises(FieldError) as exc:
        check_task_shape(**{**SHAPE, field: bad})
    assert exc.value.field == field


def test_linear_task_shape_ignores_the_mlp_arguments():
    check_task_shape(**{**SHAPE, "kind": "linear_regression", "classes": 0, "hidden": 0})


def test_task_rejects_its_kind_and_hidden_by_field():
    """``Task`` shares the kind and hidden-unit rule with the shape check."""
    with pytest.raises(FieldError) as exc:
        Task("ridge", np.ones((2, 2)), np.ones(2))
    assert exc.value.field == "kind"
    with pytest.raises(FieldError) as exc:
        Task("mlp_classification", np.ones((3, 2)), np.ones((3, 2)), hidden=0)
    assert exc.value.field == "hidden"
