"""Local training, gradients and FedAvg algebra on the synthetic linear task."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import otafl
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
    local_train,
    loss_and_grad,
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
    return Task(task.features.astype(np.float64), task.targets)


def test_linear_gradient_matches_finite_differences():
    # Finite differences at h = 1e-5 are noise on float32 features, so the
    # oracle runs on the same features widened to float64.
    task = _as_float64(make_linear_task(0, 1, n_samples=30, n_features=8))
    rng = np.random.default_rng(2)
    theta = rng.normal(size=8)
    _, grad = loss_and_grad(theta, task)
    assert _rel_err(grad, _fd_gradient(theta, task)) < 1e-5


# Unaligned shapes that OpenBLAS threads: 500 x 6657 splits both products
# off its 64-row blocks, 20000 x 63 leaves X^T r a short output with a long
# sum, and 14 x 20000 ends make_linear_task's draw on a one-row chunk.
THREAD_SHAPES = ((500, 6657), (20000, 63), (14, 20000))
_THREAD_BITS = (
    "import hashlib\n"
    "import numpy as np\n"
    "from otafl import fl\n"
    f"for n, p in {THREAD_SHAPES!r}:\n"
    "    task = fl.make_linear_task(0, 1, n, p)\n"
    "    theta = np.random.default_rng(2).normal(size=p) / np.sqrt(p)\n"
    "    for t in (task, fl.Task(task.features.astype(np.float64), task.targets)):\n"
    "        loss, grad = fl.loss_and_grad(theta, t)\n"
    "        print(n, p, t.features.dtype, hashlib.sha256(\n"
    "            task.targets.tobytes() + np.float64(loss).tobytes() + grad.tobytes()\n"
    "        ).hexdigest())\n"
)


def _bits_at(threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = str(Path(otafl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", _THREAD_BITS], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_training_bits_do_not_depend_on_the_blas_thread_count():
    """The task's targets and the loss and gradient on float32 and float64
    features have the same bytes at one and at two BLAS threads."""
    one = _bits_at(1)
    assert len(one.splitlines()) == 2 * len(THREAD_SHAPES)
    assert _bits_at(2) == one


# -------------------------------------------------------- local training


def test_gd_contraction_rate_oracle():
    """On loss = theta^2 each full-batch step multiplies theta by
    (1 - 2 * lr); lr 0.1 contracts by exactly 0.8 per epoch."""
    task = Task(np.ones((4, 1)), np.zeros(4))
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


@pytest.mark.parametrize("epochs,generators", [(0, 0), (32, 0)])
def test_only_minibatch_training_builds_a_generator(monkeypatch, epochs, generators):
    """Only minibatch training drew a permutation; training is full batch
    now, so it builds no generator however many epochs it runs."""
    built = []
    original = np.random.default_rng

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    task = make_linear_task(0, 5, n_samples=32, n_features=4)
    theta = np.zeros(task.param_count)
    monkeypatch.setattr(np.random, "default_rng", counting)
    local_train(theta, task, TrainConfig(epochs=epochs))
    assert len(built) == generators


def test_sgd_reduces_loss_on_convex_task():
    task = make_linear_task(3, 4, n_samples=100, n_features=10)
    theta = np.zeros(task.param_count)
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


def _grad0_case():
    """The linear task and the nonzero model the carried-gradient tests start from."""
    task = make_linear_task(0, 5, n_samples=40, n_features=6)
    theta = 0.1 * np.random.default_rng(7).normal(size=task.param_count)
    return task, theta


@pytest.mark.parametrize("epochs", [1, 2])
@pytest.mark.parametrize("kind", ["linear"])  # the one task family, named in the case ids
def test_carried_gradient_is_bit_identical(kind, epochs):
    task, theta = _grad0_case()
    cfg = TrainConfig(learning_rate=0.05, epochs=epochs)
    grad0 = loss_and_grad(theta, task)[1]
    kept = grad0.copy()
    with_grad0 = local_train(theta, task, cfg, grad0=grad0)
    np.testing.assert_array_equal(with_grad0, local_train(theta, task, cfg))
    np.testing.assert_array_equal(grad0, kept)  # the carried gradient is not modified


def test_carried_gradient_is_used_on_full_batch():
    task, theta = _grad0_case()
    out = local_train(theta, task, TrainConfig(learning_rate=0.05), grad0=np.zeros_like(theta))
    np.testing.assert_array_equal(out, theta)


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


@pytest.mark.parametrize("num_ues", [1, 2, 9])
@pytest.mark.parametrize("params", [1, 2, 301])
def test_average_deltas_reads_a_generator_as_it_reads_a_list(params, num_ues):
    """Any iterable of updates, a one-shot generator included, gives the
    list form's bits; nine clients of one parameter is the case numpy's
    pairwise column sum would round differently."""
    rng = np.random.default_rng(params + 7 * num_ues)
    deltas = [rng.normal(size=params) for _ in range(num_ues)]
    got = average_deltas(d for d in deltas)
    assert got.tobytes() == average_deltas(deltas).tobytes()


def test_aggregation_validation():
    with pytest.raises(ValueError):
        average_deltas([])
    with pytest.raises(ValueError):
        average_deltas(d for d in [])
    with pytest.raises(ValueError):
        average_deltas([np.ones(3), np.ones(1)])
    with pytest.raises(ValueError):
        average_deltas(d for d in [np.ones(3), np.ones(3), np.ones(1)])
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
    assert Task(x32, np.zeros(3)).features is x32
    for x in (np.ones((3, 2), dtype=np.int64), [[1, 2], [3, 4], [5, 6]]):
        task = Task(x, [0, 1, 2])
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


def test_task_validation():
    with pytest.raises(ValueError):
        Task(np.ones(4), np.ones(4))
    with pytest.raises(ValueError):
        Task(np.ones((3, 2)), np.ones(4))
    with pytest.raises(ValueError, match="regression targets must be 1-D"):
        Task(np.ones((3, 2)), np.ones((3, 2)))
    assert Task(np.ones((3, 2)), np.ones(3)).param_count == 2


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
    (dict(batch_size=8), "batch_size"),
])
def test_train_config_names_the_one_field_it_rejects(kwargs, field):
    with pytest.raises(FieldError) as exc:
        TrainConfig(**kwargs)
    assert exc.value.field == field


SHAPE = dict(samples_per_ue=8, features=4, heterogeneity=0.5, noise_std=0.1)


@pytest.mark.parametrize("field, bad", [
    ("samples_per_ue", 0), ("features", 0), ("heterogeneity", -0.1),
    ("heterogeneity", np.nan), ("noise_std", -0.1),
])
def test_task_shape_names_the_argument_it_rejects(field, bad):
    check_task_shape(**SHAPE)
    with pytest.raises(FieldError) as exc:
        check_task_shape(**{**SHAPE, field: bad})
    assert exc.value.field == field

