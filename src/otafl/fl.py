"""Federated learning on a small synthetic task.

Model parameters are plain 1-D float64 arrays.  The one task family is
linear regression with mean-squared-error loss (convex).  Local training
is full-batch gradient descent, one step per epoch on every sample, so it
draws no random numbers.  Aggregation is FedAvg over delta updates, summed
in ascending-UE order.

``make_linear_task`` stores its features as float32, which halves the
bytes each gradient streams; the two matrix products run in that dtype.
Targets, losses, gradients, models and everything downstream of them stay
float64, as do features a caller builds a ``Task`` from in any other dtype.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import FieldError

FEATURE_DRAW_VALUES = 1 << 18  # float64 values (2 MiB) per draw of float32 features

# Output rows per BLAS call in ``_matvec``.  On the OpenBLAS build measured, a
# matrix-vector product whose output length is a multiple of 64 gives the same
# bits at every thread count; a ragged length moves the threads' split off
# the kernel's blocks, and a short one with a long sum may split the sum.
BLAS_ROWS = 64


def check_task_shape(samples_per_ue: int, features: int, heterogeneity: float,
                     noise_std: float) -> None:
    """Reject a task shape no client dataset can be drawn for, without
    drawing one: at least one sample and one feature, and nonnegative
    heterogeneity and label noise.  The error names the argument."""
    for name, value in (("samples_per_ue", samples_per_ue), ("features", features)):
        if value < 1:
            raise FieldError(name, "must be positive")
    for name, value in (("heterogeneity", heterogeneity), ("noise_std", noise_std)):
        if not value >= 0:
            raise FieldError(name, "must be >= 0")


@dataclass
class Task:
    """One client's linear-regression dataset; the model has exactly one
    weight per feature.

    float32 features are kept as they are, without a copy; every other
    input is cast to float64.
    """

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.features)
        self.features = x if x.dtype == np.float32 else x.astype(np.float64, copy=False)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be (samples, dims)")
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError("features and targets disagree on sample count")
        if self.targets.ndim != 1:
            raise ValueError("regression targets must be 1-D")

    @property
    def param_count(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    """Local-training hyperparameters; ``epochs`` = 0 disables training.

    ``batch_size`` accepts only 0, full batch, the one training path; the
    field stays for callers that still pass it.
    """

    learning_rate: float = 0.1
    epochs: int = 1
    batch_size: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise FieldError("learning_rate", "must be positive and finite")
        if self.epochs < 0:
            raise FieldError("epochs", "must be >= 0")
        if self.batch_size != 0:
            raise FieldError("batch_size", "must be 0: training is full batch")


@dataclass
class RoundState:
    """Global model and round counter threaded through an experiment.

    ``grads``, when set, holds one entry per task in task order: the
    gradient of that client's loss at ``theta``.  A round that evaluates
    every client at its new model fills it in, and the next round's first
    training step reuses it instead of recomputing it.  It is a cache
    only: ``None`` gives the same results.
    """

    theta: np.ndarray
    round_index: int = 0
    grads: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)


# ---------------------------------------------------------------------------
# losses and gradients


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a @ v`` with the same bits at every BLAS thread count.

    The rows up to the largest multiple of ``BLAS_ROWS`` take one BLAS call;
    the fewer than ``BLAS_ROWS`` rows after them go to ``np.einsum``, which
    calls no BLAS and runs on one thread.  A row count that is a multiple
    takes the single call ``a @ v`` makes.
    """
    bulk = a.shape[0] - a.shape[0] % BLAS_ROWS
    if bulk == a.shape[0]:
        return a @ v
    out = np.empty(a.shape[0], dtype=np.result_type(a, v))
    np.matmul(a[:bulk], v, out=out[:bulk])
    np.einsum("ij,j->i", a[bulk:], v, out=out[bulk:])
    return out


def loss_and_grad(theta: np.ndarray, task: Task):
    """Loss and gradient on the client's whole dataset.

    The loss is the mean squared residual, loss = mean((X theta - y)^2),
    with grad = 2/n * X^T r.  Both products run in the features' dtype:
    theta and r are cast to it and the results back to float64, because a
    float32 matrix times a float64 vector would copy the whole matrix to
    float64.  Both go through ``_matvec``, so the bits do not depend on the
    BLAS thread count.
    """
    x = task.features
    r = _matvec(x, theta.astype(x.dtype, copy=False)).astype(np.float64, copy=False)
    r -= task.targets
    loss = float(np.mean(r**2))
    xtr = _matvec(x.T, r.astype(x.dtype, copy=False))
    grad = (2.0 / x.shape[0]) * xtr.astype(np.float64, copy=False)
    return loss, grad


def evaluate_loss(theta: np.ndarray, task: Task) -> float:
    return loss_and_grad(theta, task)[0]


# ---------------------------------------------------------------------------
# local training and aggregation


def local_train(
    global_theta: np.ndarray,
    task: Task,
    cfg: TrainConfig,
    grad0: np.ndarray | None = None,
) -> np.ndarray:
    """Run ``cfg.epochs`` of full-batch gradient descent from the global
    model, one step per epoch.

    Zero epochs return the global model unchanged.  ``grad0``, when given,
    must be ``loss_and_grad(global_theta, task)[1]``; it stands in for the
    first step's gradient, so it never changes the result.
    """
    theta = np.array(global_theta, dtype=np.float64, copy=True)
    if theta.size != task.param_count:
        raise ValueError(f"model size {theta.size} != task parameter count {task.param_count}")
    for _ in range(cfg.epochs):
        if grad0 is not None:  # the first step only
            grad, grad0 = grad0, None
        else:
            _, grad = loss_and_grad(theta, task)
        theta -= cfg.learning_rate * grad
    return theta


def compute_delta(local_theta: np.ndarray, global_theta: np.ndarray) -> np.ndarray:
    """Update transmitted by a client: local minus current global."""
    local_theta = np.asarray(local_theta, dtype=np.float64)
    global_theta = np.asarray(global_theta, dtype=np.float64)
    if local_theta.shape != global_theta.shape:
        raise ValueError("local and global models must have equal shape")
    return local_theta - global_theta


def average_deltas(deltas: Iterable[np.ndarray]) -> np.ndarray:
    """Mean update, summed in ascending-UE order into one accumulator.

    ``deltas`` may be any iterable, a generator included, so a caller can
    read another figure of each update as the sum reads it.

    For two or more parameters this equals ``np.mean(np.stack(deltas),
    axis=0)`` bit for bit without stacking a copy of every delta.  With a
    single parameter and eight or more clients numpy sums that contiguous
    column pairwise, so the last bit can differ from this in-order sum.
    """
    updates = iter(deltas)
    first = next(updates, None)
    if first is None:
        raise ValueError("need at least one delta")
    total = np.array(first, dtype=np.float64)
    count = 1
    for count, d in enumerate(updates, start=2):
        if np.shape(d) != total.shape:
            raise ValueError("all deltas must share one shape")
        total += d
    total /= count
    return total


def apply_global(global_theta: np.ndarray, avg_delta: np.ndarray) -> np.ndarray:
    """New global model: previous global plus the averaged update."""
    return np.asarray(global_theta, dtype=np.float64) + np.asarray(avg_delta, dtype=np.float64)


# ---------------------------------------------------------------------------
# synthetic data


def make_linear_task(
    shared_seed,
    client_seed,
    n_samples: int,
    n_features: int,
    heterogeneity: float = 0.5,
    noise_std: float = 0.1,
) -> Task:
    """Linear regression data around a per-client generating weight vector.

    ``shared_seed`` fixes the federation-wide base weights; ``client_seed``
    drives this client's perturbation (relative size ``heterogeneity``),
    inputs and label noise.  Entries of the generating weights scale as
    1/sqrt(features) so targets are O(1).

    The inputs are standard-normal float64 draws rounded to float32 and
    stored as float32.  They are drawn in blocks of whole rows holding about
    ``FEATURE_DRAW_VALUES`` values, so no float64 copy of the whole matrix
    exists.  The float64 targets are computed from the rounded inputs, so a
    noiseless least-squares fit recovers the generating weights.
    """
    shared = np.random.default_rng(shared_seed)
    rng = np.random.default_rng(client_seed)
    scale = 1.0 / np.sqrt(n_features)
    w_shared = shared.standard_normal(n_features) * scale
    w_local = w_shared + heterogeneity * rng.standard_normal(n_features) * scale
    x = np.empty((n_samples, n_features), dtype=np.float32)
    y = np.empty(n_samples)
    block = max(1, FEATURE_DRAW_VALUES // n_features)
    draw = np.empty((min(block, n_samples), n_features))
    for lo in range(0, n_samples, block):
        rows = x[lo:lo + block]
        chunk = rng.standard_normal(out=draw[:rows.shape[0]])
        rows[...] = chunk
        chunk[...] = rows  # the rounded values, which the targets are built from
        # one row would be a BLAS dot, whose sum OpenBLAS may split among threads
        y[lo:lo + rows.shape[0]] = (chunk @ w_local if rows.shape[0] > 1
                                    else np.einsum("ij,j->i", chunk, w_local))
    y += noise_std * rng.standard_normal(n_samples)
    return Task(x, y)

