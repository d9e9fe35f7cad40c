"""Federated learning on small synthetic tasks.

Model parameters are plain 1-D float64 arrays.  Two task families are
provided: linear regression with mean-squared-error loss (convex) and a
two-layer tanh MLP with softmax cross-entropy on Gaussian blobs.  Local
training runs seeded mini-batch SGD; aggregation is FedAvg over delta
updates with a fixed ascending-UE summation order.

Linear-regression features are stored as float32, which halves the bytes
each gradient streams; the two matrix products run in that dtype.  Targets,
losses, gradients, models and everything downstream of them stay float64,
as do the MLP family's features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError, check_choice

TASK_KINDS = ("linear_regression", "mlp_classification")

BLOB_CENTER_SPREAD = 3.0  # class-center scale in noise standard deviations
FEATURE_DRAW_VALUES = 1 << 18  # float64 values (2 MiB) per draw of float32 features


def model_size(kind: str, features: int, hidden: int, classes: int) -> int:
    """Parameter count of a task family's model: one weight per feature for
    linear regression, both layers' weights and biases for the MLP."""
    if kind == "linear_regression":
        return features
    return features * hidden + hidden + hidden * classes + classes


def _check_model(kind: str, hidden: int) -> None:
    """The model family exists, and an MLP has a hidden unit."""
    check_choice("kind", kind, TASK_KINDS)
    if kind == "mlp_classification" and hidden < 1:
        raise FieldError("hidden", "must be >= 1 for the MLP")


def check_task_shape(kind: str, samples_per_ue: int, features: int, heterogeneity: float,
                     noise_std: float, classes: int, hidden: int) -> None:
    """Reject a task family and shape no client dataset can be drawn for,
    without drawing one: at least one sample and one feature, nonnegative
    heterogeneity and label noise and, for the MLP, at least two classes
    and one hidden unit.  The error names the argument."""
    _check_model(kind, hidden)
    for name, value in (("samples_per_ue", samples_per_ue), ("features", features)):
        if value < 1:
            raise FieldError(name, "must be positive")
    for name, value in (("heterogeneity", heterogeneity), ("noise_std", noise_std)):
        if not value >= 0:
            raise FieldError(name, "must be >= 0")
    if kind == "mlp_classification" and classes < 2:
        raise FieldError("classes", "must be >= 2 for classification")


@dataclass
class Task:
    """One client's dataset plus the model family it trains.

    ``hidden`` is only meaningful for the MLP family; linear regression has
    exactly one weight per feature.  float32 features are kept as they are,
    without a copy; every other input is cast to float64.
    """

    kind: str
    features: np.ndarray
    targets: np.ndarray
    hidden: int = 0

    def __post_init__(self):
        _check_model(self.kind, self.hidden)
        x = np.asarray(self.features)
        self.features = x if x.dtype == np.float32 else x.astype(np.float64, copy=False)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be (samples, dims)")
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError("features and targets disagree on sample count")
        if self.kind == "mlp_classification":
            if self.targets.ndim != 2:
                raise ValueError("classification targets must be one-hot (samples, classes)")
        elif self.targets.ndim != 1:
            raise ValueError("regression targets must be 1-D")

    @property
    def param_count(self) -> int:
        classes = self.targets.shape[1] if self.targets.ndim == 2 else 0
        return model_size(self.kind, self.features.shape[1], self.hidden, classes)


@dataclass(frozen=True)
class TrainConfig:
    """Local-training hyperparameters; ``epochs`` = 0 disables training."""

    learning_rate: float = 0.1
    epochs: int = 1
    batch_size: int = 0  # 0 means full batch
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise FieldError("learning_rate", "must be positive and finite")
        if self.epochs < 0:
            raise FieldError("epochs", "must be >= 0")
        if self.batch_size < 0:
            raise FieldError("batch_size", "must be >= 0")


@dataclass
class RoundState:
    """Global model and round counter threaded through an experiment.

    ``grads``, when set, holds one entry per task in task order: the
    gradient of that client's full-batch loss at ``theta``.  A round that
    evaluates every client at its new model fills it in, and the next
    round's first full-batch training step reuses it instead of
    recomputing it.  It is a cache only: ``None`` gives the same results.
    """

    theta: np.ndarray
    round_index: int = 0
    grads: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)


# ---------------------------------------------------------------------------
# losses and gradients


def _mlp_unflatten(theta: np.ndarray, d: int, h: int, c: int):
    i = 0
    w1 = theta[i:i + d * h].reshape(d, h); i += d * h
    b1 = theta[i:i + h]; i += h
    w2 = theta[i:i + h * c].reshape(h, c); i += h * c
    b2 = theta[i:i + c]
    return w1, b1, w2, b2


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z, axis=1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=1, keepdims=True)


def loss_and_grad(theta: np.ndarray, task: Task, idx: np.ndarray | None = None):
    """Loss and gradient on the full dataset or a batch index subset.

    Linear regression uses mean squared residual, loss = mean((X theta - y)^2),
    grad = 2/B * X^T r.  Both products run in the features' dtype: theta and
    r are cast to it and the results back to float64, because a float32
    matrix times a float64 vector would copy the whole matrix to float64.
    The MLP uses tanh hidden units and softmax cross-entropy averaged over
    the batch.
    """
    x = task.features if idx is None else task.features[idx]
    y = task.targets if idx is None else task.targets[idx]
    n = x.shape[0]
    if task.kind == "linear_regression":
        r = (x @ theta.astype(x.dtype, copy=False)).astype(np.float64, copy=False) - y
        loss = float(np.mean(r**2))
        xtr = x.T @ r.astype(x.dtype, copy=False)
        grad = (2.0 / n) * xtr.astype(np.float64, copy=False)
        return loss, grad
    d = task.features.shape[1]
    c = task.targets.shape[1]
    w1, b1, w2, b2 = _mlp_unflatten(theta, d, task.hidden, c)
    a1 = np.tanh(x @ w1 + b1)
    probs = _softmax(a1 @ w2 + b2)
    loss = float(-np.mean(np.sum(y * np.log(probs + 1e-300), axis=1)))
    dz2 = (probs - y) / n
    dw2 = a1.T @ dz2
    db2 = np.sum(dz2, axis=0)
    da1 = dz2 @ w2.T
    dz1 = da1 * (1.0 - a1**2)
    dw1 = x.T @ dz1
    db1 = np.sum(dz1, axis=0)
    grad = np.concatenate([dw1.reshape(-1), db1, dw2.reshape(-1), db2])
    return loss, grad


def evaluate_loss(theta: np.ndarray, task: Task) -> float:
    return loss_and_grad(theta, task)[0]


def init_params(task: Task, seed: int = 0) -> np.ndarray:
    """Deterministic initialization: zeros for linear, scaled normal for MLP."""
    if task.kind == "linear_regression":
        return np.zeros(task.param_count)
    rng = np.random.default_rng(seed)
    d = task.features.shape[1]
    c = task.targets.shape[1]
    h = task.hidden
    w1 = rng.standard_normal((d, h)) / np.sqrt(d)
    w2 = rng.standard_normal((h, c)) / np.sqrt(h)
    return np.concatenate([w1.reshape(-1), np.zeros(h), w2.reshape(-1), np.zeros(c)])


# ---------------------------------------------------------------------------
# local training and aggregation


def local_train(
    global_theta: np.ndarray,
    task: Task,
    cfg: TrainConfig,
    grad0: np.ndarray | None = None,
) -> np.ndarray:
    """Run ``cfg.epochs`` of seeded mini-batch SGD from the global model.

    Zero epochs return the global model unchanged.  ``grad0``, when given,
    must be ``loss_and_grad(global_theta, task)[1]``; it stands in for the
    first step's gradient when that step is full batch, and is ignored
    otherwise, so it never changes the result.
    """
    theta = np.array(global_theta, dtype=np.float64, copy=True)
    if theta.size != task.param_count:
        raise ValueError(f"model size {theta.size} != task parameter count {task.param_count}")
    n = task.features.shape[0]
    batch = cfg.batch_size if 0 < cfg.batch_size <= n else n
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(n) if batch < n else None
        for lo in range(0, n, batch):
            if batch < n:
                _, grad = loss_and_grad(theta, task, order[lo:lo + batch])
            elif grad0 is not None:  # the first full-batch step only
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


def average_deltas(deltas: list[np.ndarray]) -> np.ndarray:
    """Mean update, summed in ascending-UE order into one accumulator.

    For two or more parameters this equals ``np.mean(np.stack(deltas),
    axis=0)`` bit for bit without stacking a copy of every delta.  With a
    single parameter and eight or more clients numpy sums that contiguous
    column pairwise, so the last bit can differ from this in-order sum.
    """
    if not deltas:
        raise ValueError("need at least one delta")
    total = np.array(deltas[0], dtype=np.float64)
    for d in deltas[1:]:
        if np.shape(d) != total.shape:
            raise ValueError("all deltas must share one shape")
        total += d
    total /= len(deltas)
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
        y[lo:lo + rows.shape[0]] = chunk @ w_local
    y += noise_std * rng.standard_normal(n_samples)
    return Task("linear_regression", x, y)


def make_blobs_task(
    shared_seed,
    client_seed,
    n_samples: int,
    n_features: int,
    n_classes: int,
    hidden: int,
    heterogeneity: float = 0.25,
) -> Task:
    """Gaussian-blob classification with mild per-client center jitter.

    ``shared_seed`` fixes the class centers for the whole federation;
    ``client_seed`` drives this client's center jitter (relative size
    ``heterogeneity``) and sample draws.
    """
    shared = np.random.default_rng(shared_seed)
    rng = np.random.default_rng(client_seed)
    centers = shared.standard_normal((n_classes, n_features)) * BLOB_CENTER_SPREAD
    centers = centers + heterogeneity * rng.standard_normal(centers.shape)
    labels = rng.integers(0, n_classes, size=n_samples)
    x = centers[labels] + rng.standard_normal((n_samples, n_features))
    y = np.zeros((n_samples, n_classes))
    y[np.arange(n_samples), labels] = 1.0
    return Task("mlp_classification", x, y, hidden=hidden)
