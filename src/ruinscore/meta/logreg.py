"""Multinomial logistic regression trained by full-batch gradient descent.

Deterministic by construction: weights start at zero, features are z-scored
with stored statistics, and there is no shuffling or sampling anywhere, so
the same inputs always give the same model bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import DegenerateData, DimensionMismatch, NonFiniteLoss, SchemaViolation
from ..fusion import check_number
from .features import FEATURE_LAYOUT

if TYPE_CHECKING:
    from .hyper import LogRegHyper

N_CLASSES = 4
LOGREG_FORMAT = "ruinscore-logreg-v1"


@dataclass
class LogRegModel:
    """A multinomial logistic-regression meta-model over standardized features."""

    weights: np.ndarray  # (4, d+1), bias column last
    mean: np.ndarray  # (d,)
    std: np.ndarray  # (d,) strictly positive; constant features stored as 1.0
    iterations: int
    final_loss: float
    feature_layout: str = FEATURE_LAYOUT
    loss_trace: list[float] = field(default_factory=list, repr=False)  # not serialized

    @property
    def dim(self) -> int:
        return self.weights.shape[1] - 1


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(2, X.ndim)
    return X


def _training_matrix(X) -> np.ndarray:
    """X as a float64 matrix of finite training features; the first
    non-finite entry in row-major order raises DegenerateData."""
    X = _as_matrix(X)
    if not np.isfinite(X).all():
        row, col = (int(i) for i in np.argwhere(~np.isfinite(X))[0])
        raise DegenerateData(
            f"training feature at row {row}, column {col} is {X[row, col]}; must be finite"
        )
    return X


def _finite_array(raw: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """raw[key] as a float64 array of exactly `shape` whose entries are each
    a finite JSON number, not a bool or a string."""
    value = raw[key]
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise SchemaViolation(key, f"must have shape {shape}, got {arr.shape}")
    for v in value if len(shape) == 1 else itertools.chain.from_iterable(value):
        check_number(v, key)
    return arr


def _json_int(value: object, where: str) -> int:
    """A model file's integer field: a JSON integer, not a bool or a float."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaViolation(where, "must be an integer")
    return value


def _one_hot(y, n: int) -> np.ndarray:
    labels = np.asarray([int(v) for v in y], dtype=np.int64)
    if labels.shape[0] != n:
        raise DimensionMismatch(n, labels.shape[0])
    if labels.min(initial=0) < 0 or labels.max(initial=0) > 3:
        raise ValueError("labels must be damage level ordinals 0..3")
    Y = np.zeros((n, N_CLASSES), dtype=np.float64)
    Y[np.arange(n), labels] = 1.0
    return Y


def _log_loss(P: np.ndarray, Y: np.ndarray) -> float:
    """Mean log-loss, probabilities clipped only inside the log."""
    ll = -np.log(np.clip((P * Y).sum(axis=1), 1e-300, None))
    return float(ll.sum() / len(ll))


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _standardize(X: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (X - mean) / std


def _loss_and_grad(
    W: np.ndarray, Xb: np.ndarray, Y: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    # overflow is allowed to produce inf/nan here; train_logreg detects the
    # non-finite loss and reports the offending iteration
    with np.errstate(over="ignore", invalid="ignore"):
        P = softmax_rows(Xb @ W.T)
        penalty = 0.5 * l2 * float(np.square(W[:, :-1]).sum())
        loss = _log_loss(P, Y) + penalty  # the gradient uses the unclipped P
        G = (P - Y).T @ Xb / len(Y)
        G[:, :-1] += l2 * W[:, :-1]
    return loss, G


def train_logreg(X, y, hp: LogRegHyper) -> LogRegModel:
    """Fit the model with exactly hp.iterations gradient steps.

    A non-finite feature raises DegenerateData up front. Raises
    NonFiniteLoss as soon as the loss stops being finite (the usual cause is
    a too-large learning rate).
    """
    X = _training_matrix(X)
    n, d = X.shape
    if n < 1:
        raise ValueError("need at least one sample")
    Y = _one_hot(y, n)

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where((std == 0.0) | ~np.isfinite(std), 1.0, std)
    Z = _standardize(X, mean, std)
    Xb = np.hstack([Z, np.ones((n, 1))])

    W = np.zeros((N_CLASSES, d + 1), dtype=np.float64)
    trace: list[float] = []
    loss, grad = _loss_and_grad(W, Xb, Y, hp.l2)
    trace.append(loss)
    for it in range(hp.iterations):
        if not np.isfinite(loss):
            raise NonFiniteLoss(it)
        W = W - hp.learning_rate * grad
        loss, grad = _loss_and_grad(W, Xb, Y, hp.l2)
        trace.append(loss)
    if not np.isfinite(loss):
        raise NonFiniteLoss(hp.iterations)

    return LogRegModel(
        weights=W,
        mean=mean,
        std=std,
        iterations=hp.iterations,
        final_loss=loss,
        loss_trace=trace,
    )


def predict_logreg_batch(model: LogRegModel, X) -> np.ndarray:
    """(rows, 4) class probabilities: softmax of one matrix-vector product per
    row plus the bias, so a row rounds the same alone as in any batch."""
    X = _as_matrix(X)
    if X.shape[1] != model.dim:
        raise DimensionMismatch(model.dim, X.shape[1])
    Z = _standardize(X, model.mean, model.std)
    W = model.weights
    return softmax_rows(np.matmul(W[:, :-1], Z[:, :, None])[:, :, 0] + W[:, -1])


def logreg_to_dict(model: LogRegModel) -> dict:
    return {
        "format": LOGREG_FORMAT,
        "feature_layout": model.feature_layout,
        "dim": model.dim,
        "weights": model.weights.tolist(),
        "mean": model.mean.tolist(),
        "std": model.std.tolist(),
        "trained": {"iterations": model.iterations, "final_loss": model.final_loss},
    }


def logreg_from_dict(raw: dict) -> LogRegModel:
    dim = _json_int(raw["dim"], "dim")
    trained = raw["trained"]
    check_number(trained["final_loss"], "trained.final_loss")
    iterations = _json_int(trained["iterations"], "trained.iterations")
    if iterations < 0:
        raise SchemaViolation("trained.iterations", "must be >= 0")
    model = LogRegModel(
        weights=_finite_array(raw, "weights", (N_CLASSES, dim + 1)),
        mean=_finite_array(raw, "mean", (dim,)),
        std=_finite_array(raw, "std", (dim,)),
        iterations=iterations,
        final_loss=float(trained["final_loss"]),
        feature_layout=str(raw["feature_layout"]),
    )
    if not (model.std > 0.0).all():
        raise SchemaViolation("std", "must be positive")
    return model
