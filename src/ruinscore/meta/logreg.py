"""Multinomial logistic regression trained by full-batch gradient descent.

Deterministic by construction: weights start at zero, features are z-scored
with stored statistics, and there is no shuffling or sampling anywhere, so
the same inputs always give the same model bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateData, DimensionMismatch, NonFiniteLoss, SchemaViolation
from .features import FEATURE_LAYOUT
from .hyper import TrainHyper

N_CLASSES = 4
LOGREG_FORMAT = "ruinscore-logreg-v1"


@dataclass
class LogRegModel:
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
    """raw[key] as a float64 array of exactly `shape` with finite entries."""
    arr = np.asarray(raw[key], dtype=np.float64)
    if arr.shape != shape:
        raise SchemaViolation(key, f"must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise SchemaViolation(key, "must be finite")
    return arr


def _one_hot(y, n: int) -> np.ndarray:
    labels = np.asarray([int(v) for v in y], dtype=np.int64)
    if labels.shape[0] != n:
        raise DimensionMismatch(n, labels.shape[0])
    if labels.min(initial=0) < 0 or labels.max(initial=0) > 3:
        raise ValueError("labels must be damage level ordinals 0..3")
    Y = np.zeros((n, N_CLASSES), dtype=np.float64)
    Y[np.arange(n), labels] = 1.0
    return Y


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _standardize(X: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (X - mean) / std


def _loss_and_grad(
    W: np.ndarray, Xb: np.ndarray, Y: np.ndarray, sw: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    # overflow is allowed to produce inf/nan here; train_logreg detects the
    # non-finite loss and reports the offending iteration
    with np.errstate(over="ignore", invalid="ignore"):
        P = softmax_rows(Xb @ W.T)
        w_total = sw.sum()
        # clip only inside the log; the gradient uses the exact probabilities
        ll = -np.log(np.clip((P * Y).sum(axis=1), 1e-300, None))
        penalty = 0.5 * l2 * float(np.square(W[:, :-1]).sum())
        loss = float((sw * ll).sum() / w_total) + penalty
        G = ((P - Y) * sw[:, None]).T @ Xb / w_total
        G[:, :-1] += l2 * W[:, :-1]
    return loss, G


def train_logreg(X, y, hyper: TrainHyper) -> LogRegModel:
    """Fit the model with exactly hyper.logreg.iterations gradient steps.

    A non-finite feature raises DegenerateData up front. Raises
    NonFiniteLoss as soon as the loss stops being finite (the usual cause is
    a too-large learning rate).
    """
    X = _training_matrix(X)
    n, d = X.shape
    if n < 1:
        raise ValueError("need at least one sample")
    Y = _one_hot(y, n)
    hp = hyper.logreg

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where((std == 0.0) | ~np.isfinite(std), 1.0, std)
    Z = _standardize(X, mean, std)
    Xb = np.hstack([Z, np.ones((n, 1))])

    if hyper.class_weights is None:
        sw = np.ones(n, dtype=np.float64)
    else:
        cw = np.asarray(hyper.class_weights, dtype=np.float64)
        sw = cw[Y.argmax(axis=1)]

    W = np.zeros((N_CLASSES, d + 1), dtype=np.float64)
    trace: list[float] = []
    loss, grad = _loss_and_grad(W, Xb, Y, sw, hp.l2)
    trace.append(loss)
    for it in range(hp.iterations):
        if not np.isfinite(loss):
            raise NonFiniteLoss(it)
        W = W - hp.learning_rate * grad
        loss, grad = _loss_and_grad(W, Xb, Y, sw, hp.l2)
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


def predict_logreg(model: LogRegModel, x) -> tuple[float, float, float, float]:
    """Class probabilities for one feature vector (softmax, max-subtracted)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != model.dim:
        raise DimensionMismatch(model.dim, x.shape[0])
    z = (x - model.mean) / model.std
    logits = model.weights[:, :-1] @ z + model.weights[:, -1]
    logits = logits - logits.max()
    e = np.exp(logits)
    p = e / e.sum()
    return (float(p[0]), float(p[1]), float(p[2]), float(p[3]))


def predict_logreg_batch(model: LogRegModel, X) -> np.ndarray:
    X = _as_matrix(X)
    if X.shape[1] != model.dim:
        raise DimensionMismatch(model.dim, X.shape[1])
    Z = _standardize(X, model.mean, model.std)
    Xb = np.hstack([Z, np.ones((X.shape[0], 1))])
    return softmax_rows(Xb @ model.weights.T)


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
    dim = int(raw["dim"])
    model = LogRegModel(
        weights=_finite_array(raw, "weights", (N_CLASSES, dim + 1)),
        mean=_finite_array(raw, "mean", (dim,)),
        std=_finite_array(raw, "std", (dim,)),
        iterations=int(raw["trained"]["iterations"]),
        final_loss=float(raw["trained"]["final_loss"]),
        feature_layout=str(raw["feature_layout"]),
    )
    if not (model.std > 0.0).all():
        raise SchemaViolation("std", "must be positive")
    return model
