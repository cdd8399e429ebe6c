from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ruinscore.dataset_io import DamageLevel
from ruinscore.errors import DimensionMismatch, NonFiniteLoss, SchemaViolation
from ruinscore.meta import (
    LogRegModel,
    load_model,
    model_to_json,
    predict_logreg,
    predict_logreg_batch,
    save_model,
    train_logreg,
    training_accuracy,
)
from ruinscore.meta.hyper import LogRegHyper, TrainHyper
from ruinscore.meta.logreg import _loss_and_grad, softmax_rows

from helpers import finite_difference_grad, separable_fixture


def hyper(**kw) -> TrainHyper:
    return TrainHyper(logreg=LogRegHyper(**kw))


def small_fixture(n=50, d=6, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 4, size=n).tolist()
    return X, y


def test_zero_iterations_gives_uniform_predictions():
    X, y = small_fixture()
    model = train_logreg(X, y, hyper(iterations=0))
    probs = predict_logreg(model, X[0])
    assert probs == (0.25, 0.25, 0.25, 0.25)


def test_separable_fixture_high_accuracy():
    X, y = separable_fixture(n=200)
    model = train_logreg(X, y, TrainHyper())
    assert training_accuracy(model, X, y) >= 0.99


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    X, y = small_fixture()
    n, d = X.shape
    mean, std = X.mean(axis=0), X.std(axis=0)
    Xb = np.hstack([(X - mean) / std, np.ones((n, 1))])
    Y = np.zeros((n, 4))
    Y[np.arange(n), y] = 1.0
    sw = np.ones(n)
    worst = 0.0
    for _ in range(10):
        W = rng.normal(scale=0.5, size=(4, d + 1))
        _, analytic = _loss_and_grad(W, Xb, Y, sw, 1e-3)
        numeric = finite_difference_grad(lambda w: _loss_and_grad(w, Xb, Y, sw, 1e-3)[0], W)
        worst = max(worst, float(np.abs(analytic - numeric).max()))
    assert worst < 1e-5


def test_loss_non_increasing_after_first_iteration():
    X, y = separable_fixture(n=120)
    model = train_logreg(X, y, TrainHyper())
    trace = model.loss_trace
    assert len(trace) == 501
    assert all(trace[i + 1] <= trace[i] for i in range(1, len(trace) - 1))
    assert model.final_loss == trace[-1]


def test_probabilities_sum_to_one():
    X, y = small_fixture(n=80)
    model = train_logreg(X, y, hyper(iterations=50))
    rng = np.random.default_rng(5)
    for _ in range(1000):
        probs = predict_logreg(model, rng.normal(scale=3.0, size=X.shape[1]))
        assert abs(sum(probs) - 1.0) <= 1e-9
        assert all(0.0 <= p <= 1.0 for p in probs)


def test_saturated_logits_give_confident_class():
    X, y = small_fixture(d=4)
    model = train_logreg(X, y, hyper(iterations=0))
    model.weights[3, -1] = 30.0  # bias-only logit gap of 30 toward HEAVY
    probs = predict_logreg(model, np.zeros(4))
    assert probs[3] > 0.999


def test_standardization_invariance_of_labels():
    X, y = separable_fixture(n=150)
    base = train_logreg(X, y, TrainHyper())
    scaled = X.copy()
    scaled[:, 16] *= 4.0  # power of two, exact in floating point
    rescaled = train_logreg(scaled, y, TrainHyper())
    base_labels = [np.argmax(predict_logreg(base, row)) for row in X]
    new_labels = [np.argmax(predict_logreg(rescaled, row)) for row in scaled]
    assert base_labels == new_labels


def test_deterministic_serialization(tmp_path):
    X, y = small_fixture(n=60)
    a = train_logreg(X, y, hyper(iterations=40))
    b = train_logreg(X, y, hyper(iterations=40))
    assert model_to_json(a) == model_to_json(b)
    save_model(a, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    assert np.array_equal(loaded.weights, a.weights)
    assert predict_logreg(loaded, X[0]) == predict_logreg(a, X[0])


def test_dimension_mismatch():
    X, y = small_fixture(d=6)
    model = train_logreg(X, y, hyper(iterations=5))
    with pytest.raises(DimensionMismatch):
        predict_logreg(model, np.zeros(7))


def test_non_finite_loss_detected():
    X, y = small_fixture(n=40)
    with pytest.raises(NonFiniteLoss):
        train_logreg(X, y, hyper(learning_rate=1e12, iterations=200))


def test_class_weights_shift_decisions():
    # weighting HEAVY hard should not hurt determinism or validity
    X, y = small_fixture(n=60)
    weighted = TrainHyper(logreg=LogRegHyper(iterations=60), class_weights=(1.0, 1.0, 1.0, 10.0))
    model = train_logreg(X, y, weighted)
    probs = predict_logreg(model, X[0])
    assert abs(sum(probs) - 1.0) <= 1e-9


def test_levels_accepted_as_labels():
    X = np.zeros((4, 3))
    X[:2, 0] = 1.0
    y = [DamageLevel.ZERO, DamageLevel.ZERO, DamageLevel.HEAVY, DamageLevel.HEAVY]
    model = train_logreg(X, y, hyper(iterations=20))
    assert training_accuracy(model, X, y) >= 0.5


def test_softmax_rows_stable_for_large_logits():
    P = softmax_rows(np.array([[1000.0, 0.0, 0.0, 0.0]]))
    assert np.isfinite(P).all() and P[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "key, value",
    [
        ("weights", [[0.0] * 6] * 4),
        ("weights", [[0.0] * 7] * 3),
        ("weights", [[0.0] * 7] * 3 + [[0.0] * 6 + [float("nan")]]),
        ("mean", [0.0] * 5),
        ("std", [[1.0] * 6]),
        ("std", [1.0] * 5 + [0.0]),
        ("std", [1.0] * 5 + [-2.0]),
        ("std", [1.0] * 5 + [float("inf")]),
        # mistyped values that a float or int conversion would accept
        ("mean", [True] * 6),
        ("mean", ["0.5"] * 6),
        ("weights", [[0.0] * 7] * 3 + [[False] * 7]),
        ("std", [1.0] * 5 + ["1.0"]),
        ("dim", "6"),
        ("dim", 6.7),
        ("dim", True),
        ("trained.iterations", "5"),
        ("trained.iterations", 5.0),
        ("trained.iterations", -7),  # train-meta never writes a negative count
        ("trained.final_loss", "nan"),
        ("trained.final_loss", float("nan")),
    ],
)
def test_malformed_arrays_rejected_at_load(tmp_path, key, value):
    X, y = small_fixture()
    raw = json.loads(model_to_json(train_logreg(X, y, hyper(iterations=5))))
    *sections, name = key.split(".")
    target = raw
    for section in sections:
        target = target[section]
    target[name] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(SchemaViolation) as exc:
        load_model(path)
    assert exc.value.field == key


def reference_predict(model: LogRegModel, x) -> np.ndarray:
    """The per-row formula assess output was first recorded with: logits
    W[:, :-1] @ z + W[:, -1], max-subtracted softmax."""
    z = (np.asarray(x, dtype=np.float64) - model.mean) / model.std
    logits = model.weights[:, :-1] @ z + model.weights[:, -1]
    logits = logits - logits.max()
    e = np.exp(logits)
    return e / e.sum()


finite_values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def models_and_rows(draw):
    d = draw(st.integers(1, 24))
    n = draw(st.integers(1, 70))
    std = draw(arrays(np.float64, d, elements=st.floats(1e-3, 1e3)))
    model = LogRegModel(
        weights=draw(arrays(np.float64, (4, d + 1), elements=finite_values)),
        mean=draw(arrays(np.float64, d, elements=finite_values)),
        std=std,
        iterations=0,
        final_loss=0.0,
    )
    return model, draw(arrays(np.float64, (n, d), elements=finite_values))


@settings(max_examples=200, deadline=None)
@given(data=models_and_rows())
def test_batch_rows_equal_the_per_row_formula_bit_for_bit(data):
    model, X = data
    batch = predict_logreg_batch(model, X)
    for i, x in enumerate(X):
        assert batch[i].tobytes() == reference_predict(model, x).tobytes()


def test_one_row_predict_is_a_view_of_the_batch():
    X, y = small_fixture(n=90, d=18)
    model = train_logreg(X, y, hyper(iterations=80))
    X = X * np.geomspace(1e-3, 1e3, X.shape[1])  # rows far from the training scale
    batch = predict_logreg_batch(model, X)
    for i, x in enumerate(X):
        assert predict_logreg(model, x) == tuple(predict_logreg_batch(model, x[None])[0])
        assert predict_logreg(model, x) == tuple(batch[i])
        assert tuple(predict_logreg_batch(model, X[i : i + 5])[0]) == tuple(batch[i])
