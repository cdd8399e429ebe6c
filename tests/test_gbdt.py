from __future__ import annotations

import numpy as np
import pytest

from ruinscore.dataset_io import DamageLevel
from ruinscore.errors import DegenerateData, DimensionMismatch
from ruinscore.meta import (
    GbdtHyper,
    GbdtModel,
    TrainHyper,
    load_model,
    model_to_json,
    predict_gbdt,
    save_model,
    train_gbdt,
    train_logreg,
    training_accuracy,
)
from ruinscore.meta.gbdt import best_split

from helpers import xor_fixture


def hyper(**kw) -> TrainHyper:
    return TrainHyper(gbdt=GbdtHyper(**kw))


def test_all_labels_identical_gives_flagged_priors_model():
    X = np.random.default_rng(0).normal(size=(30, 5))
    y = [DamageLevel.MEDIUM] * 30
    model = train_gbdt(X, y, TrainHyper())
    assert model.degenerate
    assert model.rounds == 0
    probs = predict_gbdt(model, X[0])
    assert probs[2] == pytest.approx(1.0, abs=1e-9)


def test_priors_only_model_matches_class_frequencies():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 4))
    y = [0] * 10 + [1] * 20 + [2] * 30 + [3] * 40
    model = train_gbdt(X, y, hyper(rounds=0))
    probs = predict_gbdt(model, X[0])
    assert probs == pytest.approx((0.1, 0.2, 0.3, 0.4), abs=1e-9)


def test_zero_rounds_uniform_priors():
    X = np.zeros((40, 3))
    y = [0, 1, 2, 3] * 10
    model = train_gbdt(X, y, hyper(rounds=0))
    assert predict_gbdt(model, np.zeros(3)) == pytest.approx((0.25,) * 4, abs=1e-9)


def test_single_leaf_boost_toward_heavy():
    model = GbdtModel(
        trees=[[{"value": 0.0}, {"value": 0.0}, {"value": 0.0}, {"value": 5.0}]],
        base_scores=np.zeros(4),
        learning_rate=1.0,
        max_depth=3,
        dim=2,
    )
    probs = predict_gbdt(model, np.zeros(2))
    assert int(np.argmax(probs)) == 3


def test_xor_fixture_beats_logreg():
    X, y = xor_fixture()
    gb = train_gbdt(X, y, TrainHyper())
    lr = train_logreg(X, y, TrainHyper())
    assert training_accuracy(gb, X, y) >= 0.95
    assert training_accuracy(lr, X, y) <= 0.65


def test_loss_trace_non_increasing():
    X, y = xor_fixture(n_per_cluster=40)
    model = train_gbdt(X, y, TrainHyper())
    trace = model.loss_trace
    assert len(trace) == model.rounds + 1
    assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))


def test_max_depth_respected():
    X, y = xor_fixture(n_per_cluster=50)
    model = train_gbdt(X, y, hyper(max_depth=2, rounds=10))

    def depth(node):
        if "value" in node:
            return 0
        return 1 + max(depth(node["left"]), depth(node["right"]))

    assert max(depth(t) for rnd in model.trees for t in rnd) <= 2


def test_split_tie_breaks_lowest_feature_and_threshold():
    # duplicated feature columns: the scan must pick feature 0, leftmost boundary
    x0 = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
    X = np.stack([x0, x0], axis=1)
    g = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    h = np.ones(6)
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.ascontiguousarray(np.take_along_axis(X, order, axis=0))
    gs = np.ascontiguousarray(g[order])
    hs = np.ascontiguousarray(h[order])
    feat, n_left, thr, gain = best_split(xs, gs, hs, 1.0, 1)
    assert feat == 0
    # the splits after x=0 and after x=1 have equal gain; the lower threshold wins
    assert (n_left, thr) == (2, 0.0)
    assert gain > 0


def test_feature_scale_invariance_of_labels():
    X, y = xor_fixture(n_per_cluster=40)
    base = train_gbdt(X, y, TrainHyper())
    scaled = X.copy()
    scaled[:, 0] *= 4.0  # power of two, exact in floating point
    rescaled = train_gbdt(scaled, y, TrainHyper())
    base_labels = [int(np.argmax(predict_gbdt(base, row))) for row in X]
    new_labels = [int(np.argmax(predict_gbdt(rescaled, row))) for row in scaled]
    assert base_labels == new_labels


def test_deterministic_serialization(tmp_path):
    X, y = xor_fixture(n_per_cluster=30)
    a = train_gbdt(X, y, TrainHyper())
    b = train_gbdt(X, y, TrainHyper())
    assert model_to_json(a) == model_to_json(b)
    save_model(a, tmp_path / "gb.json")
    loaded = load_model(tmp_path / "gb.json")
    assert predict_gbdt(loaded, X[0]) == predict_gbdt(a, X[0])


def test_too_few_samples_degenerate():
    X = np.zeros((6, 3))
    y = [0, 1, 2, 3, 0, 1]
    with pytest.raises(DegenerateData):
        train_gbdt(X, y, hyper(min_leaf=5))


def test_dimension_mismatch():
    X, y = xor_fixture(n_per_cluster=20)
    model = train_gbdt(X, y, hyper(rounds=3))
    with pytest.raises(DimensionMismatch):
        predict_gbdt(model, np.zeros(X.shape[1] + 1))

