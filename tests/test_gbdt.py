from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ruinscore.dataset_io import DamageLevel
from ruinscore.errors import DegenerateData, DimensionMismatch, SchemaViolation
from ruinscore.meta import (
    GbdtHyper,
    GbdtModel,
    TrainHyper,
    load_model,
    model_to_json,
    predict_gbdt,
    predict_gbdt_batch,
    save_model,
    train_gbdt,
    train_logreg,
    training_accuracy,
)
from ruinscore.meta.gbdt import best_split
from ruinscore.meta.logreg import softmax_rows

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



DIM = 3
finite = st.floats(-4.0, 4.0, allow_nan=False)


def trees_of(max_depth: int):
    """Uneven nested-dict trees no deeper than max_depth."""
    leaf = st.builds(lambda v: {"value": v}, finite)
    if max_depth == 0:
        return leaf
    split = st.builds(
        lambda f, t, left, right: {"feature": f, "threshold": t, "left": left, "right": right},
        st.integers(0, DIM - 1),
        finite,
        trees_of(max_depth - 1),
        trees_of(max_depth - 1),
    )
    return st.one_of(leaf, split)


def reference_leaf(node: dict, x) -> float:
    """Recursive walk: x <= threshold goes left, anything else (NaN too) right."""
    while "value" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["value"]


@settings(max_examples=60, deadline=None)
@given(
    rounds=st.lists(st.lists(trees_of(3), min_size=4, max_size=4), max_size=4),
    rows=st.lists(
        st.lists(st.one_of(finite, st.just(float("nan"))), min_size=DIM, max_size=DIM),
        min_size=1,
        max_size=12,
    ),
    learning_rate=st.floats(0.01, 1.0),
)
def test_flat_forest_equals_recursive_walk(rounds, rows, learning_rate):
    model = GbdtModel(
        trees=rounds,
        base_scores=np.log([0.1, 0.2, 0.3, 0.4]),
        learning_rate=learning_rate,
        max_depth=3,
        dim=DIM,
    )
    X = np.array(rows)
    leaves = model.forest.leaf_values(X)
    F = np.tile(model.base_scores, (len(rows), 1))
    for r, round_trees in enumerate(rounds):
        for c, tree in enumerate(round_trees):
            expected = np.array([reference_leaf(tree, x) for x in X])
            assert np.array_equal(leaves[:, 4 * r + c], expected)
            F[:, c] += learning_rate * expected
    assert np.array_equal(predict_gbdt_batch(model, X), softmax_rows(F))


def test_one_row_predict_is_a_view_of_the_batch():
    X, y = xor_fixture(n_per_cluster=30)
    model = train_gbdt(X, y, TrainHyper())
    X[::7, 0] = np.nan
    batch = predict_gbdt_batch(model, X)
    for i, x in enumerate(X):
        assert predict_gbdt(model, x) == tuple(predict_gbdt_batch(model, x[None])[0])
        assert predict_gbdt(model, x) == tuple(batch[i])


def _model_file(tmp_path, mutate) -> str:
    raw = {
        "format": "ruinscore-gbdt-v1",
        "feature_layout": "v1",
        "dim": 2,
        "learning_rate": 0.1,
        "max_depth": 2,
        "degenerate": False,
        "base_scores": [0.0, 0.0, 0.0, 0.0],
        "trees": [
            [{"value": 0.0}] * 4,
            [
                {"value": 0.1},
                {"value": 0.2},
                {
                    "feature": 1,
                    "threshold": 0.5,
                    "left": {"value": -0.1},
                    "right": {"feature": 0, "threshold": 0.0, "left": {"value": 0.3},
                              "right": {"value": 0.4}},
                },
                {"value": 0.0},
            ],
        ],
    }
    mutate(raw)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _node(raw) -> dict:
    return raw["trees"][1][2]


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda raw: _node(raw).update(feature=2), "trees[1][2].feature"),
        (lambda raw: _node(raw).update(feature=-1), "trees[1][2].feature"),
        (lambda raw: _node(raw).update(feature=1.0), "trees[1][2].feature"),
        (lambda raw: _node(raw).update(feature=True), "trees[1][2].feature"),
        (lambda raw: _node(raw).pop("feature"), "trees[1][2].feature"),
        (lambda raw: _node(raw).update(threshold=float("nan")), "trees[1][2].threshold"),
        (lambda raw: _node(raw).update(threshold="0.5"), "trees[1][2].threshold"),
        (lambda raw: _node(raw)["right"].update(left={"value": float("inf")}),
         "trees[1][2].right.left.value"),
        (lambda raw: _node(raw)["right"].update(right={"value": None}),
         "trees[1][2].right.right.value"),
        (lambda raw: _node(raw).pop("right"), "trees[1][2].right"),
        (lambda raw: _node(raw).update(left=[]), "trees[1][2].left"),
        (lambda raw: raw.update(max_depth=1), "trees[1][2].right.right"),
        (lambda raw: raw["trees"][0].__setitem__(3, "leaf"), "trees[0][3]"),
        (lambda raw: raw.update(base_scores=[0.0, 0.0, 0.0]), "base_scores"),
        (lambda raw: raw.update(base_scores=[0.0, 0.0, float("nan"), 0.0]), "base_scores"),
        (lambda raw: raw.update(learning_rate=float("inf")), "learning_rate"),
    ],
)
def test_malformed_tree_rejected_at_load(tmp_path, mutate, field):
    with pytest.raises(SchemaViolation) as exc:
        load_model(_model_file(tmp_path, mutate))
    assert exc.value.field == field


def test_deeply_nested_model_file_rejected(tmp_path):
    deep = '{"left": ' * 5000 + '{"value": 0}' + "}" * 5000
    path = _model_file(tmp_path, lambda raw: None)
    text = Path(path).read_text().replace('{"value": 0.1}', deep, 1)
    Path(path).write_text(text)
    with pytest.raises(SchemaViolation) as exc:
        load_model(path)
    assert exc.value.field == "$"


def test_well_formed_model_file_loads(tmp_path):
    model = load_model(_model_file(tmp_path, lambda raw: None))
    assert model.forest.depth == 2
    # x[1] > 0.5 and x[0] <= 0.0 reach the 0.3 leaf of class 2
    probs = predict_gbdt(model, np.array([0.0, 1.0]))
    margins = 0.1 * np.array([[0.0, 0.0, 0.0, 0.0]]) + 0.1 * np.array([[0.1, 0.2, 0.3, 0.0]])
    assert probs == tuple(softmax_rows(margins)[0])
