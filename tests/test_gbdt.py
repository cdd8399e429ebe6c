from __future__ import annotations

import json
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ruinscore.dataset_io import DamageLevel
from ruinscore.errors import DegenerateData, DimensionMismatch, SchemaViolation
from ruinscore.meta import (
    GbdtModel,
    load_model,
    model_to_json,
    predict_gbdt_batch,
    save_model,
    train_gbdt,
    train_logreg,
)
from ruinscore.meta import gbdt as gbdt_module
from ruinscore.meta.gbdt import best_split, split_candidates
from ruinscore.meta.hyper import GbdtHyper, LogRegHyper
from ruinscore.meta.logreg import softmax_rows

from helpers import training_accuracy, xor_fixture


@pytest.mark.parametrize(
    "make",
    [
        lambda v: GbdtHyper(learning_rate=v),
        lambda v: GbdtHyper(lam=v),
        lambda v: GbdtHyper(rounds=v),
        lambda v: GbdtHyper(max_depth=v),
        lambda v: GbdtHyper(min_leaf=v),
        lambda v: LogRegHyper(learning_rate=v),
        lambda v: LogRegHyper(l2=v),
        lambda v: LogRegHyper(iterations=v),
    ],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1])
def test_hyperparameters_reject_non_finite_and_out_of_range(make, value):
    with pytest.raises(ValueError):
        make(value)


def test_all_labels_identical_gives_flagged_priors_model():
    X = np.random.default_rng(0).normal(size=(30, 5))
    y = [DamageLevel.MEDIUM] * 30
    model = train_gbdt(X, y, GbdtHyper())
    assert model.degenerate
    assert model.rounds == 0
    probs = predict_gbdt_batch(model, X[:1])[0]
    assert probs[2] == pytest.approx(1.0, abs=1e-9)


def test_priors_only_model_matches_class_frequencies():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 4))
    y = [0] * 10 + [1] * 20 + [2] * 30 + [3] * 40
    model = train_gbdt(X, y, GbdtHyper(rounds=0))
    probs = predict_gbdt_batch(model, X[:1])[0]
    assert tuple(probs) == pytest.approx((0.1, 0.2, 0.3, 0.4), abs=1e-9)


def test_zero_rounds_uniform_priors():
    X = np.zeros((40, 3))
    y = [0, 1, 2, 3] * 10
    model = train_gbdt(X, y, GbdtHyper(rounds=0))
    probs = predict_gbdt_batch(model, np.zeros((1, 3)))[0]
    assert tuple(probs) == pytest.approx((0.25,) * 4, abs=1e-9)


def test_single_leaf_boost_toward_heavy():
    model = GbdtModel(
        trees=[[{"value": 0.0}, {"value": 0.0}, {"value": 0.0}, {"value": 5.0}]],
        base_scores=np.zeros(4),
        learning_rate=1.0,
        max_depth=3,
        dim=2,
    )
    probs = predict_gbdt_batch(model, np.zeros((1, 2)))[0]
    assert int(np.argmax(probs)) == 3


def test_xor_fixture_beats_logreg():
    X, y = xor_fixture()
    gb = train_gbdt(X, y, GbdtHyper())
    lr = train_logreg(X, y, LogRegHyper())
    assert training_accuracy(gb, y) >= 0.95
    assert training_accuracy(lr, y) <= 0.65


def test_loss_trace_non_increasing():
    X, y = xor_fixture(n_per_cluster=40)
    model = train_gbdt(X, y, GbdtHyper())
    trace = model.loss_trace
    assert len(trace) == model.rounds + 1
    assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))


def test_max_depth_respected():
    X, y = xor_fixture(n_per_cluster=50)
    model = train_gbdt(X, y, GbdtHyper(max_depth=2, rounds=10))

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
    # best_split takes (d, n): one sorted row per feature, g and h packed
    order = np.argsort(X, axis=0, kind="stable").T
    xs = np.take_along_axis(X.T, order, axis=1)
    gh = np.empty(6, dtype=np.complex128)
    gh.real, gh.imag = g, h
    feat, n_left, gain = best_split(gh[order], split_candidates(xs, 1), 1.0)
    assert feat == 0
    # the splits after x=0 and after x=1 have equal gain; the lower threshold wins
    assert (n_left, xs[feat, n_left - 1]) == (2, 0.0)
    assert gain > 0
    want = reference_best_split(
        np.ascontiguousarray(xs.T), g[order].T.copy(), h[order].T.copy(), 1.0, 1
    )
    assert (feat, n_left) == want[:2]
    assert _bits(xs[feat, n_left - 1]) == _bits(want[2])  # threshold
    assert _bits(gain) == _bits(want[3])


def test_feature_scale_invariance_of_labels():
    X, y = xor_fixture(n_per_cluster=40)
    base = train_gbdt(X, y, GbdtHyper())
    scaled = X.copy()
    scaled[:, 0] *= 4.0  # power of two, exact in floating point
    rescaled = train_gbdt(scaled, y, GbdtHyper())
    base_labels = predict_gbdt_batch(base, X).argmax(axis=1)
    new_labels = predict_gbdt_batch(rescaled, scaled).argmax(axis=1)
    assert np.array_equal(base_labels, new_labels)


def test_deterministic_serialization(tmp_path):
    X, y = xor_fixture(n_per_cluster=30)
    a = train_gbdt(X, y, GbdtHyper())
    b = train_gbdt(X, y, GbdtHyper())
    assert model_to_json(a) == model_to_json(b)
    save_model(a, tmp_path / "gb.json")
    loaded = load_model(tmp_path / "gb.json")
    assert np.array_equal(predict_gbdt_batch(loaded, X), predict_gbdt_batch(a, X))


def test_too_few_samples_degenerate():
    X = np.zeros((6, 3))
    y = [0, 1, 2, 3, 0, 1]
    with pytest.raises(DegenerateData):
        train_gbdt(X, y, GbdtHyper(min_leaf=5))


def test_dimension_mismatch():
    X, y = xor_fixture(n_per_cluster=20)
    model = train_gbdt(X, y, GbdtHyper(rounds=3))
    with pytest.raises(DimensionMismatch):
        predict_gbdt_batch(model, np.zeros((1, X.shape[1] + 1)))



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
    model = train_gbdt(X, y, GbdtHyper())
    X[::7, 0] = np.nan
    batch = predict_gbdt_batch(model, X)
    for i, x in enumerate(X):
        assert tuple(predict_gbdt_batch(model, x[None])[0]) == tuple(batch[i])


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
        # an unknown key fails first: before a missing key, a node's depth or its fields
        (lambda raw: raw.update(weights=[[0.0]]), "weights"),  # a logreg key
        (lambda raw: (raw.pop("dim"), raw.update(extra=1)), "extra"),
        (lambda raw: (raw.update(max_depth=1), _node(raw)["right"]["right"].update(extra=1)),
         "trees[1][2].right.right.extra"),
        (lambda raw: raw["trees"][0].__setitem__(3, "leaf"), "trees[0][3]"),
        (lambda raw: raw.update(base_scores=[0.0, 0.0, 0.0]), "base_scores"),
        (lambda raw: raw.update(base_scores=[0.0, 0.0, float("nan"), 0.0]), "base_scores"),
        (lambda raw: raw.update(learning_rate=float("inf")), "learning_rate"),
        # values train-meta never writes: its hyperparameters' ranges hold at load
        (lambda raw: raw.update(learning_rate=-5.0), "learning_rate"),
        (lambda raw: raw.update(learning_rate=0), "learning_rate"),
        (lambda raw: raw.update(max_depth=0), "max_depth"),
        (lambda raw: raw.update(max_depth=-1), "max_depth"),
        # mistyped values that an int, bool or float conversion would accept
        (lambda raw: raw.update(degenerate="no"), "degenerate"),
        (lambda raw: raw.update(degenerate=0), "degenerate"),
        (lambda raw: raw.update(max_depth=3.9), "max_depth"),
        (lambda raw: raw.update(max_depth=True), "max_depth"),
        (lambda raw: raw.update(dim="2"), "dim"),
        (lambda raw: raw.update(dim=2.0), "dim"),
        (lambda raw: raw.update(base_scores=[True, False, True, False]), "base_scores"),
        (lambda raw: raw.update(base_scores=[0.0, "0.0", 0.0, 0.0]), "base_scores"),
        # integers beyond the float range fail at their node too
        (lambda raw: _node(raw).update(threshold=-(10**400)), "trees[1][2].threshold"),
        (lambda raw: _node(raw)["left"].update(value=10**400), "trees[1][2].left.value"),
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
    probs = predict_gbdt_batch(model, np.array([[0.0, 1.0]]))
    margins = 0.1 * np.array([[0.0, 0.0, 0.0, 0.0]]) + 0.1 * np.array([[0.1, 0.2, 0.3, 0.0]])
    assert np.array_equal(probs, softmax_rows(margins))


# --- the presorted builder against the per-node argsort builder it replaced ---


def reference_best_split(xs, gs, hs, lam, min_leaf):
    """The (n, d) scan: full gain matrix, invalid cells zeroed, F-order argmax."""
    n = xs.shape[0]
    if n < 2 * min_leaf or n < 2:
        return (-1, 0, 0.0, 0.0)
    csg = np.cumsum(gs, axis=0)
    csh = np.cumsum(hs, axis=0)
    g_total = csg[-1]
    h_total = csh[-1]
    gl, hl = csg[:-1], csh[:-1]
    gr, hr = g_total - gl, h_total - hl
    gain = gl * gl / (hl + lam) + gr * gr / (hr + lam) - g_total * g_total / (h_total + lam)
    n_left = np.arange(1, n)
    valid = xs[:-1] != xs[1:]
    valid &= ((n_left >= min_leaf) & (n_left <= n - min_leaf))[:, None]
    gain = np.where(valid, gain, 0.0)
    flat = np.argmax(gain.ravel(order="F"))
    feat, row = divmod(int(flat), n - 1)
    best = float(gain[row, feat])
    if best <= 0.0:
        return (-1, 0, 0.0, 0.0)
    return feat, row + 1, float(xs[row, feat]), best


def reference_build_tree(X, g, h, depth, hp) -> dict:
    """Stable argsort of the node's samples at every node; leaf sums over the
    node's samples in their original order."""
    n = X.shape[0]
    leaf = {"value": float(g.sum()) / (float(h.sum()) + hp.lam)}
    if depth >= hp.max_depth or n < 2 * hp.min_leaf:
        return leaf
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.ascontiguousarray(np.take_along_axis(X, order, axis=0))
    feat, _, thr, _ = reference_best_split(
        xs, np.ascontiguousarray(g[order]), np.ascontiguousarray(h[order]), hp.lam, hp.min_leaf
    )
    if feat < 0:
        return leaf
    mask = X[:, feat] <= thr
    return {
        "feature": int(feat),
        "threshold": float(thr),
        "left": reference_build_tree(X[mask], g[mask], h[mask], depth + 1, hp),
        "right": reference_build_tree(X[~mask], g[~mask], h[~mask], depth + 1, hp),
    }


def reference_train(X, y, hp: GbdtHyper) -> GbdtModel:
    """train_gbdt with the per-node argsort builder, margins updated by
    walking each finished tree."""
    n, d = X.shape
    Y = np.zeros((n, 4))
    Y[np.arange(n), y] = 1.0
    base = np.log(np.maximum(Y.sum(axis=0) / n, 1e-12))
    degenerate = bool((Y.sum(axis=0) > 0).sum() == 1)
    F = np.tile(base, (n, 1))
    trees = []
    for _ in range(0 if degenerate else hp.rounds):
        P = softmax_rows(F)
        round_trees = []
        for c in range(4):
            g = Y[:, c] - P[:, c]
            h = P[:, c] * (1.0 - P[:, c])
            tree = reference_build_tree(X, g, h, 0, hp)
            round_trees.append(tree)
            F[:, c] += hp.learning_rate * reference_leaves(tree, X)
        trees.append(round_trees)
    return GbdtModel(
        trees=trees, base_scores=base, learning_rate=hp.learning_rate,
        max_depth=hp.max_depth, dim=d, degenerate=degenerate,
    )


def reference_leaves(tree: dict, X: np.ndarray) -> np.ndarray:
    return np.array([reference_leaf(tree, x) for x in X])


# few distinct values, -0.0 beside 0.0: most candidate boundaries are ties
grid_value = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def tied_training_sets(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2, 40))
    X = np.array(draw(st.lists(st.lists(grid_value, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    if draw(st.booleans()):  # a duplicated column: equal gains on two features
        j = draw(st.integers(0, d - 1))
        X = np.hstack([X, X[:, j : j + 1]])
    y = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    hp = GbdtHyper(
        rounds=draw(st.integers(1, 4)),
        max_depth=draw(st.integers(1, 4)),
        min_leaf=draw(st.integers(1, max(1, n // 2))),
        lam=draw(st.sampled_from([0.5, 1.0])),
        learning_rate=draw(st.sampled_from([0.1, 0.5])),
    )
    return X, y, hp


@settings(max_examples=150, deadline=None)
@given(data=tied_training_sets())
def test_presorted_builder_matches_per_node_argsort(data):
    X, y, hp = data
    assert model_to_json(train_gbdt(X, y, hp)) == model_to_json(reference_train(X, y, hp))


@pytest.mark.parametrize("seed", [0, 1])
def test_deep_fit_on_many_rows_matches_per_node_argsort(seed):
    # depth 5 with min_leaf 2 reaches small nodes; a 0.1 grid on half the
    # columns gives ties, the other half are continuous
    rng = np.random.default_rng(seed)
    n, d = 600, 6
    X = rng.normal(size=(n, d))
    X[:, ::2] = np.round(X[:, ::2], 1)
    y = np.clip(np.round(X[:, 0] + X[:, 1] * X[:, 3] + rng.normal(scale=0.5, size=n)) + 1, 0, 3)
    y = y.astype(np.intp)
    hp = GbdtHyper(rounds=3, max_depth=5, min_leaf=2)
    assert model_to_json(train_gbdt(X, y, hp)) == model_to_json(reference_train(X, y, hp))


def test_signed_zero_threshold_matches_per_node_argsort():
    # zeros of both signs tie, in sample order 0.0 first and -0.0 last, so the
    # boundary after them has -0.0 as its left value: the threshold keeps
    # that sign, where the first value of the tied rank would be 0.0
    x0 = np.array([0.0, -0.0, 0.0, -0.0, 1.0, 1.0, 2.0, 2.0, 0.0, -0.0])
    x1 = np.linspace(0.0, 1.0, x0.size)[::-1]
    X = np.stack([x0, x1], axis=1)
    y = np.array([0, 0, 0, 0, 3, 3, 2, 2, 0, 0])
    hp = GbdtHyper(rounds=2, max_depth=2, min_leaf=1)
    model = train_gbdt(X, y, hp)
    root = model.trees[0][0]
    assert (root["feature"], _bits(root["threshold"])) == (0, _bits(-0.0))
    assert model_to_json(model) == model_to_json(reference_train(X, y, hp))


def benchmark_shaped(seed: int, n: int = 1500) -> tuple[np.ndarray, np.ndarray]:
    """An n x 18 training set shaped like the seed-7 train-gbdt features:
    11 discrete columns of 2 to 13 levels and 7 continuous ones, two of
    them rounded so that some of their values repeat."""
    rng = np.random.default_rng(seed)
    levels = (7, 4, 3, 3, 2, 2, 2, 2, 3, 13, 4)
    discrete = np.stack([rng.integers(0, k, size=n) for k in levels], axis=1).astype(float)
    continuous = rng.gamma(2.0, size=(n, 7))
    continuous[:, ::3] = np.round(continuous[:, ::3], 1)
    X = np.hstack([discrete[:, :4], continuous, discrete[:, 4:]])
    score = 0.4 * X[:, 0] + X[:, 4] - 0.5 * X[:, 6] + 0.2 * X[:, 15] * X[:, 8]
    y = np.clip(np.round(score + rng.normal(scale=0.7, size=n)), 0, 3).astype(np.intp)
    return X, y


@pytest.mark.parametrize("max_depth", [3, 5])
def test_benchmark_scale_fit_matches_per_node_argsort(max_depth):
    X, y = benchmark_shaped(7)
    assert len(set(y.tolist())) == 4
    hp = GbdtHyper(rounds=3, max_depth=max_depth)
    assert model_to_json(train_gbdt(X, y, hp)) == model_to_json(reference_train(X, y, hp))


def test_benchmark_scale_fit_holds_ranks_and_builds_no_forest():
    # a train-meta-sized fit; the bound lies halfway between the traced peaks
    # of float64 cells with a forest built at construction (3.28 MB) and of
    # uint16 ranks with no forest (2.58 MB)
    X, y = benchmark_shaped(7)
    train_gbdt(X, y, GbdtHyper())  # numpy's one-time set-up is not the fit's
    tracemalloc.start()
    try:
        model = train_gbdt(X, y, GbdtHyper())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_930_000
    assert "forest" not in vars(model)
    probs = predict_gbdt_batch(model, X)
    assert probs.tobytes() == model.training_probs.tobytes()


def test_fits_leave_no_state_for_the_next():
    # two shapes and depths, fitted alone, one after the other and at once in
    # two threads: each fit's workspace is its own
    fits = [
        (*benchmark_shaped(11, n=900), GbdtHyper(rounds=4, max_depth=4, min_leaf=3)),
        (*xor_fixture(n_per_cluster=60), GbdtHyper(rounds=6, max_depth=2)),
    ]
    alone = [model_to_json(train_gbdt(X, y, hp)) for X, y, hp in fits]
    assert [model_to_json(train_gbdt(X, y, hp)) for X, y, hp in reversed(fits)] == alone[::-1]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(train_gbdt, X, y, hp) for X, y, hp in fits * 2]
        assert [model_to_json(f.result(timeout=120)) for f in futures] == alone * 2


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_best_split_matches_reference_scan(data):
    # tied grids and duplicated columns make most boundaries ties
    d = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 40))
    X = np.array(data.draw(st.lists(st.lists(grid_value, min_size=d, max_size=d),
                                    min_size=n, max_size=n)))
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, d - 1))
        X = np.hstack([X, X[:, j : j + 1]])
    g = np.array(data.draw(st.lists(st.sampled_from([-1.0, -0.25, 0.0, 0.5, 1.0]),
                                    min_size=n, max_size=n)))
    h = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                                    min_size=n, max_size=n)))
    min_leaf = data.draw(st.integers(1, n // 2 + 1))
    lam = data.draw(st.sampled_from([0.5, 1.0]))
    order = np.argsort(X.T, axis=1, kind="stable")
    xs = np.take_along_axis(X.T, order, axis=1)
    gh = np.empty(n, dtype=np.complex128)
    gh.real, gh.imag = g, h

    feat, n_left, gain = best_split(gh[order], split_candidates(xs, min_leaf), lam)
    want = reference_best_split(
        np.ascontiguousarray(xs.T), g[order].T.copy(), h[order].T.copy(), lam, min_leaf
    )
    assert (feat, n_left) == want[:2]
    thr = xs[feat, n_left - 1] if feat >= 0 else 0.0
    assert _bits(thr) == _bits(want[2])  # threshold
    assert _bits(gain) == _bits(want[3])


@settings(max_examples=40, deadline=None)
@given(data=tied_training_sets())
def test_fit_leaves_its_inputs_unchanged(data):
    X, y, hp = data
    before = X.copy()
    train_gbdt(X, y, hp)
    assert X.tobytes() == before.tobytes()

    # the scan's in-place prefix sums run on a gather, never on the caller's gh
    n = X.shape[0]
    ranks, order = gbdt_module._presort(X)
    gh = np.empty(n, dtype=np.complex128)
    gh.real = np.linspace(-1.0, 1.0, n)
    gh.imag = np.linspace(0.1, 0.3, n)
    kept = gh.copy()
    leaf_of_row = np.empty(n)
    ws = gbdt_module._Workspace(X.shape[1], n, hp.max_depth, ranks.dtype)
    gbdt_module._build_tree(X, ranks, order, np.arange(n), gh, 0, hp, leaf_of_row, ws)
    assert gh.tobytes() == kept.tobytes()


# mixed magnitudes, signed zeros and subnormals; bounded so no sum overflows
packable = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e16, 1.0]),
)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 30)),
    data=st.data(),
)
def test_packed_cumsum_parts_equal_float_cumsums_bit_for_bit(shape, data):
    g, h = (data.draw(arrays(np.float64, shape, elements=packable)) for _ in range(2))
    gh = np.empty(shape, dtype=np.complex128)
    gh.real, gh.imag = g, h
    cs = np.cumsum(gh, axis=1)
    assert np.array_equal(cs.real.view(np.uint64), np.cumsum(g, axis=1).view(np.uint64))
    assert np.array_equal(cs.imag.view(np.uint64), np.cumsum(h, axis=1).view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(data=tied_training_sets())
def test_recorded_leaves_equal_forest_walk(data):
    X, y, hp = data
    built = []
    build = gbdt_module._build_tree

    def recording(*args):
        depth, leaf_of_row = args[5], args[7]
        tree = build(*args)
        if depth == 0:
            built.append((tree, leaf_of_row.copy()))
        return tree

    gbdt_module._build_tree = recording
    try:
        model = train_gbdt(X, y, hp)
    finally:
        gbdt_module._build_tree = build
    assert len(built) == 4 * model.rounds
    for tree, leaves in built:
        walked = gbdt_module.Forest.from_trees([[tree]], hp.max_depth, X.shape[1])
        assert np.array_equal(leaves, walked.leaf_values(X)[:, 0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("train", [train_gbdt, train_logreg])
def test_non_finite_training_feature_rejected(train, bad):
    X, y = xor_fixture(n_per_cluster=10)
    X[7, 1] = bad
    X[9, 0] = bad
    with pytest.raises(DegenerateData, match=r"row 7, column 1 is (nan|-?inf)"):
        train(X, y, GbdtHyper() if train is train_gbdt else LogRegHyper())
