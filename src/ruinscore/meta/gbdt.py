"""Gradient-boosted regression trees with a softmax objective.

Per round and per class a tree is fit to the negative gradient with Newton
leaf values sum(g)/(sum(h)+lam). Splits are exact greedy over sorted unique
feature values (no histogram binning), ties broken by lowest feature index
then lowest threshold, which together with zero-randomness training makes
serialized models bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateData, DimensionMismatch, SchemaViolation
from .features import FEATURE_LAYOUT
from .hyper import TrainHyper
from .logreg import _as_matrix, _one_hot, softmax_rows

N_CLASSES = 4
GBDT_FORMAT = "ruinscore-gbdt-v1"
_PRIOR_FLOOR = 1e-12  # keeps log priors finite (and JSON-serializable) for absent classes
NO_SPLIT = (-1, 0, 0.0, 0.0)


@dataclass
class GbdtModel:
    trees: list[list[dict]]  # rounds x 4; nodes are nested dicts, leaves {"value": v}
    base_scores: np.ndarray  # (4,) log class priors
    learning_rate: float
    max_depth: int
    dim: int
    degenerate: bool = False
    feature_layout: str = FEATURE_LAYOUT
    loss_trace: list[float] = field(default_factory=list, repr=False)  # not serialized

    @property
    def rounds(self) -> int:
        return len(self.trees)


def best_split(
    x_sorted: np.ndarray,
    g_sorted: np.ndarray,
    h_sorted: np.ndarray,
    lam: float,
    min_leaf: int,
) -> tuple[int, int, float, float]:
    """Best axis-aligned split for one tree node.

    Inputs are (n, d) float64 arrays whose columns were each sorted by
    feature value (gradients and hessians gathered into the same order).
    Candidate thresholds are the left-side values at boundaries between
    distinct consecutive sorted values; x <= threshold routes left. Returns
    (feature, n_left, threshold, gain), or NO_SPLIT when no candidate has
    positive gain and min_leaf samples on both sides.

    The result is deterministic: prefix sums accumulate sequentially left to
    right (np.cumsum), and the argmax scans feature-major, so ties go to the
    lowest feature, then the lowest threshold.
    """
    n = x_sorted.shape[0]
    if n < 2 * min_leaf or n < 2:
        return NO_SPLIT
    csg = np.cumsum(g_sorted, axis=0)
    csh = np.cumsum(h_sorted, axis=0)
    g_total = csg[-1]
    h_total = csh[-1]

    gl = csg[:-1]
    hl = csh[:-1]
    gr = g_total - gl
    hr = h_total - hl
    gain = gl * gl / (hl + lam) + gr * gr / (hr + lam) - g_total * g_total / (h_total + lam)

    n_left = np.arange(1, n)
    valid = x_sorted[:-1] != x_sorted[1:]
    valid &= ((n_left >= min_leaf) & (n_left <= n - min_leaf))[:, None]
    gain = np.where(valid, gain, 0.0)

    flat = np.argmax(gain.ravel(order="F"))
    feat, row = divmod(int(flat), n - 1)
    best = float(gain[row, feat])
    if best <= 0.0:
        return NO_SPLIT
    return feat, row + 1, float(x_sorted[row, feat]), best


def _leaf(g_sum: float, h_sum: float, lam: float) -> dict:
    return {"value": g_sum / (h_sum + lam)}


def _build_tree(X: np.ndarray, g: np.ndarray, h: np.ndarray, depth: int, hp) -> dict:
    n = X.shape[0]
    if depth >= hp.max_depth or n < 2 * hp.min_leaf:
        return _leaf(float(g.sum()), float(h.sum()), hp.lam)
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.ascontiguousarray(np.take_along_axis(X, order, axis=0))
    gs = np.ascontiguousarray(g[order])
    hs = np.ascontiguousarray(h[order])
    feat, _, thr, _ = best_split(xs, gs, hs, hp.lam, hp.min_leaf)
    if feat < 0:
        return _leaf(float(g.sum()), float(h.sum()), hp.lam)
    mask = X[:, feat] <= thr
    return {
        "feature": int(feat),
        "threshold": float(thr),
        "left": _build_tree(X[mask], g[mask], h[mask], depth + 1, hp),
        "right": _build_tree(X[~mask], g[~mask], h[~mask], depth + 1, hp),
    }


def _eval_tree(tree: dict, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(tree, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if "value" in node:
            out[idx] = node["value"]
        else:
            left = X[idx, node["feature"]] <= node["threshold"]
            stack.append((node["left"], idx[left]))
            stack.append((node["right"], idx[~left]))
    return out


def train_gbdt(X, y, hyper: TrainHyper) -> GbdtModel:
    """Boost hyper.gbdt.rounds rounds of 4 per-class trees.

    A training set with every label identical yields a flagged priors-only
    model (nothing to split on). Fewer than 2*min_leaf samples raises
    DegenerateData outright.
    """
    X = _as_matrix(X)
    n, d = X.shape
    hp = hyper.gbdt
    if n < 2 * hp.min_leaf:
        raise DegenerateData(f"need at least {2 * hp.min_leaf} samples, got {n}")
    Y = _one_hot(y, n)

    if hyper.class_weights is None:
        sw = np.ones(n, dtype=np.float64)
    else:
        sw = np.asarray(hyper.class_weights, dtype=np.float64)[Y.argmax(axis=1)]

    priors = (Y * sw[:, None]).sum(axis=0) / sw.sum()
    base = np.log(np.maximum(priors, _PRIOR_FLOOR))
    degenerate = bool((Y.sum(axis=0) > 0).sum() == 1)

    F = np.tile(base, (n, 1))
    trace: list[float] = []
    trees: list[list[dict]] = []
    w_total = sw.sum()

    def current_loss() -> float:
        P = softmax_rows(F)
        ll = -np.log(np.clip((P * Y).sum(axis=1), 1e-300, None))
        return float((sw * ll).sum() / w_total)

    rounds = 0 if degenerate else hp.rounds
    trace.append(current_loss())
    for _ in range(rounds):
        P = softmax_rows(F)
        round_trees = []
        for c in range(N_CLASSES):
            g = (Y[:, c] - P[:, c]) * sw
            h = (P[:, c] * (1.0 - P[:, c])) * sw
            tree = _build_tree(X, g, h, 0, hp)
            round_trees.append(tree)
            F[:, c] += hp.learning_rate * _eval_tree(tree, X)
        trees.append(round_trees)
        trace.append(current_loss())

    return GbdtModel(
        trees=trees,
        base_scores=base,
        learning_rate=hp.learning_rate,
        max_depth=hp.max_depth,
        dim=d,
        degenerate=degenerate,
        loss_trace=trace,
    )


def _margins(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    F = np.tile(model.base_scores, (X.shape[0], 1))
    for round_trees in model.trees:
        for c, tree in enumerate(round_trees):
            F[:, c] += model.learning_rate * _eval_tree(tree, X)
    return F


def predict_gbdt(model: GbdtModel, x) -> tuple[float, float, float, float]:
    """Class probabilities: softmax over base score plus scaled tree outputs."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != model.dim:
        raise DimensionMismatch(model.dim, x.shape[0])
    p = softmax_rows(_margins(model, x.reshape(1, -1)))[0]
    return (float(p[0]), float(p[1]), float(p[2]), float(p[3]))


def predict_gbdt_batch(model: GbdtModel, X) -> np.ndarray:
    X = _as_matrix(X)
    if X.shape[1] != model.dim:
        raise DimensionMismatch(model.dim, X.shape[1])
    return softmax_rows(_margins(model, X))


def gbdt_to_dict(model: GbdtModel) -> dict:
    return {
        "format": GBDT_FORMAT,
        "feature_layout": model.feature_layout,
        "dim": model.dim,
        "learning_rate": model.learning_rate,
        "max_depth": model.max_depth,
        "degenerate": model.degenerate,
        "base_scores": model.base_scores.tolist(),
        "trees": model.trees,
    }


def gbdt_from_dict(raw: dict) -> GbdtModel:
    model = GbdtModel(
        trees=raw["trees"],
        base_scores=np.asarray(raw["base_scores"], dtype=np.float64),
        learning_rate=float(raw["learning_rate"]),
        max_depth=int(raw["max_depth"]),
        dim=int(raw["dim"]),
        degenerate=bool(raw["degenerate"]),
        feature_layout=str(raw["feature_layout"]),
    )
    if not isinstance(model.trees, list) or not all(
        isinstance(r, list) and len(r) == N_CLASSES and all(isinstance(t, dict) for t in r)
        for r in model.trees
    ):
        raise SchemaViolation("trees", f"must be an array of rounds of {N_CLASSES} tree objects")
    return model

