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
from ..fusion import check_number
from .features import FEATURE_LAYOUT
from .hyper import TrainHyper
from .logreg import _as_matrix, _finite_array, _one_hot, softmax_rows

N_CLASSES = 4
GBDT_FORMAT = "ruinscore-gbdt-v1"
_PRIOR_FLOOR = 1e-12  # keeps log priors finite (and JSON-serializable) for absent classes
NO_SPLIT = (-1, 0, 0.0, 0.0)
# rows walked through the forest at once: bounds predict's (rows, trees)
# temporaries whatever the batch size
_ROWS_PER_WALK = 64


@dataclass(frozen=True)
class Forest:
    """Trees flattened into node arrays and walked one level at a time for
    every row and tree at once (the node layout idea of QuickScorer,
    Lucchese et al., SIGIR 2015).

    Node i splits on feature[i] at threshold[i]: x <= threshold goes to
    child[2i], anything else (NaN included) to child[2i + 1]. A leaf is both
    of its own children, so after `depth` levels every row rests on its leaf
    however shallow that leaf is.
    """

    feature: np.ndarray  # (nodes,) intp; 0 at leaves
    threshold: np.ndarray  # (nodes,) float64; 0.0 at leaves
    child: np.ndarray  # (2 * nodes,) intp
    value: np.ndarray  # (nodes,) float64 leaf values; 0.0 at split nodes
    roots: np.ndarray  # (trees,) intp, round-major
    depth: int  # deepest leaf of any tree

    @classmethod
    def from_trees(cls, trees: list[list[dict]], max_depth: int, dim: int) -> "Forest":
        """Flatten rounds of nested-dict trees. A malformed node raises
        SchemaViolation at its path, e.g. trees[3][1].left.threshold."""
        feature: list[int] = []
        threshold: list[float] = []
        value: list[float] = []
        child: list[int] = []
        roots: list[int] = []
        pending: list[tuple[int, object, str, int]] = []
        depth = 0

        def add(node: object, where: str, level: int) -> int:
            idx = len(feature)
            feature.append(0)
            threshold.append(0.0)
            value.append(0.0)
            child.extend((idx, idx))
            pending.append((idx, node, where, level))
            return idx

        for r, round_trees in enumerate(trees):
            for c, tree in enumerate(round_trees):
                roots.append(add(tree, f"trees[{r}][{c}]", 0))
                while pending:
                    idx, node, where, level = pending.pop()
                    if not isinstance(node, dict):
                        raise SchemaViolation(where, "tree node must be an object")
                    if level > max_depth:
                        raise SchemaViolation(where, f"node deeper than max_depth {max_depth}")
                    depth = max(depth, level)
                    if "value" in node:
                        check_number(node["value"], f"{where}.value")
                        value[idx] = float(node["value"])
                        continue
                    feat = node.get("feature")
                    if not isinstance(feat, int) or isinstance(feat, bool) or not 0 <= feat < dim:
                        raise SchemaViolation(
                            f"{where}.feature", f"must be an integer in [0, {dim})"
                        )
                    check_number(node.get("threshold"), f"{where}.threshold")
                    feature[idx] = feat
                    threshold[idx] = float(node["threshold"])
                    for slot, side in enumerate(("left", "right")):
                        if side not in node:
                            raise SchemaViolation(f"{where}.{side}", "missing child")
                        child[2 * idx + slot] = add(node[side], f"{where}.{side}", level + 1)
        return cls(
            feature=np.asarray(feature, dtype=np.intp),
            threshold=np.asarray(threshold, dtype=np.float64),
            child=np.asarray(child, dtype=np.intp),
            value=np.asarray(value, dtype=np.float64),
            roots=np.asarray(roots, dtype=np.intp),
            depth=depth,
        )

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(rows, trees) value of the leaf each row reaches in each tree."""
        rows = np.arange(X.shape[0])[:, None]
        node = np.tile(self.roots, (X.shape[0], 1))
        for _ in range(self.depth):
            right = ~(X[rows, self.feature[node]] <= self.threshold[node])
            node = self.child[2 * node + right]
        return self.value[node]


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
    forest: Forest = field(init=False, repr=False, compare=False)  # `trees`, flattened

    def __post_init__(self) -> None:
        if not isinstance(self.trees, list) or not all(
            isinstance(r, list) and len(r) == N_CLASSES for r in self.trees
        ):
            raise SchemaViolation("trees", f"must be an array of rounds of {N_CLASSES} tree objects")
        self.forest = Forest.from_trees(self.trees, self.max_depth, self.dim)

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
            leaves = Forest.from_trees([[tree]], hp.max_depth, d).leaf_values(X)
            F[:, c] += hp.learning_rate * leaves[:, 0]
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


def predict_gbdt_batch(model: GbdtModel, X) -> np.ndarray:
    """(rows, 4) class probabilities: softmax over the base scores plus the
    scaled outputs of every tree, added round by round so each margin sums
    in the same order as when the model was trained."""
    X = _as_matrix(X)
    if X.shape[1] != model.dim:
        raise DimensionMismatch(model.dim, X.shape[1])
    F = np.tile(model.base_scores, (X.shape[0], 1))
    for start in range(0, X.shape[0], _ROWS_PER_WALK):
        block = F[start : start + _ROWS_PER_WALK]
        leaves = model.forest.leaf_values(X[start : start + _ROWS_PER_WALK])
        leaves = leaves.reshape(block.shape[0], model.rounds, N_CLASSES)
        for r in range(model.rounds):
            block += model.learning_rate * leaves[:, r, :]
    return softmax_rows(F)


def predict_gbdt(model: GbdtModel, x) -> tuple[float, float, float, float]:
    """Class probabilities of one feature vector: one row of predict_gbdt_batch."""
    p = predict_gbdt_batch(model, np.asarray(x, dtype=np.float64).reshape(1, -1))[0]
    return (float(p[0]), float(p[1]), float(p[2]), float(p[3]))


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
    check_number(raw["learning_rate"], "learning_rate")
    return GbdtModel(
        trees=raw["trees"],
        base_scores=_finite_array(raw, "base_scores", (N_CLASSES,)),
        learning_rate=float(raw["learning_rate"]),
        max_depth=int(raw["max_depth"]),
        dim=int(raw["dim"]),
        degenerate=bool(raw["degenerate"]),
        feature_layout=str(raw["feature_layout"]),
    )

