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
from .logreg import _as_matrix, _finite_array, _one_hot, _training_matrix, softmax_rows

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
    xs: np.ndarray,
    gs: np.ndarray,
    hs: np.ndarray,
    lam: float,
    min_leaf: int,
) -> tuple[int, int, float, float]:
    """Best axis-aligned split for one tree node.

    Inputs are (d, n) float64 arrays: row j holds the node's values of
    feature j in ascending order, with the gradients and hessians of the
    same samples in the same order. Candidate thresholds are the left-side
    values at boundaries between distinct consecutive sorted values;
    x <= threshold routes left. Returns (feature, n_left, threshold, gain),
    or NO_SPLIT when no candidate has positive gain and min_leaf samples on
    both sides.

    The result is deterministic: prefix sums accumulate sequentially left to
    right (np.cumsum), and the argmax scans feature-major, so ties go to the
    lowest feature, then the lowest threshold. Gains are computed at the
    candidate boundaries only; every other position would count as 0.0.
    """
    n = xs.shape[1]
    if n < 2 * min_leaf or n < 2:
        return NO_SPLIT
    csg = np.cumsum(gs, axis=1)
    csh = np.cumsum(hs, axis=1)
    g_total = csg[:, -1]
    h_total = csh[:, -1]

    # the boundary after sorted position k sends k + 1 samples left
    lo, hi = min_leaf - 1, n - min_leaf
    cand = np.flatnonzero(xs[:, lo:hi] != xs[:, lo + 1 : hi + 1])  # feature-major
    if cand.size == 0:
        return NO_SPLIT
    width = hi - lo
    feat = cand // width
    at = cand + feat * (n - width) + lo  # flat index of (feature, k) in the (d, n) sums
    gl = csg.ravel()[at]
    hl = csh.ravel()[at]
    gt = g_total[feat]
    ht = h_total[feat]
    gr = gt - gl
    hr = ht - hl
    gain = gl * gl / (hl + lam) + gr * gr / (hr + lam) - gt * gt / (ht + lam)

    best = int(np.argmax(gain))
    if gain[best] <= 0.0:
        return NO_SPLIT
    f = int(feat[best])
    k = int(at[best]) - f * n
    return f, k + 1, float(xs[f, k]), float(gain[best])


def _leaf(g_sum: float, h_sum: float, lam: float) -> dict:
    return {"value": g_sum / (h_sum + lam)}


def _cells(xs: np.ndarray, order: np.ndarray, keep: np.ndarray | None) -> tuple:
    """The kept cells of each feature row, in their sorted order (a stable
    partition); (None, None) when no child scans them."""
    if keep is None:
        return None, None
    at = np.flatnonzero(keep)  # row-major: each row's kept cells in their order
    d = xs.shape[0]
    return xs.take(at).reshape(d, -1), order.take(at).reshape(d, -1)


def _build_tree(
    xs: np.ndarray | None,
    order: np.ndarray | None,
    rows: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    depth: int,
    hp,
    leaf_of_row: np.ndarray,
) -> dict:
    """Grow the subtree over one node's samples.

    rows: (m,) the node's sample indices in ascending order. order, xs: (d, m)
    the same samples per feature, sorted by value with ties in sample order,
    and their values; None at max_depth, where only rows are read. A split
    partitions both stably, so each child's rows are what a fresh stable
    argsort of its samples would give. Each leaf's value is written to
    leaf_of_row at its samples.
    """
    if depth < hp.max_depth and rows.size >= 2 * hp.min_leaf:
        feat, n_left, thr, _ = best_split(xs, g[order], h[order], hp.lam, hp.min_leaf)
        if feat >= 0:
            goes_left = np.zeros(leaf_of_row.size, dtype=bool)
            goes_left[order[feat, :n_left]] = True
            in_left = goes_left[rows]
            left = right = None  # children at max_depth are leaves: they need their rows only
            if depth + 1 < hp.max_depth:
                left = goes_left[order]
                right = ~left
            return {
                "feature": feat,
                "threshold": thr,
                "left": _build_tree(
                    *_cells(xs, order, left), rows[in_left], g, h, depth + 1, hp, leaf_of_row
                ),
                "right": _build_tree(
                    *_cells(xs, order, right), rows[~in_left], g, h, depth + 1, hp, leaf_of_row
                ),
            }
    # summed over the samples in their original order
    leaf = _leaf(float(g[rows].sum()), float(h[rows].sum()), hp.lam)
    leaf_of_row[rows] = leaf["value"]
    return leaf


def train_gbdt(X, y, hyper: TrainHyper) -> GbdtModel:
    """Boost hyper.gbdt.rounds rounds of 4 per-class trees.

    Each feature column is sorted once per fit (the pre-sorted column blocks
    of XGBoost's exact greedy method, Chen & Guestrin 2016); nodes partition
    those orders instead of sorting again.

    A training set with every label identical yields a flagged priors-only
    model (nothing to split on). Fewer than 2*min_leaf samples, or a
    non-finite feature, raises DegenerateData outright.
    """
    X = _training_matrix(X)
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

    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    xs = np.take_along_axis(XT, order, axis=1)
    rows = np.arange(n)
    leaf_of_row = np.empty(n, dtype=np.float64)

    rounds = 0 if degenerate else hp.rounds
    trace.append(current_loss())
    for _ in range(rounds):
        P = softmax_rows(F)
        round_trees = []
        for c in range(N_CLASSES):
            g = (Y[:, c] - P[:, c]) * sw
            h = (P[:, c] * (1.0 - P[:, c])) * sw
            round_trees.append(_build_tree(xs, order, rows, g, h, 0, hp, leaf_of_row))
            F[:, c] += hp.learning_rate * leaf_of_row
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

