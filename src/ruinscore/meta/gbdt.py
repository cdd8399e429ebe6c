"""Gradient-boosted regression trees with a softmax objective.

Per round and per class a tree is fit to the negative gradient with Newton
leaf values sum(g)/(sum(h)+lam). Splits are exact greedy over sorted unique
feature values (no histogram binning), ties broken by lowest feature index
then lowest threshold, which together with zero-randomness training makes
serialized models bit-reproducible.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import DegenerateData, DimensionMismatch, SchemaViolation
from ..fusion import check_number
from .features import FEATURE_LAYOUT
from .logreg import _as_matrix, _finite_array, _json_int, _log_loss, _one_hot
from .logreg import _training_matrix, softmax_rows

if TYPE_CHECKING:
    from .hyper import GbdtHyper

N_CLASSES = 4
GBDT_FORMAT = "ruinscore-gbdt-v1"
_PRIOR_FLOOR = 1e-12  # keeps log priors finite (and JSON-serializable) for absent classes
NO_SPLIT = (-1, 0, 0.0, 0.0)
# rows walked through the forest at once: bounds predict's (rows, trees)
# temporaries whatever the batch size
_ROWS_PER_WALK = 64


def _path(where) -> str:
    """A node path kept as nested (parent path, ".side") pairs, spelled out."""
    sides = []
    while isinstance(where, tuple):
        where, side = where
        sides.append(side)
    return where + "".join(reversed(sides))


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
        SchemaViolation at its path, e.g. trees[3][1].left.threshold.

        Nodes are numbered as they are reached, both children of a split at
        once, and walked right child first. A node's path is kept as a
        (parent path, ".side") pair and spelled out only for an error, and a
        finite float value or threshold skips `check_number`.
        """
        feature: list[int] = []
        threshold: list[float] = []
        value: list[float] = []
        child: list[int] = []
        roots: list[int] = []
        depth = 0
        top = sys.float_info.max
        for r, round_trees in enumerate(trees):
            for c, tree in enumerate(round_trees):
                idx = len(value)
                roots.append(idx)
                feature.append(0)
                threshold.append(0.0)
                value.append(0.0)
                child += (idx, idx)
                pending = [(idx, tree, 0, f"trees[{r}][{c}]")]  # (index, node, level, path)
                while pending:
                    idx, node, level, where = pending.pop()
                    if not isinstance(node, dict):
                        raise SchemaViolation(_path(where), "tree node must be an object")
                    if level > max_depth:
                        raise SchemaViolation(
                            _path(where), f"node deeper than max_depth {max_depth}"
                        )
                    if level > depth:
                        depth = level
                    if "value" in node:
                        v = node["value"]
                        if type(v) is not float or not -top <= v <= top:
                            check_number(v, _path(where) + ".value")
                            v = float(v)
                        value[idx] = v
                        continue
                    feat = node.get("feature")
                    if not isinstance(feat, int) or isinstance(feat, bool) or not 0 <= feat < dim:
                        raise SchemaViolation(
                            _path(where) + ".feature", f"must be an integer in [0, {dim})"
                        )
                    thr = node.get("threshold")
                    if type(thr) is not float or not -top <= thr <= top:
                        check_number(thr, _path(where) + ".threshold")
                        thr = float(thr)
                    feature[idx] = feat
                    threshold[idx] = thr
                    if "left" not in node or "right" not in node:
                        side = "right" if "left" in node else "left"
                        raise SchemaViolation(f"{_path(where)}.{side}", "missing child")
                    left = len(value)
                    feature += (0, 0)
                    threshold += (0.0, 0.0)
                    value += (0.0, 0.0)
                    child += (left, left, left + 1, left + 1)
                    child[2 * idx] = left
                    child[2 * idx + 1] = left + 1
                    pending.append((left, node["left"], level + 1, (where, ".left")))
                    pending.append((left + 1, node["right"], level + 1, (where, ".right")))
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
    """A gradient-boosted forest meta-model: per round one tree per class."""

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


def split_candidates(xs: np.ndarray, min_leaf: int) -> tuple[np.ndarray, np.ndarray]:
    """Where one node may split: (feat, at), both empty when nowhere.

    at holds the flat index, in the node's (d, n) prefix sums, of every
    boundary between distinct consecutive sorted values that leaves min_leaf
    samples on both sides, feature-major; feat holds each one's feature. It
    depends on xs and min_leaf only, so a fit builds the root's once.
    """
    n = xs.shape[1]
    if n < 2 * min_leaf or n < 2:
        none = np.empty(0, dtype=np.intp)
        return none, none
    # the boundary after sorted position k sends k + 1 samples left
    lo, hi = min_leaf - 1, n - min_leaf
    at = np.flatnonzero(xs[:, lo:hi] != xs[:, lo + 1 : hi + 1])  # feature-major
    width = hi - lo
    feat = at // width
    at += feat * (n - width) + lo  # flat index of (feature, k) in the (d, n) sums
    return feat, at


def best_split(
    xs: np.ndarray,
    ghs: np.ndarray,
    lam: float,
    min_leaf: int,
    cands: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[int, int, float, float]:
    """Best axis-aligned split for one tree node.

    xs is a (d, n) float64 array: row j holds the node's values of feature j
    in ascending order. ghs is the (d, n) complex128 array of the same
    samples in the same order, each packing a gradient (real part) and a
    hessian (imaginary part). The scan overwrites ghs with its prefix sums
    (np.cumsum in place, no new (d, n) array), so pass a fresh gather.
    Candidate thresholds are the left-side values at the boundaries of
    split_candidates(xs, min_leaf), built here unless given as cands;
    x <= threshold routes left. Returns (feature, n_left, threshold, gain),
    or NO_SPLIT when no candidate has positive gain and min_leaf samples on
    both sides.

    The result is deterministic: prefix sums accumulate sequentially left to
    right (np.cumsum), and the argmax scans feature-major, so ties go to the
    lowest feature, then the lowest threshold. One complex cumsum advances
    the gradient and hessian sums together; its real and imaginary parts
    are bit for bit the two float cumsums, and complex subtraction is
    componentwise. Gains are computed at the candidate boundaries only;
    every other position would count as 0.0.
    """
    feat, at = split_candidates(xs, min_leaf) if cands is None else cands
    if at.size == 0:
        return NO_SPLIT
    cs = np.cumsum(ghs, axis=1, out=ghs)
    total = cs[:, -1]
    term = total.real * total.real
    term /= total.imag + lam  # gt * gt / (ht + lam), once per feature
    left = cs.ravel()[at]
    right = total[feat]
    right -= left
    # gl * gl / (hl + lam) + gr * gr / (hr + lam) - gt * gt / (ht + lam)
    gl, hl = left.real, left.imag
    gr, hr = right.real, right.imag
    gain = gl * gl
    hl += lam
    gain /= hl
    gr *= gr
    hr += lam
    gr /= hr
    gain += gr
    gain -= term[feat]

    best = int(np.argmax(gain))
    if gain[best] <= 0.0:
        return NO_SPLIT
    n = xs.shape[1]
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
    gh: np.ndarray,
    depth: int,
    hp,
    leaf_of_row: np.ndarray,
    cands: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict:
    """Grow the subtree over one node's samples.

    rows: (m,) the node's sample indices in ascending order. order, xs: (d, m)
    the same samples per feature, sorted by value with ties in sample order,
    and their values; None at max_depth, where only rows are read. A split
    partitions both stably, so each child's rows are what a fresh stable
    argsort of its samples would give. gh: (n,) every sample's gradient
    (real part) and hessian (imaginary part); it is only read. Each leaf's
    value is written to leaf_of_row at its samples. cands: the root's
    split_candidates, built once per fit; every other node builds its own.
    """
    if depth < hp.max_depth and rows.size >= 2 * hp.min_leaf:
        # gh[order] is a fresh gather: the scan's in-place prefix sums never reach gh
        feat, n_left, thr, _ = best_split(xs, gh[order], hp.lam, hp.min_leaf, cands)
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
                    *_cells(xs, order, left), rows[in_left], gh, depth + 1, hp, leaf_of_row
                ),
                "right": _build_tree(
                    *_cells(xs, order, right), rows[~in_left], gh, depth + 1, hp, leaf_of_row
                ),
            }
    # float sums over the samples in their original order: a complex sum
    # would group the additions differently
    leaf = _leaf(float(gh.real[rows].sum()), float(gh.imag[rows].sum()), hp.lam)
    leaf_of_row[rows] = leaf["value"]
    return leaf


def train_gbdt(X, y, hp: GbdtHyper) -> GbdtModel:
    """Boost hp.rounds rounds of 4 per-class trees.

    Each feature column is sorted once per fit (the pre-sorted column blocks
    of XGBoost's exact greedy method, Chen & Guestrin 2016); nodes partition
    those orders instead of sorting again. The root's split candidates,
    which depend on the sorted values only, are likewise found once per fit
    and reused by every tree's root scan.

    A training set with every label identical yields a flagged priors-only
    model (nothing to split on). Fewer than 2*min_leaf samples, or a
    non-finite feature, raises DegenerateData outright.
    """
    X = _training_matrix(X)
    n, d = X.shape
    if n < 2 * hp.min_leaf:
        raise DegenerateData(f"need at least {2 * hp.min_leaf} samples, got {n}")
    Y = _one_hot(y, n)

    counts = Y.sum(axis=0)
    base = np.log(np.maximum(counts / n, _PRIOR_FLOOR))
    degenerate = bool((counts > 0).sum() == 1)

    F = np.tile(base, (n, 1))
    trace: list[float] = []
    trees: list[list[dict]] = []

    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    xs = np.take_along_axis(XT, order, axis=1)
    rows = np.arange(n)
    root = split_candidates(xs, hp.min_leaf)
    leaf_of_row = np.empty(n, dtype=np.float64)
    gh = np.empty(n, dtype=np.complex128)

    rounds = 0 if degenerate else hp.rounds
    P = softmax_rows(F)  # of the margins a round starts from
    trace.append(_log_loss(P, Y))
    for _ in range(rounds):
        round_trees = []
        for c in range(N_CLASSES):
            # assigned, not g + 1j * h, which can flip the sign of a zero
            gh.real = Y[:, c] - P[:, c]
            gh.imag = P[:, c] * (1.0 - P[:, c])
            round_trees.append(_build_tree(xs, order, rows, gh, 0, hp, leaf_of_row, root))
            F[:, c] += hp.learning_rate * leaf_of_row
        trees.append(round_trees)
        P = softmax_rows(F)
        trace.append(_log_loss(P, Y))

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
    if not raw["learning_rate"] > 0:
        raise SchemaViolation("learning_rate", "must be > 0")
    max_depth = _json_int(raw["max_depth"], "max_depth")
    if max_depth < 1:
        raise SchemaViolation("max_depth", "must be >= 1")
    if not isinstance(raw["degenerate"], bool):
        raise SchemaViolation("degenerate", "must be true or false")
    return GbdtModel(
        trees=raw["trees"],
        base_scores=_finite_array(raw, "base_scores", (N_CLASSES,)),
        learning_rate=float(raw["learning_rate"]),
        max_depth=max_depth,
        dim=_json_int(raw["dim"], "dim"),
        degenerate=raw["degenerate"],
        feature_layout=str(raw["feature_layout"]),
    )
