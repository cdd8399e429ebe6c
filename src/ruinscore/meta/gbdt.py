"""Gradient-boosted regression trees with a softmax objective.

Per round and per class a tree is fit to the negative gradient with Newton
leaf values sum(g)/(sum(h)+lam). Splits are exact greedy over sorted unique
feature values (no histogram binning). Among bit-equal float gains the
lowest feature index, then the lowest threshold, wins; splits that make the
same cut tie in exact arithmetic, but the prefix sums' rounding can still
set their float gains apart and so decide. With zero-randomness training
this makes serialized models bit-reproducible.

The scan only compares neighbouring sorted values and reads one threshold
per split, so a fit turns each feature's values into dense integer ranks
once (`_presort`), in the narrowest unsigned type that holds n - 1: equal
ranks mean equal values, -0.0 == 0.0 included. Every node holds ranks, and
a split's threshold is read from the training matrix through its sample
index. A fit allocates one scratch workspace (`_Workspace`) and every node
of every tree gathers and partitions into it, so the scan's node-sized
arrays are not freed and faulted back in from tree to tree.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..dataset_io import check_number, check_object
from ..errors import DegenerateData, DimensionMismatch, SchemaViolation
from .features import FEATURE_LAYOUT
from .logreg import N_CLASSES, _as_matrix, _finite_array, _json_int, _log_loss, _one_hot
from .logreg import _training_matrix, softmax_rows

if TYPE_CHECKING:
    from .hyper import GbdtHyper

GBDT_FORMAT = "ruinscore-gbdt-v1"
_PRIOR_FLOOR = 1e-12  # keeps log priors finite (and JSON-serializable) for absent classes
NO_SPLIT = (-1, 0, 0.0)
_LEAF_KEYS = frozenset({"value"})
_SPLIT_KEYS = frozenset({"feature", "threshold", "left", "right"})
_FILE_KEYS = frozenset({"format", "feature_layout", "dim", "learning_rate", "max_depth",
                        "degenerate", "base_scores", "trees"})


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
        SchemaViolation at its path, e.g. trees[3][1].left.threshold. A node
        holding "value" is a leaf; a key a leaf or split does not take fails first.

        Nodes are numbered as they are reached, both children of a split at
        once, and walked right child first. A finite float value or threshold
        skips `check_number`.
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
                    keys = _LEAF_KEYS if type(node) is dict and "value" in node else _SPLIT_KEYS
                    check_object(node, keys, where, "tree node must be an object")
                    if level > max_depth:
                        raise SchemaViolation(where, f"node deeper than max_depth {max_depth}")
                    if level > depth:
                        depth = level
                    if keys is _LEAF_KEYS:
                        v = node["value"]
                        if type(v) is not float or not -top <= v <= top:
                            check_number(v, where + ".value")
                            v = float(v)
                        value[idx] = v
                        continue
                    feat = node.get("feature")
                    if not isinstance(feat, int) or isinstance(feat, bool) or not 0 <= feat < dim:
                        raise SchemaViolation(
                            where + ".feature", f"must be an integer in [0, {dim})"
                        )
                    thr = node.get("threshold")
                    if type(thr) is not float or not -top <= thr <= top:
                        check_number(thr, where + ".threshold")
                        thr = float(thr)
                    feature[idx] = feat
                    threshold[idx] = thr
                    if "left" not in node or "right" not in node:
                        side = "right" if "left" in node else "left"
                        raise SchemaViolation(f"{where}.{side}", "missing child")
                    left = len(value)
                    feature += (0, 0)
                    threshold += (0.0, 0.0)
                    value += (0.0, 0.0)
                    child += (left, left, left + 1, left + 1)
                    child[2 * idx] = left
                    child[2 * idx + 1] = left + 1
                    pending.append((left, node["left"], level + 1, where + ".left"))
                    pending.append((left + 1, node["right"], level + 1, where + ".right"))
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
    """A gradient-boosted forest meta-model: per round one tree per class.

    `forest` is `trees` flattened, built on first use and kept: a model that
    is only saved is never flattened. `gbdt_from_dict` flattens at load, so
    a malformed model file fails there, at its node's path.
    """

    trees: list[list[dict]]  # rounds x 4; nodes are nested dicts, leaves {"value": v}
    base_scores: np.ndarray  # (4,) log class priors
    learning_rate: float
    max_depth: int
    dim: int
    degenerate: bool = False
    feature_layout: str = FEATURE_LAYOUT
    loss_trace: list[float] = field(default_factory=list, repr=False)  # not serialized
    # (n, 4) training rows' probabilities from train_gbdt; not serialized
    training_probs: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.trees, list) or not all(
            isinstance(r, list) and len(r) == N_CLASSES for r in self.trees
        ):
            raise SchemaViolation("trees", f"must be an array of rounds of {N_CLASSES} tree objects")

    @cached_property
    def forest(self) -> Forest:
        return Forest.from_trees(self.trees, self.max_depth, self.dim)

    @property
    def rounds(self) -> int:
        return len(self.trees)


def split_candidates(xs: np.ndarray, min_leaf: int) -> tuple[np.ndarray, np.ndarray]:
    """Where one node may split: (feat, at), both empty when nowhere.

    at holds the flat index, in the node's (d, n) prefix sums, of every
    boundary between distinct consecutive sorted values that leaves min_leaf
    samples on both sides, feature-major; feat holds each one's feature. xs
    may hold the values or their ranks: only equality is read. It depends on
    xs and min_leaf only, so a fit builds the root's once.
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
    ghs: np.ndarray, cands: tuple[np.ndarray, np.ndarray], lam: float
) -> tuple[int, int, float]:
    """Best axis-aligned split of one tree node among its candidates.

    ghs is the node's (d, n) complex128 gather: row j holds its samples in
    ascending order of feature j, each packing a gradient (real part) and a
    hessian (imaginary part). The scan overwrites ghs with its prefix sums
    (np.cumsum in place, no new (d, n) array), so pass a gather made for the
    scan (in a fit, the workspace's). cands is the node's
    split_candidates(xs, min_leaf). Returns (feature, n_left, gain): the
    n_left lowest samples of that feature go left, so the threshold is the
    value at sorted position n_left - 1 and x <= threshold routes left. It
    returns NO_SPLIT when no candidate has positive gain.

    The result is deterministic: prefix sums accumulate sequentially left to
    right (np.cumsum), and the argmax scans feature-major, so bit-equal gains
    go to the lowest feature, then the lowest threshold. Candidates that make
    the same cut have equal exact gains but may differ in rounding, and then
    the larger float gain wins whatever its feature. One complex cumsum advances
    the gradient and hessian sums together; its real and imaginary parts
    are bit for bit the two float cumsums, and complex subtraction is
    componentwise. Gains are computed at the candidate boundaries only;
    every other position would count as 0.0.
    """
    feat, at = cands
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
    f = int(feat[best])
    return f, int(at[best]) - f * ghs.shape[1] + 1, float(gain[best])


def _presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fit's root cells of the (n, d) matrix X, both (d, n): order[f],
    the samples stably sorted by feature f (ties in sample order), and
    ranks[f], their dense ranks among feature f's distinct values, in the
    narrowest unsigned type that holds n - 1. Equal ranks mean equal values
    (-0.0 == 0.0), so a boundary between ranks is one between values; the
    sorted float values are dropped once ranked."""
    n = X.shape[0]
    order = np.argsort(X.T, axis=1, kind="stable")
    xs = np.take_along_axis(X.T, order, axis=1)
    ranks = np.zeros(order.shape, dtype=np.min_scalar_type(n - 1))
    np.cumsum(xs[:, 1:] != xs[:, :-1], axis=1, dtype=ranks.dtype, out=ranks[:, 1:])
    return ranks, order


class _Workspace:
    """One fit's scratch arrays, allocated as a single block (so the whole
    of it goes back to the OS when the fit ends) and reused by every node of
    every tree. It is passed down explicitly: two fits never share one.

    gather: flat (d * n,) complex128. A scanning node of m samples gathers
    its packed gradients into the first d * m entries, and the scan's prefix
    sums run there.

    cells: one (ranks, order) pair per depth parity, each a flat (d * n,)
    array of the fit's rank type and of intp; a fit that never scans below
    the root has none. A node at depth k >= 1 holds its sorted ranks and
    sample indices in cells[k % len(cells)] from its offset `base` on. A
    split writes the children that scan into the other pair, the left child
    at the node's base and the right child straight after it, so a subtree
    writes only inside its own root's range, the pending right sibling
    survives its left sibling's subtree, and two pairs serve any max_depth.
    Per cell that is 16 B of gather and 2 x (rank + 8 B of order).
    """

    __slots__ = ("gather", "cells")

    def __init__(self, d: int, n: int, max_depth: int, rank_type: np.dtype) -> None:
        size = d * n
        pairs = min(max_depth - 1, 2)  # depths 1 .. max_depth - 1 scan from cells
        # the orders before the ranks, so every view is aligned to its item
        orders_at = 16 * size
        ranks_at = orders_at + 8 * size * pairs
        block = np.empty(ranks_at + rank_type.itemsize * size * pairs, dtype=np.uint8)
        self.gather = block[:orders_at].view(np.complex128)
        orders = block[orders_at:ranks_at].view(np.intp)
        ranks = block[ranks_at:].view(rank_type)
        self.cells = [
            (ranks[p * size : (p + 1) * size], orders[p * size : (p + 1) * size])
            for p in range(pairs)
        ]


def _cells(
    ranks: np.ndarray,
    order: np.ndarray,
    keep: np.ndarray,
    ranks_out: np.ndarray,
    order_out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The kept cells of each feature row, in their sorted order (a stable
    partition), written to the flat ranks_out and order_out, which hold
    exactly as many cells; returned as (d, kept per row) views of them."""
    at = np.flatnonzero(keep)  # row-major: each row's kept cells in their order
    d = ranks.shape[0]
    return (
        ranks.take(at, out=ranks_out, mode="clip").reshape(d, -1),
        order.take(at, out=order_out, mode="clip").reshape(d, -1),
    )


def _build_tree(
    X: np.ndarray,
    ranks: np.ndarray | None,
    order: np.ndarray | None,
    rows: np.ndarray,
    gh: np.ndarray,
    depth: int,
    hp,
    leaf_of_row: np.ndarray,
    ws: _Workspace,
    base: int = 0,
    cands: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict:
    """Grow the subtree over one node's samples.

    X: the fit's (n, d) training matrix; a split's threshold is read from it
    through the sample index, X[order[f, n_left - 1], f], which is the float
    the sorted values held, signed zero included. rows: (m,) the node's
    sample indices in ascending order. order, ranks: (d, m) the same samples
    per feature, sorted by value with ties in sample order, and the dense
    ranks of their values (`_presort`); None when the node does not scan (at
    max_depth, or under 2 * min_leaf samples), where only rows are read. A
    split partitions both stably, so each child's rows are what a fresh
    stable argsort of its samples would give. gh: (n,) every sample's
    gradient (real part) and hessian (imaginary part); it is only read. Each
    leaf's value is written to leaf_of_row at its samples.

    ws: the fit's workspace. The node gathers into ws.gather and writes the
    cells of the children that scan into ws.cells at base, the offset of
    the node's own cells (0 at the root, whose cells are the fit's presorted
    arrays). The only node-sized arrays a node still allocates are the
    flatnonzero indices of its children's cells and the scan's candidate
    arrays. cands: the root's split_candidates, built once per fit; every
    other node builds its own.
    """
    if ranks is not None:
        d, m = ranks.shape
        ghs = gh.take(order, out=ws.gather[: d * m].reshape(d, m), mode="clip")
        if cands is None:
            cands = split_candidates(ranks, hp.min_leaf)
        feat, n_left, _ = best_split(ghs, cands, hp.lam)
        if feat >= 0:
            goes_left = np.zeros(leaf_of_row.size, dtype=bool)
            goes_left[order[feat, :n_left]] = True
            in_left = goes_left[rows]
            mid = base + d * n_left
            left = right = (None, None)
            if depth + 1 < hp.max_depth:
                ranks_out, order_out = ws.cells[(depth + 1) % len(ws.cells)]
                keep = goes_left[order]
                if n_left >= 2 * hp.min_leaf:
                    left = _cells(ranks, order, keep, ranks_out[base:mid], order_out[base:mid])
                if m - n_left >= 2 * hp.min_leaf:
                    end = base + d * m
                    right = _cells(ranks, order, ~keep, ranks_out[mid:end], order_out[mid:end])
            return {  # the threshold is read before the subtrees reuse this node's cells
                "feature": feat,
                "threshold": float(X[order[feat, n_left - 1], feat]),
                "left": _build_tree(
                    X, *left, rows[in_left], gh, depth + 1, hp, leaf_of_row, ws, base
                ),
                "right": _build_tree(
                    X, *right, rows[~in_left], gh, depth + 1, hp, leaf_of_row, ws, mid
                ),
            }
    # float sums over the samples in their original order: a complex sum
    # would group the additions differently
    value = float(gh.real[rows].sum()) / (float(gh.imag[rows].sum()) + hp.lam)
    leaf_of_row[rows] = value
    return {"value": value}


def train_gbdt(X, y, hp: GbdtHyper) -> GbdtModel:
    """Boost hp.rounds rounds of 4 per-class trees.

    Each feature column is sorted and ranked once per fit (the pre-sorted
    column blocks of XGBoost's exact greedy method, Chen & Guestrin 2016,
    holding lossless integer ranks where LightGBM, Ke et al. 2017, holds
    histogram bins); nodes partition those orders instead of sorting again.
    The root's split candidates, which depend on the ranks only, are
    likewise found once per fit and reused by every tree's root scan, and
    one workspace per fit holds every node's gather and child cells.

    The model carries the training rows' final probabilities in
    training_probs; they equal predict_gbdt_batch(model, X) bit for bit,
    because both add learning_rate times each leaf round by round. Its
    forest is not built until it predicts.

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

    ranks, order = _presort(X)
    rows = np.arange(n)
    root = split_candidates(ranks, hp.min_leaf)
    ws = _Workspace(d, n, hp.max_depth, ranks.dtype)
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
            round_trees.append(
                _build_tree(X, ranks, order, rows, gh, 0, hp, leaf_of_row, ws, 0, root)
            )
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
        training_probs=P,
    )


def predict_gbdt_batch(model: GbdtModel, X) -> np.ndarray:
    """(rows, 4) class probabilities: softmax over the base scores plus the
    scaled outputs of every tree, added round by round so each margin sums
    in the same order as when the model was trained. The whole batch is
    walked at once; commands hand it at most one chunk."""
    X = _as_matrix(X)
    if X.shape[1] != model.dim:
        raise DimensionMismatch(model.dim, X.shape[1])
    F = np.tile(model.base_scores, (X.shape[0], 1))
    leaves = model.forest.leaf_values(X).reshape(X.shape[0], model.rounds, N_CLASSES)
    for r in range(model.rounds):
        F += model.learning_rate * leaves[:, r, :]
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
    check_object(raw, _FILE_KEYS)
    check_number(raw["learning_rate"], "learning_rate")
    if not raw["learning_rate"] > 0:
        raise SchemaViolation("learning_rate", "must be > 0")
    max_depth = _json_int(raw["max_depth"], "max_depth")
    if max_depth < 1:
        raise SchemaViolation("max_depth", "must be >= 1")
    if not isinstance(raw["degenerate"], bool):
        raise SchemaViolation("degenerate", "must be true or false")
    model = GbdtModel(
        trees=raw["trees"],
        base_scores=_finite_array(raw, "base_scores", (N_CLASSES,)),
        learning_rate=float(raw["learning_rate"]),
        max_depth=max_depth,
        dim=_json_int(raw["dim"], "dim"),
        degenerate=raw["degenerate"],
        feature_layout=str(raw["feature_layout"]),
    )
    model.forest  # flattened at load, so every node is checked here
    return model
