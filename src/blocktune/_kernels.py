"""Hot numeric kernels in vectorized numpy: tree split search, tree and
forest prediction, and assignment repair.

Tree models answer through a cell table. A fitted tree or forest is
constant on each cell of the grid cut by its own thresholds, so
:func:`tabulate` evaluates it once per cell and :func:`table_predict`
answers a batch with one ``searchsorted`` per feature and one gather, bit
for bit what the walk returns. The walks, :func:`tree_predict` and
:func:`forest_predict`, are the reference that fills each table and the
fallback for a model whose grid has more cells than the caller's bound.

All kernels share the same deterministic tie-breaking rules: when several
candidates are equally good, the one encountered first (lowest feature
index, lowest threshold position, lowest block index, lowest transaction
id) wins.
"""

from __future__ import annotations

import math

import numpy as np


def best_split(features, targets, min_samples_leaf):
    """Best (feature, threshold) split by squared-error reduction.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values of each feature column. Returns ``(feature, threshold, gain)``
    with feature = -1 when no admissible split exists.
    """
    n, n_features = features.shape
    total_sq = float(np.dot(targets, targets))
    total_sum = float(targets.sum())
    sse_parent = total_sq - total_sum * total_sum / n

    best_feature = -1
    best_threshold = 0.0
    best_gain = 0.0
    for f in range(n_features):
        order = np.argsort(features[:, f], kind="mergesort")
        xs = features[order, f]
        ys = targets[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        left_n = np.arange(1, n)
        valid = xs[:-1] < xs[1:]
        if min_samples_leaf > 1:
            valid &= (left_n >= min_samples_leaf) & (n - left_n >= min_samples_leaf)
        if not valid.any():
            continue
        sse_left = csq[:-1] - csum[:-1] * csum[:-1] / left_n
        right_n = n - left_n
        rsum = total_sum - csum[:-1]
        sse_right = (total_sq - csq[:-1]) - rsum * rsum / right_n
        gain = sse_parent - sse_left - sse_right
        gain[~valid] = -np.inf
        k = int(np.argmax(gain))
        if gain[k] > best_gain:
            best_gain = float(gain[k])
            best_feature = f
            best_threshold = 0.5 * (xs[k] + xs[k + 1])
    return best_feature, best_threshold, best_gain


def tree_predict(feature, threshold, left, right, value, points):
    """Evaluate one flat-array regression tree on ``points`` (m, n_features)."""
    m = points.shape[0]
    node = np.zeros(m, dtype=np.int64)
    while True:
        f = feature[node]
        active = f >= 0
        if not active.any():
            break
        idx = node[active]
        go_left = points[active, f[active]] <= threshold[idx]
        node[active] = np.where(go_left, left[idx], right[idx])
    return value[node]


def forest_predict(base_value, learning_rate, feature, threshold, left,
                         right, value, tree_offsets, points):
    """Sum of scaled tree predictions over a concatenated flat forest.

    ``tree_offsets`` has one entry per tree plus a trailing sentinel; tree t
    occupies node slots ``[tree_offsets[t], tree_offsets[t + 1])``.
    """
    out = np.full(points.shape[0], base_value, dtype=np.float64)
    for t in range(len(tree_offsets) - 1):
        lo = tree_offsets[t]
        hi = tree_offsets[t + 1]
        out += learning_rate * tree_predict(
            feature[lo:hi], threshold[lo:hi], left[lo:hi] - lo,
            right[lo:hi] - lo, value[lo:hi], points)
    return out


def tabulate(feature, threshold, evaluate, n_features, max_cells):
    """The cell table of a tree model, or None above ``max_cells`` cells.

    ``edges[f]`` is the sorted distinct thresholds on feature f. Cell i of
    feature f is the interval (edges[f][i - 1], edges[f][i]], and the last
    cell lies above every edge. A row goes left when x <= threshold, so
    every point of a cell takes the same path through every tree, and
    ``evaluate`` (a walk) runs once per cell at a representative point: the
    cell's upper edge, or +inf for the last cell. Returns ``(edges, table)``
    with ``table`` shaped ``(len(edges[f]) + 1 for f)``.
    """
    edges = [np.unique(threshold[feature == f]) for f in range(n_features)]
    shape = tuple(e.size + 1 for e in edges)
    if math.prod(shape) > max_cells:
        return None
    grid = np.meshgrid(*(np.append(e, np.inf) for e in edges), indexing="ij")
    points = np.column_stack([g.ravel() for g in grid])
    return edges, evaluate(points).reshape(shape)


def table_predict(edges, table, points):
    """Look ``points`` up in a :func:`tabulate` table. ``side="left"`` puts
    x in the cell whose upper edge is the first threshold >= x; NaN sorts
    above every edge, into the last cell, as the walk sends it right."""
    return table[tuple(np.searchsorted(e, points[:, f], side="left")
                       for f, e in enumerate(edges))]


def repair_assignment(block_of, sizes, nb, ub, cb):
    """Move transactions out of overloaded blocks until none remain.

    Mutates ``block_of`` in place. Each step takes the lowest-index block
    violating the count or byte cap, removes its largest transaction
    (lowest id among equal sizes) and places it in the feasible block with
    the lowest byte load (lowest index among ties). Returns False if a
    transaction cannot be placed anywhere, which a capacity-checked
    instance rules out.
    """
    counts = np.bincount(block_of, minlength=nb)
    loads = np.bincount(block_of, weights=sizes.astype(np.float64),
                        minlength=nb).astype(np.int64)
    block_ids = np.arange(nb)
    while True:
        bad = np.flatnonzero((counts > ub) | (loads > cb))
        if bad.size == 0:
            return True
        j = int(bad[0])
        members = np.flatnonzero(block_of == j)
        i = int(members[np.argmax(sizes[members])])
        s = int(sizes[i])
        ok = (counts + 1 <= ub) & (loads + s <= cb) & (block_ids != j)
        dests = np.flatnonzero(ok)
        if dests.size == 0:
            return False
        d = int(dests[np.argmin(loads[dests])])
        block_of[i] = d
        counts[j] -= 1
        loads[j] -= s
        counts[d] += 1
        loads[d] += s
