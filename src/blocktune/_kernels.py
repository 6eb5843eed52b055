"""Hot numeric kernels in vectorized numpy: tree split search, tree
prediction, cell tables, and assignment repair.

The split search works on a node's groups, not its rows: a group is one
distinct feature row with its row count and target sum, which is all the
squared-error gain of a split needs. Training sets repeat feature rows
heavily (a simulated grid cell gives every block the same features), so a
node of tens of thousands of rows has tens of groups; on all-distinct data
each group is one row and the search is the per-row search it replaces.
This is LightGBM's histogram split search (Ke et al., NeurIPS 2017) with
one bin per distinct value, so nothing is approximated.

A fitted tree or forest is constant on each cell of the grid cut by its
own thresholds, so :func:`tabulate` evaluates it once per cell and
:func:`table_predict` answers a batch with one ``searchsorted`` per
feature and one gather, bit for bit what the walk returns. The walk,
:func:`tree_predict`, fills each table and answers for a model whose grid
has more cells than the caller's bound; a forest is walked one tree at a
time. The caller decides what to tabulate: ``surrogate.PerformancePredictor``
builds one table for its forest and one for its latency tree.

All kernels share the same deterministic tie-breaking rules: when several
candidates are equally good, the one encountered first (lowest feature
index, lowest threshold position, lowest block index, lowest transaction
id) wins. Split gains count as equal within ``TIE_RTOL`` times the node's
sum of squared targets, far above the rounding of the gain formula, so
mathematically equal gains tie however their sums happen to round.
"""

from __future__ import annotations

import math

import numpy as np

# Split gains closer than this times the node's sum of squared targets are
# ties (see best_split).
TIE_RTOL = 1e-12


def best_split(x, counts, sums, sum_sq, min_samples_leaf):
    """Best (feature, threshold) split of a node's groups by squared-error
    reduction.

    A group is one distinct feature row ``x[g]`` of the node, standing for
    ``counts[g]`` training rows whose targets sum to ``sums[g]``; ``sum_sq``
    is the sum of the node's squared targets. Rows of a group share every
    feature value, so a split never divides a group, and its gain is
    ``S_L**2 / n_L + S_R**2 / n_R - S**2 / n`` over the row counts ``n`` and
    target sums ``S`` of the two sides. Candidate thresholds are the
    midpoints between consecutive distinct values of each feature column;
    ``min_samples_leaf`` counts rows. Each feature column sorts the node's G
    groups once, O(G log G), and every array is (G - 1, features).

    Gains within ``TIE_RTOL * sum_sq`` of the best are ties: the
    formula's rounding error is far below that. Among ties the lowest
    feature, then the lowest threshold, wins. Returns
    ``(feature, threshold, gain)``, with feature = -1 when no admissible
    split has a positive gain.
    """
    n = counts.sum()
    total = sums.sum()
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    # row k of each column: the groups up to sorted position k go left
    left_n = np.cumsum(counts[order], axis=0)[:-1]
    left_s = np.cumsum(sums[order], axis=0)[:-1]
    right_n, right_s = n - left_n, total - left_s
    gain = (left_s * left_s / left_n + right_s * right_s / right_n
            - total * total / n)
    valid = ((xs[:-1] < xs[1:]) & (left_n >= min_samples_leaf)
             & (right_n >= min_samples_leaf))
    # feature-major, so candidates run in (feature, threshold) order
    gain = np.where(valid, gain, -np.inf).T.ravel()
    if not (gain.size and gain.max() > 0):
        return -1, 0.0, 0.0
    j = int(np.argmax(gain >= gain.max() - TIE_RTOL * sum_sq))
    f, k = divmod(j, xs.shape[0] - 1)
    return f, float(0.5 * (xs[k, f] + xs[k + 1, f])), float(gain[j])


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
