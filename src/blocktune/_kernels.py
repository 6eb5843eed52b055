"""Hot numeric kernels in vectorized numpy: distinct rows (for fitting and
sweep ranks), tree split search, tree prediction, cell tables, and
assignment repair.

The split search works on groups, not rows: a group is one distinct
feature row with its row count and target sum, which is all the
squared-error gain of a split needs. Training sets repeat feature rows
heavily (a simulated grid cell gives every block the same features), so a
tree of tens of thousands of rows has tens of groups; on all-distinct data
each group is one row (see :func:`level_splits` for what a level costs).
This is LightGBM's histogram split search (Ke et al., NeurIPS 2017) with
one bin per distinct value, so nothing is approximated. A fit builds one
:func:`split_plan` of what none of its rounds changes, and
:func:`level_splits` searches every node of one tree depth in one pass
over the plan's arrays, each node seeing only its own groups.

A tree model is a node set: its trees' nodes back to back in arrays, with
an internal node's two children adjacent, left first, at global indices
after it, so a node stores only its ``left``. A tree's root is a node no
other node points to, and the walk, :func:`forest_predict`, answers every
tree from its roots in one call. A fitted model is constant on each cell
of the grid cut by its own thresholds, so :func:`tabulate` walks it once
per cell and :func:`table_predict` answers a batch with one
``searchsorted`` per feature and one gather, bit for bit what the walk
returns. The caller decides what to tabulate.

:func:`repair_assignment` is the one placement rule of repair: a moved
transaction goes to the least-loaded block that still fits both caps. From
an all-unplaced start it is worst-fit decreasing packing (Johnson, JCSS
1974). It repairs a whole (P, n) matrix of assignments in one pass: the
counts and the loads of every row come from ``bincount`` calls, the
members to evict from one sort, and each step of its loop makes one move
in every row still draining, so a generation costs as many steps as its
busiest row has moves, not one Python iteration per row and move. It keeps
every row's counts and loads up to date through its moves and reports the
final ones, so a caller that prices the repaired rows need not count them
again.

All kernels share the same deterministic tie-breaking rules: when several
candidates are equally good, the one encountered first (lowest feature
index, lowest threshold position, lowest block index, lowest transaction
id) wins. Split gains count as equal within ``TIE_RTOL`` times the node's
sum of squared targets, far above the rounding of the gain formula, so
mathematically equal gains tie however their sums happen to round.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

# Split gains closer than this times the node's sum of squared targets are
# ties (see level_splits).
TIE_RTOL = 1e-12
# The most values one array of a level_splits pass holds, four per (node,
# feature, group) cell, unless one node's groups alone hold more: a pass's
# arrays stay at 128 kB each. Passes of 2**16 and 2**18 values fitted trees
# of depth 6 on 1,000 distinct rows up to 1.3x slower.
_LEVEL_CELLS = 1 << 14
# The most (row, tree) cells in one chunk of forest_predict: its arrays stay
# in cache, and chunks of _LEVEL_CELLS walked slower than one tree at a time.
_WALK_CELLS = 1 << 14


def group_rows(*columns):
    """The distinct rows of the 1-D ``columns`` in lexicographic order, the
    first column first: ``(first, inverse, counts)``, one row index per
    group, each row's group and each group's row count, as ``np.unique``
    of the stacked NaN-free rows with ``axis=0`` finds them, ten times as fast.

    An argsort of the last column and a stable argsort of each earlier one
    order the rows, in a third of ``np.lexsort``'s time, and a group starts
    wherever a column differs from its sorted neighbour.
    """
    order = np.argsort(columns[-1])
    for column in columns[-2::-1]:
        order = order[np.argsort(column[order], kind="stable")]
    start = np.zeros(order.size, dtype=bool)
    start[:1] = True
    for column in columns:
        ordered = column[order]
        start[1:] |= ordered[1:] != ordered[:-1]
    inverse = np.empty(order.size, dtype=np.int64)
    inverse[order] = np.cumsum(start) - 1
    starts = np.flatnonzero(start)
    return order[starts], inverse, np.diff(starts, append=order.size)


# What no round of a fit changes in its split search: (feature, group) arrays,
# a row per feature that can win (``features``), each in that feature's stable
# sorted group ``order``: the sorted ``values``, row ``counts`` as floats, the
# ``cuts`` ending runs of equal values, and the ``root_cuts`` that leave the
# root ``least`` rows or more a side.
SplitPlan = namedtuple("SplitPlan", "features order values counts cuts root_cuts least")


def _cuts(values):
    """Where each row of the sorted ``values`` ends a run of equal values."""
    cuts = np.zeros(values.shape, dtype=bool)
    cuts[:, :-1] = values[:, :-1] < values[:, 1:]
    return cuts


def split_plan(x, counts, min_samples_leaf):
    """The SplitPlan of the groups ``x`` (G, F), distinct rows in
    lexicographic order holding ``counts`` rows each. A feature drops out
    when it is constant, or when its order and cuts, so every prefix set it
    offers, are an earlier kept feature's: its sums match that feature's
    bit for bit, so it can only tie, and ties go to the lower feature. One
    tx size makes ``block_bytes`` a multiple of ``tx_count``."""
    order = np.argsort(x, axis=0, kind="stable").T
    values = np.take_along_axis(x.T, order, axis=1)
    cuts = _cuts(values)
    kept = []
    for f in range(order.shape[0]):
        if cuts[f].any() and not any(np.array_equal(order[g], order[f])
                                     and np.array_equal(cuts[g], cuts[f])
                                     for g in kept):
            kept.append(f)
    ranked = counts[order[kept]].astype(np.float64)
    left = ranked.cumsum(axis=1)
    least = max(min_samples_leaf, 1)
    root_cuts = cuts[kept] & (np.minimum(left, left[:, -1:] - left) >= least)
    return SplitPlan(np.array(kept, dtype=np.int64), order[kept], values[kept], ranked,
                     cuts[kept], root_cuts, least)


def _passes(node_of, n_nodes, per_group):
    """The (first, end) node ranges of the passes of a level too big for
    one: runs of nodes whose number times their groups times ``per_group``
    stays within _LEVEL_CELLS, or one node."""
    ranges, lo, held = [], 0, 0
    for k, size in enumerate(np.bincount(node_of, minlength=n_nodes)[:n_nodes].tolist()):
        if k > lo and (k + 1 - lo) * (held + size) * per_group > _LEVEL_CELLS:
            ranges.append((lo, k))
            lo, held = k, 0
        held += size
    return ranges + [(lo, n_nodes)]


def level_splits(plan, sums, node_of, sum_sq):
    """Best (feature, threshold) split of every node of a tree level by
    squared-error reduction, in one array pass per block of nodes.

    A group stands for its ``plan.counts`` rows, whose targets sum to
    ``sums[g]``. ``node_of[g]`` is group g's node in [0, K), or K for a
    group of no node searched here; None is the root, holding every group.
    ``sum_sq[k]`` is node k's sum of squared targets. A split never divides
    a group, and its gain is ``S_L**2 / n_L + S_R**2 / n_R - S**2 / n`` over
    the row counts ``n`` and target sums ``S`` of the two sides.

    A node's prefix sums are cumulative sums over (node, feature, group)
    arrays in each feature's order holding zeros at other nodes' groups;
    adding 0.0 is exact, so they sum its own groups in its own order, and
    its totals are the first kept feature's. A candidate is a cut, the end
    of a run of equal values, that leaves ``plan.least`` rows or more on
    each side. Cuts with no member of the node between them repeat a prefix
    and its gain bit for bit, so only the one after the node's last left
    member can win; the threshold is the midpoint of that member's value
    and the next member's.

    A pass costs about 15 array operations over four values per (node,
    feature, group) cell. When every node of the level fits in one pass of
    ``_LEVEL_CELLS`` values, it searches the plan's arrays whole, leaf
    groups included. Otherwise each pass holds a run of nodes whose own
    groups fit, or one node, and gathers those groups, each feature's in its
    order, with the cuts between their values.

    Gains within ``TIE_RTOL * sum_sq[k]`` of node k's best are ties: the
    formula's rounding error is far below that. Among ties the lowest
    feature, then the lowest threshold, wins. Returns ``(feature,
    threshold, gain)``, arrays of K entries; a node whose gain is not
    positive (-inf without a candidate) does not split.
    """
    n_nodes = sum_sq.size
    ranked = sums[plan.order]
    if not ranked.size:
        return np.full(n_nodes, -1), np.zeros(n_nodes), np.full(n_nodes, -np.inf)
    stats = np.array((plan.counts, ranked))
    ranked_node = None if node_of is None else node_of[plan.order]
    whole = node_of is None or 4 * n_nodes * ranked.size <= _LEVEL_CELLS
    found = []
    for lo, hi in [(0, n_nodes)] if whole else _passes(node_of, n_nodes, 4 * ranked.shape[0]):
        values, cuts, part, part_node = plan.values, plan.cuts, stats, ranked_node
        if not whole:
            # only the pass's groups, each feature's in its order, and the
            # cuts between their values
            kept = (ranked_node >= lo) & (ranked_node < hi)
            values, part_node = (a[kept].reshape(len(kept), -1) for a in (values, ranked_node))
            cuts, part = _cuts(values), stats[:, kept].reshape((2,) + values.shape)
        # Row counts and target sums left and right of each position,
        # (side, count or sum, node, feature, group); a count of 0 divides as 1.
        sides = np.empty((2, 2, hi - lo) + values.shape)
        if node_of is None:
            np.cumsum(part[:, None], axis=-1, out=sides[0])
        else:
            member = part_node == np.arange(lo, hi)[:, None, None]
            np.cumsum(np.where(member, part[:, None], 0.0), axis=-1, out=sides[0])
        np.subtract(sides[0, :, :, :, -1:], sides[0], out=sides[1])
        (n, s), rows = sides[0, :, :, :1, -1:], sides[:, 0]
        cuts = (plan.root_cuts if node_of is None
                else cuts & (rows.min(axis=0) >= plan.least))
        ratio = sides[:, 1] * sides[:, 1] / np.maximum(rows, 1.0)
        cand = np.where(cuts, ratio[0] + ratio[1] - s * s / n, -np.inf).reshape(hi - lo, -1)
        best = cand.max(axis=1)
        # cells run in (feature, position) order
        first = (cand >= (best - TIE_RTOL * sum_sq[lo:hi])[:, None]).argmax(axis=1)
        k, f = np.arange(hi - lo), first // values.shape[1]
        # the node's next member after the cut: the first prefix of more rows
        after = (rows[0, k, f] > rows[0].reshape(hi - lo, -1)[k, first][:, None]).argmax(axis=1)
        found.append((plan.features[f], 0.5 * (values.take(first) + values[f, after]),
                      cand[k, first]))
    return found[0] if len(found) == 1 else tuple(np.concatenate(a) for a in zip(*found))


def forest_predict(feature, threshold, left, value, roots, points, base=0.0, rate=1.0):
    """``base`` plus ``rate`` times each tree's leaf value at ``points`` (m,
    n_features), added in ``roots`` order by a ``cumsum``, which adds in
    sequence. Every row walks every tree at once, a level per step, in row
    chunks of at most ``_WALK_CELLS`` (row, tree) cells. A row goes left,
    to ``left``, when x <= threshold, and otherwise, NaN included, right, to
    ``left + 1``."""
    out, t = np.empty(points.shape[0]), roots.size
    step = max(1, _WALK_CELLS // max(t, 1))
    for lo in range(0, out.size, step):
        rows = points[lo:lo + step]
        n, flat = rows.shape[0], rows.ravel()
        node, offset = np.tile(roots, n), np.repeat(np.arange(n) * rows.shape[1], t)
        while (active := feature[node] >= 0).any():
            idx = node[active]
            x = flat[offset[active] + feature[idx]]
            node[active] = left[idx] + ~(x <= threshold[idx])
        terms = np.column_stack((np.full(n, base), rate * value[node].reshape(n, t)))
        out[lo:lo + n] = np.cumsum(terms, axis=1)[:, -1]
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


def repair_assignment(block_of, sizes, nb, ub, cb, out=None, weights=None):
    """Move transactions until every block fits the count cap ``ub`` and the
    byte cap ``cb``, in place, in every row of ``block_of`` (P, n) at once; a
    1-D ``block_of`` is one row, of any integer dtype that holds ``nb``
    (its bins are int64 whatever it is). An entry equal to ``nb`` is
    unplaced.

    Within a row, overloaded blocks drain in index order, then the unplaced
    transactions are placed. A block gives up its members largest first
    (lowest id among equal sizes) until it fits; each goes to the
    least-loaded block in [0, nb) with a free slot (lowest index among
    ties), and a row wedges when that block lacks the bytes. A move never
    overloads its destination and an overloaded block never fits, so each
    row's overloaded blocks are found once, and their members, sorted by
    (block, size rank), are the row's eviction queue. Each step of the loop
    takes one queue entry of every row still draining: a row whose current
    block already fits jumps to its next overloaded block, untouched and so
    still overloaded, and moves that entry. Rows never share a block, so a
    step's moves are independent, and the loop runs as many steps as the
    busiest row has moves. Returns True iff every row fits; a wedged row
    keeps the moves made before the transaction that fits nowhere.

    ``out``, when given, is a pair of arrays shaped (P, nb), or (nb,) for a
    1-D row, such as one (2, P, nb) array; it receives every row's final
    per-block transaction counts and byte loads over the blocks [0, nb).
    ``weights`` is ``sizes`` as float64 repeated over at least P rows, flat,
    which a caller repairing many batches can build once; it is built here
    when omitted. A scalar ``weights`` is the size of every transaction:
    the loads are then the counts times it, with no weighted ``bincount``.
    """
    rows = block_of if block_of.ndim == 2 else block_of[None, :]
    p, n = rows.shape
    width = nb + 1
    if weights is None:
        weights = np.broadcast_to(sizes.astype(np.float64), rows.shape).ravel()
    # bin r * width + j is block j of row r; bin r * width + nb is unplaced
    bins = (rows + (np.arange(p) * width)[:, None]).ravel()
    counts = np.bincount(bins, minlength=p * width)
    loads = (counts * weights if np.isscalar(weights) else
             np.bincount(bins, weights=weights[:p * n],
                         minlength=p * width).astype(np.int64))
    counts2, loads2 = counts.reshape(p, width), loads.reshape(p, width)
    unplaced = np.arange(p * width) % width == nb
    # the unplaced bin has room for nothing
    count_cap = np.where(unplaced, 0, ub)
    byte_cap = np.where(unplaced, 0, cb)
    overloaded = (counts > count_cap) | (loads > byte_cap)
    placed = True
    if overloaded.any():
        queue = np.flatnonzero(overloaded[bins])
        rank = np.empty(n, dtype=np.int64)
        rank[np.argsort(-sizes, kind="stable")] = np.arange(n)
        queue = queue[np.argsort(bins[queue] * n + rank[queue % n])]
        q_bin, q_row, q_member = bins[queue], queue // n, queue % n
        q_size = sizes[q_member]
        # each entry's next block: the first entry of the following bin
        firsts = np.flatnonzero(np.r_[True, q_bin[1:] != q_bin[:-1]])
        bounds = np.append(firsts, queue.size)
        next_block = np.repeat(bounds[1:], np.diff(bounds))
        heads = np.flatnonzero(np.r_[True, q_row[1:] != q_row[:-1]])
        ptr, end = heads, np.append(heads[1:], queue.size)
        while ptr.size:
            b = q_bin[ptr]
            ptr = np.where((counts[b] <= count_cap[b]) & (loads[b] <= byte_cap[b]),
                           next_block[ptr], ptr)
            live = ptr < end
            ptr, end = ptr[live], end[live]
            r = q_row[ptr]
            # The least-loaded block with a free slot has the bytes for s if
            # any block with a free slot has them.
            slot_loads = np.where(counts2[r, :nb] < ub, loads2[r, :nb], cb + 1)
            d = np.argmin(slot_loads, axis=1)
            s = q_size[ptr]
            fits = slot_loads[np.arange(r.size), d] + s <= cb
            if not fits.all():
                placed = False
                ptr, end, r, d, s = ptr[fits], end[fits], r[fits], d[fits], s[fits]
            rows[r, q_member[ptr]] = d
            src, dst = q_bin[ptr], r * width + d
            counts[src] -= 1
            loads[src] -= s
            counts[dst] += 1
            loads[dst] += s
            ptr += 1
            live = ptr < end
            ptr, end = ptr[live], end[live]
    if out is not None:
        out[0][...] = counts2[:, :nb]
        out[1][...] = loads2[:, :nb]
    return placed
