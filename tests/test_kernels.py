"""Numeric kernels: distinct rows against ``np.unique``, the split plan's
features, the level split search against a per-row search, its tie rule
and its nodes searched together or apart, and repair, of one row or a
matrix of rows, int64 or one byte wide, against the per-move scan and the
from-scratch packing it replaced, and the counts and loads it reports."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocktune import _kernels
from blocktune.ga import initialize_population
from blocktune.model import block_stats

from conftest import make_instance


@st.composite
def _tied_columns(draw):
    """One to three columns of one length, up to 60 rows, each int64 or
    float64 drawn from a handful of values so that rows tie often."""
    n = draw(st.integers(0, 60))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            values, dtype = st.integers(-2, 2), np.int64
        else:
            values, dtype = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0, 1e300]), np.float64
        columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n)),
                                dtype=dtype))
    return columns


# Past 16 rows numpy's sorts leave insertion sort, so an unstable sort
# could reorder ties: here every column ties often.
@example([np.arange(40) % 2, np.arange(40) % 7 * 0.5, np.arange(40)[::-1] % 3])
@example([np.array([], dtype=np.int64), np.array([])])
@example([np.array([2.0])])
@settings(max_examples=300, deadline=None)
@given(_tied_columns())
def test_group_rows_matches_unique(columns):
    """The distinct rows of the columns, each row's group and each group's
    count are those of ``np.unique`` over the stacked rows, in
    lexicographic order, also for no rows and one row."""
    first, inverse, counts = _kernels.group_rows(*columns)
    rows = np.column_stack(columns)
    unique, want_inverse, want_counts = np.unique(rows, axis=0, return_inverse=True,
                                                  return_counts=True)
    np.testing.assert_array_equal(rows[first], unique)
    np.testing.assert_array_equal(inverse, want_inverse.reshape(-1))
    np.testing.assert_array_equal(counts, want_counts)


def split_inputs(points, targets):
    """The grouped search's inputs for one node holding the rows ``points``,
    ``targets``: (x, counts, sums, sum_sq)."""
    x, inverse = np.unique(points, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    return (x, np.bincount(inverse), np.bincount(inverse, weights=targets),
            float(targets @ targets))


def as_split(feature, threshold, gain):
    """A searched node's (feature, threshold, gain), or (-1, 0.0, 0.0) when
    its best gain is not positive and it does not split."""
    return (int(feature), float(threshold), float(gain)) if gain > 0 else (-1, 0.0, 0.0)


def one_node_split(x, counts, sums, sum_sq, min_samples_leaf):
    """(feature, threshold, gain) of the root of a plan of its own, holding
    every group."""
    plan = _kernels.split_plan(x, counts, min_samples_leaf)
    got = _kernels.level_splits(plan, sums, None, np.array([sum_sq]))
    return as_split(*(a[0] for a in got))


def row_gain(points, targets, f, threshold):
    """Squared-error reduction of splitting the rows at x[f] <= threshold,
    from each side's deviations about its own mean."""
    def sse(y):
        return float(((y - y.mean()) ** 2).sum()) if y.size else 0.0
    go_left = points[:, f] <= threshold
    return sse(targets) - sse(targets[go_left]) - sse(targets[~go_left])


def row_best_gain(points, targets, min_samples_leaf):
    """The best gain over every admissible split of the rows, trying every
    midpoint between consecutive distinct values of every feature."""
    best = None
    for f in range(points.shape[1]):
        values = np.unique(points[:, f])
        for threshold in 0.5 * (values[:-1] + values[1:]):
            n_left = int((points[:, f] <= threshold).sum())
            if min(n_left, targets.size - n_left) >= min_samples_leaf:
                gain = row_gain(points, targets, f, threshold)
                best = gain if best is None else max(best, gain)
    return best


def test_level_split_no_valid_split():
    """One distinct row has no threshold; two distinct rows cannot both
    leave min_samples_leaf rows on each side."""
    one = split_inputs(np.ones((4, 3)), np.array([1.0, 2.0, 3.0, 4.0]))
    assert one_node_split(*one, 1) == (-1, 0.0, 0.0)
    points = np.array([[1.0, 0.0, 0.0]] * 3 + [[2.0, 0.0, 0.0]])
    two = split_inputs(points, np.array([1.0, 1.0, 1.0, 5.0]))
    assert one_node_split(*two, 1)[0] == 0
    assert one_node_split(*two, 2) == (-1, 0.0, 0.0)


# A latency-tree node fitted on the tune-mixed-3node-n200 benchmark
# workload at seed 1: 30 rows of (40 tx, 408,960 B) and 20 rows of
# (60 tx, 368,040 B), all at 1 MB/s. tx_count <= 50 and block_bytes <= 388,500
# cut them into mirror-image partitions with equal gains. A search that
# summed the rows in each feature's sort order picked block_bytes, only
# because its rounding fell that way.
NODE_ROWS = np.array([[40.0, 408960.0, 1e6]] * 30 + [[60.0, 368040.0, 1e6]] * 20)
NODE_TARGETS = np.array([
    0.5634004280178154, 0.5621003447515712, 0.5558324194514173, 0.5623084849770117,
    0.560325494230458, 0.5609583096217563, 0.5571652192729099, 0.5581485590891092,
    0.5593959977809628, 0.5590471091893, 0.557895232557252, 0.5635608660083152,
    0.5617210298221187, 0.5587825575422353, 0.557883022267994, 0.5616664348723188,
    0.5601026280870337, 0.5601334787556065, 0.560261038872318, 0.5609252528105584,
    0.5577120621339525, 0.5558400825795973, 0.5604272147110483, 0.5608766484485137,
    0.5617633987606788, 0.5579499890014407, 0.5602329733296334, 0.5557007065148426,
    0.5556353363364047, 0.5626027131015968, 0.5564054041023518, 0.5516517017521174,
    0.5576542015829384, 0.5576059648174619, 0.5585646350111653, 0.5554694921043442,
    0.5543236563371758, 0.5579279650490835, 0.5558366696887085, 0.5549531748636848,
    0.5550906879356565, 0.5589878849058881, 0.558482668269012, 0.557868909499065,
    0.5572227750014128, 0.5552956908254867, 0.5571111915361373, 0.5580939596466652,
    0.5531942075472408, 0.5568289905734848])


def test_mirror_partition_tie_goes_to_lowest_feature():
    f, threshold, _ = one_node_split(*split_inputs(NODE_ROWS, NODE_TARGETS), 5)
    assert (f, threshold) == (0, 50.0)


def test_rounding_tie_goes_to_lowest_feature(monkeypatch):
    """Both features put groups 0-2 left of group 3, in opposite orders, so
    the left sums accumulate in different orders and the two equal gains
    round apart; the tolerance makes them a tie."""
    x = np.array([[1.0, 3.0, 0.0], [2.0, 2.0, 0.0], [3.0, 1.0, 0.0], [4.0, 4.0, 0.0]])
    sums = np.array([0.4, 0.8, 0.6, 3.1])
    args = (x, np.ones(4, dtype=np.int64), sums, float(sums @ sums), 1)
    assert one_node_split(*args)[:2] == (0, 3.5)
    monkeypatch.setattr(_kernels, "TIE_RTOL", 0.0)
    assert one_node_split(*args)[:2] == (1, 3.5)


@st.composite
def _grouped_rows(draw):
    """Rows of a few distinct feature rows on a small grid, each repeated,
    in shuffled order, with targets from a small set."""
    n_groups = draw(st.integers(1, 6))
    distinct = draw(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=n_groups,
                             max_size=n_groups, unique=True))
    repeats = draw(st.lists(st.integers(1, 5), min_size=n_groups, max_size=n_groups))
    points = np.repeat(np.array(distinct, dtype=np.float64), repeats, axis=0)
    targets = np.array(draw(st.lists(st.sampled_from([-2.0, 0.0, 0.1, 0.7, 1.0, 3.5]),
                                     min_size=len(points), max_size=len(points))))
    order = np.array(draw(st.permutations(range(len(points)))), dtype=np.int64)
    return points[order], targets[order], draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(_grouped_rows())
def test_grouped_split_matches_row_search(case):
    """The grouped kernel reaches the best gain of an exhaustive per-row
    search, and the split it returns attains that gain on the rows."""
    points, targets, min_samples_leaf = case
    f, threshold, gain = one_node_split(*split_inputs(points, targets),
                                        min_samples_leaf)
    best = row_best_gain(points, targets, min_samples_leaf)
    atol = 1e-9 * float(targets @ targets)
    if best is None or best <= atol:
        assert f == -1 or gain <= atol
        return
    assert f >= 0
    assert np.isclose(gain, best, rtol=1e-9, atol=atol)
    assert np.isclose(row_gain(points, targets, f, threshold), best, rtol=1e-9, atol=atol)
    values = np.unique(points[:, f])
    assert threshold in 0.5 * (values[:-1] + values[1:])


def grouped(columns, repeats=2):
    """A :func:`_grouped_rows` case: the rows of ``columns``, each repeated,
    with targets that differ from row to row, and min_samples_leaf 1."""
    points = np.repeat(np.column_stack(columns).astype(np.float64), repeats, axis=0)
    return points, np.sin(np.arange(points.shape[0]) * 1.7) + 1.0, 1


COUNT = np.array([1.0, 2, 3, 4, 2, 3])
OTHER = np.array([0.0, 0, 1, 1, 2, 2])
# block_bytes a multiple of tx_count, as on a grid of one tx size
COLLINEAR = grouped([COUNT, 3 * COUNT, OTHER])
# one bandwidth
CONSTANT = grouped([COUNT, OTHER, np.full(6, 5.0)])
# cut where the counts are, in the opposite order
REVERSED = grouped([COUNT, 10 - COUNT, OTHER])


@pytest.mark.parametrize("case, features", [
    (COLLINEAR, [0, 2]), (CONSTANT, [0, 1]), (REVERSED, [0, 1, 2]),
    # cut at the same positions as tx_count, but in another order
    (grouped([np.arange(4.0), [2.0, 0, 3, 1], np.zeros(4)]), [0, 1])])
def test_plan_drops_the_features_that_cannot_win(case, features):
    """A constant feature drops out, and so does one whose sorted order and
    cuts are an earlier kept feature's; a feature cut at the same
    positions in another order stays."""
    x, counts, _, _ = split_inputs(*case[:2])
    plan = _kernels.split_plan(x, counts, 1)
    assert plan.features.tolist() == features
    order = np.argsort(x, axis=0, kind="stable").T[features]
    np.testing.assert_array_equal(plan.order, order)
    np.testing.assert_array_equal(plan.values, np.take_along_axis(x.T[features], order, 1))


@settings(max_examples=200, deadline=None)
@given(_grouped_rows(), st.lists(st.integers(-1, 3), min_size=6, max_size=6),
       st.sampled_from([1, 100, 1 << 20]))
@example(COLLINEAR, [0, 1, 1, 0, 2, -1], 1)
@example(CONSTANT, [1, 1, 0, 0, 1, 0], 100)
@example(REVERSED, [0, 0, 0, 1, 1, 1], 1 << 20)
def test_level_searches_each_node_alone(case, nodes, cells):
    """A level's split per node is, bit for bit, the node's split searched
    alone as the root of a plan of its own, whether the level's nodes
    share one pass, some passes hold several nodes, or each pass holds as
    few values as the bound allows; a group of node K, past the level's K
    nodes, is searched in none."""
    points, targets, min_samples_leaf = case
    x, counts, sums, _ = split_inputs(points, targets)
    node_of = np.array(nodes[:counts.size], dtype=np.int64)
    if not (node_of >= 0).any():
        return
    present = np.unique(node_of[node_of >= 0])
    node_of = np.where(node_of >= 0, np.searchsorted(present, node_of), present.size)
    mine = node_of < present.size
    # any tie scale serves, as both searches of a node get the same one
    sum_sq = np.bincount(node_of[mine], weights=sums[mine] ** 2)
    plan = _kernels.split_plan(x, counts, min_samples_leaf)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_LEVEL_CELLS", cells)
        got = _kernels.level_splits(plan, sums, node_of, sum_sq)
    assert all(a.shape == (present.size,) for a in got)
    for k in range(present.size):
        mine = node_of == k
        alone = one_node_split(x[mine], counts[mine], sums[mine], sum_sq[k],
                               min_samples_leaf)
        assert as_split(*(a[k] for a in got)) == alone


def _check_repaired(block_of, start, sizes, nb, ub, cb):
    counts = np.bincount(block_of, minlength=nb)
    loads = np.bincount(block_of, weights=sizes.astype(float), minlength=nb)
    assert (counts <= ub).all()
    assert (loads <= cb).all()
    assert counts.sum() == start.size
    assert loads.sum() == sizes.sum()
    assert ((block_of >= 0) & (block_of < nb)).all()


def test_repair_feasibility_loop():
    """Whenever repair reports success on a random instance, every block is
    within both caps and no transaction or byte is lost."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        nb = int(rng.integers(2, 8))
        sizes = rng.integers(10, 500, size=n).astype(np.int64)
        ub = int(rng.integers(1, n + 1))
        cb = int(max(sizes.max(), rng.integers(500, 3000)))
        while nb * ub < n or nb * cb < sizes.sum():
            ub = min(n, ub + 1)
            cb *= 2
        start = rng.integers(0, nb, size=n).astype(np.int64)
        block_of = start.copy()
        if _kernels.repair_assignment(block_of, sizes, nb, ub, cb):
            _check_repaired(block_of, start, sizes, nb, ub, cb)


@st.composite
def _repairable(draw):
    """A start assignment on an instance where repair cannot wedge: either
    only the count cap can bind (nb * ub >= n, cb >= total bytes), or only
    the byte cap can (ub = n, cb >= twice the largest transaction,
    nb * cb >= twice the total bytes)."""
    n = draw(st.integers(1, 40))
    nb = draw(st.integers(2, 8))
    sizes = np.array(draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n)),
                     dtype=np.int64)
    total, largest = int(sizes.sum()), int(sizes.max())
    if draw(st.booleans()):
        ub = draw(st.integers(-(-n // nb), n))
        cb = draw(st.integers(total, 2 * total))
    else:
        ub = n
        cb = draw(st.integers(max(2 * largest, -(-2 * total // nb)),
                              2 * (total + largest)))
    start = np.array(draw(st.lists(st.integers(0, nb - 1), min_size=n, max_size=n)),
                     dtype=np.int64)
    return start, sizes, nb, ub, cb


@settings(max_examples=200, deadline=None)
@given(_repairable())
def test_repair_feasible_and_conserving(case):
    start, sizes, nb, ub, cb = case
    block_of = start.copy()
    assert _kernels.repair_assignment(block_of, sizes, nb, ub, cb) is True
    _check_repaired(block_of, start, sizes, nb, ub, cb)


def scan_repair(block_of, sizes, nb, ub, cb):
    """Reference repair on a start in [0, nb): rebuild the counts and loads
    after every move, take the lowest-index overloaded block's largest
    transaction (lowest id among equal sizes) and move it to the other
    block with the lowest load that fits it (lowest index among ties).
    Returns False when a transaction fits nowhere."""
    block_ids = np.arange(nb)
    while True:
        counts = np.bincount(block_of, minlength=nb)
        loads = np.bincount(block_of, weights=sizes, minlength=nb).astype(np.int64)
        bad = np.flatnonzero((counts > ub) | (loads > cb))
        if bad.size == 0:
            return True
        j = int(bad[0])
        members = np.flatnonzero(block_of == j)
        i = int(members[np.argmax(sizes[members])])
        s = int(sizes[i])
        dests = np.flatnonzero((counts + 1 <= ub) & (loads + s <= cb) & (block_ids != j))
        if dests.size == 0:
            return False
        block_of[i] = int(dests[np.argmin(loads[dests])])


def greedy_repack(sizes, nb, ub, cb):
    """Reference from-scratch packing: transactions by descending size (ids
    break ties) into the feasible block with the lowest byte load. Returns
    (placed all, assignment), with nb for every transaction not placed."""
    block_of = np.full(sizes.size, nb, dtype=np.int64)
    counts = np.zeros(nb, dtype=np.int64)
    loads = np.zeros(nb, dtype=np.int64)
    for i in np.lexsort((np.arange(sizes.size), -sizes)):
        s = int(sizes[i])
        cands = np.flatnonzero((counts + 1 <= ub) & (loads + s <= cb))
        if cands.size == 0:
            return False, block_of
        d = int(cands[np.argmin(loads[cands])])
        block_of[i] = d
        counts[d] += 1
        loads[d] += s
    return True, block_of


def row_dtypes(nb):
    """The row dtypes repair is checked on: int64, and the GA population's
    narrowest type that holds the unplaced marker nb."""
    return np.int64, np.min_scalar_type(nb)


@st.composite
def _any_repair_case(draw):
    """A start assignment on an instance whose caps may be too tight for
    local moves or for any packing: sizes from a small range, so ties are
    common, and caps anywhere from the largest transaction up."""
    n = draw(st.integers(1, 30))
    nb = draw(st.integers(1, 6))
    sizes = np.array(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)),
                     dtype=np.int64)
    ub = draw(st.integers(1, n))
    cb = draw(st.integers(int(sizes.max()), int(sizes.sum())))
    start = np.array(draw(st.lists(st.integers(0, nb - 1), min_size=n, max_size=n)),
                     dtype=np.int64)
    return start, sizes, nb, ub, cb


@settings(max_examples=500, deadline=None)
@given(_any_repair_case())
def test_repair_matches_references(case):
    """From a start in [0, nb) the kernel makes the per-move scan's moves,
    and from all-unplaced the greedy packing's: the same return value and
    the same assignment, also where a wedge leaves it partial."""
    start, sizes, nb, ub, cb = case
    expected = start.copy()
    moved = scan_repair(expected, sizes, nb, ub, cb)
    placed, packed = greedy_repack(sizes, nb, ub, cb)
    for dtype in row_dtypes(nb):
        got = start.astype(dtype)
        assert _kernels.repair_assignment(got, sizes, nb, ub, cb) is moved
        np.testing.assert_array_equal(got, expected)
        got = np.full(start.shape, nb, dtype=dtype)
        assert _kernels.repair_assignment(got, sizes, nb, ub, cb) is placed
        np.testing.assert_array_equal(got, packed)


@st.composite
def _repair_batch(draw):
    """A (P, n) matrix on an instance drawn as in ``_any_repair_case``, but
    with caps that just cover the totals, so one start often wedges where
    another is repaired: each row a start in [0, nb) or all-unplaced, plus,
    when the greedy packing places every transaction, that packing as a
    row that is already feasible."""
    n = draw(st.integers(1, 30))
    nb = draw(st.integers(1, 6))
    sizes = np.array(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)),
                     dtype=np.int64)
    total = int(sizes.sum())
    ub = draw(st.integers(-(-n // nb), n))
    least = max(int(sizes.max()), -(-total // nb))
    cb = draw(st.integers(least, least + total // (2 * nb) + 1))
    start = st.lists(st.integers(0, nb - 1), min_size=n, max_size=n)
    rows = [np.full(n, nb) if r is None else np.array(r)
            for r in draw(st.lists(st.none() | start, min_size=1, max_size=8))]
    placed, packed = greedy_repack(sizes, nb, ub, cb)
    if placed:
        rows.insert(draw(st.integers(0, len(rows))), packed)
    return np.array(rows, dtype=np.int64), sizes, nb, ub, cb


@settings(max_examples=200, deadline=None)
@given(_repair_batch())
def test_batch_repair_matches_each_row_alone(case):
    """Repairing a matrix gives every row the assignment that the per-move
    scan, or the greedy packing for an all-unplaced row, gives it alone,
    also where a wedge leaves it partial, and returns True iff every row's
    reference does."""
    matrix, sizes, nb, ub, cb = case
    expected, placed = matrix.copy(), []
    for row in expected:
        if (row == nb).all():
            ok, row[:] = greedy_repack(sizes, nb, ub, cb)
        else:
            ok = scan_repair(row, sizes, nb, ub, cb)
        placed.append(ok)
    for dtype in row_dtypes(nb):
        got = matrix.astype(dtype)
        assert _kernels.repair_assignment(got, sizes, nb, ub, cb) is all(placed)
        np.testing.assert_array_equal(got, expected)


def row_stats(rows, sizes, nb):
    """Per-block transaction counts and byte loads over [0, nb) of each row
    of ``rows`` (P, n), counted alone; an unplaced entry (nb) is in no
    block."""
    return (np.stack([np.bincount(r, minlength=nb + 1)[:nb] for r in rows]),
            np.stack([np.bincount(r, weights=sizes, minlength=nb + 1)[:nb]
                      for r in rows]))


# In the first batch row 0 wedges from its start. In the second no 4 blocks
# of 2 transactions hold 12, so both rows wedge, row 1 from all-unplaced.
@example((np.array([[1, 1, 2, 1], [3, 3, 3, 3], [0, 1, 2, 2]]),
          np.array([9, 3, 5, 9]), 3, 4, 10))
@example((np.array([[0] * 12, [4] * 12]), np.array([1] * 12), 4, 2, 12))
@settings(max_examples=200, deadline=None)
@given(_repair_batch())
def test_repair_reports_final_counts_and_loads(case):
    """The counts and loads repair reports for a batch are those of the rows
    it leaves, also where a row wedges, from a start in [0, nb) or from
    all-unplaced, with the byte weights built by the kernel or passed in."""
    matrix, sizes, nb, ub, cb = case
    for weights in (None, np.tile(sizes.astype(np.float64), matrix.shape[0] + 1)):
        for dtype in row_dtypes(nb):
            got = matrix.astype(dtype)
            out = np.full((2, matrix.shape[0], nb), -1)
            _kernels.repair_assignment(got, sizes, nb, ub, cb, out, weights)
            np.testing.assert_array_equal(out, row_stats(got, sizes, nb))


@pytest.mark.parametrize("n", [508, 510])
def test_population_rows_hold_the_unplaced_marker(n):
    """At nb = 255 and nb = 256 (lb = 2), where one byte stops holding nb,
    the GA's starting rows are feasible rows of ``np.min_scalar_type(nb)``,
    and rows of that dtype all unplaced, as a seeded population would pass
    them, repair to the greedy packing."""
    inst = make_instance(np.arange(n) % 7 + 1, lb=2, ub=2)
    sizes, nb, cb = inst.sizes, inst.nb, inst.limits.cb
    population = initialize_population(inst, 3, np.random.default_rng(0))
    unplaced = np.full_like(population, nb)
    assert _kernels.repair_assignment(unplaced, sizes, nb, 2, cb) is True
    np.testing.assert_array_equal(unplaced, np.broadcast_to(
        greedy_repack(sizes, nb, 2, cb)[1], unplaced.shape))
    assert population.dtype == np.min_scalar_type(nb)
    counts, loads = block_stats(inst, population)
    assert (counts <= 2).all() and (loads <= cb).all()
    assert (counts.sum(axis=1) == n).all()


@settings(max_examples=200, deadline=None)
@given(_any_repair_case(), st.booleans())
def test_repair_reports_one_row(case, unplaced):
    """A 1-D row reports its own (nb,) counts and loads, from its start or
    from all-unplaced, wedged or not."""
    start, sizes, nb, ub, cb = case
    got = np.full_like(start, nb) if unplaced else start.copy()
    counts, loads = np.full(nb, -1), np.full(nb, -1)
    _kernels.repair_assignment(got, sizes, nb, ub, cb, (counts, loads))
    want_counts, want_loads = row_stats(got[None, :], sizes, nb)
    np.testing.assert_array_equal(counts, want_counts[0])
    np.testing.assert_array_equal(loads, want_loads[0])
