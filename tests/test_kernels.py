"""Numeric kernels: the grouped split search against a per-row search, its
tie rule, and repair against the per-move scan and the from-scratch packing
it replaced."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktune import _kernels


def split_inputs(points, targets):
    """The grouped kernel's inputs for the rows ``points``, ``targets``."""
    x, inverse = np.unique(points, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    return (x, np.bincount(inverse), np.bincount(inverse, weights=targets),
            float(targets @ targets))


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


def test_best_split_no_valid_split():
    """One distinct row has no threshold; two distinct rows cannot both
    leave min_samples_leaf rows on each side."""
    one = split_inputs(np.ones((4, 3)), np.array([1.0, 2.0, 3.0, 4.0]))
    assert _kernels.best_split(*one, 1) == (-1, 0.0, 0.0)
    points = np.array([[1.0, 0.0, 0.0]] * 3 + [[2.0, 0.0, 0.0]])
    two = split_inputs(points, np.array([1.0, 1.0, 1.0, 5.0]))
    assert _kernels.best_split(*two, 1)[0] == 0
    assert _kernels.best_split(*two, 2) == (-1, 0.0, 0.0)


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
    f, threshold, _ = _kernels.best_split(*split_inputs(NODE_ROWS, NODE_TARGETS), 5)
    assert (f, threshold) == (0, 50.0)


def test_rounding_tie_goes_to_lowest_feature(monkeypatch):
    """Both features put groups 0-2 left of group 3, in opposite orders, so
    the left sums accumulate in different orders and the two equal gains
    round apart; the tolerance makes them a tie."""
    x = np.array([[1.0, 3.0, 0.0], [2.0, 2.0, 0.0], [3.0, 1.0, 0.0], [4.0, 4.0, 0.0]])
    sums = np.array([0.4, 0.8, 0.6, 3.1])
    args = (x, np.ones(4, dtype=np.int64), sums, float(sums @ sums), 1)
    assert _kernels.best_split(*args)[:2] == (0, 3.5)
    monkeypatch.setattr(_kernels, "TIE_RTOL", 0.0)
    assert _kernels.best_split(*args)[:2] == (1, 3.5)


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
    f, threshold, gain = _kernels.best_split(*split_inputs(points, targets),
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
    got, expected = start.copy(), start.copy()
    assert (_kernels.repair_assignment(got, sizes, nb, ub, cb)
            is scan_repair(expected, sizes, nb, ub, cb))
    np.testing.assert_array_equal(got, expected)
    placed, packed = greedy_repack(sizes, nb, ub, cb)
    got = np.full_like(start, nb)
    assert _kernels.repair_assignment(got, sizes, nb, ub, cb) is placed
    np.testing.assert_array_equal(got, packed)
