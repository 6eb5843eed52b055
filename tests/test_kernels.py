"""Numeric kernels: split search edge cases and repair feasibility."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktune import _kernels


def test_best_split_no_valid_split():
    points = np.ones((4, 3))
    targets = np.array([1.0, 2.0, 3.0, 4.0])
    f, _, _ = _kernels.best_split(points, targets, 1)
    assert f == -1


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
