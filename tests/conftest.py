"""Shared test helpers: analytic stub predictors and small instance builders."""

import numpy as np
import pytest
from hypothesis import strategies as st

from blocktune.ga import initialize_population
from blocktune.model import BlockLimits, NodeProfile, ProblemInstance, Transaction
from blocktune.simulator import DataGrid, generate_training_dataset
from blocktune.surrogate import SurrogateConfig, fit_predictor


class StubPredictor:
    """Analytic predictor: f and g are vectorized closures over
    (tx_count, block_bytes, bandwidth) columns."""

    def __init__(self, f, g, feature_ranges=None):
        self._f = f
        self._g = g
        self.feature_ranges = (np.asarray(feature_ranges, dtype=np.float64)
                               if feature_ranges is not None
                               else np.array([[0.0, np.inf]] * 3))

    def _cols(self, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        return rows[:, 0], rows[:, 1], rows[:, 2]

    def predict_f_batch(self, rows):
        count, nbytes, bw = self._cols(rows)
        return np.maximum(self._f(count, nbytes, bw), 0.0)

    def predict_g_batch(self, rows):
        count, nbytes, bw = self._cols(rows)
        return np.maximum(self._g(count, nbytes, bw), 0.0)

    def extrapolation_mask(self, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        lo, hi = self.feature_ranges[:, 0], self.feature_ranges[:, 1]
        return ((rows < lo) | (rows > hi)).any(axis=1)


def zero_predictor():
    return StubPredictor(lambda c, b, w: np.zeros_like(c),
                         lambda c, b, w: np.zeros_like(c))


def affine_stub():
    """Analytic mirror of the simulator's affine cost family: per-block fixed
    overheads plus per-transaction, per-byte, and transfer terms. Packing
    fewer blocks is better, so assignments are distinguished."""
    return StubPredictor(
        lambda c, b, w: 0.03 + 0.002 * c + 2e-8 * b,
        lambda c, b, w: 0.02 + b / w,
    )


def make_instance(sizes, bandwidths=(1e6,), lb=1, ub=None, cb=None):
    n = len(sizes)
    ub = ub if ub is not None else n
    cb = cb if cb is not None else int(sum(sizes))
    return ProblemInstance(
        transactions=tuple(Transaction(i, int(s)) for i, s in enumerate(sizes)),
        nodes=tuple(NodeProfile(k, float(b)) for k, b in enumerate(bandwidths)),
        limits=BlockLimits(lb=lb, ub=ub, cb=cb),
    )


def random_instance(rng, n_max=50, uniform=False):
    """A random instance that is always repairable; with ``uniform`` every
    transaction has the first drawn size.

    Tightness alternates between the two caps: either the count cap binds
    and the byte cap covers everything (cb >= total bytes), or the count
    cap is loose (ub = n) and the byte cap keeps nb * cb >= 2 * total with
    cb >= 2 * max size. Either way a least-loaded greedy placement can
    never get stuck.
    """
    n = int(rng.integers(1, n_max + 1))
    sizes = rng.integers(50, 2000, size=n).tolist()
    if uniform:
        sizes = sizes[:1] * n
    total = sum(sizes)
    if rng.random() < 0.5:
        ub = int(rng.integers(max(1, n // 4), n + 1))
        lb = int(rng.integers(1, max(2, min(ub, n // 2) + 1)))
        nb = -(-n // lb) + 1
        while nb * ub < n:
            ub = min(n, ub + 1)
        cb = total
    else:
        ub = n
        lb = int(rng.integers(1, max(2, n // 2 + 1)))
        nb = -(-n // lb) + 1
        cb = int(rng.integers(2 * max(sizes), max(2 * max(sizes) + 1, total)))
        while nb * cb < 2 * total:
            cb *= 2
    m = int(rng.integers(1, 4))
    bandwidths = rng.uniform(1e5, 1e8, size=m).tolist()
    return make_instance(sizes, bandwidths, lb=lb, ub=ub, cb=cb)


@st.composite
def feasible_populations(draw):
    """(instance, population): a random repairable instance of 1-3 nodes,
    with uniform or ranged transaction sizes, and up to 12 feasible members,
    some repeated, so that block compositions recur within and across
    members."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = random_instance(rng, n_max=40, uniform=draw(st.booleans()))
    members = initialize_population(inst, draw(st.integers(1, 8)), rng)
    picks = draw(st.lists(st.integers(0, members.shape[0] - 1), min_size=1,
                          max_size=12))
    return inst, members[picks]


def block_rows(inst, count, nbytes):
    """The (m, 3) feature rows of one block of ``count`` transactions and
    ``nbytes`` bytes, one per node."""
    return np.column_stack([np.full(inst.m, float(count)), np.full(inst.m, float(nbytes)),
                            inst.bandwidths])


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def fitted_predictor():
    """A predictor fitted, as a tune pipeline fits one, on a simulated grid
    of 4 block sizes x 3 transaction sizes x 3 bandwidths."""
    data = generate_training_dataset(DataGrid(
        block_sizes=(5, 10, 20, 40), tx_sizes=(256, 1024, 2048),
        bandwidths=(1.0e6, 4.0e6, 1.6e7), arrival_rate_tps=400.0, total_tx=400,
        max_bytes=1 << 23, timeout_s=120.0, rng_seed=7))
    return fit_predictor(data, SurrogateConfig(boost_rounds=30))
