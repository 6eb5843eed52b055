"""Shared test helpers: analytic stub predictors and small instance builders."""

import numpy as np
import pytest

from blocktune.model import BlockLimits, NodeProfile, ProblemInstance, Transaction


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


def random_instance(rng, n_max=50):
    """A random instance that is always repairable.

    Tightness alternates between the two caps: either the count cap binds
    and the byte cap covers everything (cb >= total bytes), or the count
    cap is loose (ub = n) and the byte cap keeps nb * cb >= 2 * total with
    cb >= 2 * max size. Either way a least-loaded greedy placement can
    never get stuck.
    """
    n = int(rng.integers(1, n_max + 1))
    sizes = rng.integers(50, 2000, size=n).tolist()
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


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
