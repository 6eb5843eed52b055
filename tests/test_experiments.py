"""Sweep summaries: Spearman's rho against hand-computed values, and the
value a sensitivity sweep reports."""

import math

import pytest

from blocktune import configio, experiments
from blocktune.experiments import SweepPoint, SweepSpec, _spearman

SWEEP = {"varied_factor": "tx_size", "values": [500, 1000, 2000, 4000],
         "fixed": {"arrival_rate": 200.0, "bandwidth": 4.0e6}, "instance_n": 10,
         "limits": {"lb": 2, "ub": 5, "cb": 1048576},
         "train_grid": {"block_sizes": [2, 4, 6]}, "runs_per_point": 2}


@pytest.mark.parametrize("values, recommendations, rho", [
    # ranks (1, 2.5, 2.5, 4) and (1, 3, 3, 3): covariance sum 3, squared
    # deviation sums 4.5 and 3, so rho = 3 / sqrt(13.5)
    ([1.0, 2.0, 2.0, 3.0], [10, 20, 20, 20], math.sqrt(2.0 / 3.0)),
    ([256.0, 512.0, 1024.0, 4096.0], [3, 7, 8, 40], 1.0),
    ([256.0, 512.0, 1024.0, 4096.0], [40, 8, 7, 3], -1.0),
])
def test_spearman_hand_computed(values, recommendations, rho):
    assert _spearman(values, recommendations) == pytest.approx(rho, rel=1e-12)


@pytest.mark.parametrize("values, recommendations", [
    ([1.0, 2.0, 3.0], [15, 15, 15]),
    ([4.0, 4.0, 4.0], [1, 2, 3]),
])
def test_spearman_undefined(values, recommendations):
    assert _spearman(values, recommendations) is None


def test_sensitivity_reports_spearman(monkeypatch):
    """A sweep whose recommendations move with the factor reports rho."""
    def run_point(spec, value, run_index):
        return SweepPoint(value=float(value), run_index=run_index,
                          recommended_block_size=int(value) // 500 + run_index,
                          best_fitness=1.0, data_seed=0, ga_seed=0, n_samples=0,
                          extrapolation_fraction=0.0)
    monkeypatch.setattr(experiments, "run_point", run_point)
    summary = configio.to_json(experiments.run_sensitivity(SweepSpec.from_dict(SWEEP)))
    # recommendations 1 2 | 2 3 | 4 5 | 8 9 rank 1 2.5 2.5 4 5 6 7 8, values
    # rank 1.5 1.5 3.5 3.5 5.5 5.5 7.5 7.5: covariance sum 39, squared
    # deviation sums 40 and 41.5
    assert summary["spearman"] == pytest.approx(39.0 / math.sqrt(40.0 * 41.5), rel=1e-12)
