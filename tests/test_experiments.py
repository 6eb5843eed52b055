"""Sweep summaries: Spearman's rho against hand-computed values, the
stabilization index and the value a sensitivity sweep reports; validation's
tie rule and its cap on the simulated sizes."""

import math

import numpy as np
import pytest

from blocktune import configio, experiments
from blocktune.experiments import (
    Scenario,
    SweepPoint,
    SweepSpec,
    TrainingGrid,
    _spearman,
    _stabilization_index,
    validate_scenario,
)
from blocktune.simulator import DataGrid, GroundTruthCost

SWEEP = {"varied_factor": "tx_size", "values": [500, 1000, 2000, 4000],
         "fixed": {"arrival_rate": 200.0, "bandwidth": 4.0e6}, "instance_n": 10,
         "limits": {"lb": 2, "ub": 5, "cb": 1048576},
         "train_grid": {"block_sizes": [2, 4, 6]}, "runs_per_point": 2}


def scenario(lb, ub, max_bytes=1048576):
    """Ten 1,000-byte transactions on one node, tuned on a small grid with a
    short GA and validated under a simulated byte cap of ``max_bytes``."""
    return Scenario.from_dict({
        "name": "tiny", "rng_seed": 11,
        "instance": {"transactions": {"count": 10, "size_bytes": 1000},
                     "nodes": [{"bandwidth_bytes_per_sec": 4.0e6}],
                     "limits": {"lb": lb, "ub": ub, "cb": 1048576}},
        "workload": {"arrival_rate_tps": 200.0, "total_tx": 100, "tx_size_bytes": 1000},
        "block_cut": {"max_tx_count": 5, "max_bytes": max_bytes, "timeout_s": 1.0},
        "train_grid": {"block_sizes": [2, 4, 6], "total_tx": 60},
        "surrogate": {"boost_rounds": 5},
        "ga": {"population_size": 8, "max_generations": 5},
    })


def point(value, recommended_block_size):
    return SweepPoint(value=float(value), run_index=0,
                      recommended_block_size=recommended_block_size, best_fitness=1.0,
                      data_seed=0, ga_seed=0, n_samples=0, extrapolation_fraction=0.0)


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


@pytest.mark.parametrize("recommendations, top", [
    # five values: the top half is the upper three, the median included
    ([1, 2, 10, 20, 20], [10, 20, 20]),
    ([1, 2, 10, 20], [10, 20]),
])
def test_stabilization_index_takes_the_top_half(recommendations, top):
    points = [point(value, rec) for value, rec in enumerate(recommendations, 1)]
    assert _stabilization_index(points) == float(np.std(top))


def test_validation_calls_a_tie_a_win():
    """A byte cap of one transaction cuts the same blocks at every size of 2
    or more. Ten transactions in three blocks of at most 5 put the
    recommendation at 4 or 5, so it ties every neighbour exactly, and it
    still wins."""
    outcome = validate_scenario(scenario(lb=5, ub=5, max_bytes=1000))
    assert min(c.block_size for c in outcome.candidates) >= 2
    assert len(outcome.candidates) > 1
    assert len({c.throughput_tps for c in outcome.candidates}) == 1
    assert outcome.winner


def test_validation_never_simulates_above_ub():
    """With ub = 1 every block holds one transaction, so the recommendation
    is ub, and every neighbour above it clamps back to ub."""
    outcome = validate_scenario(scenario(lb=1, ub=1))
    assert outcome.recommended_block_size == 1
    assert [c.block_size for c in outcome.candidates] == [1]


def test_training_grid_resolves_around_largest_size_and_first_node():
    """The training envelope of a three-node instance of mixed sizes: the
    tx size factors times its largest transaction, rounded, and the
    bandwidth factors times its first node's bandwidth alone."""
    instance = configio.build_instance({
        "transactions": {"sizes_bytes": [300, 1001, 640]},
        "nodes": [{"bandwidth_bytes_per_sec": bw} for bw in (2.0e6, 5.0e5, 8.0e6)],
        "limits": {"lb": 1, "ub": 3, "cb": 4096}})
    grid = TrainingGrid(block_sizes=(2, 6), replicates=2)
    cost = GroundTruthCost(noise_sd_fraction=0.0)
    assert grid.resolve(instance, 300.0, "poisson", cost, 9) == DataGrid(
        block_sizes=(2, 6), tx_sizes=(751, 1001, 1251),
        bandwidths=(1.0e6, 2.0e6, 4.0e6), arrival_rate_tps=300.0,
        total_tx=grid.total_tx, max_bytes=grid.max_bytes, timeout_s=grid.timeout_s,
        arrival_process="poisson", replicates=2, cost=cost, rng_seed=9)
