"""Simulator: conservation, causality, determinism, hand-checked timing, and
outputs pinned bit for bit."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktune.errors import ConfigError
from blocktune.model import NodeProfile
from blocktune.simulator import (
    CUT_BYTES,
    CUT_COUNT,
    CUT_TIMEOUT,
    BlockCutRule,
    GroundTruthCost,
    SimConfig,
    WorkloadProfile,
    _cut_blocks,
    generate_training_dataset,
    run_simulation,
    throughput_vs_blocksize,
)
from blocktune.surrogate import DATASET_COLUMNS, load_dataset, save_dataset

ZERO_NOISE = GroundTruthCost(noise_sd_fraction=0.0)
DATA = Path(__file__).parent / "data"


def config_for(total_tx=50, rate=100.0, tx_size=1000, max_tx=10, max_bytes=1 << 20,
               timeout=0.5, bw=1e6, cost=ZERO_NOISE, seed=3, process="fixed"):
    return SimConfig(
        workload=WorkloadProfile(arrival_rate_tps=rate, total_tx=total_tx,
                                 arrival_process=process, tx_size_bytes=tx_size,
                                 rng_seed=seed),
        nodes=(NodeProfile(0, bw),),
        block_cut=BlockCutRule(max_tx_count=max_tx, max_bytes=max_bytes,
                               timeout_s=timeout),
        cost=cost,
        rng_seed=seed,
    )


def pinned_sim_config():
    """Three nodes, Poisson arrivals, mixed sizes, noise and a burst window;
    its 36 blocks are cut by all three reasons."""
    return SimConfig(
        workload=WorkloadProfile(arrival_rate_tps=300.0, total_tx=240,
                                 arrival_process="poisson",
                                 tx_size_range_bytes=(200, 3000), rng_seed=21),
        nodes=(NodeProfile(0, 2.0e6), NodeProfile(1, 5.0e5), NodeProfile(2, 1.0e6)),
        block_cut=BlockCutRule(max_tx_count=9, max_bytes=12000, timeout_s=0.03),
        cost=GroundTruthCost(burst_window_s=0.005, noise_sd_fraction=0.05),
        rng_seed=8)


def pinned_dataset():
    base = config_for(total_tx=30, rate=300.0, max_tx=8, max_bytes=8000,
                      timeout=0.02, cost=GroundTruthCost(burst_window_s=0.005,
                                                         noise_sd_fraction=0.05),
                      seed=12, process="poisson")
    return generate_training_dataset(base, [3, 8], [600, 1500], [1e6, 4e6],
                                     replicates=2)


def block_table(result, tmp_path):
    path = tmp_path / "blocks.csv"
    result.write_block_table(path)
    return path.read_text(encoding="utf-8")


class TestRunSimulation:
    def test_single_transaction_hand_computed(self):
        # one arrival at t=0, cut by timeout, then dispatch=0, transfer,
        # validation, commit on the lone node
        cost = GroundTruthCost(vt_per_tx_s=0.004, vt_per_byte_s=1e-8,
                               ct_fixed_s=0.025, ct_per_byte_s=2e-8,
                               dispatch_overhead_s=0.0, burst_window_s=0.0,
                               noise_sd_fraction=0.0)
        config = config_for(total_tx=1, rate=10.0, tx_size=2048, max_tx=1000,
                            timeout=0.75, bw=4e6, cost=cost)
        result = run_simulation(config)
        assert len(result.per_block_records) == 1
        record = result.per_block_records[0]
        assert record.cut_reason == CUT_TIMEOUT
        expected = (0.75 + 2048 / 4e6 + (0.004 + 1e-8 * 2048)
                    + (0.025 + 2e-8 * 2048))
        assert result.makespan_s == pytest.approx(expected, abs=1e-9)
        assert result.mean_latency_s == pytest.approx(expected, abs=1e-9)
        assert result.throughput_tps == pytest.approx(1 / expected)

    def test_dispatch_overhead_enters_makespan(self):
        lean = replace(ZERO_NOISE, dispatch_overhead_s=0.0)
        heavy = replace(ZERO_NOISE, dispatch_overhead_s=0.1)
        base = run_simulation(config_for(total_tx=1, max_tx=1, timeout=1.0,
                                         cost=lean))
        with_overhead = run_simulation(
            config_for(total_tx=1, max_tx=1, timeout=1.0, cost=heavy))
        assert with_overhead.makespan_s == pytest.approx(base.makespan_s + 0.1)

    def test_per_transaction_blocks(self):
        result = run_simulation(config_for(total_tx=25, max_tx=1))
        assert len(result.per_block_records) == 25
        assert all(r.cut_reason == CUT_COUNT for r in result.per_block_records)
        assert all(r.tx_count == 1 for r in result.per_block_records)

    def test_byte_cap_cuts(self):
        # 1000-byte transactions, 2500-byte cap: blocks hold at most 2
        result = run_simulation(config_for(total_tx=20, max_bytes=2500,
                                           max_tx=100, timeout=100.0))
        reasons = {r.cut_reason for r in result.per_block_records[:-1]}
        assert reasons == {CUT_BYTES}
        assert all(r.block_bytes <= 2500 for r in result.per_block_records)

    def test_conservation(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            config = config_for(
                total_tx=int(rng.integers(1, 300)),
                rate=float(rng.uniform(20, 2000)),
                tx_size=int(rng.integers(100, 5000)),
                max_tx=int(rng.integers(1, 50)),
                max_bytes=int(rng.integers(5000, 1 << 20)),
                timeout=float(rng.uniform(0.05, 2.0)),
                cost=GroundTruthCost(),
                seed=int(rng.integers(0, 10**6)),
                process="poisson" if rng.random() < 0.5 else "fixed",
            )
            result = run_simulation(config)
            assert sum(r.tx_count for r in result.per_block_records) == \
                config.workload.total_tx
            for r in result.per_block_records:
                assert r.tx_count <= config.block_cut.max_tx_count
                assert r.block_bytes <= config.block_cut.max_bytes

    def test_causality_and_timeout_semantics(self):
        config = config_for(total_tx=137, rate=333.0, max_tx=7, timeout=0.11,
                            process="poisson", seed=17)
        result = run_simulation(config)
        arrivals = None
        from blocktune.simulator import _generate_workload
        arrivals, _ = _generate_workload(config.workload)
        start = 0
        for r in result.per_block_records:
            first_arrival = arrivals[start]
            assert r.commit_time_s >= r.cut_time_s >= first_arrival - 1e-12
            if r.cut_reason == CUT_TIMEOUT:
                assert r.cut_time_s - first_arrival == pytest.approx(0.11, abs=1e-12)
            start += r.tx_count

    def test_zero_noise_seed_determinism(self):
        a = run_simulation(config_for(seed=5))
        b = run_simulation(config_for(seed=5))
        assert a == b

    def test_noisy_seed_determinism_and_seed_sensitivity(self):
        noisy = GroundTruthCost(noise_sd_fraction=0.05)
        a = run_simulation(config_for(cost=noisy, seed=5))
        b = run_simulation(config_for(cost=noisy, seed=5))
        c = run_simulation(config_for(cost=noisy, seed=6))
        assert a == b
        assert a != c

    def test_slowest_node_gates_commit(self):
        config = config_for(total_tx=5, max_tx=5, timeout=10.0)
        slow_config = replace(config, nodes=(NodeProfile(0, 1e6),
                                             NodeProfile(1, 1e4)))
        fast = run_simulation(config)
        both = run_simulation(slow_config)
        assert both.makespan_s > fast.makespan_s
        # 5,000 bytes take 5 ms on the fast link and 0.5 s on the slow one.
        commit = both.per_block_records[0].commit_time_s
        assert commit > fast.per_block_records[0].commit_time_s + 0.49

    def test_oversized_transaction_rejected(self):
        with pytest.raises(ConfigError):
            config_for(tx_size=5000, max_bytes=4000)

    def test_burst_window_inflates_transfer(self):
        plain = ZERO_NOISE
        burst = replace(ZERO_NOISE, burst_window_s=0.001)
        t_plain = plain.transfer_s(10_000, 1e6)
        t_burst = burst.transfer_s(10_000, 1e6)
        assert t_plain == pytest.approx(0.01)
        # bytes / (bw * window) = 10 -> factor 11
        assert t_burst == pytest.approx(0.11)


class TestGenerateTrainingDataset:
    def test_grid_sample_count(self, tmp_path):
        # every run forms >= 3 blocks: 30 transactions, cut size <= 10
        base = config_for(total_tx=30, max_tx=10, timeout=50.0)
        data = generate_training_dataset(
            base, block_sizes=[5, 10], tx_sizes=[500, 1000],
            bandwidths=[1e6, 1e7], replicates=1)
        assert data.shape[0] >= 24
        assert data.shape[1] == len(DATASET_COLUMNS)

    def test_zero_noise_matches_cost_formula(self):
        base = config_for(total_tx=40, max_tx=8, timeout=50.0, cost=ZERO_NOISE)
        data = generate_training_dataset(base, [8], [1200], [2e6])
        tx_count, block_bytes, bandwidth, vt, ct, _ = data.T
        np.testing.assert_array_equal(block_bytes, 1200 * tx_count)
        np.testing.assert_array_equal(bandwidth, 2e6)
        np.testing.assert_allclose(vt, ZERO_NOISE.vt_per_tx_s * tx_count
                                   + ZERO_NOISE.vt_per_byte_s * block_bytes, rtol=1e-12)
        np.testing.assert_allclose(ct, ZERO_NOISE.ct_fixed_s
                                   + ZERO_NOISE.ct_per_byte_s * block_bytes, rtol=1e-12)

    def test_emitted_file_round_trips(self, tmp_path):
        base = config_for(total_tx=30, max_tx=10, timeout=50.0)
        out = tmp_path / "dataset.csv"
        data = generate_training_dataset(base, [5, 10], [1000], [1e6])
        save_dataset(data, out)
        assert np.array_equal(load_dataset(out), data)

    def test_empty_grid_rejected(self):
        base = config_for()
        with pytest.raises(ConfigError):
            generate_training_dataset(base, [], [1000], [1e6])

    def test_replicates_deterministic(self):
        base = config_for(total_tx=30, max_tx=10)
        a = generate_training_dataset(base, [5], [1000], [1e6], replicates=2)
        b = generate_training_dataset(base, [5], [1000], [1e6], replicates=2)
        assert np.array_equal(a, b)


class TestThroughputCurve:
    def test_single_candidate(self):
        curve = throughput_vs_blocksize(config_for(total_tx=40), [7])
        assert len(curve) == 1
        assert curve[0][0] == 7

    def test_all_candidates_commit_everything(self):
        config = config_for(total_tx=120, rate=400.0, timeout=0.4)
        for size in (1, 3, 10, 40, 120):
            point = replace(config, block_cut=replace(config.block_cut,
                                                      max_tx_count=size))
            result = run_simulation(point)
            assert sum(r.tx_count for r in result.per_block_records) == 120

    def test_interior_maximum_with_dispatch_overhead(self):
        # candidates divide total_tx so no final partial block muddies the
        # comparison; the timeout exceeds the largest fill time
        cost = GroundTruthCost(noise_sd_fraction=0.0, burst_window_s=0.004,
                               dispatch_overhead_s=0.02)
        config = config_for(total_tx=1200, rate=400.0, tx_size=1024,
                            max_bytes=1 << 22, timeout=2.0, bw=8e6, cost=cost)
        candidates = [1, 2, 4, 8, 16, 48, 120, 240, 600]
        curve = throughput_vs_blocksize(config, candidates)
        tps = [point[1] for point in curve]
        best = int(np.argmax(tps))
        assert 0 < best < len(candidates) - 1
        assert tps[best] > 1.1 * tps[0] and tps[best] > 1.1 * tps[-1]


def reference_cut_blocks(arrivals, sizes, rule):
    """The per-transaction cutter the block-at-a-time one replaced: scan
    arrivals once, cutting on timeout, then bytes, then count."""
    blocks = []
    pending_first, pending_count, pending_bytes, pending_start = -1, 0, 0, 0.0
    for i in range(arrivals.size):
        t, s = float(arrivals[i]), int(sizes[i])
        if pending_count and t >= pending_start + rule.timeout_s:
            blocks.append((pending_first, pending_count, pending_bytes,
                           pending_start + rule.timeout_s, CUT_TIMEOUT))
            pending_count, pending_bytes = 0, 0
        if pending_count and pending_bytes + s > rule.max_bytes:
            blocks.append((pending_first, pending_count, pending_bytes, t, CUT_BYTES))
            pending_count, pending_bytes = 0, 0
        if pending_count == 0:
            pending_first, pending_start = i, t
        pending_count += 1
        pending_bytes += s
        if pending_count == rule.max_tx_count:
            blocks.append((pending_first, pending_count, pending_bytes, t, CUT_COUNT))
            pending_count, pending_bytes = 0, 0
    if pending_count:
        blocks.append((pending_first, pending_count, pending_bytes,
                       pending_start + rule.timeout_s, CUT_TIMEOUT))
    return blocks


# Dyadic gaps and timeouts make arrivals land exactly on deadlines, so ties
# between the three cut reasons are exercised.
@settings(max_examples=300, deadline=None)
@given(gaps=st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]) | st.floats(0.0, 2.0),
                     min_size=1, max_size=60),
       sizes=st.lists(st.integers(1, 60), min_size=60, max_size=60),
       max_tx=st.integers(1, 12), max_bytes=st.integers(60, 300),
       timeout=st.sampled_from([0.125, 0.5, 1.0, 1.75]) | st.floats(1e-9, 8.0))
def test_cut_blocks_matches_per_transaction_scan(gaps, sizes, max_tx, max_bytes,
                                                timeout):
    arrivals = np.cumsum(np.array(gaps, dtype=np.float64))
    sizes = np.array(sizes[:arrivals.size], dtype=np.int64)
    rule = BlockCutRule(max_tx_count=max_tx, max_bytes=max_bytes, timeout_s=timeout)
    blocks = list(zip(*(a.tolist() for a in _cut_blocks(arrivals, sizes, rule))))
    assert blocks == reference_cut_blocks(arrivals, sizes, rule)


class TestPinnedOutputs:
    """Outputs captured from the event-loop simulator that priced every block
    inside its queue loop; the cut, price and queue steps must reproduce them
    bit for bit."""

    def test_simulation(self, tmp_path):
        pinned = json.loads((DATA / "pinned_simulation.json").read_text(encoding="utf-8"))
        result = run_simulation(pinned_sim_config())
        assert min(result.to_dict()["cut_reasons"].values()) > 0
        assert result.to_dict() == pinned["result"]
        assert block_table(result, tmp_path) == pinned["block_table"]

    def test_training_dataset(self):
        pinned = json.loads((DATA / "pinned_dataset.json").read_text(encoding="utf-8"))
        data = pinned_dataset()
        assert data.dtype == np.float64
        assert np.array_equal(data, np.array(pinned, dtype=np.float64))
