"""Simulator: conservation, causality, determinism, and hand-checked timing."""

from dataclasses import replace

import numpy as np
import pytest

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
    generate_training_dataset,
    run_simulation,
    throughput_vs_blocksize,
)
from blocktune.surrogate import DATASET_COLUMNS, load_dataset

ZERO_NOISE = GroundTruthCost(noise_sd_fraction=0.0)


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
        record = both.per_block_records[0]
        assert record.per_node_transfer_s[1] > record.per_node_transfer_s[0]

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
        data = generate_training_dataset(base, [5, 10], [1000], [1e6],
                                         out_path=out)
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
