"""Simulator: conservation, causality, determinism, hand-checked timing, the
array queue against a per-block event loop, the one-pass training grid
against a per-cell loop, and outputs pinned bit for bit."""

import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocktune import simulator
from blocktune.configio import write_csv
from blocktune.errors import BlocktuneError, ConfigError
from blocktune.model import NodeProfile
from blocktune.simulator import (
    BLOCK_TABLE_COLUMNS,
    CUT_BYTES,
    CUT_COUNT,
    CUT_TIMEOUT,
    BlockCutRule,
    DataGrid,
    GroundTruthCost,
    SimConfig,
    SimResult,
    WorkloadProfile,
    _cut_and_price,
    _cut_blocks,
    derive_seed,
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


def grid_for(block_sizes, tx_sizes, bandwidths, replicates=1, total_tx=50, rate=100.0,
             max_bytes=1 << 20, timeout=0.5, cost=ZERO_NOISE, seed=3, process="fixed"):
    """A DataGrid whose shared values default to :func:`config_for`'s."""
    return DataGrid(tuple(block_sizes), tuple(tx_sizes), tuple(bandwidths), rate, total_tx,
                    max_bytes, timeout, process, replicates, cost, seed)


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
    return generate_training_dataset(grid_for(
        (3, 8), (600, 1500), (1e6, 4e6), replicates=2, total_tx=30, rate=300.0,
        max_bytes=8000, timeout=0.02,
        cost=GroundTruthCost(burst_window_s=0.005, noise_sd_fraction=0.05), seed=12,
        process="poisson"))


def block_table(result, tmp_path):
    """``simulate``'s per-block table of ``result``, written as the CLI
    writes it."""
    path = tmp_path / "blocks.csv"
    write_csv(path, BLOCK_TABLE_COLUMNS, result.per_block_records.tolist())
    return path.read_text(encoding="utf-8")


def run_fields(result):
    """Every field of ``result``, the records as row tuples: two runs are
    equal when these are."""
    return (result.throughput_tps, result.mean_latency_s, result.makespan_s,
            result.total_tx, result.per_block_records.tolist())


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
        assert run_fields(a) == run_fields(b)

    def test_noisy_seed_determinism_and_seed_sensitivity(self):
        noisy = GroundTruthCost(noise_sd_fraction=0.05)
        a = run_simulation(config_for(cost=noisy, seed=5))
        b = run_simulation(config_for(cost=noisy, seed=5))
        c = run_simulation(config_for(cost=noisy, seed=6))
        assert run_fields(a) == run_fields(b)
        assert run_fields(a) != run_fields(c)

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
        data = generate_training_dataset(grid_for((5, 10), (500, 1000), (1e6, 1e7),
                                                  total_tx=30, timeout=50.0))
        assert data.shape[0] >= 24
        assert data.shape[1] == len(DATASET_COLUMNS)

    def test_zero_noise_matches_cost_formula(self):
        data = generate_training_dataset(grid_for((8,), (1200,), (2e6,), total_tx=40,
                                                  timeout=50.0, cost=ZERO_NOISE))
        tx_count, block_bytes, bandwidth, vt, ct, _ = data.T
        np.testing.assert_array_equal(block_bytes, 1200 * tx_count)
        np.testing.assert_array_equal(bandwidth, 2e6)
        np.testing.assert_allclose(vt, ZERO_NOISE.vt_per_tx_s * tx_count
                                   + ZERO_NOISE.vt_per_byte_s * block_bytes, rtol=1e-12)
        np.testing.assert_allclose(ct, ZERO_NOISE.ct_fixed_s
                                   + ZERO_NOISE.ct_per_byte_s * block_bytes, rtol=1e-12)

    def test_emitted_file_round_trips(self, tmp_path):
        out = tmp_path / "dataset.csv"
        data = generate_training_dataset(grid_for((5, 10), (1000,), (1e6,), total_tx=30,
                                                  timeout=50.0))
        save_dataset(data, out)
        assert np.array_equal(load_dataset(out), data)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="^block_sizes must be a non-empty list"):
            grid_for((), (1000,), (1e6,))

    def test_replicates_deterministic(self):
        grid = grid_for((5,), (1000,), (1e6,), replicates=2, total_tx=30)
        a = generate_training_dataset(grid)
        b = generate_training_dataset(grid)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("process, cuts", [("fixed", 4), ("poisson", 24)])
    def test_fixed_rate_cells_share_a_cut(self, monkeypatch, process, cuts):
        """A fixed-rate grid cuts each (block size, tx size) once, whatever
        the bandwidth and replicate; a Poisson grid cuts every cell and
        replicate."""
        calls = []
        cut = simulator._cut_blocks
        monkeypatch.setattr(simulator, "_cut_blocks",
                            lambda *args: calls.append(args) or cut(*args))
        generate_training_dataset(grid_for((3, 8), (600, 1500), (1e6, 4e6), replicates=3,
                                           total_tx=30, process=process))
        assert len(calls) == cuts

    @pytest.mark.parametrize("cost, block_size", [
        (GroundTruthCost(burst_window_s=1e-320), 5),    # transfer overflows
        (GroundTruthCost(vt_per_tx_s=1e307), 20),       # vt overflows at 18 tx
        # vt and ct are finite alone, and only their sum overflows
        (GroundTruthCost(vt_per_tx_s=9e307, ct_fixed_s=9e307,
                         noise_sd_fraction=0.0), 1),
    ])
    def test_overflowing_cost_rejected(self, cost, block_size):
        with pytest.raises(ConfigError, match="^cost: "):
            generate_training_dataset(grid_for((block_size,), (1000,), (1e6, 2e6),
                                               total_tx=30, cost=cost))

    def test_transaction_above_byte_cap_rejected(self):
        """The largest tx size is checked against the byte cap when the grid
        is built, with the message a scenario of that size gives."""
        with pytest.raises(ConfigError) as scenario:
            config_for(total_tx=30, tx_size=5000, max_bytes=4000)
        with pytest.raises(ConfigError, match="max_bytes=4000") as grid:
            grid_for((5,), (1000, 5000), (1e6, 2e6), total_tx=30, max_bytes=4000)
        assert str(grid.value) == str(scenario.value)

    @pytest.mark.parametrize("axis, value", [("block_sizes", 0), ("tx_sizes", 0),
                                             ("bandwidths", 0.0), ("bandwidths", math.inf)])
    def test_bad_value_raises_as_its_scenario(self, axis, value):
        """A grid value whose cell's scenario cannot be built is rejected
        when the grid is built, as a ConfigError naming its axis, so it never
        reaches generate_training_dataset."""
        axes = {"block_sizes": (5,), "tx_sizes": (1000,), "bandwidths": (1e6,)}
        cell = {name: values[0] for name, values in axes.items()}
        cell[axis] = value
        with pytest.raises(BlocktuneError):
            cell_scenario(grid_for(**axes, total_tx=30), 0, 0, *cell.values())
        axes[axis] += (value,)
        with pytest.raises(ConfigError, match=f"^{axis} must be a non-empty list"):
            grid_for(**axes, total_tx=30)


class TestThroughputCurve:
    def test_single_candidate(self):
        curve = throughput_vs_blocksize(config_for(total_tx=40), [7])
        assert len(curve) == 1
        assert curve[0][0] == 7

    def test_scan_equals_each_size_run_alone(self):
        """Each point of the scan is the one run_simulation gives that size
        on its own, bit for bit."""
        cost = GroundTruthCost(noise_sd_fraction=0.05, burst_window_s=0.004)
        config = replace(config_for(total_tx=300, rate=400.0, timeout=0.4, cost=cost,
                                    seed=11),
                         workload=WorkloadProfile(400.0, 300, arrival_process="poisson",
                                                  tx_size_range_bytes=(200, 2000),
                                                  rng_seed=13))
        sizes = [1, 3, 10, 40, 300]
        curve = throughput_vs_blocksize(config, sizes)
        for size, tps, latency in curve:
            alone = run_simulation(replace(config, block_cut=replace(
                config.block_cut, max_tx_count=size)))
            assert (tps, latency) == (alone.throughput_tps, alone.mean_latency_s)
        assert [point[0] for point in curve] == sizes

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


def cell_scenario(grid, cell, rep, bs, ts, bw):
    """The single-node scenario of replicate ``rep`` of the cell of ``grid``
    with index ``cell`` and values (block size, tx size, bandwidth)."""
    return SimConfig(
        workload=WorkloadProfile(
            arrival_rate_tps=grid.arrival_rate_tps, total_tx=grid.total_tx,
            arrival_process=grid.arrival_process, tx_size_bytes=int(ts),
            rng_seed=derive_seed(derive_seed(grid.rng_seed, "workload"), cell, rep)),
        nodes=(NodeProfile(0, float(bw)),),
        block_cut=BlockCutRule(max_tx_count=int(bs), max_bytes=grid.max_bytes,
                               timeout_s=grid.timeout_s),
        cost=grid.cost,
        rng_seed=derive_seed(grid.rng_seed, cell, rep))


def reference_training_dataset(grid):
    """The per-cell loop the one-pass grid replaced: each cell and replicate
    draws, cuts and prices its own single-node scenario. Returns the dataset
    and the set of cut reasons its blocks were cut by."""
    chunks, reasons = [], set()
    cells = itertools.product(grid.block_sizes, grid.tx_sizes, grid.bandwidths)
    for cell, (bs, ts, bw) in enumerate(cells):
        for rep in range(grid.replicates):
            config = cell_scenario(grid, cell, rep, bs, ts, bw)
            _, (_, count, nbytes, _, reason), costs = _cut_and_price(config)
            transfer, vt, ct = (c[:, 0] for c in costs)
            service = grid.cost.dispatch_overhead_s + transfer + vt + ct
            reasons.update(reason.tolist())
            chunks.append(np.column_stack(
                (count, nbytes, np.full(count.size, float(bw)), vt, ct, service)))
    return np.concatenate(chunks), reasons


def binding_grid(process):
    """A grid whose cells are cut by all three reasons: at 100 tps a 0.025 s
    timeout closes blocks of 3, 2,000-byte transactions fill the 5,000-byte
    cap at 2, and a cap of 2 transactions binds first on the smaller ones."""
    return grid_for((2, 8), (600, 2000), (1e5, 3e6), replicates=2, total_tx=40,
                    rate=100.0, max_bytes=5000, timeout=0.025,
                    cost=GroundTruthCost(noise_sd_fraction=0.05, burst_window_s=0.004),
                    seed=5, process=process)


@pytest.mark.parametrize("process", ["fixed", "poisson"])
def test_binding_grid_cuts_by_every_reason(process):
    _, reasons = reference_training_dataset(binding_grid(process))
    assert reasons == {CUT_COUNT, CUT_BYTES, CUT_TIMEOUT}


@st.composite
def training_grids(draw):
    """Fixed or Poisson arrivals, 1-3 replicates, 2-3 bandwidths, zero or
    non-zero noise, and byte caps and timeouts short enough to bind; the
    axes may repeat a value."""
    return grid_for(
        draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)),
        draw(st.lists(st.integers(100, 3000), min_size=1, max_size=3)),
        draw(st.lists(st.floats(1e4, 1e7), min_size=2, max_size=3)),
        replicates=draw(st.integers(1, 3)),
        total_tx=draw(st.integers(1, 60)), rate=draw(st.floats(20.0, 2000.0)),
        max_bytes=draw(st.integers(3000, 12000)), timeout=draw(st.floats(0.002, 0.3)),
        cost=GroundTruthCost(
            burst_window_s=draw(st.sampled_from([0.0, 0.005])),
            noise_sd_fraction=draw(st.sampled_from([0.0]) | st.floats(0.01, 0.19))),
        seed=draw(st.integers(0, 2**32 - 1)),
        process=draw(st.sampled_from(["fixed", "poisson"])))


@settings(max_examples=150, deadline=None)
@given(grid=training_grids())
@example(grid=binding_grid("fixed"))
@example(grid=binding_grid("poisson"))
def test_training_grid_equals_per_cell_loop(grid):
    """The shared cuts and the one pricing pass give the per-cell loop's
    dataset byte for byte."""
    got = generate_training_dataset(grid)
    want, _ = reference_training_dataset(grid)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def reference_run_simulation(config):
    """The per-block event loop that the array queue replaced: each block in
    cut order waits for every node's link, then its CPU, to come free."""
    arrivals, blocks, costs = _cut_and_price(config)
    dispatch = config.cost.dispatch_overhead_s
    m = len(config.nodes)
    link_free, cpu_free = [0.0] * m, [0.0] * m
    records = []
    latency_sum = 0.0
    makespan = 0.0
    rows = zip(*(a.tolist() for a in blocks + costs))
    for index, (first, count, nbytes, cut_time, reason, transfers, vts, cts) in \
            enumerate(rows):
        dispatch_done = cut_time + dispatch
        commit = 0.0
        for k in range(m):
            link_free[k] = max(dispatch_done, link_free[k]) + transfers[k]
            cpu_free[k] = max(link_free[k], cpu_free[k]) + vts[k] + cts[k]
            commit = max(commit, cpu_free[k])
        block_latency = commit * count - float(arrivals[first:first + count].sum())
        latency_sum += block_latency
        makespan = max(makespan, commit)
        records.append((index, count, nbytes, cut_time, reason, commit,
                        block_latency / count))
    total = config.workload.total_tx
    return SimResult(throughput_tps=total / makespan, mean_latency_s=latency_sum / total,
                     makespan_s=makespan, total_tx=total,
                     per_block_records=np.rec.fromrecords(records, names=BLOCK_TABLE_COLUMNS))


@st.composite
def sim_configs(draw):
    """One to three nodes, fixed or Poisson arrivals, constant or ranged
    sizes and noisy costs; the short timeouts, small caps and bursty
    arrivals cut blocks by every reason."""
    sizes = draw(st.sampled_from([{"tx_size_bytes": 1000},
                                  {"tx_size_range_bytes": (200, 3000)}]))
    return SimConfig(
        workload=WorkloadProfile(
            arrival_rate_tps=draw(st.floats(20.0, 2000.0)),
            total_tx=draw(st.integers(1, 150)),
            arrival_process=draw(st.sampled_from(["fixed", "poisson"])),
            rng_seed=draw(st.integers(0, 2**32 - 1)), **sizes),
        nodes=tuple(NodeProfile(k, bw) for k, bw in enumerate(
            draw(st.lists(st.floats(1e4, 1e7), min_size=1, max_size=3)))),
        block_cut=BlockCutRule(max_tx_count=draw(st.integers(1, 12)),
                               max_bytes=draw(st.integers(3000, 20000)),
                               timeout_s=draw(st.floats(0.002, 0.3))),
        cost=GroundTruthCost(burst_window_s=draw(st.sampled_from([0.0, 0.005])),
                             noise_sd_fraction=draw(st.floats(0.01, 0.19))),
        rng_seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(config=sim_configs())
@example(config=pinned_sim_config())
def test_run_simulation_matches_event_loop(config):
    """The array queue gives the event loop's blocks exactly and its times,
    per block and per run, to within 1e-9 relative."""
    got, want = run_simulation(config), reference_run_simulation(config)
    records, expected = got.per_block_records, want.per_block_records
    assert records.dtype.names == BLOCK_TABLE_COLUMNS
    for name in ("block", "tx_count", "block_bytes", "cut_time_s", "cut_reason"):
        assert records[name].tolist() == expected[name].tolist(), name
    assert got.to_dict()["cut_reasons"] == want.to_dict()["cut_reasons"]
    for name in ("commit_time_s", "mean_latency_s"):
        np.testing.assert_allclose(records[name], expected[name], rtol=1e-9, atol=0,
                                   err_msg=name)
    for name in ("throughput_tps", "mean_latency_s", "makespan_s"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-9, abs=0)


class TestPinnedOutputs:
    """Outputs of the array queue, regenerated once when it replaced the
    per-block event loop, which gave the same blocks and times within
    1e-14 relative; the cut, price and queue steps must reproduce them bit
    for bit."""

    def test_simulation(self, tmp_path):
        pinned = json.loads((DATA / "pinned_simulation.json").read_text(encoding="utf-8"))
        result = run_simulation(pinned_sim_config())
        assert min(result.to_dict()["cut_reasons"].values()) > 0
        assert result.to_dict() == pinned["result"]
        assert block_table(result, tmp_path) == pinned["block_table"]

    def test_training_dataset(self):
        """Regenerated when a grid's Poisson arrival seeds came to derive
        from ``derive_seed(rng_seed, "workload")``: the earlier grid code
        gives the same bytes with that arrival seed and noise seed 12."""
        pinned = json.loads((DATA / "pinned_dataset.json").read_text(encoding="utf-8"))
        data = pinned_dataset()
        assert data.dtype == np.float64
        assert np.array_equal(data, np.array(pinned, dtype=np.float64))
