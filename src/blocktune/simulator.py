"""Deterministic discrete-event stand-in for a live batch-committing ledger.

One orderer collects arriving transactions and cuts blocks when the pending
batch hits the transaction cap, would exceed the byte cap with the next
transaction, or times out. Every cut block is broadcast to every committing
node; each node serializes its own link (transfers) and its own CPU
(validation then commit). A block completes when its slowest node has
committed it, and a transaction's latency runs from its arrival to that
completion.

Synthetic ground-truth costs are affine: validation time is linear in
transaction count and bytes, committing time is a fixed overhead plus a
per-byte term, and each block pays a fixed dispatch overhead before
transfer. Transfer is bytes / bandwidth, optionally inflated by a
burst-congestion term (see ``GroundTruthCost.burst_window_s``) that makes
oversized bursts on thin links disproportionately expensive. Multiplicative
Gaussian noise with a small configurable standard deviation jitters the
validation and committing costs, clamped so costs stay positive.

Blocks are cut one block at a time, then priced once on every node, in
arrays. :func:`run_simulation` queues the priced blocks through each node's
link and CPU; :func:`generate_training_dataset` never queues, and takes one
training row per block into a (k, 6) float64 array whose columns are in
``surrogate.DATASET_COLUMNS`` order.

Event times are continuous doubles; simultaneous events resolve in
(time, sequence) order. Runs with equal configs and seeds are identical.
Distinct runs share no state and may execute concurrently.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

CUT_COUNT = "count"
CUT_BYTES = "bytes"
CUT_TIMEOUT = "timeout"

_NOISE_FLOOR = 0.05


@dataclass(frozen=True)
class WorkloadProfile:
    """Transaction generation: fixed-rate or Poisson arrivals, constant or
    uniformly random sizes."""

    arrival_rate_tps: float
    total_tx: int
    arrival_process: str = "fixed"
    tx_size_bytes: int | None = None
    tx_size_range_bytes: tuple | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.arrival_rate_tps <= 0:
            raise ConfigError("arrival_rate_tps must be > 0")
        if self.total_tx < 1:
            raise ConfigError("total_tx must be >= 1")
        if self.arrival_process not in ("fixed", "poisson"):
            raise ConfigError(
                f"arrival_process must be 'fixed' or 'poisson', got "
                f"{self.arrival_process!r}")
        if (self.tx_size_bytes is None) == (self.tx_size_range_bytes is None):
            raise ConfigError(
                "exactly one of tx_size_bytes / tx_size_range_bytes is required")
        if self.tx_size_bytes is not None and self.tx_size_bytes < 1:
            raise ConfigError("tx_size_bytes must be >= 1")
        if self.tx_size_range_bytes is not None:
            lo, hi = self.tx_size_range_bytes
            if lo < 1 or hi < lo:
                raise ConfigError("tx_size_range_bytes must satisfy 1 <= lo <= hi")

    @property
    def max_tx_size(self) -> int:
        if self.tx_size_bytes is not None:
            return self.tx_size_bytes
        return self.tx_size_range_bytes[1]


@dataclass(frozen=True)
class GroundTruthCost:
    """Synthetic per-node cost parameters, all in seconds (or seconds/byte).

    ``burst_window_s`` > 0 enables the burst-congestion transfer term:
    transfer = (bytes / bw) * (1 + bytes / (bw * burst_window_s)), so blocks
    much larger than one window's worth of link capacity pay quadratically.
    0 disables it, leaving the plain bytes / bandwidth transfer.
    """

    vt_per_tx_s: float = 0.002
    vt_per_byte_s: float = 2.0e-8
    ct_fixed_s: float = 0.03
    ct_per_byte_s: float = 3.0e-8
    dispatch_overhead_s: float = 0.02
    burst_window_s: float = 0.0
    noise_sd_fraction: float = 0.02

    def __post_init__(self):
        for name in ("vt_per_tx_s", "vt_per_byte_s", "ct_fixed_s", "ct_per_byte_s",
                     "dispatch_overhead_s", "burst_window_s", "noise_sd_fraction"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.noise_sd_fraction >= 0.2:
            raise ConfigError("noise_sd_fraction must be < 0.2")

    def transfer_s(self, block_bytes: int, bandwidth: float) -> float:
        base = block_bytes / bandwidth
        if self.burst_window_s > 0:
            base *= 1.0 + block_bytes / (bandwidth * self.burst_window_s)
        return base

    def vt_s(self, tx_count: int, block_bytes: int) -> float:
        return self.vt_per_tx_s * tx_count + self.vt_per_byte_s * block_bytes

    def ct_s(self, block_bytes: int) -> float:
        return self.ct_fixed_s + self.ct_per_byte_s * block_bytes


@dataclass(frozen=True)
class BlockCutRule:
    """When the orderer closes the pending batch into a block."""

    max_tx_count: int
    max_bytes: int
    timeout_s: float

    def __post_init__(self):
        if self.max_tx_count < 1 or self.max_bytes < 1:
            raise ConfigError("block cut limits must be >= 1")
        if self.timeout_s <= 0:
            raise ConfigError("timeout_s must be > 0")


@dataclass(frozen=True)
class SimConfig:
    """One complete scenario: workload, nodes, cut rule, costs, and seed."""

    workload: WorkloadProfile
    nodes: tuple
    block_cut: BlockCutRule
    cost: GroundTruthCost
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ConfigError("at least one committing node is required")
        if self.workload.max_tx_size > self.block_cut.max_bytes:
            raise ConfigError(
                f"a transaction of {self.workload.max_tx_size} bytes can never fit "
                f"under max_bytes={self.block_cut.max_bytes}")


@dataclass(frozen=True)
class BlockRecord:
    """Everything measured about one committed block.

    ``mean_latency_s`` is the end-to-end transaction view (arrival to
    commit), which includes batching wait and queueing behind earlier
    blocks.
    """

    index: int
    tx_count: int
    block_bytes: int
    cut_time_s: float
    cut_reason: str
    commit_time_s: float
    mean_latency_s: float


@dataclass(frozen=True)
class SimResult:
    """Throughput, latency, and the per-block trace of one run."""

    throughput_tps: float
    mean_latency_s: float
    makespan_s: float
    total_tx: int
    per_block_records: tuple

    def to_dict(self) -> dict:
        return {
            "throughput_tps": self.throughput_tps,
            "mean_latency_s": self.mean_latency_s,
            "makespan_s": self.makespan_s,
            "total_tx": self.total_tx,
            "blocks": len(self.per_block_records),
            "cut_reasons": {
                reason: sum(1 for r in self.per_block_records
                            if r.cut_reason == reason)
                for reason in (CUT_COUNT, CUT_BYTES, CUT_TIMEOUT)
            },
        }

    def write_block_table(self, path):
        """Columnar per-block trace for external plotting."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("block,tx_count,block_bytes,cut_time_s,cut_reason,"
                     "commit_time_s,mean_latency_s\n")
            for r in self.per_block_records:
                fh.write(f"{r.index},{r.tx_count},{r.block_bytes},"
                         f"{r.cut_time_s!r},{r.cut_reason},{r.commit_time_s!r},"
                         f"{r.mean_latency_s!r}\n")


def _generate_workload(profile: WorkloadProfile):
    rng = np.random.default_rng(profile.rng_seed)
    if profile.arrival_process == "fixed":
        arrivals = np.arange(profile.total_tx, dtype=np.float64) / profile.arrival_rate_tps
    else:
        gaps = rng.exponential(1.0 / profile.arrival_rate_tps, size=profile.total_tx)
        arrivals = np.cumsum(gaps)
    if profile.tx_size_bytes is not None:
        sizes = np.full(profile.total_tx, profile.tx_size_bytes, dtype=np.int64)
    else:
        lo, hi = profile.tx_size_range_bytes
        sizes = rng.integers(lo, hi + 1, size=profile.total_tx, dtype=np.int64)
    return arrivals, sizes


def _cut_blocks(arrivals, sizes, rule: BlockCutRule):
    """The arrays (first, count, bytes, cut_time, reason), one entry per block
    in cut order. A block starting at transaction i ends before the first of
    i + max_tx_count, the first arrival at or after arrivals[i] + timeout_s,
    and the first transaction that would overflow max_bytes; ties go to the
    count cap, then the timeout, and the last block times out."""
    n = arrivals.size
    idx = np.arange(n)
    cum = np.concatenate(([0], np.cumsum(sizes)))
    by_count = idx + min(rule.max_tx_count, n + 1)
    by_timeout = np.maximum(
        np.searchsorted(arrivals, arrivals + rule.timeout_s, side="left"), idx + 1)
    # cum[k] - cum[i] is the size of transactions i..k-1, so the first k past
    # the cap is one beyond the first transaction that does not fit. A cap at
    # or above the total never binds; clamping it keeps the sum in int64.
    max_bytes = min(rule.max_bytes, int(cum[-1]))
    by_bytes = np.searchsorted(cum, cum[:-1] + max_bytes, side="right") - 1
    end = np.minimum(np.minimum(by_count, by_timeout), by_bytes)

    first, i, ends = [], 0, end.tolist()
    while i < n:
        first.append(i)
        i = ends[i]
    first = np.array(first, dtype=np.int64)
    last = end[first]
    is_count = last == by_count[first]
    is_timeout = ~is_count & (last == by_timeout[first])
    reason = np.where(is_count, CUT_COUNT,
                      np.where(is_timeout, CUT_TIMEOUT, CUT_BYTES))
    cut_time = np.where(
        is_count, arrivals[last - 1],
        np.where(is_timeout, arrivals[first] + rule.timeout_s,
                 arrivals[np.minimum(last, n - 1)]))
    return first, last - first, cum[last] - cum[first], cut_time, reason


def _block_costs(count, nbytes, config: SimConfig):
    """Price every block on every node: (transfer, vt, ct) arrays of shape
    (blocks, nodes). The noise is one draw in (block, node, vt/ct) order."""
    cost = config.cost
    bw = np.array([node.bandwidth_bytes_per_sec for node in config.nodes])
    transfer = cost.transfer_s(nbytes[:, None], bw)
    noise_rng = np.random.default_rng(np.random.SeedSequence((config.rng_seed, 2)))
    noise = np.maximum(1.0 + noise_rng.normal(0.0, cost.noise_sd_fraction,
                                              size=(count.size, bw.size, 2)),
                       _NOISE_FLOOR)
    vt = cost.vt_s(count, nbytes)[:, None] * noise[:, :, 0]
    ct = cost.ct_s(nbytes)[:, None] * noise[:, :, 1]
    return transfer, vt, ct


def run_simulation(config: SimConfig) -> SimResult:
    """Run one scenario end to end and measure throughput and latency.

    Every generated transaction is committed exactly once; commit times
    respect causality (commit >= cut >= first-member arrival).
    """
    arrivals, sizes = _generate_workload(config.workload)
    blocks = _cut_blocks(arrivals, sizes, config.block_cut)
    costs = _block_costs(blocks[1], blocks[2], config)
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
        records.append(BlockRecord(
            index=index, tx_count=count, block_bytes=nbytes,
            cut_time_s=cut_time, cut_reason=reason, commit_time_s=commit,
            mean_latency_s=block_latency / count))

    total = config.workload.total_tx
    return SimResult(
        throughput_tps=total / makespan,
        mean_latency_s=latency_sum / total,
        makespan_s=makespan,
        total_tx=total,
        per_block_records=tuple(records),
    )


def derive_seed(root: int, *parts) -> int:
    """Deterministic child seed in [0, 2**32) from a root seed and a label
    path of strings and integers; integers are taken modulo 2**32."""
    ints = [int(root) & 0xFFFFFFFF]
    for part in parts:
        if isinstance(part, str):
            ints.append(zlib.crc32(part.encode("utf-8")))
        else:
            ints.append(int(part) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(ints).generate_state(1)[0])


def generate_training_dataset(base: SimConfig, block_sizes, tx_sizes, bandwidths,
                              replicates: int = 1):
    """Cut and price one scenario per (block size, tx size, bandwidth) grid
    cell and replicate, harvesting one training row per block; the blocks
    are never queued.

    Each cell is a single-node scenario so the bandwidth feature is
    unambiguous. The latency target is the block's own service latency
    (dispatch + transfer + validation + commit), i.e. the per-block cost
    the optimizer prices, not the workload-dependent end-to-end latency.
    Returns the (k, 6) float64 dataset array, columns in
    ``surrogate.DATASET_COLUMNS`` order.
    """
    if not block_sizes or not tx_sizes or not bandwidths:
        raise ConfigError("training grid must not be empty")
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    from .model import NodeProfile

    chunks = []
    cells = itertools.product(block_sizes, tx_sizes, bandwidths)
    for cell, (bs, ts, bw) in enumerate(cells):
        for rep in range(replicates):
            workload = replace(base.workload, tx_size_bytes=int(ts),
                               tx_size_range_bytes=None,
                               rng_seed=derive_seed(base.workload.rng_seed, cell, rep))
            config = replace(
                base,
                workload=workload,
                nodes=(NodeProfile(0, float(bw)),),
                block_cut=replace(base.block_cut, max_tx_count=int(bs)),
                rng_seed=derive_seed(base.rng_seed, cell, rep))
            arrivals, sizes = _generate_workload(config.workload)
            _, count, nbytes, _, _ = _cut_blocks(arrivals, sizes, config.block_cut)
            transfer, vt, ct = _block_costs(count, nbytes, config)
            vt, ct = vt[:, 0], ct[:, 0]
            service = base.cost.dispatch_overhead_s + transfer[:, 0] + vt + ct
            chunks.append(np.column_stack(
                (count, nbytes, np.full(count.size, float(bw)), vt, ct, service)))
    return np.concatenate(chunks)


def throughput_vs_blocksize(config: SimConfig, candidate_sizes):
    """Measure (block size, throughput, mean latency) for every candidate
    transaction cap, holding the workload (and its seed) fixed."""
    if not candidate_sizes:
        raise ConfigError("candidate_sizes must not be empty")
    curve = []
    for size in candidate_sizes:
        point = replace(config,
                        block_cut=replace(config.block_cut, max_tx_count=int(size)))
        result = run_simulation(point)
        curve.append((int(size), result.throughput_tps, result.mean_latency_s))
    return curve
