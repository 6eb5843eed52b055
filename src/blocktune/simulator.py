"""Deterministic stand-in for a live batch-committing ledger, in arrays.

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

Blocks are cut one block at a time by :func:`_cut_blocks`, then priced
once on every link by :func:`_price`, the one place the cost formula is
applied. :func:`run_simulation` queues the priced blocks through each
node's link and CPU, each a first-in, first-out server: a block finishes
at max(ready, the previous block's finish) + its service, the Lindley
recursion, which :func:`_serve` solves for every block and node at once.
Blocks ready at equal times are served in block order. The blocks stay
columns: a run's per-block trace is one read-only record array, a field per
``BLOCK_TABLE_COLUMNS`` name, built from those arrays.
:func:`generate_training_dataset` never queues. The cells of its
:class:`DataGrid` that draw the same workload under the same cut rule share
one cut, each keeps its own noise draw, and the whole grid is priced in one
pass, one training row per block, into a (k, 6) float64 array whose columns
are in ``surrogate.DATASET_COLUMNS`` order.

Each entry takes one validated config and draws its own workloads:
:func:`run_simulation` a :class:`SimConfig`, :func:`throughput_vs_blocksize`
one and a list of block sizes, and :func:`generate_training_dataset` a
:class:`DataGrid`, which holds every value its harvest reads. Times are
continuous doubles. Runs with equal configs and seeds are identical.
Distinct runs share no state and may execute concurrently.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError
from .model import NodeProfile

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
    tx_size_range_bytes: tuple[int, int] | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.arrival_rate_tps < math.inf:
            raise ConfigError(f"arrival_rate_tps must be finite and > 0, "
                              f"got {self.arrival_rate_tps}")
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
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 <= value < math.inf:
                raise ConfigError(f"{f.name} must be finite and >= 0, got {value}")
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
        if not 0 < self.timeout_s < math.inf:
            raise ConfigError(f"timeout_s must be finite and > 0, got {self.timeout_s}")


def _check_bytes(total_tx: int, max_tx_size: int, max_bytes: int, count_key: str):
    """Raise ConfigError unless a transaction of ``max_tx_size`` bytes fits
    under ``max_bytes`` and ``total_tx`` of them sum below 2**63, as the
    int64 byte sums of a cut need; ``count_key`` names ``total_tx``."""
    if max_tx_size > max_bytes:
        raise ConfigError(f"a transaction of {max_tx_size} bytes can never fit "
                          f"under max_bytes={max_bytes}")
    if total_tx * max_tx_size >= 2**63:
        raise ConfigError(f"{count_key} times the largest transaction size must lie "
                          f"below 2**63 bytes, got {total_tx} * {max_tx_size}")


@dataclass(frozen=True)
class SimConfig:
    """One complete scenario: workload, nodes, cut rule, costs, and seed."""

    workload: WorkloadProfile
    nodes: tuple[NodeProfile, ...]
    block_cut: BlockCutRule
    cost: GroundTruthCost = GroundTruthCost()
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ConfigError("at least one committing node is required")
        _check_bytes(self.workload.total_tx, self.workload.max_tx_size,
                     self.block_cut.max_bytes, "workload.total_tx")


@dataclass(frozen=True)
class DataGrid:
    """A training sample set, and gen-data's config: every (block size, tx
    size, bandwidth) cell simulated ``replicates`` times on one node. Each
    tx size's workload and each block size's cut rule are built, and so
    checked, once here."""

    block_sizes: tuple[int, ...]
    tx_sizes: tuple[int, ...]
    bandwidths: tuple[float, ...]
    arrival_rate_tps: float
    total_tx: int
    max_bytes: int
    timeout_s: float
    arrival_process: str = "fixed"
    replicates: int = 1
    cost: GroundTruthCost = GroundTruthCost()
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("block_sizes", "tx_sizes"):
            if not getattr(self, name) or min(getattr(self, name)) < 1:
                raise ConfigError(f"{name} must be a non-empty list of integers >= 1, "
                                  f"got {list(getattr(self, name))}")
        if not self.bandwidths or not all(0 < bw < math.inf for bw in self.bandwidths):
            raise ConfigError(f"bandwidths must be a non-empty list of finite numbers "
                              f"> 0, got {list(self.bandwidths)}")
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        object.__setattr__(self, "_workloads", {
            ts: WorkloadProfile(self.arrival_rate_tps, self.total_tx, self.arrival_process,
                                tx_size_bytes=int(ts))
            for ts in self.tx_sizes})
        object.__setattr__(self, "_rules", {
            bs: BlockCutRule(int(bs), self.max_bytes, self.timeout_s)
            for bs in self.block_sizes})
        _check_bytes(self.total_tx, max(self.tx_sizes), self.max_bytes, "total_tx")


# The fields of ``SimResult.per_block_records``, in order, and the header of
# ``simulate``'s per-block table.
BLOCK_TABLE_COLUMNS = ("block", "tx_count", "block_bytes", "cut_time_s", "cut_reason",
                       "commit_time_s", "mean_latency_s")


@dataclass(frozen=True, eq=False)
class SimResult:
    """Throughput, latency, and the per-block trace of one run.

    ``per_block_records`` is a read-only ``np.recarray``, one row per block
    in cut order and one field per ``BLOCK_TABLE_COLUMNS`` name; a block's
    ``mean_latency_s`` is its transactions' mean arrival-to-commit time,
    which includes batching wait and queueing behind earlier blocks, and
    ``len()`` is the block count. The JSON, :meth:`to_dict`, is a summary:
    the block count and the count per cut reason stand in for the records.
    """

    throughput_tps: float
    mean_latency_s: float
    makespan_s: float
    total_tx: int
    per_block_records: np.recarray

    def to_dict(self) -> dict:
        reasons = self.per_block_records.cut_reason
        return {
            "throughput_tps": self.throughput_tps,
            "mean_latency_s": self.mean_latency_s,
            "makespan_s": self.makespan_s,
            "total_tx": self.total_tx,
            "blocks": len(self.per_block_records),
            "cut_reasons": {reason: int(np.count_nonzero(reasons == reason))
                            for reason in (CUT_COUNT, CUT_BYTES, CUT_TIMEOUT)},
        }


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
    # the cap is one beyond the first transaction that does not fit. A bound
    # at or above the total never binds; clamping it keeps the sums in int64.
    max_bytes = min(rule.max_bytes, int(cum[-1]))
    bound = np.minimum(cum[:-1], cum[-1] - max_bytes) + max_bytes
    by_bytes = np.searchsorted(cum, bound, side="right") - 1
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


def _finite_times(*times):
    """Raise ConfigError naming ``cost`` unless every time is finite: each
    cost parameter is finite, but a product or a sum of them can overflow."""
    if not all(np.isfinite(t).all() for t in times):
        raise ConfigError("cost: the simulated times overflow; "
                          "the cost parameters are too large or too small")


def _jitter(seed: int, sd: float, shape):
    """The Gaussian noise of a scenario seeded ``seed``: one draw of ``shape``
    from ``SeedSequence((seed, 2))``, in C order."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    return rng.normal(0.0, sd, size=shape)


def _price(cost: GroundTruthCost, count, nbytes, bw, jitter):
    """Every block's (transfer, vt, ct) on its links, arrays of shape
    (blocks, links). ``count`` and ``nbytes`` are per block; ``bw`` is a
    run's node bandwidths, (nodes,), or each block's own link, (blocks, 1);
    ``jitter`` is :func:`_jitter`'s (blocks, links, 2) draw, which scales vt
    and ct by 1 + jitter floored at ``_NOISE_FLOOR``. Overflow is left to the
    caller's :func:`_finite_times` check."""
    noise = np.maximum(1.0 + jitter, _NOISE_FLOOR)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        transfer = cost.transfer_s(nbytes[:, None], bw)
        vt = cost.vt_s(count, nbytes)[:, None] * noise[:, :, 0]
        ct = cost.ct_s(nbytes)[:, None] * noise[:, :, 1]
    return transfer, vt, ct


def _cut_and_price(config: SimConfig):
    """The arrivals of ``config``'s workload, its blocks (first, count, bytes,
    cut_time, reason) from :func:`_cut_blocks`, and every block's (transfer,
    vt, ct) on every node from :func:`_price`, arrays of shape (blocks,
    nodes). The noise is one draw in (block, node, vt/ct) order. A priced
    time that is not finite raises ConfigError naming ``cost``."""
    arrivals, sizes = _generate_workload(config.workload)
    blocks = _cut_blocks(arrivals, sizes, config.block_cut)
    count, nbytes = blocks[1], blocks[2]
    bw = np.array([node.bandwidth_bytes_per_sec for node in config.nodes])
    jitter = _jitter(config.rng_seed, config.cost.noise_sd_fraction,
                     (count.size, bw.size, 2))
    costs = _price(config.cost, count, nbytes, bw, jitter)
    _finite_times(*costs)
    return arrivals, blocks, costs


def _serve(ready, service):
    """Finish times of first-in, first-out servers, one per column, that take
    their rows in order: finish_i = max(ready_i, finish_{i-1}) + service_i.
    With S_i the service through row i and S_-1 = 0, that unrolls to S_i +
    max over j <= i of (ready_j - S_{j-1}); inputs must be finite."""
    done = np.cumsum(service, axis=0)
    before = np.concatenate((np.zeros_like(done[:1]), done[:-1]))
    return done + np.maximum.accumulate(ready - before, axis=0)


def run_simulation(config: SimConfig) -> SimResult:
    """Run one scenario end to end and measure throughput and latency.

    Every generated transaction is committed exactly once; commit times
    respect causality (commit >= cut >= first-member arrival). A priced or
    queued time that is not finite raises ConfigError naming ``cost``.
    """
    arrivals, blocks, (transfer, vt, ct) = _cut_and_price(config)
    first, count, nbytes, cut_time, reason = blocks
    with np.errstate(over="ignore", invalid="ignore"):
        link = _serve(cut_time[:, None] + config.cost.dispatch_overhead_s, transfer)
        commit = _serve(link, vt + ct).max(axis=1)
        latency = commit * count - np.add.reduceat(arrivals, first)
        total_latency = float(latency.sum())
    _finite_times(commit, latency, total_latency)
    total = config.workload.total_tx
    makespan = float(commit.max())
    records = np.rec.fromarrays(
        (np.arange(count.size), count, nbytes, cut_time, reason, commit, latency / count),
        names=BLOCK_TABLE_COLUMNS)
    records.flags.writeable = False
    return SimResult(throughput_tps=total / makespan,
                     mean_latency_s=total_latency / total, makespan_s=makespan,
                     total_tx=total, per_block_records=records)


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


def generate_training_dataset(grid: DataGrid):
    """Cut and price one single-node scenario, so the bandwidth feature is
    unambiguous, per cell of ``grid`` and replicate, harvesting one training
    row per block; the blocks are never queued.

    A cell's noise seed is :func:`derive_seed` of ``rng_seed``, the cell's
    index and the replicate; on a Poisson grid its workload seed is that of
    ``derive_seed(rng_seed, "workload")``. A one-size fixed-rate workload
    draws nothing from its seed, so a fixed-rate grid clears it. The
    :func:`_cut_blocks` results are cached on (block size, tx size, workload
    seed): on a fixed-rate grid the cells with the same block size and tx
    size share one cut, whatever their bandwidth or replicate, and a Poisson
    cell keeps its own. The noise stays per cell: each cell draws its own
    :func:`_jitter`, in cell then replicate order. The blocks of every cell
    are then priced in one :func:`_price` pass, each on its own cell's
    bandwidth, and the service times are checked once: a time that is not
    finite raises ConfigError naming ``cost``.

    The latency target is the block's own service latency (dispatch +
    transfer + validation + commit), i.e. the per-block cost the optimizer
    prices, not the workload-dependent end-to-end latency. Returns the
    (k, 6) float64 dataset array, columns in ``surrogate.DATASET_COLUMNS``
    order.
    """
    fixed = grid.arrival_process == "fixed"
    workload_seed = derive_seed(grid.rng_seed, "workload")
    cuts = {}
    counts, nbytes, links, jitters = [], [], [], []
    cells = itertools.product(grid.block_sizes, grid.tx_sizes, grid.bandwidths)
    for cell, (bs, ts, bw) in enumerate(cells):
        for rep in range(grid.replicates):
            seed = 0 if fixed else derive_seed(workload_seed, cell, rep)
            key = (bs, ts, seed)
            if key not in cuts:
                drawn = _generate_workload(replace(grid._workloads[ts], rng_seed=seed))
                cuts[key] = _cut_blocks(*drawn, grid._rules[bs])[1:3]
            count, block_bytes = cuts[key]
            counts.append(count)
            nbytes.append(block_bytes)
            links.append(float(bw))
            jitters.append(_jitter(derive_seed(grid.rng_seed, cell, rep),
                                   grid.cost.noise_sd_fraction, (count.size, 1, 2)))
    count, nbytes = np.concatenate(counts), np.concatenate(nbytes)
    bw = np.repeat(links, [c.size for c in counts])[:, None]
    transfer, vt, ct = _price(grid.cost, count, nbytes, bw, np.concatenate(jitters))
    with np.errstate(over="ignore"):
        service = grid.cost.dispatch_overhead_s + transfer + vt + ct
    _finite_times(service)
    return np.column_stack((count, nbytes, bw, vt, ct, service))


def throughput_vs_blocksize(config: SimConfig, candidate_sizes):
    """Measure (block size, throughput, mean latency) for every candidate
    transaction cap, each run alone by :func:`run_simulation` on
    ``config``'s workload (and its seed)."""
    if not candidate_sizes:
        raise ConfigError("candidate_sizes must not be empty")
    curve = []
    for size in candidate_sizes:
        result = run_simulation(replace(
            config, block_cut=replace(config.block_cut, max_tx_count=int(size))))
        curve.append((int(size), result.throughput_tps, result.mean_latency_s))
    return curve
