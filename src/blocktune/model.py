"""Core domain model: transactions, committing nodes, block limits, and the
assignment objective.

An assignment maps every transaction to exactly one block (stored as a
block index per transaction, so the one-block-per-transaction rule holds by
construction). A feasible assignment keeps every block within the
per-block transaction cap ``ub`` and the per-block byte cap ``cb``. The
quantity being minimized is the total processing time: the sum over blocks
of the slowest committing node's predicted storing time plus latency for
that block's composition.

:func:`block_times` prices every non-empty block of a population of
assignments, given as each row's per-block transaction counts and byte
sums, once per node in one predict call, and :func:`processing_times`
sums each row in block order. Callers count once and price from those
counts: the exhaustive search and :func:`total_processing_time` from their
:func:`block_stats`, and the genetic search from its repair's, through a
:func:`population_pricer` that, given one transaction size, prices each
block count once per search. So an assignment prices the same alone or in
a population.

Performance predictors are duck-typed and batch-only: anything exposing
``predict_f_batch(points)`` and ``predict_g_batch(points)`` over (k, 3)
arrays with columns (tx_count, block_bytes, bandwidth) works, which lets
tests plug in analytic stubs. Each row's answer must not depend on the
other rows of its batch. An optional ``extrapolation_mask(points)`` flags
rows outside the training envelope for reports.

All types are immutable after construction and safe to share between
concurrent evaluators; every operation here is a pure function of its
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ConstraintViolationError,
    EmptyInstanceError,
    InfeasibleInstanceError,
    MalformedAssignmentError,
)

TX_COUNT_CAP = "tx-count-cap"
BLOCK_BYTE_CAP = "block-byte-cap"


@dataclass(frozen=True)
class Transaction:
    """One transaction awaiting placement; ``size_bytes`` must be >= 1."""

    id: int
    size_bytes: int

    def __post_init__(self):
        if self.size_bytes < 1:
            raise InfeasibleInstanceError(
                f"transaction {self.id}: size_bytes must be >= 1, got {self.size_bytes}")


@dataclass(frozen=True)
class NodeProfile:
    """A committing node with a finite, strictly positive bandwidth in
    bytes/second."""

    id: int
    bandwidth_bytes_per_sec: float

    def __post_init__(self):
        if not 0 < self.bandwidth_bytes_per_sec < math.inf:
            raise InfeasibleInstanceError(
                f"node {self.id}: bandwidth_bytes_per_sec must be finite and > 0, "
                f"got {self.bandwidth_bytes_per_sec}")


@dataclass(frozen=True)
class BlockLimits:
    """Block formation limits.

    ``lb`` is the minimum per-block transaction count used only to derive
    the candidate block count, ``ub`` caps transactions per block, and
    ``cb`` caps block bytes.
    """

    lb: int
    ub: int
    cb: int

    def __post_init__(self):
        if self.lb < 1 or self.ub < 1 or self.cb < 1:
            raise InfeasibleInstanceError(
                f"limits must be positive, got lb={self.lb} ub={self.ub} cb={self.cb}")
        if self.lb > self.ub:
            raise InfeasibleInstanceError(
                f"lb={self.lb} exceeds ub={self.ub}")


def derive_block_count(n: int, lb: int) -> int:
    """Candidate block count: one spare block beyond the ceil(n / lb) needed."""
    return math.ceil(n / lb) + 1


@dataclass(frozen=True)
class ProblemInstance:
    """An immutable tuning problem: transactions, nodes, and limits.

    Construction rejects instances that cannot possibly be packed: the
    block count times the per-block caps must cover the transaction count
    and total bytes, every single transaction must fit under ``cb``, and
    at most ``nb`` transactions may exceed ``cb / 2``.
    """

    transactions: tuple[Transaction, ...]
    nodes: tuple[NodeProfile, ...]
    limits: BlockLimits
    nb: int = field(init=False)

    def __post_init__(self):
        txs = tuple(self.transactions)
        nodes = tuple(self.nodes)
        object.__setattr__(self, "transactions", txs)
        object.__setattr__(self, "nodes", nodes)
        if not txs:
            raise EmptyInstanceError("instance needs at least one transaction")
        if not nodes:
            raise InfeasibleInstanceError("instance needs at least one committing node")
        ids = [t.id for t in txs]
        if ids != list(range(len(txs))):
            raise InfeasibleInstanceError(
                "transaction ids must be unique and contiguous from 0")
        node_ids = [nd.id for nd in nodes]
        if node_ids != list(range(len(nodes))):
            raise InfeasibleInstanceError("node ids must be unique and contiguous from 0")

        # repair and block_stats sum block bytes as float64s, exact below 2**53
        total = sum(int(t.size_bytes) for t in txs)
        if total >= 2**53:
            raise ConfigError(f"transactions must sum to below 2**53 bytes, got {total}")
        sizes = np.array([t.size_bytes for t in txs], dtype=np.int64)
        bandwidths = np.array([nd.bandwidth_bytes_per_sec for nd in nodes], dtype=np.float64)
        sizes.flags.writeable = False
        bandwidths.flags.writeable = False
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_bandwidths", bandwidths)

        n = len(txs)
        nb = derive_block_count(n, self.limits.lb)
        object.__setattr__(self, "nb", nb)

        max_size = int(sizes.max())
        if max_size > self.limits.cb:
            raise InfeasibleInstanceError(
                f"largest transaction ({max_size} bytes) exceeds the block byte cap "
                f"cb={self.limits.cb}")
        if nb * self.limits.ub < n:
            raise InfeasibleInstanceError(
                f"{nb} blocks of at most {self.limits.ub} transactions cannot hold "
                f"all {n} transactions")
        if nb * self.limits.cb < total:
            raise InfeasibleInstanceError(
                f"{nb} blocks of at most {self.limits.cb} bytes cannot hold "
                f"{total} total bytes")
        # No two transactions larger than cb / 2 share a block.
        halves = int(np.count_nonzero(2 * sizes > self.limits.cb))
        if halves > nb:
            raise InfeasibleInstanceError(
                f"{halves} transactions exceed half the block byte cap "
                f"cb={self.limits.cb}, so each needs its own block, but there are "
                f"only {nb} blocks")

    @property
    def n(self) -> int:
        return len(self.transactions)

    @property
    def m(self) -> int:
        return len(self.nodes)

    @property
    def sizes(self) -> np.ndarray:
        """Transaction sizes in bytes, indexed by transaction id (read-only)."""
        return self._sizes

    @property
    def bandwidths(self) -> np.ndarray:
        """Node bandwidths in bytes/second, indexed by node id (read-only)."""
        return self._bandwidths

    @property
    def common_size(self) -> int | None:
        """The one size of every transaction, or None when sizes differ."""
        first = int(self._sizes[0])
        return first if (self._sizes == first).all() else None


class AssignmentMatrix:
    """A transaction-to-block assignment, stored as one block index per
    transaction, so each transaction lies in exactly one block by
    construction.
    """

    __slots__ = ("block_of", "nb")

    def __init__(self, block_of, nb: int):
        arr = np.asarray(block_of, dtype=np.int64).copy()
        if arr.ndim != 1:
            raise MalformedAssignmentError("assignment must be a flat index vector")
        if arr.size and (arr.min() < 0 or arr.max() >= nb):
            raise MalformedAssignmentError(
                f"block indices must lie in [0, {nb}), got range "
                f"[{arr.min()}, {arr.max()}]")
        arr.flags.writeable = False
        self.block_of = arr
        self.nb = nb

    def __len__(self) -> int:
        return self.block_of.size


@dataclass(frozen=True)
class Violation:
    """One constraint breach: which rule, which block, observed vs. allowed."""

    constraint: str
    block: int
    observed: int
    allowed: int

    def describe(self) -> str:
        return (f"block {self.block}: {self.constraint} violated "
                f"({self.observed} > {self.allowed})")


@dataclass(frozen=True)
class ConstraintReport:
    """Every violation found in an assignment; empty means feasible."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_lines(self):
        if self.ok:
            return ["feasible: all blocks within caps"]
        return [v.describe() for v in self.violations]


def _check_length(instance: ProblemInstance, assignment: AssignmentMatrix):
    if len(assignment) != instance.n:
        raise MalformedAssignmentError(
            f"assignment covers {len(assignment)} transactions, instance has {instance.n}")
    if assignment.nb != instance.nb:
        raise MalformedAssignmentError(
            f"assignment was built for {assignment.nb} blocks, instance has {instance.nb}")


def block_stats(instance: ProblemInstance, matrix: np.ndarray):
    """Per-block transaction counts and byte sums of every assignment row of
    ``matrix`` (pop, n), each shaped (pop, nb). Byte sums are float64, exact
    for totals below 2**53."""
    pop = matrix.shape[0]
    nb = instance.nb
    flat = (matrix + (np.arange(pop) * nb)[:, None]).ravel()
    counts = np.bincount(flat, minlength=pop * nb)
    byte_sums = np.bincount(flat, weights=np.broadcast_to(
        instance.sizes.astype(np.float64), matrix.shape).ravel(),
        minlength=pop * nb)
    return counts.reshape(pop, nb), byte_sums.reshape(pop, nb)


def _assignment_stats(instance: ProblemInstance, assignment: AssignmentMatrix):
    """:func:`block_stats` of one assignment, as two length-nb arrays."""
    _check_length(instance, assignment)
    counts, byte_sums = block_stats(instance, assignment.block_of[None, :])
    return counts[0], byte_sums[0]


def validate_assignment(instance: ProblemInstance,
                        assignment: AssignmentMatrix) -> ConstraintReport:
    """Check every block against both caps; reports all violations, not just
    the first."""
    return _constraint_report(instance, *_assignment_stats(instance, assignment))


def _constraint_report(instance: ProblemInstance, counts, byte_sums) -> ConstraintReport:
    """Every cap violation of one assignment with these length-nb counts and
    byte sums."""
    violations = []
    for j in range(instance.nb):
        if counts[j] > instance.limits.ub:
            violations.append(Violation(TX_COUNT_CAP, j, int(counts[j]),
                                        instance.limits.ub))
        if byte_sums[j] > instance.limits.cb:
            violations.append(Violation(BLOCK_BYTE_CAP, j, int(byte_sums[j]),
                                        instance.limits.cb))
    return ConstraintReport(tuple(violations))


def block_times(instance: ProblemInstance, counts: np.ndarray,
                byte_sums: np.ndarray, predictor):
    """Processing time of every block of a population of assignments, given
    by each row's per-block transaction counts and byte sums, both (pop, nb)
    as :func:`block_stats` returns them: the slowest node's predicted f + g,
    0 for an empty block. Byte sums may be integer or float64; either gives
    the same times.

    Every non-empty block is priced on every node in one predict call. The
    predictor must price a row the same whatever else its batch holds, so a
    block's time does not depend on the rest of the population. Blocks are
    not grouped by (tx_count, block_bytes) pair first: in a generation of
    mixed sizes nearly every pair is distinct, and one transaction size
    prices from :func:`population_pricer`'s count table instead.

    Returns the (pop, nb) times and the feature rows priced: one
    (tx_count, block_bytes, bandwidth) row per non-empty block and node, in
    block order, then node order. The rows are column-major, because the
    predictor reads them one feature column at a time.
    """
    nonempty = np.flatnonzero(counts)
    rows, per_node = _node_times(instance, counts.ravel()[nonempty],
                                 byte_sums.ravel()[nonempty], predictor)
    times = np.zeros(counts.size, dtype=np.float64)
    times[nonempty] = per_node.max(axis=1)
    return times.reshape(counts.shape), rows


def _node_times(instance: ProblemInstance, block_counts, block_bytes, predictor):
    """These blocks' priced rows (see :func:`block_times`) and f + g, (blocks, m)."""
    m = instance.m
    rows = np.empty((block_counts.size * m, 3), dtype=np.float64, order="F")
    rows[:, 0] = np.repeat(block_counts.astype(np.float64), m)
    rows[:, 1] = np.repeat(block_bytes, m)
    rows[:, 2] = np.tile(instance.bandwidths, block_counts.size)
    per_node = (np.asarray(predictor.predict_f_batch(rows), dtype=np.float64)
                + np.asarray(predictor.predict_g_batch(rows), dtype=np.float64))
    return rows, per_node.reshape(block_counts.size, m)


def processing_times(instance: ProblemInstance, counts: np.ndarray,
                     byte_sums: np.ndarray, predictor):
    """The objective for every assignment of a population, given by its
    per-block counts and byte sums (see :func:`block_times`): the sum of its
    block times, accumulated in block order. Returns the (pop,) totals with
    the feature rows priced, one per non-empty block and node.

    The assignments must already be feasible.
    """
    times, rows = block_times(instance, counts, byte_sums, predictor)
    # cumsum adds strictly in block order. sum(axis=1) adds pairwise and
    # rounds differently, which would change saved best_fitness values.
    return np.cumsum(times, axis=1)[:, -1], rows


def population_pricer(instance: ProblemInstance, predictor):
    """A search's pricer: a function from a feasible population's per-block
    (counts, byte sums) to its :func:`processing_times` totals, extrapolating
    queries and queries, one per non-empty block and node of every row. With
    one :attr:`ProblemInstance.common_size`, each count a feasible block can
    hold, 1..min(ub, n, cb // size), is priced here once, and a call sums
    those times in block order by lookup, bit for bit, with no predict call."""
    mask = getattr(predictor, "extrapolation_mask",
                   lambda rows: np.zeros(rows.shape[0], dtype=bool))
    size = instance.common_size
    if size is None:
        def price(counts, byte_sums):
            fit, rows = processing_times(instance, counts, byte_sums, predictor)
            return fit, int(np.count_nonzero(mask(rows))), rows.shape[0]
        return price

    top = min(instance.limits.ub, instance.n, instance.limits.cb // size)
    count = np.arange(1, top + 1)
    rows, per_node = _node_times(instance, count, count * size, predictor)
    # entry c is a block of c transactions: its time and extrapolating rows
    time = np.concatenate(([0.0], per_node.max(axis=1)))
    extra = np.concatenate(([0], mask(rows).reshape(top, instance.m).sum(axis=1)))

    def price(counts, byte_sums):
        return (np.cumsum(time[counts], axis=1)[:, -1], int(extra[counts].sum()),
                int(np.count_nonzero(counts)) * instance.m)
    return price


def total_processing_time(instance: ProblemInstance, assignment: AssignmentMatrix,
                          predictor) -> float:
    """The optimization objective: sum of per-block processing times.

    Raises if the assignment violates a cap; callers repair first.
    """
    counts, byte_sums = _assignment_stats(instance, assignment)
    report = _constraint_report(instance, counts, byte_sums)
    if not report.ok:
        raise ConstraintViolationError(
            "assignment is infeasible: " + "; ".join(report.to_lines()))
    totals, _ = processing_times(instance, counts[None, :], byte_sums[None, :],
                                 predictor)
    return float(totals[0])


def recommended_block_size(assignment: AssignmentMatrix) -> int:
    """The block size to configure: the largest per-block transaction count."""
    if len(assignment) == 0:
        raise EmptyInstanceError("cannot recommend a block size with no transactions")
    counts = np.bincount(assignment.block_of, minlength=assignment.nb)
    return int(counts.max())

