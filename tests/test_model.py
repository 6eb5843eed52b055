"""Core model: block counting, constraint checks, and the objective."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktune.errors import (
    ConstraintViolationError,
    EmptyInstanceError,
    InfeasibleInstanceError,
    MalformedAssignmentError,
)
from blocktune.model import (
    AssignmentMatrix,
    BlockLimits,
    NodeProfile,
    ProblemInstance,
    Transaction,
    block_stats,
    block_times,
    derive_block_count,
    processing_times,
    recommended_block_size,
    total_processing_time,
    validate_assignment,
)

from conftest import (
    StubPredictor,
    affine_stub,
    block_rows,
    feasible_populations,
    make_instance,
)


def python_total_time(instance, block_of, f, g):
    """Independent objective evaluation: plain python loops over blocks and
    nodes, no shared code with the implementation."""
    total = 0.0
    for j in range(instance.nb):
        members = [i for i in range(instance.n) if block_of[i] == j]
        if not members:
            continue
        count = len(members)
        nbytes = sum(instance.transactions[i].size_bytes for i in members)
        worst = 0.0
        for node in instance.nodes:
            bw = node.bandwidth_bytes_per_sec
            worst = max(worst, f(count, nbytes, bw) + g(count, nbytes, bw))
        total += worst
    return total


def enumerate_optimum(instance, f, g):
    """Exhaustive search over all feasible block-index vectors."""
    best = None
    for combo in itertools.product(range(instance.nb), repeat=instance.n):
        counts = [0] * instance.nb
        loads = [0] * instance.nb
        for i, j in enumerate(combo):
            counts[j] += 1
            loads[j] += instance.transactions[i].size_bytes
        if any(c > instance.limits.ub for c in counts):
            continue
        if any(b > instance.limits.cb for b in loads):
            continue
        value = python_total_time(instance, combo, f, g)
        if best is None or value < best[1]:
            best = (combo, value)
    return best


class TestDeriveBlockCount:
    def test_table_formula(self):
        assert derive_block_count(10, 5) == 3

    def test_single(self):
        assert derive_block_count(1, 1) == 2

    def test_rounding_up(self):
        assert derive_block_count(7, 3) == 4


class TestInstanceConstruction:
    def test_nb_derived(self):
        inst = make_instance([100] * 10, lb=5, ub=10)
        assert inst.nb == 3

    def test_rejects_oversized_transaction(self):
        with pytest.raises(InfeasibleInstanceError):
            make_instance([100, 500], cb=400)

    def test_rejects_insufficient_count_capacity(self):
        # nb = ceil(6/5)+1 = 3 blocks of 1 transaction < 6 transactions
        with pytest.raises(InfeasibleInstanceError):
            make_instance([10] * 6, lb=5, ub=1)

    def test_rejects_insufficient_byte_capacity(self):
        # nb = 2 blocks of <= 100 bytes cannot hold 3 x 100 bytes
        with pytest.raises(InfeasibleInstanceError):
            make_instance([100, 100, 100], lb=3, ub=3, cb=100)

    def test_rejects_more_large_transactions_than_blocks(self):
        # nb = ceil(4/2)+1 = 3 blocks; no two 7-byte transactions share a
        # 10-byte block, although 3 * 10 >= 28 bytes
        with pytest.raises(InfeasibleInstanceError, match="^4 transactions exceed half"):
            make_instance([7, 7, 7, 7], lb=2, ub=4, cb=10)
        assert make_instance([7, 7, 7, 3], lb=2, ub=4, cb=10).nb == 3

    def test_rejects_noncontiguous_ids(self):
        with pytest.raises(InfeasibleInstanceError):
            ProblemInstance(
                transactions=(Transaction(0, 10), Transaction(2, 10)),
                nodes=(NodeProfile(0, 1e6),),
                limits=BlockLimits(1, 2, 100),
            )

    def test_rejects_bad_limits(self):
        with pytest.raises(InfeasibleInstanceError):
            BlockLimits(lb=5, ub=3, cb=100)

    def test_rejects_empty(self):
        with pytest.raises(EmptyInstanceError):
            make_instance([], ub=1, cb=100)


class TestValidateAssignment:
    def test_single_feasible(self):
        inst = make_instance([100], ub=1, cb=200)
        report = validate_assignment(inst, AssignmentMatrix([0], inst.nb))
        assert report.ok
        assert report.to_lines() == ["feasible: all blocks within caps"]

    def test_count_cap_violation(self):
        inst = make_instance([10, 10, 10], ub=2)
        report = validate_assignment(inst, AssignmentMatrix([0, 0, 0], inst.nb))
        assert len(report.violations) == 1
        v = report.violations[0]
        assert (v.constraint, v.block, v.observed, v.allowed) == ("tx-count-cap", 0, 3, 2)

    def test_byte_cap_violation(self):
        inst = make_instance([100, 100], ub=2, cb=150)
        report = validate_assignment(inst, AssignmentMatrix([1, 1], inst.nb))
        assert len(report.violations) == 1
        v = report.violations[0]
        assert (v.constraint, v.block, v.observed, v.allowed) == ("block-byte-cap", 1, 200, 150)

    def test_reports_every_violation(self):
        inst = make_instance([100] * 4, lb=1, ub=1, cb=100)
        report = validate_assignment(inst, AssignmentMatrix([0, 0, 1, 1], inst.nb))
        kinds = {(v.constraint, v.block) for v in report.violations}
        assert kinds == {("tx-count-cap", 0), ("block-byte-cap", 0),
                         ("tx-count-cap", 1), ("block-byte-cap", 1)}
        assert not report.ok and len(report.violations) == 4

    def test_length_mismatch(self):
        inst = make_instance([100, 100])
        with pytest.raises(MalformedAssignmentError):
            validate_assignment(inst, AssignmentMatrix([0], inst.nb))

    def test_out_of_range_index(self):
        inst = make_instance([100, 100])
        with pytest.raises(MalformedAssignmentError):
            AssignmentMatrix([0, inst.nb], inst.nb)


def stats(inst, block_of, j):
    """(transaction count, byte sum) of block ``j`` of one assignment."""
    counts, byte_sums = block_stats(inst, np.array([block_of]))
    return int(counts[0, j]), int(byte_sums[0, j])


def block_time(inst, block_of, j, predictor):
    """Processing time of block ``j`` of one assignment."""
    times, _, _ = block_times(inst, *block_stats(inst, np.array([block_of])), predictor)
    return float(times[0, j])


class TestBlockMetrics:
    def test_empty_block(self):
        inst = make_instance([100, 250])
        assert stats(inst, [0, 0], 1) == (0, 0)

    def test_two_transactions(self):
        inst = make_instance([100, 250])
        assert stats(inst, [1, 1], 1) == (2, 350)

    def test_all_in_block_zero(self):
        sizes = [17, 23, 41, 9]
        inst = make_instance(sizes)
        assert stats(inst, [0] * 4, 0) == (4, sum(sizes))


class TestBlockProcessingTime:
    def test_empty_block_is_zero(self):
        inst = make_instance([100, 200])
        stub = StubPredictor(lambda c, b, w: c, lambda c, b, w: b)
        assert block_time(inst, [0, 0], 1, stub) == 0.0

    def test_count_plus_bytes_stub(self):
        inst = make_instance([100, 200])
        stub = StubPredictor(lambda c, b, w: c, lambda c, b, w: b)
        assert block_time(inst, [0, 0], 0, stub) == pytest.approx(302.0)

    def test_slowest_node_dominates(self):
        inst = make_instance([1000], bandwidths=(1e6, 1e7))
        stub = StubPredictor(lambda c, b, w: b / w, lambda c, b, w: 0.0 * c)
        assert block_time(inst, [0], 0, stub) == pytest.approx(0.001)

    def test_more_nodes_never_faster(self):
        stub = StubPredictor(lambda c, b, w: b / w, lambda c, b, w: c / w)
        sizes = [100, 300, 700]
        base = make_instance(sizes, bandwidths=(2e6,))
        more = make_instance(sizes, bandwidths=(2e6, 5e5))
        assign = [0, 1, 0]
        for j in range(base.nb):
            assert block_time(more, assign, j, stub) >= block_time(base, assign, j, stub)


@settings(max_examples=150, deadline=None)
@given(case=feasible_populations(), fitted=st.booleans())
def test_population_prices_each_row_alone(fitted_predictor, case, fitted):
    """A matrix prices each distinct block once, yet every member's block
    times and total are bit for bit those of the member priced alone, and
    each block's time is the slowest node of its own rows priced alone."""
    inst, pop = case
    predictor = fitted_predictor if fitted else affine_stub()
    counts, byte_sums = block_stats(inst, pop)
    times, rows, weights = block_times(inst, counts, byte_sums, predictor)
    totals, _, _ = processing_times(inst, counts, byte_sums, predictor)
    for i, member in enumerate(pop):
        alone = block_stats(inst, member[None, :])
        alone_times, _, _ = block_times(inst, *alone, predictor)
        alone_total, _, _ = processing_times(inst, *alone, predictor)
        assert np.array_equal(times[i], alone_times[0])
        assert totals[i] == alone_total[0]

    assert (times[counts == 0] == 0).all()
    for j in np.flatnonzero(counts[0]):
        own = block_rows(inst, counts[0, j], byte_sums[0, j])
        assert times[0, j] == (predictor.predict_f_batch(own)
                               + predictor.predict_g_batch(own)).max()
    # one row per distinct (count, bytes) pair and node, weighted by blocks
    pairs = np.unique(np.column_stack([counts.ravel(), byte_sums.ravel()])[
        counts.ravel() > 0], axis=0)
    assert rows.shape == (pairs.shape[0] * inst.m, 3)
    assert np.unique(rows, axis=0).shape[0] == rows.shape[0]
    assert weights.sum() == np.count_nonzero(counts) * inst.m


class TestTotalProcessingTime:
    def test_single_block_equals_block_time(self):
        inst = make_instance([100, 200, 50])
        stub = StubPredictor(lambda c, b, w: 2 * c, lambda c, b, w: 0.01 * b)
        assign = AssignmentMatrix([0, 0, 0], inst.nb)
        assert total_processing_time(inst, assign, stub) == pytest.approx(
            block_time(inst, [0, 0, 0], 0, stub))

    def test_constant_stub_counts_nonempty_blocks(self):
        inst = make_instance([10] * 6, lb=2)
        stub = StubPredictor(lambda c, b, w: np.full_like(c, 3.5),
                             lambda c, b, w: np.zeros_like(c))
        assign = AssignmentMatrix([0, 0, 1, 1, 2, 2], inst.nb)
        assert total_processing_time(inst, assign, stub) == pytest.approx(3 * 3.5)

    def test_matches_python_oracle(self):
        f = lambda c, b, w: 0.1 + 0.01 * c * c + b / w
        g = lambda c, b, w: 0.002 * b / w
        inst = make_instance([120, 260, 75, 310], bandwidths=(1e5, 3e5), lb=2, ub=3)
        stub = StubPredictor(f, g)
        for block_of in itertools.product(range(inst.nb), repeat=inst.n):
            assign = AssignmentMatrix(block_of, inst.nb)
            if not validate_assignment(inst, assign).ok:
                continue
            expected = python_total_time(inst, block_of, f, g)
            assert total_processing_time(inst, assign, stub) == pytest.approx(expected)

    def test_infeasible_raises(self):
        inst = make_instance([10, 10, 10], ub=2)
        stub = StubPredictor(lambda c, b, w: c, lambda c, b, w: b)
        with pytest.raises(ConstraintViolationError):
            total_processing_time(inst, AssignmentMatrix([0, 0, 0], inst.nb), stub)

    def test_feasible_never_beats_enumerated_optimum(self):
        f = lambda c, b, w: 0.05 + 0.02 * c * c
        g = lambda c, b, w: b / w
        inst = make_instance([50, 80, 120, 60], bandwidths=(1e4,), lb=2, ub=3)
        stub = StubPredictor(f, g)
        _, best_value = enumerate_optimum(inst, f, g)
        for block_of in itertools.product(range(inst.nb), repeat=inst.n):
            assign = AssignmentMatrix(block_of, inst.nb)
            if validate_assignment(inst, assign).ok:
                assert total_processing_time(inst, assign, stub) >= best_value - 1e-12


class TestPermutationInvariance:
    def test_relabeling_blocks_changes_nothing(self):
        rng = np.random.default_rng(5)
        f = lambda c, b, w: 0.1 * c + b / w
        g = lambda c, b, w: 0.01 * b / w
        stub = StubPredictor(f, g)
        inst = make_instance([90, 40, 300, 120, 80], lb=2, ub=4)
        block_of = np.array([0, 1, 2, 0, 1])
        assign = AssignmentMatrix(block_of, inst.nb)
        base_total = total_processing_time(inst, assign, stub)
        base_rec = recommended_block_size(assign)
        for _ in range(10):
            perm = rng.permutation(inst.nb)
            relabeled = AssignmentMatrix(perm[block_of], inst.nb)
            assert total_processing_time(inst, relabeled, stub) == pytest.approx(base_total)
            assert recommended_block_size(relabeled) == base_rec


def test_removing_transaction_keeps_feasibility():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        sizes = np.array(rng.integers(10, 400, size=n))
        inst = make_instance(sizes.tolist(), lb=1, ub=max(2, n // 2),
                             cb=int(sizes.sum()))
        while True:
            block_of = rng.integers(0, inst.nb, size=n)
            if validate_assignment(inst, AssignmentMatrix(block_of, inst.nb)).ok:
                break
        counts = np.bincount(block_of, minlength=inst.nb)
        loads = np.bincount(block_of, weights=sizes.astype(float), minlength=inst.nb)
        for drop in range(n):
            j = block_of[drop]
            assert counts[j] - 1 <= inst.limits.ub
            assert loads[j] - sizes[drop] <= inst.limits.cb


class TestRecommendedBlockSize:
    def test_max_of_counts(self):
        counts = [3, 5, 2, 0]
        block_of = sum(([j] * c for j, c in enumerate(counts)), [])
        assert recommended_block_size(AssignmentMatrix(block_of, 4)) == 5

    def test_single_transaction(self):
        assert recommended_block_size(AssignmentMatrix([1], 3)) == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyInstanceError):
            recommended_block_size(AssignmentMatrix([], 2))

    def test_matches_enumerated_best(self):
        f = lambda c, b, w: 0.08 + 0.015 * c * c
        g = lambda c, b, w: b / w
        sizes = [60, 90, 45, 150, 70, 55]
        inst = make_instance(sizes, bandwidths=(1e4,), lb=3, ub=4)
        combo, _ = enumerate_optimum(inst, f, g)
        counts = [0] * inst.nb
        for j in combo:
            counts[j] += 1
        assert recommended_block_size(
            AssignmentMatrix(combo, inst.nb)) == max(counts)


def test_instance_arrays_read_only():
    inst = make_instance([100, 200])
    with pytest.raises(ValueError):
        inst.sizes[0] = 5
    with pytest.raises(ValueError):
        AssignmentMatrix([0, 1], inst.nb).block_of[0] = 1
