"""Genetic search: feasibility under all operators, determinism, and
near-optimality against exhaustive enumeration."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktune import _kernels, ga
from blocktune.errors import BlocktuneError, EnumerationBudgetError
from blocktune.ga import (
    GaConfig,
    _population_fitness,
    _repair_array,
    brute_force_optimum,
    crossover_pairs,
    initialize_population,
    mutate_genes,
    run,
    select_parents,
)
from blocktune.model import (
    AssignmentMatrix,
    ProblemInstance,
    block_stats,
    population_pricer,
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
    random_instance,
)


def small_config(seed=0, pop=30, gens=60):
    return GaConfig(population_size=pop, max_generations=gens,
                    stagnation_limit=25, rng_seed=seed)


def population(inst, size=30, seed=0):
    return initialize_population(inst, size, np.random.default_rng(seed))


def feasible(inst, block_of):
    return validate_assignment(inst, AssignmentMatrix(block_of, inst.nb)).ok


def run_population():
    """A copy of the population ``ga.run`` is pricing, read from its frame by
    a wrapper of ``ga._population_fitness``, which is not passed the rows."""
    return sys._getframe(2).f_locals["matrix"].copy()


class TestInitializePopulation:
    def test_single_transaction(self):
        inst = make_instance([100])
        pop = population(inst)
        assert pop.shape == (30, 1)
        for row in pop:
            assert feasible(inst, row)

    def test_same_seed_identical(self):
        inst = make_instance([50, 60, 70, 80], lb=2)
        a = population(inst, seed=9)
        b = population(inst, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        inst = make_instance([50, 60, 70, 80] * 3, lb=2)
        a = population(inst, seed=1)
        b = population(inst, seed=2)
        assert not np.array_equal(a, b)

    def test_always_feasible_on_random_instances(self, rng):
        for _ in range(25):
            inst = random_instance(rng)
            pop = population(inst, size=10, seed=1)
            for row in pop:
                assert feasible(inst, row)


class TestFitness:
    def test_rows_match_objective(self, rng):
        """The GA prices a whole population exactly as the objective prices
        each assignment alone, and counts one query per block and node."""
        stub = StubPredictor(lambda c, b, w: 0.01 + 0.003 * c ** 1.3 + 1e-7 * b,
                             lambda c, b, w: 0.05 + np.sqrt(b) / w * 37.0,
                             feature_ranges=[[1, 5], [0, 1e9], [0, np.inf]])
        for _ in range(10):
            inst = random_instance(rng)
            pop = population(inst, size=12, seed=2)
            fit, extrapolating, queries = _population_fitness(
                population_pricer(inst, stub), block_stats(inst, pop))
            for row, value in zip(pop, fit):
                assert value == total_processing_time(
                    inst, AssignmentMatrix(row, inst.nb), stub)
            counts = np.stack([np.bincount(row, minlength=inst.nb) for row in pop])
            assert queries == np.count_nonzero(counts) * inst.m
            assert extrapolating == np.count_nonzero(counts > 5) * inst.m

    @settings(max_examples=150, deadline=None)
    @given(case=feasible_populations(), fitted=st.booleans())
    def test_query_counts_count_every_block(self, fitted_predictor, case, fitted):
        """Priced from a count table or block by block, the query counts
        are those of pricing every non-empty block of every member alone:
        one query per block and node, each flagged by its own rows."""
        inst, pop = case
        predictor = fitted_predictor if fitted else StubPredictor(
            lambda c, b, w: 0.01 + 0.003 * c, lambda c, b, w: b / w,
            feature_ranges=[[1, 5], [0, 1e9], [0, np.inf]])
        _, extrapolating, queries = _population_fitness(
            population_pricer(inst, predictor), block_stats(inst, pop))
        want_queries = want_extrapolating = 0
        counts, byte_sums = block_stats(inst, pop)
        for i, j in zip(*np.nonzero(counts)):
            own = block_rows(inst, counts[i, j], byte_sums[i, j])
            want_queries += own.shape[0]
            want_extrapolating += int(predictor.extrapolation_mask(own).sum())
        assert (queries, extrapolating) == (want_queries, want_extrapolating)

    def test_never_below_brute_force(self, rng):
        stub = affine_stub()
        for seed in range(5):
            sizes = rng.integers(50, 500, size=5).tolist()
            inst = make_instance(sizes, lb=2, ub=4)
            _, best = brute_force_optimum(inst, stub)
            result = run(inst, stub, small_config(seed=seed, pop=20, gens=30))
            assert result.best_fitness >= best - 1e-12


class TestSelectParents:
    def test_draws_distinct_members(self):
        # With t = P - 1 distinct draws, the one member left out is the
        # only way to lose; the worst member wins only if it is left in
        # alone, which distinct draws of P - 1 out of P never allow.
        fit = np.arange(5, dtype=float)[::-1].copy()
        winners = select_parents(fit, 2000, 4, np.random.default_rng(0))
        assert set(winners.tolist()) == {3, 4}
        # member 4 wins unless it is the one left out: P = 1/5
        assert abs((winners == 3).mean() - 0.2) < 0.04

    def test_full_tournament_returns_best(self):
        fit = np.array([5.0, 1.0, 3.0, 2.0])
        winners = select_parents(fit, 10, 4, np.random.default_rng(0))
        np.testing.assert_array_equal(winners, [1] * 10)
        # a tournament larger than the population draws every member once
        np.testing.assert_array_equal(
            select_parents(fit, 10, 9, np.random.default_rng(1)), [1] * 10)

    def test_population_of_one(self):
        np.testing.assert_array_equal(
            select_parents(np.array([2.0]), 3, 3, np.random.default_rng(1)), [0, 0, 0])

    def test_tie_breaks_by_lower_index(self):
        np.testing.assert_array_equal(
            select_parents(np.ones(4), 6, 4, np.random.default_rng(3)), [0] * 6)
        # among tied best draws the lowest index wins
        fit = np.array([2.0, 1.0, 1.0, 1.0, 3.0])
        winners = select_parents(fit, 5000, 3, np.random.default_rng(4))
        # member 3 wins only in the one draw {3, 0 or 4, the other}: 1/10
        assert set(winners.tolist()) <= {1, 2, 3}
        assert abs((winners == 3).mean() - 0.1) < 0.02

    def test_selection_pressure(self):
        fit = np.array([1.0] + [2.0] * 9)
        winners = select_parents(fit, 10_000, 3, np.random.default_rng(7))
        # P(best in a 3-of-10 tournament without replacement) = 0.3
        assert (winners == 0).sum() > 0.25 * 10_000


class TestCrossoverPairs:
    def test_identical_parents_identical_children(self):
        parent = np.array([0, 1, 2])
        pairs = np.tile(parent, (4, 2, 1))
        out = crossover_pairs(pairs, 1.0, np.random.default_rng(0))
        assert out is pairs
        np.testing.assert_array_equal(out, np.tile(parent, (4, 2, 1)))

    def test_each_position_keeps_its_pair_of_genes(self):
        rng = np.random.default_rng(11)
        parents = rng.integers(0, 5, size=(20, 2, 13))
        out = crossover_pairs(parents.copy(), 1.0, rng)
        # complementary swap: each position is exchanged or not
        np.testing.assert_array_equal(np.sort(out, axis=1), np.sort(parents, axis=1))
        swapped = (out[:, 0] != parents[:, 0]) & (parents[:, 0] != parents[:, 1])
        assert swapped.any() and not swapped.all()

    def test_swaps_half_the_genes(self):
        parents = np.stack([np.zeros((50, 200), int), np.ones((50, 200), int)], axis=1)
        out = crossover_pairs(parents, 1.0, np.random.default_rng(5))
        # 10,000 fair swaps: mean 0.5, sigma 0.005
        assert abs(out[:, 0].mean() - 0.5) < 0.02

    def test_rate_zero_copies_the_parents(self):
        rng = np.random.default_rng(12)
        parents = rng.integers(0, 5, size=(30, 2, 9))
        out = crossover_pairs(parents.copy(), 0.0, rng)
        np.testing.assert_array_equal(out, parents)

    def test_rate_decides_per_pair(self):
        parents = np.stack([np.zeros((2000, 16), int), np.ones((2000, 16), int)], axis=1)
        out = crossover_pairs(parents, 0.3, np.random.default_rng(6))
        crossed = out[:, 0].any(axis=1)
        # an uncrossed pair is a copy; a crossed pair of 16 genes keeps
        # its first child whole with probability 2**-16
        assert not out[~crossed, 0].any() and out[~crossed, 1].all()
        assert abs(crossed.mean() - 0.3) < 0.04

    def test_children_always_feasible(self, rng):
        """Crossover children become feasible after the repair that run
        gives each generation's children."""
        for _ in range(20):
            inst = random_instance(rng, n_max=30)
            pop = population(inst, size=4, seed=5)
            out = crossover_pairs(pop.reshape(2, 2, inst.n), 1.0, rng)
            for child in _repair_array(inst, out.reshape(4, inst.n)):
                assert feasible(inst, child)


class TestMutateGenes:
    def test_rate_zero_unchanged(self):
        children = np.array([[0, 1, 2], [2, 1, 0]])
        out = mutate_genes(children, 4, 0.0, np.random.default_rng(0))
        assert out is children
        np.testing.assert_array_equal(out, [[0, 1, 2], [2, 1, 0]])

    def test_rate_one_redraws_every_gene(self):
        children = np.full((200, 50), -1)
        mutate_genes(children, 5, 1.0, np.random.default_rng(13))
        assert ((children >= 0) & (children < 5)).all()
        counts = np.bincount(children.ravel(), minlength=5)
        # 10,000 uniform draws over 5 blocks: each count 2,000 +- 40
        assert (np.abs(counts - 2000) < 200).all()

    def test_rate_one_stays_feasible_and_uniform(self):
        # nb = ceil(n/lb)+1 >= 2 always, so the one-block case cannot be
        # built; with every gene redrawn the result must still be feasible.
        inst = make_instance([10, 10, 10, 10], lb=2, ub=4)
        out = mutate_genes(np.zeros((50, 4), dtype=np.int64), inst.nb, 1.0,
                           np.random.default_rng(13))
        for row in out:
            assert feasible(inst, row)
        assert len({tuple(row) for row in out.tolist()}) > 10

    def test_hit_count_is_binomial(self):
        rng = np.random.default_rng(21)
        children, nb, rate, trials = 98, 200, 0.01, 200
        hits = [np.count_nonzero(mutate_genes(np.full((children, 40), -1), nb, rate, rng) >= 0)
                for _ in range(trials)]
        mean = children * 40 * rate
        sigma = np.sqrt(children * 40 * rate * (1 - rate) / trials)
        assert abs(np.mean(hits) - mean) < 4 * sigma

    def test_output_always_feasible(self, rng):
        """Mutants stay in block range and become feasible after the repair
        that run gives each generation's children."""
        for _ in range(20):
            inst = random_instance(rng, n_max=30)
            out = mutate_genes(population(inst, size=3, seed=3), inst.nb, 0.5, rng)
            assert ((out >= 0) & (out < inst.nb)).all()
            for row in _repair_array(inst, out):
                assert feasible(inst, row)


class TestRepair:
    def test_feasible_input_returned_unchanged(self):
        inst = make_instance([100, 200], lb=1)
        arr = np.array([0, 1])
        assert _repair_array(inst, arr) is arr
        np.testing.assert_array_equal(arr, [0, 1])

    def test_single_forced_move(self):
        # nb = ceil(2/1)+1 = 3; ub = 1 forces one transaction out of block 0;
        # the larger one moves to the lowest-loaded (lowest-index) block.
        inst = make_instance([100, 80], lb=1, ub=1)
        assert inst.nb == 3
        out = _repair_array(inst, np.array([0, 0]))
        np.testing.assert_array_equal(out, [1, 0])

    def test_only_wedged_rows_repacked(self, monkeypatch):
        # nb = ceil(4/3)+1 = 3. Row 0 wedges: block 1 holds 9 + 3 + 9 bytes;
        # the first 9 goes to block 0 and the second fits nowhere. Row 1
        # moves its 9 out of block 2 into empty block 1.
        inst = make_instance([9, 3, 5, 9], lb=3, ub=4, cb=10)
        assert inst.nb == 3
        matrix = np.array([[1, 1, 2, 1], [2, 2, 2, 0]])
        calls = []
        kernel = _kernels.repair_assignment

        def recording(block_of, *args):
            calls.append(block_of.copy())
            return kernel(block_of, *args)

        monkeypatch.setattr(_kernels, "repair_assignment", recording)
        expected = [_repair_array(inst, row.copy()) for row in matrix]
        calls.clear()
        assert _repair_array(inst, matrix) is matrix
        np.testing.assert_array_equal(matrix, [[0, 2, 2, 1], [1, 2, 2, 0]])
        np.testing.assert_array_equal(matrix, expected)
        # one batched pass, then one from-scratch repack of row 0 alone
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[1], [[inst.nb] * 4])

    def test_only_offending_transactions_move(self, rng):
        for _ in range(30):
            inst = random_instance(rng, n_max=25)
            arr = rng.integers(0, inst.nb, size=inst.n)
            counts = np.bincount(arr, minlength=inst.nb)
            loads = np.bincount(arr, weights=inst.sizes.astype(float),
                                minlength=inst.nb)
            bad = set(np.flatnonzero((counts > inst.limits.ub)
                                     | (loads > inst.limits.cb)).tolist())
            out = _repair_array(inst, arr.copy())
            assert validate_assignment(inst, AssignmentMatrix(out, inst.nb)).ok
            moved = np.flatnonzero(out != arr)
            if not bad:
                assert moved.size == 0


class TestRun:
    def test_single_transaction(self):
        """n = 1 runs at the default mutation rate, 2/n clamped to 1."""
        inst = make_instance([100])
        stub = affine_stub()
        result = run(inst, stub, small_config())
        assert result.recommended_block_size == 1
        expected = total_processing_time(inst, AssignmentMatrix(result.block_of, inst.nb),
                                         stub)
        assert result.best_fitness == pytest.approx(expected)

    def test_best_fitness_is_objective_of_best(self, fitted_predictor):
        """On a mixed-size 3-node instance, the best fitness the search
        reports is exactly the objective of its best assignment priced
        alone."""
        sizes = np.random.default_rng(3).integers(200, 3000, size=60)
        inst = make_instance(sizes, bandwidths=(1e6, 4e6, 1.6e7), lb=5, ub=12,
                             cb=20_000)
        result = run(inst, fitted_predictor, small_config(seed=5, pop=40, gens=40))
        assert result.best_fitness == total_processing_time(
            inst, AssignmentMatrix(result.block_of, inst.nb), fitted_predictor)

    def test_one_size_run_equals_the_general_path(self, fitted_predictor, monkeypatch):
        """On a one-size 3-node instance whose byte cap binds, a run priced
        from its count table and repaired from its counts returns, bit for
        bit, what per-generation pricing and byte-weighted repair return."""
        inst = make_instance([700] * 60, bandwidths=(1.6e7, 1e6, 4e6), lb=5, ub=12,
                             cb=6_000)
        config = small_config(seed=5, pop=30, gens=30)
        table = run(inst, fitted_predictor, config)
        monkeypatch.setattr(ProblemInstance, "common_size", property(lambda self: None))
        general = run(inst, fitted_predictor, config)
        assert table.extrapolation_queries > 0
        for name in ("best_fitness", "fitness_history", "generations_run",
                     "extrapolation_queries", "total_queries"):
            assert getattr(table, name) == getattr(general, name), name
        np.testing.assert_array_equal(table.block_of, general.block_of)

    def test_odd_child_count_puts_elites_last(self, monkeypatch):
        """With 9 members and 2 elites, each generation drops the last
        pair's second child: 7 children, then the previous generation's two
        best rows in fitness order."""
        priced = []
        price = ga._population_fitness

        def recording(*args):
            result = price(*args)
            priced.append((run_population(), result[0]))
            return result

        monkeypatch.setattr(ga, "_population_fitness", recording)
        inst = make_instance([50, 120, 80, 200, 30, 150, 90], lb=2, ub=4)
        config = GaConfig(population_size=9, elitism_count=2, max_generations=12,
                          stagnation_limit=12, rng_seed=4)
        result = run(inst, affine_stub(), config)
        assert len(priced) == result.generations_run + 1 == 13
        for (before, fit), (after, _) in zip(priced, priced[1:]):
            assert after.shape == (9, inst.n)
            np.testing.assert_array_equal(after[7:],
                                          before[np.argsort(fit, kind="stable")[:2]])
            for row in after:
                assert feasible(inst, row)

    def test_fitness_prices_the_counts_of_its_matrix(self, monkeypatch):
        """Every evaluation of a run prices the per-block counts and loads of
        the matrix it scores, as block_stats counts them: the children's
        from their repair, the wedged rows' from their repack and the
        elites' carried over from the generation before."""
        priced, repaired = [], []
        price, kernel = ga._population_fitness, _kernels.repair_assignment

        def recording(pricer, stats):
            priced.append((run_population(), stats.copy()))
            return price(pricer, stats)

        def repair(*args):
            repaired.append(kernel(*args))
            return repaired[-1]

        monkeypatch.setattr(ga, "_population_fitness", recording)
        monkeypatch.setattr(_kernels, "repair_assignment", repair)
        # nb = ceil(8/3)+1 = 4 blocks of at most 3 transactions and 14 bytes
        # for 46 bytes: both caps are tight, so local moves often wedge.
        inst = make_instance([9, 3, 5, 9, 4, 6, 8, 2], lb=3, ub=3, cb=14)
        config = GaConfig(population_size=12, elitism_count=3, max_generations=15,
                          stagnation_limit=15, rng_seed=1)
        result = run(inst, affine_stub(), config)
        assert len(priced) == result.generations_run + 1
        assert False in repaired
        for matrix, (counts, loads) in priced:
            want_counts, want_loads = block_stats(inst, matrix)
            np.testing.assert_array_equal(counts, want_counts)
            np.testing.assert_array_equal(loads, want_loads)

    def test_determinism_bit_identical(self):
        inst = make_instance([50, 120, 80, 200, 30, 150], lb=2, ub=4)
        stub = affine_stub()
        config = small_config(seed=77)
        a = run(inst, stub, config)
        b = run(inst, stub, config)
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.block_of, b.block_of)
        assert a.fitness_history == b.fitness_history
        assert a.generations_run == b.generations_run

    def test_history_non_increasing_and_min(self):
        inst = make_instance([60, 70, 80, 90, 110], lb=2, ub=4)
        result = run(inst, affine_stub(), small_config(seed=3))
        hist = np.array(result.fitness_history)
        assert (np.diff(hist) <= 0).all()
        assert result.best_fitness == hist.min() == hist[-1]

    def test_near_optimal_on_small_instances(self, rng):
        stub = affine_stub()
        wins = 0
        runs = 40
        for i in range(runs):
            n = int(rng.integers(4, 9))
            sizes = rng.integers(50, 400, size=n).tolist()
            lb = (n + 2) // 3
            ub = int(rng.integers(lb, n + 1))
            nb = -(-n // lb) + 1
            while nb * ub < n:
                ub += 1
            inst = make_instance(sizes, lb=lb, ub=ub, cb=sum(sizes))
            assert inst.nb <= 4
            _, optimum = brute_force_optimum(inst, stub)
            result = run(inst, stub,
                         GaConfig(population_size=60, max_generations=150,
                                  stagnation_limit=50, rng_seed=1000 + i))
            if result.best_fitness <= optimum * 1.05 + 1e-12:
                wins += 1
        assert wins >= int(0.95 * runs)

    def test_recommendation_bounds(self, rng):
        stub = affine_stub()
        for _ in range(10):
            inst = random_instance(rng, n_max=20)
            result = run(inst, stub, small_config(seed=5, pop=16, gens=20))
            rec = result.recommended_block_size
            assert -(-inst.n // inst.nb) <= rec <= min(inst.limits.ub, inst.n)

    def test_stagnation_stops_early(self):
        inst = make_instance([100])
        config = GaConfig(population_size=8, max_generations=500,
                          stagnation_limit=5, rng_seed=0)
        result = run(inst, affine_stub(), config)
        assert result.generations_run <= 10


class TestBruteForce:
    def test_single_transaction_palette(self):
        inst = make_instance([100])
        stub = StubPredictor(lambda c, b, w: np.where(c > 0, 1.0, 0.0),
                             lambda c, b, w: np.zeros_like(c))
        assignment, value = brute_force_optimum(inst, stub)
        assert value == pytest.approx(1.0)
        # lexicographically smallest among the nb equal options
        assert assignment.block_of.tolist() == [0]

    def test_relabeling_symmetry(self):
        stub = affine_stub()
        inst = make_instance([100, 150, 200], lb=2)
        assignment, value = brute_force_optimum(inst, stub)
        perm = np.array([1, 0, 2] + list(range(3, inst.nb)))[:inst.nb]
        relabeled = AssignmentMatrix(perm[assignment.block_of], inst.nb)
        assert total_processing_time(inst, relabeled, stub) == pytest.approx(value)

    def test_matches_hand_enumeration(self):
        # three transactions, lb = 2 -> nb = ceil(3/2) + 1 = 3 blocks
        f = lambda c, b, w: 0.05 + 0.02 * c * c
        g = lambda c, b, w: b / w
        stub = StubPredictor(f, g)
        inst = make_instance([100, 200, 300], bandwidths=(1e4,), lb=2, ub=2)
        import itertools
        best = None
        for combo in itertools.product(range(inst.nb), repeat=3):
            counts = np.bincount(combo, minlength=inst.nb)
            loads = np.bincount(combo, weights=np.array([100., 200., 300.]),
                                minlength=inst.nb)
            if (counts > 2).any() or (loads > inst.limits.cb).any():
                continue
            value = sum(0.05 + 0.02 * c * c + l / 1e4
                        for c, l in zip(counts, loads) if c > 0)
            if best is None or value < best[1] - 1e-15:
                best = (combo, value)
        assignment, value = brute_force_optimum(inst, stub)
        assert value == pytest.approx(best[1])

    def test_budget_refusal(self):
        inst = make_instance([10] * 12, lb=2, ub=12)
        with pytest.raises(EnumerationBudgetError):
            brute_force_optimum(inst, affine_stub(), budget=1000)

    def test_ga_never_better(self, rng):
        stub = affine_stub()
        for seed in range(5):
            sizes = rng.integers(20, 300, size=6).tolist()
            inst = make_instance(sizes, lb=3, ub=5)
            _, optimum = brute_force_optimum(inst, stub)
            result = run(inst, stub, small_config(seed=seed, pop=20, gens=40))
            assert result.best_fitness >= optimum - 1e-12


def test_config_validation():
    with pytest.raises(BlocktuneError):
        GaConfig(population_size=1)
    with pytest.raises(BlocktuneError):
        GaConfig(elitism_count=10, population_size=10)
    with pytest.raises(BlocktuneError):
        GaConfig(crossover_rate=1.5)
    assert GaConfig().effective_mutation_rate(1000) == pytest.approx(0.01)
    assert GaConfig().effective_mutation_rate(10) == pytest.approx(0.2)
    assert GaConfig(mutation_rate=0.3).effective_mutation_rate(10) == pytest.approx(0.3)
    # 2/n is clamped to the [0, 1] range mutation_rate itself must keep
    assert GaConfig().effective_mutation_rate(1) == 1.0
    assert GaConfig().effective_mutation_rate(2) == 1.0
