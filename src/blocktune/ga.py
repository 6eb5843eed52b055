"""Genetic search over transaction-to-block assignments.

Candidates are encoded as block-index vectors (one gene per transaction),
so the one-block-per-transaction rule is structural and the search space
is exactly the set of such vectors. A population is a (pop, n) matrix of
such vectors in the narrowest unsigned type that holds nb, repair's
unplaced marker (uint8 up to nb = 255), so a generation moves one or two
bytes per gene, not eight. Each generation is drawn as arrays over the
whole population: :func:`select_parents` runs every tournament at once,
:func:`crossover_pairs` crosses every parent pair and :func:`mutate_genes`
mutates every child, each in a few numpy calls. Feasibility against the
per-block count and byte caps is restored by one batched repair per
generation, never through fitness penalties, keeping the fitness
landscape identical to the objective being minimized; rows whose repair
wedges are repacked from scratch with the same kernel. Repair draws no
random numbers, so one generator seeded from the config seed draws the
whole run.
Repair reports the per-block counts and byte loads of every row it
repairs, and each generation is priced from them in one call to the
model's population evaluator, :func:`blocktune.model.processing_times`,
which prices each distinct block of the generation once per node; the
elites carry their counts over with them, so no generation counts its
blocks twice. Query counts still count one query per non-empty block and
node of every member.

Runs are fully deterministic: identical (instance, predictor, config)
produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    ConfigError,
    EnumerationBudgetError,
    InfeasibleInstanceError,
    InternalInvariantError,
)
from .model import (
    AssignmentMatrix,
    ProblemInstance,
    block_stats,
    processing_times,
    recommended_block_size,
)


@dataclass(frozen=True)
class GaConfig:
    """Search hyperparameters; fixed documented defaults, all overridable.

    ``mutation_rate`` defaults to 2/n per transaction, clamped to
    [0.01, 1], when left as None.
    """

    population_size: int = 100
    max_generations: int = 200
    crossover_rate: float = 0.9
    mutation_rate: float | None = None
    tournament_size: int = 3
    elitism_count: int = 2
    stagnation_limit: int = 40
    rng_seed: int = 0

    def __post_init__(self):
        for name, least in (("population_size", 2), ("max_generations", 1),
                            ("tournament_size", 1), ("stagnation_limit", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        if not 0 <= self.elitism_count < self.population_size:
            raise ConfigError("elitism_count must be in [0, population_size)")
        if not 0 <= self.crossover_rate <= 1:
            raise ConfigError("crossover_rate must be in [0, 1]")
        if self.mutation_rate is not None and not 0 <= self.mutation_rate <= 1:
            raise ConfigError("mutation_rate must be in [0, 1]")

    def effective_mutation_rate(self, n: int) -> float:
        if self.mutation_rate is not None:
            return self.mutation_rate
        return min(1.0, max(0.01, 2.0 / n))


@dataclass(frozen=True, eq=False)
class GaResult:
    """Outcome of one search run, carrying everything needed to reproduce
    it; its fields are the keys ``optimize.json`` stores. ``block_of`` is
    the best assignment's block-index vector."""

    block_of: np.ndarray
    best_fitness: float
    recommended_block_size: int
    fitness_history: tuple
    generations_run: int
    seed_used: int
    extrapolation_queries: int = 0
    total_queries: int = 0


def _repair_array(instance: ProblemInstance, arr: np.ndarray, stats=None,
                  weights=None) -> np.ndarray:
    """Make every row of ``arr`` (P, n), or the one assignment ``arr`` (n,),
    feasible in place, moving transactions out of overloaded blocks, and
    return it; feasible rows are left unchanged. Entries must lie in
    [0, nb).

    ``stats``, when given, is an int64 array (2, P, nb) that receives the
    repaired rows' per-block transaction counts and byte loads, as
    :func:`blocktune.model.block_stats` would count them. ``weights`` is the
    kernel's flat byte weights for at least P rows (see
    :func:`blocktune._kernels.repair_assignment`).
    """
    args = (instance.sizes, instance.nb, instance.limits.ub, instance.limits.cb)
    rows = np.atleast_2d(arr)
    if stats is None:
        stats = np.empty((2, rows.shape[0], instance.nb), dtype=np.int64)
    if not _kernels.repair_assignment(rows, *args, stats, weights):
        # Local moves can wedge when both caps are tight at once; then the
        # same rule packs every transaction of the wedged rows from scratch
        # (worst-fit decreasing). Moves stay in [0, nb), so a wedged row is
        # one still over a cap.
        counts, loads = stats
        wedged = np.flatnonzero(((counts > instance.limits.ub)
                                 | (loads > instance.limits.cb)).any(axis=1))
        repacked = np.full((wedged.size, instance.n), instance.nb)
        repacked_stats = np.empty((2, wedged.size, instance.nb), dtype=np.int64)
        if not _kernels.repair_assignment(repacked, *args, repacked_stats, weights):
            raise InternalInvariantError(
                "repair could not place a transaction although the instance "
                "passed its capacity checks")
        rows[wedged] = repacked
        stats[:, wedged] = repacked_stats
    return arr


def select_parents(fit: np.ndarray, count: int, tournament_size: int,
                   rng: np.random.Generator) -> np.ndarray:
    """The population indices of ``count`` tournament winners. Each
    tournament draws min(tournament_size, P) distinct members (the lowest of
    a row of uniform keys) and picks the lowest fitness among them, ties
    broken by the lower population index."""
    t = min(tournament_size, fit.size)
    draws = np.sort(np.argpartition(rng.random((count, fit.size)), t - 1,
                                    axis=1)[:, :t], axis=1)
    return draws[np.arange(count), np.argmin(fit[draws], axis=1)]


def crossover_pairs(pairs: np.ndarray, crossover_rate: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Uniform crossover of every parent pair in ``pairs`` (pairs, 2, n), in
    place: with probability ``crossover_rate`` a pair exchanges each gene
    with probability 0.5. Children are not repaired."""
    count, _, n = pairs.shape
    bits = rng.integers(0, 256, size=-(-count * n // 8), dtype=np.uint8)
    swap = (np.unpackbits(bits, count=count * n).reshape(count, n).view(bool)
            & (rng.random(count) < crossover_rate)[:, None])
    # XOR swap: where ``swap`` holds, each child gets the other's gene
    first, second = pairs[:, 0], pairs[:, 1]
    diff = (first ^ second) * swap
    first ^= diff
    second ^= diff
    return pairs


def mutate_genes(children: np.ndarray, nb: int, mutation_rate: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Reassign each gene of ``children`` to a uniformly random block in
    [0, nb) with probability ``mutation_rate``, in place: a Binomial(size,
    rate) number of distinct positions, which has the law of one Bernoulli
    draw per gene. Not repaired."""
    hits = rng.choice(children.size, rng.binomial(children.size, mutation_rate),
                      replace=False, shuffle=False)
    children[np.unravel_index(hits, children.shape)] = rng.integers(0, nb, size=hits.size)
    return children


def initialize_population(instance: ProblemInstance, size: int,
                          rng: np.random.Generator, stats=None,
                          weights=None) -> np.ndarray:
    """The (size, n) matrix of feasible starting assignments: every
    transaction in a uniformly random block, then repaired. Its dtype,
    ``np.min_scalar_type(instance.nb)``, also holds repair's unplaced
    marker nb; the draw is cast after, so the dtype leaves the generator's
    stream alone. ``stats`` and ``weights`` are passed to
    :func:`_repair_array`."""
    draw = rng.integers(0, instance.nb, size=(size, instance.n))
    return _repair_array(instance, draw.astype(np.min_scalar_type(instance.nb)),
                         stats, weights)


def _population_fitness(instance: ProblemInstance, predictor, matrix: np.ndarray, stats):
    """The objective for every row of ``matrix`` (pop, n), with its query
    counts: one query per non-empty block and node of every row, and those
    outside the predictor's training range. A distinct block is priced once,
    but its queries count once per block with its composition.

    ``stats`` is the rows' (counts, byte sums) pair as
    :func:`blocktune.model.block_stats` returns it. Returns (fitness vector,
    extrapolating query count, total query count). Rows must already be
    feasible.
    """
    counts, byte_sums = stats
    fit, rows, weights = processing_times(instance, counts, byte_sums, predictor)
    extrapolating = 0
    if hasattr(predictor, "extrapolation_mask"):
        extrapolating = int(weights[predictor.extrapolation_mask(rows)].sum())
    return fit, extrapolating, int(weights.sum())


def run(instance: ProblemInstance, predictor, config: GaConfig = GaConfig()) -> GaResult:
    """Full generational loop with elitism and stagnation-based stopping.

    One generator seeded from ``config.rng_seed`` draws the initial
    population and every generation. A generation is built as arrays:
    2·⌈children/2⌉ tournaments at once, the winners paired and crossed,
    every child's genes mutated, the last pair's second child dropped when
    the child count is odd; the children are then repaired in one batch
    and the elites appended last. Per-generation best fitness is
    non-increasing; the returned best assignment is feasible and carries
    the recommended block size (its largest per-block transaction count).
    """
    rng = np.random.default_rng(config.rng_seed)
    # Repair's byte weights for a whole population, built once per run.
    weights = np.tile(instance.sizes.astype(np.float64), config.population_size)
    # stats[:, i] is the per-block (counts, loads) of row i of matrix
    stats = np.empty((2, config.population_size, instance.nb), dtype=np.int64)
    matrix = initialize_population(instance, config.population_size, rng, stats,
                                   weights)
    fit, extra, total_q = _population_fitness(instance, predictor, matrix, stats)

    mutation_rate = config.effective_mutation_rate(instance.n)
    n_children = config.population_size - config.elitism_count
    n_pairs = -(-n_children // 2)

    best_idx = int(np.argmin(fit))
    best_arr = matrix[best_idx].copy()
    best_fit = float(fit[best_idx])
    history = [best_fit]
    stagnant = 0
    generations_run = 0

    for _ in range(config.max_generations):
        # Elites are appended last: on fitness ties the lower index wins a
        # tournament, so putting fresh children first lets equally-good
        # offspring keep drifting across fitness plateaus.
        elite_rows = np.argsort(fit, kind="stable")[:config.elitism_count]
        parents = select_parents(fit, 2 * n_pairs, config.tournament_size, rng)
        pairs = crossover_pairs(matrix[parents].reshape(n_pairs, 2, instance.n),
                                config.crossover_rate, rng)
        children = mutate_genes(pairs.reshape(2 * n_pairs, instance.n)[:n_children],
                                instance.nb, mutation_rate, rng)

        child_stats = np.empty((2, n_children, instance.nb), dtype=np.int64)
        _repair_array(instance, children, child_stats, weights)
        matrix = np.concatenate([children, matrix[elite_rows]])
        stats = np.concatenate([child_stats, stats[:, elite_rows]], axis=1)
        fit, gen_extra, gen_q = _population_fitness(instance, predictor, matrix, stats)
        extra += gen_extra
        total_q += gen_q
        generations_run += 1

        gen_best = int(np.argmin(fit))
        if fit[gen_best] < best_fit:
            best_fit = float(fit[gen_best])
            best_arr = matrix[gen_best].copy()
            stagnant = 0
        else:
            stagnant += 1
        history.append(best_fit)
        if stagnant >= config.stagnation_limit:
            break

    best = AssignmentMatrix(best_arr, instance.nb)
    return GaResult(
        block_of=best.block_of,
        best_fitness=best_fit,
        recommended_block_size=recommended_block_size(best),
        fitness_history=tuple(history),
        generations_run=generations_run,
        seed_used=config.rng_seed,
        extrapolation_queries=extra,
        total_queries=total_q,
    )


def brute_force_optimum(instance: ProblemInstance, predictor,
                        budget: int = 10_000_000):
    """Exhaustively enumerate all block-index vectors and return the
    minimum-fitness feasible assignment (ties go to the lexicographically
    smallest vector).

    Refuses instances where nb ** n exceeds ``budget``.
    """
    n, nb = instance.n, instance.nb
    total = nb ** n
    if total > budget:
        raise EnumerationBudgetError(
            f"{nb}^{n} = {total} assignments exceed the enumeration budget {budget}")

    place = nb ** np.arange(n - 1, -1, -1, dtype=np.int64)
    best_fit = np.inf
    best_arr = None
    chunk = 1 << 14
    for start in range(0, total, chunk):
        ks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cand = (ks[:, None] // place) % nb
        counts, byte_sums = block_stats(instance, cand)
        feasible = ((counts <= instance.limits.ub).all(axis=1)
                    & (byte_sums <= instance.limits.cb).all(axis=1))
        if not feasible.any():
            continue
        fit, _, _ = processing_times(instance, counts[feasible], byte_sums[feasible],
                                     predictor)
        local = int(np.argmin(fit))
        if fit[local] < best_fit:
            best_fit = float(fit[local])
            best_arr = cand[feasible][local].copy()
    if best_arr is None:
        raise InfeasibleInstanceError("no feasible assignment exists")
    return AssignmentMatrix(best_arr, nb), best_fit
