"""Genetic search over transaction-to-block assignments.

Candidates are encoded as block-index vectors (one gene per transaction),
so the one-block-per-transaction rule is structural and the search space
is exactly the set of such vectors. A population is a (pop, n) integer
matrix of such vectors. The variation operators :func:`select`,
:func:`crossover` and :func:`mutate` act on these arrays, and :func:`run`
composes them. Feasibility against the per-block count and byte caps is
restored by one repair per child, after mutation, never through fitness
penalties, keeping the fitness landscape identical to the objective being
minimized; a repair that wedges repacks from scratch with the same kernel.
Each generation is priced in one call to the model's population
evaluator, :func:`blocktune.model.processing_times`.

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

    ``mutation_rate`` defaults to 2/n per transaction with a floor of 0.01
    when left as None.
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
        return max(0.01, 2.0 / n)


@dataclass(frozen=True)
class GaResult:
    """Outcome of one search run, carrying everything needed to reproduce it."""

    best: AssignmentMatrix
    best_fitness: float
    recommended_block_size: int
    fitness_history: tuple
    generations_run: int
    seed_used: int
    extrapolation_queries: int = 0
    total_queries: int = 0

    def to_dict(self) -> dict:
        return {
            "best_fitness": self.best_fitness,
            "recommended_block_size": self.recommended_block_size,
            "block_of": self.best.block_of.tolist(),
            "fitness_history": list(self.fitness_history),
            "generations_run": self.generations_run,
            "seed_used": self.seed_used,
            "extrapolation_queries": self.extrapolation_queries,
            "total_queries": self.total_queries,
        }


def _check_instance_feasible(instance: ProblemInstance):
    # ProblemInstance construction already enforces these; repeated here so
    # search entry points fail loudly even on hand-built instances.
    if instance.nb * instance.limits.ub < instance.n:
        raise InfeasibleInstanceError("not enough block capacity for all transactions")
    if int(instance.sizes.max()) > instance.limits.cb:
        raise InfeasibleInstanceError("a transaction exceeds the block byte cap")


def _repair_array(instance: ProblemInstance, arr: np.ndarray) -> np.ndarray:
    """Make the assignment ``arr`` feasible in place, moving transactions out
    of overloaded blocks, and return it; feasible input is left unchanged."""
    args = (instance.sizes, instance.nb, instance.limits.ub, instance.limits.cb)
    if not _kernels.repair_assignment(arr, *args):
        # Local moves can wedge when both caps are tight at once; then the
        # same rule packs every transaction from scratch (worst-fit decreasing).
        arr[:] = instance.nb
        if not _kernels.repair_assignment(arr, *args):
            raise InternalInvariantError(
                "repair could not place a transaction although the instance "
                "passed its capacity checks")
    return arr


def select(fit: np.ndarray, tournament_size: int, rng: np.random.Generator) -> int:
    """Tournament selection: the index of the lowest fitness among
    ``tournament_size`` distinct uniform draws, ties broken by the lower
    population index."""
    draws = np.sort(rng.choice(fit.size, size=min(tournament_size, fit.size),
                               replace=False))
    return int(draws[np.argmin(fit[draws])])


def crossover(parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator):
    """Uniform per-transaction exchange: each gene swaps between the two
    children with probability 0.5. Children are not repaired."""
    swap = rng.random(parent_a.size) < 0.5
    return np.where(swap, parent_b, parent_a), np.where(swap, parent_a, parent_b)


def mutate(block_of: np.ndarray, nb: int, mutation_rate: float,
           rng: np.random.Generator) -> np.ndarray:
    """A copy of ``block_of`` with each gene reassigned to a uniformly random
    block in [0, nb) with probability ``mutation_rate``. Not repaired."""
    child = block_of.copy()
    hit = rng.random(child.size) < mutation_rate
    if hit.any():
        child[hit] = rng.integers(0, nb, size=int(hit.sum()))
    return child


def initialize_population(instance: ProblemInstance, config: GaConfig) -> np.ndarray:
    """The (population_size, n) matrix of feasible starting assignments:
    transactions assigned in a random order to uniformly random blocks,
    then repaired. Member seeds derive deterministically from the config
    seed."""
    _check_instance_feasible(instance)
    seeds = np.random.SeedSequence(config.rng_seed).spawn(config.population_size)
    population = np.empty((config.population_size, instance.n), dtype=np.int64)
    for row, seq in zip(population, seeds):
        rng = np.random.default_rng(seq)
        order = rng.permutation(instance.n)
        row[order] = rng.integers(0, instance.nb, size=instance.n)
        _repair_array(instance, row)
    return population


def _population_fitness(instance: ProblemInstance, predictor, matrix: np.ndarray):
    """The objective for every row of ``matrix`` (pop, n), with the number of
    feature rows priced outside the predictor's training range.

    Returns (fitness vector, extrapolating query count, total query count).
    Rows must already be feasible.
    """
    fit, rows = processing_times(instance, matrix, predictor)
    extrapolating = 0
    if hasattr(predictor, "extrapolation_mask"):
        extrapolating = int(predictor.extrapolation_mask(rows).sum())
    return fit, extrapolating, rows.shape[0]


def run(instance: ProblemInstance, predictor, config: GaConfig = GaConfig()) -> GaResult:
    """Full generational loop with elitism and stagnation-based stopping.

    Each child comes from two tournament selections, crossover with
    probability ``crossover_rate``, mutation and one repair. Per-generation
    best fitness is non-increasing; the returned best assignment is
    feasible and carries the recommended block size (its largest per-block
    transaction count).
    """
    matrix = initialize_population(instance, config)
    fit, extra, total_q = _population_fitness(instance, predictor, matrix)

    rng = np.random.default_rng(np.random.SeedSequence((config.rng_seed, 1)))
    mutation_rate = config.effective_mutation_rate(instance.n)
    n_children = config.population_size - config.elitism_count

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
        elites = matrix[np.argsort(fit, kind="stable")[:config.elitism_count]]
        children = []
        while len(children) < n_children:
            pa = matrix[select(fit, config.tournament_size, rng)]
            pb = matrix[select(fit, config.tournament_size, rng)]
            if rng.random() < config.crossover_rate:
                pa, pb = crossover(pa, pb, rng)
            # The last pair may fill only one slot; the dropped child draws
            # no mutation numbers.
            for parent in (pa, pb)[:n_children - len(children)]:
                children.append(_repair_array(
                    instance, mutate(parent, instance.nb, mutation_rate, rng)))

        matrix = np.concatenate([np.stack(children), elites])
        fit, gen_extra, gen_q = _population_fitness(instance, predictor, matrix)
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
        best=best,
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
    _check_instance_feasible(instance)
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
        fit, _ = processing_times(instance, cand[feasible], predictor)
        local = int(np.argmin(fit))
        if fit[local] < best_fit:
            best_fit = float(fit[local])
            best_arr = cand[feasible][local].copy()
    if best_arr is None:
        raise InfeasibleInstanceError("no feasible assignment exists")
    return AssignmentMatrix(best_arr, nb), best_fit
