"""Desk-scale experiment drivers: sensitivity sweeps and throughput
validation.

A sweep varies one factor (transaction size, arrival rate, or node
bandwidth) while the other two stay fixed. Each sweep point regenerates
training data from the simulator at that point's conditions, refits the
predictor, runs the genetic search, and records the recommended block
size. The summary reports the Spearman rank correlation between factor
values and recommendations (None when undefined, e.g. all recommendations
equal) and a stabilization index: the standard deviation of the
recommendations over the top half of the sweep values.

Validation runs the full pipeline per scenario and then measures simulated
throughput at the recommendation and its neighbor block sizes under an
identical workload seed; the recommendation wins when no neighbor beats it.

Points and scenarios are independent (results are pure functions of spec
and seeds, assembled in index order), and every record carries the seeds
needed to reproduce it exactly. Results are dataclasses whose fields are
the keys they store, so :func:`blocktune.configio.to_json` writes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Real

import numpy as np

from . import _kernels, configio, ga, simulator
from .errors import BlocktuneError, ConfigError
from .ga import GaConfig
from .model import BlockLimits, NodeProfile, ProblemInstance, Transaction
from .simulator import (
    BlockCutRule,
    DataGrid,
    GroundTruthCost,
    SimConfig,
    WorkloadProfile,
    derive_seed,
    generate_training_dataset,
    throughput_vs_blocksize,
)
from .surrogate import SurrogateConfig, fit_predictor

FACTORS = ("tx_size", "arrival_rate", "bandwidth")
# Block sizes validated around a recommendation, as offsets from it.
NEIGHBOR_OFFSETS = (-2, -1, 0, 1, 2)


@dataclass(frozen=True)
class TrainingGrid:
    """Simulation grid used to harvest training samples around an
    instance, whose cells :meth:`resolve` chooses; the long timeout keeps
    block formation cut-driven.

    At least two transaction sizes are required, here as factors and in
    :meth:`resolve` once rounded: with a single constant size, block bytes
    are proportional to the transaction count and the committing-time
    polynomial design turns rank-deficient."""

    block_sizes: tuple[int, ...]
    tx_size_factors: tuple[float, ...] = (0.75, 1.0, 1.25)
    bandwidth_factors: tuple[float, ...] = (0.5, 1.0, 2.0)
    replicates: int = 1
    total_tx: int = 1200
    max_bytes: int = 1 << 23
    timeout_s: float = 120.0

    def __post_init__(self):
        if not self.block_sizes or min(self.block_sizes) < 1:
            raise ConfigError(f"block_sizes must be a non-empty list of integers >= 1, "
                              f"got {list(self.block_sizes)}")
        for name in ("replicates", "total_tx", "max_bytes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.timeout_s < math.inf:
            raise ConfigError(f"timeout_s must be finite and > 0, got {self.timeout_s}")
        for name in ("tx_size_factors", "bandwidth_factors"):
            if not all(0 < f < math.inf for f in getattr(self, name)):
                raise ConfigError(f"{name} must be finite and > 0, "
                                  f"got {list(getattr(self, name))}")
        if not self.bandwidth_factors:
            raise ConfigError("bandwidth_factors must not be empty")
        if len(set(self.tx_size_factors)) < 2:
            raise ConfigError(
                "tx_size_factors needs at least two distinct values (a single "
                "transaction size makes block bytes collinear with the "
                "transaction count)")

    def resolve(self, instance: ProblemInstance, arrival_rate_tps: float,
                arrival_process: str, cost: GroundTruthCost, rng_seed: int) -> DataGrid:
        """The grid to simulate for ``instance``: the tx size factors times
        its largest transaction, rounded to whole bytes, and the bandwidth
        factors times its first node's bandwidth, each finite and > 0, under
        the given workload, costs and seed."""
        tx_size = int(instance.sizes.max())
        tx_sizes = sorted({max(1, int(round(tx_size * f))) for f in self.tx_size_factors})
        if len(tx_sizes) < 2:
            raise ConfigError(f"train_grid.tx_size_factors round to one transaction "
                              f"size, {tx_sizes[0]} bytes, at {tx_size}-byte transactions")
        bandwidth = float(instance.bandwidths[0])
        bandwidths = sorted({bandwidth * f for f in self.bandwidth_factors})
        if not 0 < bandwidths[0] <= bandwidths[-1] < math.inf:
            raise ConfigError(f"train_grid.bandwidth_factors times the {bandwidth} "
                              f"bytes/s bandwidth must be finite and > 0, got {bandwidths}")
        return DataGrid(self.block_sizes, tuple(tx_sizes), tuple(bandwidths),
                        arrival_rate_tps, self.total_tx, self.max_bytes, self.timeout_s,
                        arrival_process, self.replicates, cost, rng_seed)


@dataclass(frozen=True)
class SweepSpec:
    """One sensitivity sweep: which factor varies, over which values, with
    everything else pinned."""

    varied_factor: str
    # Kept as written: a point's data seed derives from its value's repr.
    values: tuple[Real, ...]
    fixed: dict[str, float]
    instance_n: int
    limits: BlockLimits
    train_grid: TrainingGrid
    cost: GroundTruthCost = GroundTruthCost()
    surrogate: SurrogateConfig = SurrogateConfig()
    ga: GaConfig = GaConfig()
    arrival_process: str = "fixed"
    runs_per_point: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.varied_factor not in FACTORS:
            raise ConfigError(f"varied_factor must be one of {FACTORS}")
        for factor in self.fixed:
            if factor not in FACTORS:
                raise ConfigError(f"fixed: unknown factor {factor!r} "
                                  f"(factors: {', '.join(FACTORS)})")
            if factor == self.varied_factor:
                raise ConfigError(f"fixed: {factor!r} is the varied factor")
        if len(self.values) < 3:
            raise ConfigError("a sweep needs at least 3 values")
        diffs = np.diff(np.asarray(self.values, dtype=np.float64))
        if not ((diffs > 0).all() or (diffs < 0).all()):
            raise ConfigError("sweep values must be strictly monotone")
        for factor in FACTORS:
            if factor != self.varied_factor and factor not in self.fixed:
                raise ConfigError(f"fixed factors must include {factor!r}")
        if self.runs_per_point < 1:
            raise ConfigError("runs_per_point must be >= 1")
        # a transaction size is an int64, like every integer config value
        sizes = self.values if self.varied_factor == "tx_size" else [self.fixed["tx_size"]]
        if not all(abs(size) < 2**63 for size in sizes):
            raise ConfigError(f"tx_size must lie below 2**63 bytes, got {list(sizes)}")

    @classmethod
    def from_dict(cls, d: dict, where: str = "sweep") -> "SweepSpec":
        return configio.build_config(cls, d, where)


@dataclass(frozen=True)
class SweepPoint:
    """One (factor value, run) record with its reproduction seeds."""

    value: float
    run_index: int
    recommended_block_size: int
    best_fitness: float
    data_seed: int
    ga_seed: int
    n_samples: int
    extrapolation_fraction: float


@dataclass(frozen=True)
class SweepResult:
    varied_factor: str
    points: tuple
    spearman: float | None
    stabilization_index: float | None
    rng_seed: int

    def summary_lines(self):
        rho = "undefined" if self.spearman is None else f"{self.spearman:+.3f}"
        stab = ("undefined" if self.stabilization_index is None
                else f"{self.stabilization_index:.3f}")
        lines = [f"sweep over {self.varied_factor}: spearman={rho}, "
                 f"stabilization_index={stab}"]
        for p in self.points:
            lines.append(f"  {self.varied_factor}={p.value:g} run={p.run_index}"
                         f" -> block size {p.recommended_block_size}"
                         f" (fitness {p.best_fitness:.4f})")
        return lines


def _point_factors(spec: SweepSpec, value):
    factors = dict(spec.fixed)
    factors[spec.varied_factor] = value
    return (int(factors["tx_size"]), float(factors["arrival_rate"]),
            float(factors["bandwidth"]))


def _tune(spec, instance: ProblemInstance, rate: float, process: str,
          data_seed: int, ga_seed: int):
    """generate data -> fit predictor -> genetic search for ``instance`` with
    the settings of ``spec`` (a :class:`SweepSpec` or :class:`Scenario`),
    training on the grid its ``train_grid`` resolves to."""
    samples = generate_training_dataset(
        spec.train_grid.resolve(instance, rate, process, spec.cost, data_seed))
    predictor = fit_predictor(samples, spec.surrogate)
    result = ga.run(instance, predictor, replace(spec.ga, rng_seed=ga_seed))
    return samples, predictor, result


def run_point(spec: SweepSpec, value, run_index: int) -> SweepPoint:
    """Full pipeline at one sweep point: simulate, fit, search, record."""
    tx_size, rate, bandwidth = _point_factors(spec, value)
    point_key = f"{spec.varied_factor}={value!r}"
    data_seed = derive_seed(spec.rng_seed, "data", point_key, run_index)
    # GA seeds are shared across points (varying only with run_index) so
    # points differ by the studied factor alone.
    ga_seed = derive_seed(spec.rng_seed, "ga", run_index)
    try:
        instance = ProblemInstance(
            transactions=tuple(Transaction(i, tx_size) for i in range(spec.instance_n)),
            nodes=(NodeProfile(0, bandwidth),), limits=spec.limits)
        samples, _, result = _tune(spec, instance, rate, spec.arrival_process,
                                   data_seed, ga_seed)
    except BlocktuneError as exc:
        raise type(exc)(f"sweep point {point_key} (run {run_index}): {exc}") from exc
    frac = (result.extrapolation_queries / result.total_queries
            if result.total_queries else 0.0)
    return SweepPoint(
        value=float(value), run_index=run_index,
        recommended_block_size=result.recommended_block_size,
        best_fitness=result.best_fitness,
        data_seed=data_seed, ga_seed=ga_seed, n_samples=len(samples),
        extrapolation_fraction=frac,
    )


def _average_ranks(x) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their positions."""
    _, group, counts = _kernels.group_rows(np.asarray(x, dtype=np.float64))
    last = np.cumsum(counts)  # each group's last 1-based position
    return (last - 0.5 * (counts - 1))[group]


def _spearman(values, recommendations) -> float | None:
    """Spearman's rho: the Pearson correlation of the average ranks."""
    if len(set(recommendations)) < 2 or len(set(values)) < 2:
        return None
    rho = np.corrcoef(_average_ranks(values), _average_ranks(recommendations))[1, 0]
    return None if math.isnan(rho) else float(rho)


def _stabilization_index(points) -> float | None:
    """Std of recommendations over the top half of the sweep values, the
    median value included when their count is odd."""
    values = sorted({p.value for p in points})
    top = set(values[len(values) // 2:])
    recs = [p.recommended_block_size for p in points if p.value in top]
    if not recs:
        return None
    return float(np.std(recs))


def run_sensitivity(spec: SweepSpec) -> SweepResult:
    points = []
    for value in spec.values:
        for run_index in range(spec.runs_per_point):
            points.append(run_point(spec, value, run_index))
    return SweepResult(
        varied_factor=spec.varied_factor,
        points=tuple(points),
        spearman=_spearman([p.value for p in points],
                           [p.recommended_block_size for p in points]),
        stabilization_index=_stabilization_index(points),
        rng_seed=spec.rng_seed,
    )


# ---------------------------------------------------------------------------
# throughput validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One validation scenario: an instance to tune plus the simulated
    deployment it will be checked against, whose workload must fit its cut;
    candidate sizes replace ``block_cut.max_tx_count``, checked but changing
    no output."""

    instance: ProblemInstance
    workload: WorkloadProfile
    block_cut: BlockCutRule
    train_grid: TrainingGrid
    name: str = "scenario-0"
    cost: GroundTruthCost = GroundTruthCost()
    surrogate: SurrogateConfig = SurrogateConfig()
    ga: GaConfig = GaConfig()
    rng_seed: int = 0

    def __post_init__(self):
        simulator._check_bytes(self.workload.total_tx, self.workload.max_tx_size,
                               self.block_cut.max_bytes, "workload.total_tx")

    @classmethod
    def from_dict(cls, d: dict, where: str = "scenario") -> "Scenario":
        return configio.build_config(cls, d, where)


@dataclass(frozen=True)
class PipelineOutcome:
    """Intermediate artifacts of one scenario pipeline run; ``samples`` is
    the (k, 6) training dataset array."""

    samples: np.ndarray
    predictor: object
    ga_result: ga.GaResult
    seeds: dict


def run_scenario_pipeline(scenario: Scenario) -> PipelineOutcome:
    """generate data -> fit predictor -> genetic search, fully seeded."""
    data_seed = derive_seed(scenario.rng_seed, "data")
    ga_seed = derive_seed(scenario.rng_seed, "ga")
    samples, predictor, result = _tune(
        scenario, scenario.instance, scenario.workload.arrival_rate_tps,
        scenario.workload.arrival_process, data_seed, ga_seed)
    return PipelineOutcome(samples=samples, predictor=predictor, ga_result=result,
                           seeds={"root": scenario.rng_seed, "data": data_seed,
                                  "ga": ga_seed})


@dataclass(frozen=True)
class Candidate:
    """One block size simulated during validation."""

    block_size: int
    throughput_tps: float
    mean_latency_s: float


@dataclass(frozen=True)
class ScenarioOutcome:
    name: str
    recommended_block_size: int
    candidates: tuple[Candidate, ...]
    winner: bool
    seeds: dict


@dataclass(frozen=True)
class ValidationReport:
    """Every scenario's outcome, validated at the recommendation plus each
    of ``neighbor_offsets``; ``win_count`` and ``scenario_count`` are
    computed from ``scenarios`` on construction."""

    scenarios: tuple[ScenarioOutcome, ...]
    neighbor_offsets: tuple[int, ...] = field(default=NEIGHBOR_OFFSETS, init=False)
    win_count: int = field(init=False)
    scenario_count: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "win_count", sum(s.winner for s in self.scenarios))
        object.__setattr__(self, "scenario_count", len(self.scenarios))

    def summary_lines(self):
        lines = [f"validation: {self.win_count}/{self.scenario_count} scenarios "
                 f"won by the recommended block size"]
        for s in self.scenarios:
            verdict = "WIN " if s.winner else "lose"
            best = max(s.candidates, key=lambda c: c.throughput_tps)
            lines.append(f"  [{verdict}] {s.name}: recommended {s.recommended_block_size},"
                         f" best measured {best.block_size}"
                         f" ({best.throughput_tps:.1f} tps)")
        return lines


def validate_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Tune one scenario, then measure simulated throughput at the
    recommendation and its :data:`NEIGHBOR_OFFSETS` neighbors, clamped to
    [1, ub], under one workload seed."""
    try:
        outcome = run_scenario_pipeline(scenario)
        rec = outcome.ga_result.recommended_block_size
        ub = scenario.instance.limits.ub
        sizes = sorted({min(max(rec + off, 1), ub) for off in NEIGHBOR_OFFSETS})
        sim_seed = derive_seed(scenario.rng_seed, "sim")
        config = SimConfig(
            workload=replace(scenario.workload,
                             rng_seed=derive_seed(scenario.rng_seed, "workload")),
            nodes=scenario.instance.nodes,
            block_cut=scenario.block_cut,
            cost=scenario.cost,
            rng_seed=sim_seed,
        )
        curve = throughput_vs_blocksize(config, sizes)
    except BlocktuneError as exc:
        raise type(exc)(f"scenario {scenario.name!r}: {exc}") from exc
    tps_by_size = {size: tps for size, tps, _ in curve}
    winner = all(tps_by_size[rec] >= tps for size, tps in tps_by_size.items())
    seeds = dict(outcome.seeds)
    seeds["sim"] = sim_seed
    return ScenarioOutcome(
        name=scenario.name,
        recommended_block_size=rec,
        candidates=tuple(Candidate(*point) for point in curve),
        winner=winner,
        seeds=seeds,
    )


def run_validation(scenarios) -> ValidationReport:
    if not scenarios:
        raise ConfigError("at least one scenario is required")
    return ValidationReport(tuple(validate_scenario(sc) for sc in scenarios))
