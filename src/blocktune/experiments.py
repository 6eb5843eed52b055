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
needed to reproduce it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

from . import configio, ga
from .errors import BlocktuneError, ConfigError
from .model import BlockLimits, NodeProfile, ProblemInstance, Transaction
from .simulator import (
    BlockCutRule,
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
    """Simulation grid used to harvest training samples around a working
    point. Factors scale relative to the point's transaction size and
    bandwidth; the long timeout keeps block formation cut-driven.

    At least two transaction sizes are required: with a single constant
    size, block bytes are proportional to the transaction count and the
    committing-time polynomial design turns rank-deficient."""

    block_sizes: tuple
    tx_size_factors: tuple = (0.75, 1.0, 1.25)
    bandwidth_factors: tuple = (0.5, 1.0, 2.0)
    replicates: int = 1
    total_tx: int = 1200
    max_bytes: int = 1 << 23
    timeout_s: float = 120.0

    def __post_init__(self):
        for name in ("block_sizes", "tx_size_factors", "bandwidth_factors"):
            object.__setattr__(self, name, tuple(configio.check_numbers(
                getattr(self, name), name, name == "block_sizes")))
        if not self.block_sizes:
            raise ConfigError("block_sizes must not be empty")
        if len(set(self.tx_size_factors)) < 2:
            raise ConfigError(
                "tx_size_factors needs at least two distinct values (a single "
                "transaction size makes block bytes collinear with the "
                "transaction count)")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingGrid":
        return configio.build_config(cls, d, "train_grid")


@dataclass(frozen=True)
class SweepSpec:
    """One sensitivity sweep: which factor varies, over which values, with
    everything else pinned."""

    varied_factor: str
    values: tuple
    fixed: dict
    instance_n: int
    limits: BlockLimits
    grid: TrainingGrid
    cost: GroundTruthCost
    surrogate: SurrogateConfig
    ga_config: ga.GaConfig
    arrival_process: str = "fixed"
    runs_per_point: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.varied_factor not in FACTORS:
            raise ConfigError(f"varied_factor must be one of {FACTORS}")
        for value in self.values:
            configio.check_number(value, "values")
        for factor, value in self.fixed.items():
            configio.check_number(value, f"fixed.{factor}")
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

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        try:
            return cls(
                varied_factor=d["varied_factor"],
                values=tuple(configio.check_list(d["values"], "values")),
                fixed=dict(configio.check_object(d.get("fixed", {}), "fixed")),
                instance_n=configio.check_number(d["instance_n"], "instance_n", True),
                limits=configio.build_limits(d["limits"]),
                grid=TrainingGrid.from_dict(d.get("train_grid", {})),
                cost=configio.build_cost(d.get("cost", {})),
                surrogate=configio.build_surrogate_config(d.get("surrogate", {})),
                ga_config=configio.build_ga_config(d.get("ga", {})),
                arrival_process=d.get("arrival_process", "fixed"),
                runs_per_point=configio.check_number(d.get("runs_per_point", 1),
                                                     "runs_per_point", integer=True),
                rng_seed=configio.check_seed(d.get("rng_seed", 0), "rng_seed"),
            )
        except KeyError as exc:
            raise ConfigError(f"sweep spec: missing key {exc}") from None


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

    def to_dict(self) -> dict:
        return {
            "varied_factor": self.varied_factor,
            "rng_seed": self.rng_seed,
            "spearman": self.spearman,
            "stabilization_index": self.stabilization_index,
            "points": [
                {"value": p.value, "run_index": p.run_index,
                 "recommended_block_size": p.recommended_block_size,
                 "best_fitness": p.best_fitness, "data_seed": p.data_seed,
                 "ga_seed": p.ga_seed, "n_samples": p.n_samples,
                 "extrapolation_fraction": p.extrapolation_fraction}
                for p in self.points
            ],
        }

    def write_series(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("value,run_index,recommended_block_size,best_fitness\n")
            for p in self.points:
                fh.write(f"{p.value!r},{p.run_index},{p.recommended_block_size},"
                         f"{p.best_fitness!r}\n")

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
    training around its largest transaction and first node's bandwidth."""
    grid = spec.grid
    tx_size = int(instance.sizes.max())
    bandwidth = float(instance.bandwidths[0])
    base = SimConfig(
        workload=WorkloadProfile(
            arrival_rate_tps=rate, total_tx=grid.total_tx, arrival_process=process,
            tx_size_bytes=tx_size, rng_seed=derive_seed(data_seed, "workload")),
        nodes=(NodeProfile(0, bandwidth),),
        block_cut=BlockCutRule(max_tx_count=max(grid.block_sizes),
                               max_bytes=grid.max_bytes, timeout_s=grid.timeout_s),
        cost=spec.cost,
        rng_seed=data_seed,
    )
    tx_sizes = sorted({max(1, int(round(tx_size * f))) for f in grid.tx_size_factors})
    bandwidths = sorted({bandwidth * f for f in grid.bandwidth_factors})
    samples = generate_training_dataset(base, list(grid.block_sizes), tx_sizes,
                                        bandwidths, grid.replicates)
    predictor = fit_predictor(samples, spec.surrogate)
    result = ga.run(instance, predictor, replace(spec.ga_config, rng_seed=ga_seed))
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


def _spearman(values, recommendations) -> float | None:
    if len(set(recommendations)) < 2 or len(set(values)) < 2:
        return None
    rho = stats.spearmanr(values, recommendations).statistic
    return None if math.isnan(rho) else float(rho)


def _stabilization_index(points) -> float | None:
    """Std of recommendations over the top half of the sweep values."""
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
    deployment it will be checked against."""

    name: str
    instance: ProblemInstance
    workload: WorkloadProfile
    block_cut: BlockCutRule
    cost: GroundTruthCost
    grid: TrainingGrid
    surrogate: SurrogateConfig
    ga_config: ga.GaConfig
    rng_seed: int = 0

    @classmethod
    def from_dict(cls, d: dict, index: int = 0) -> "Scenario":
        try:
            return cls(
                name=d.get("name", f"scenario-{index}"),
                instance=configio.build_instance(d["instance"]),
                workload=configio.build_workload(d["workload"]),
                block_cut=configio.build_block_cut(d["block_cut"]),
                cost=configio.build_cost(d.get("cost", {})),
                grid=TrainingGrid.from_dict(d.get("train_grid", {})),
                surrogate=configio.build_surrogate_config(d.get("surrogate", {})),
                ga_config=configio.build_ga_config(d.get("ga", {})),
                rng_seed=configio.check_seed(d.get("rng_seed", 0),
                                             f"scenario {index}: rng_seed"),
            )
        except KeyError as exc:
            raise ConfigError(f"scenario {index}: missing key {exc}") from None


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
class ScenarioOutcome:
    name: str
    recommended_block_size: int
    candidates: tuple          # (block size, throughput_tps, mean_latency_s)
    winner: bool
    seeds: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "recommended_block_size": self.recommended_block_size,
            "winner": self.winner,
            "seeds": self.seeds,
            "candidates": [
                {"block_size": size, "throughput_tps": tps, "mean_latency_s": lat}
                for size, tps, lat in self.candidates
            ],
        }


@dataclass(frozen=True)
class ValidationReport:
    scenarios: tuple
    neighbor_offsets: tuple

    @property
    def win_count(self) -> int:
        return sum(1 for s in self.scenarios if s.winner)

    def to_dict(self) -> dict:
        return {
            "neighbor_offsets": list(self.neighbor_offsets),
            "win_count": self.win_count,
            "scenario_count": len(self.scenarios),
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    def summary_lines(self):
        lines = [f"validation: {self.win_count}/{len(self.scenarios)} scenarios "
                 f"won by the recommended block size"]
        for s in self.scenarios:
            verdict = "WIN " if s.winner else "lose"
            best = max(s.candidates, key=lambda c: c[1])
            lines.append(f"  [{verdict}] {s.name}: recommended {s.recommended_block_size},"
                         f" best measured {best[0]} ({best[1]:.1f} tps)")
        return lines


def read_neighbor_offsets(raw: dict) -> tuple:
    """The config's ``neighbor_offsets`` (default :data:`NEIGHBOR_OFFSETS`):
    a list of integers that includes 0, the recommendation."""
    offsets = tuple(configio.check_numbers(raw.get("neighbor_offsets", NEIGHBOR_OFFSETS),
                                           "neighbor_offsets", True))
    if 0 not in offsets:
        raise ConfigError("neighbor_offsets must include 0 (the recommendation)")
    return offsets


def validate_scenario(scenario: Scenario,
                      neighbor_offsets=NEIGHBOR_OFFSETS) -> ScenarioOutcome:
    """Tune one scenario, then measure simulated throughput at the
    recommendation and its clamped neighbors under one workload seed.
    ``neighbor_offsets`` are integers that include 0
    (:func:`read_neighbor_offsets`)."""
    try:
        outcome = run_scenario_pipeline(scenario)
        rec = outcome.ga_result.recommended_block_size
        ub = scenario.instance.limits.ub
        sizes = sorted({min(max(rec + off, 1), ub) for off in neighbor_offsets})
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
        candidates=tuple(curve),
        winner=winner,
        seeds=seeds,
    )


def run_validation(scenarios, neighbor_offsets=NEIGHBOR_OFFSETS) -> ValidationReport:
    if not scenarios:
        raise ConfigError("at least one scenario is required")
    outcomes = tuple(validate_scenario(sc, neighbor_offsets) for sc in scenarios)
    return ValidationReport(scenarios=outcomes,
                            neighbor_offsets=tuple(neighbor_offsets))
