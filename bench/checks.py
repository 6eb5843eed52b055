"""Output checks and quality metrics for one operation's output directory.

Each check returns a list of problem messages (empty when the outputs are
correct) and the quality readings taken from the same files.
"""

from __future__ import annotations

import json
import os

import numpy as np

import oracle
from workloads import TIMEOUT_S

REL_TOL = 1e-9
NEIGHBOR_OFFSETS = (-2, -1, 0, 1, 2)


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_pipeline(config: dict, out_dir: str):
    """Check a ``pipeline`` operation's outputs against its config."""
    from blocktune import configio, model
    from blocktune.surrogate import PerformancePredictor

    problems = []
    opt = _load(os.path.join(out_dir, "optimize.json"))
    validation = _load(os.path.join(out_dir, "validation.json"))
    predictor = PerformancePredictor.load(os.path.join(out_dir, "model.json"))
    instance = configio.build_instance(config["instance"])
    ub = instance.limits.ub

    assignment = model.AssignmentMatrix(opt["block_of"], instance.nb)
    report = model.validate_assignment(instance, assignment)
    if not report.ok:
        problems.append("block_of is infeasible: " + "; ".join(report.to_lines()))
    rec = opt["recommended_block_size"]
    if rec != model.recommended_block_size(assignment) or not 1 <= rec <= ub:
        problems.append(f"recommended_block_size {rec} is not the largest block count "
                        f"in [1, {ub}]")
    best = opt["best_fitness"]
    if report.ok:
        recomputed = model.total_processing_time(instance, assignment, predictor)
        if not _close(best, recomputed):
            problems.append(f"best_fitness {best!r} != recomputed {recomputed!r}")
    history = opt["fitness_history"]
    if any(b > a for a, b in zip(history, history[1:])):
        problems.append("fitness_history increases")

    sizes = instance.sizes
    if sizes.min() == sizes.max():
        optimum = oracle.instance_optimum(instance, predictor)
        if best < optimum * (1 - REL_TOL):
            problems.append(f"best_fitness {best!r} beats the exact optimum {optimum!r}")
    else:
        # No exact oracle for mixed sizes: the reference prices the same
        # transactions at their mean size, so the ratio can fall below 1.
        optimum = oracle.count_dp_optimum(
            predictor, instance.n, float(sizes.mean()), instance.bandwidths,
            instance.nb, ub, instance.limits.cb)

    scenario = validation["scenarios"][0]
    tps = {c["block_size"]: c["throughput_tps"] for c in scenario["candidates"]}
    if scenario["recommended_block_size"] != rec or rec not in tps:
        problems.append(f"validation candidates {sorted(tps)} do not include "
                        f"the recommendation {rec}")
        throughput_ratio = float("nan")
    else:
        throughput_ratio = tps[rec] / max(tps.values())
    quality = {"optimum_ratio": best / optimum, "throughput_ratio": throughput_ratio,
               "recommended_block_size": rec}
    return problems, quality, predictor, instance.bandwidths


def _simulated_throughput_ratio(config: dict, tx_size: int, rec: int, seed: int) -> float:
    """Simulated tps at ``rec`` over the best among it and its neighbours,
    under the sweep point's fixed arrival rate and bandwidth."""
    from blocktune.model import NodeProfile
    from blocktune.simulator import (BlockCutRule, GroundTruthCost, SimConfig,
                                     WorkloadProfile, throughput_vs_blocksize)

    limits = config["limits"]
    sim = SimConfig(
        workload=WorkloadProfile(arrival_rate_tps=config["fixed"]["arrival_rate"],
                                 total_tx=config["train_grid"]["total_tx"],
                                 tx_size_bytes=tx_size, rng_seed=seed),
        nodes=(NodeProfile(0, config["fixed"]["bandwidth"]),),
        block_cut=BlockCutRule(max_tx_count=rec, max_bytes=limits["cb"],
                               timeout_s=TIMEOUT_S),
        cost=GroundTruthCost(),
        rng_seed=seed,
    )
    sizes = sorted({min(max(rec + off, 1), limits["ub"]) for off in NEIGHBOR_OFFSETS})
    tps = {size: t for size, t, _ in throughput_vs_blocksize(sim, sizes)}
    return tps[rec] / max(tps.values())


def check_sweep(config: dict, out_dir: str, predictors: list):
    """Check a ``sensitivity`` operation's sweep JSON. ``predictors`` are the
    surrogates the sweep fitted, one per point in point order; the sweep
    writes no model file."""
    from blocktune.model import BlockLimits, NodeProfile, ProblemInstance, Transaction

    problems = []
    sweep = _load(os.path.join(out_dir, "sweep.json"))
    points = sweep["points"]
    limits = config["limits"]
    if [p["value"] for p in points] != [float(v) for v in config["values"]]:
        problems.append("sweep points do not match the sweep values")
    if len(predictors) != len(points):
        problems.append(f"{len(predictors)} fitted predictors for {len(points)} points")
        return problems, {}, None, None
    bandwidth = float(config["fixed"]["bandwidth"])
    ratios, tput = [], []
    for p, predictor in zip(points, predictors):
        rec, best, size = p["recommended_block_size"], p["best_fitness"], int(p["value"])
        if not 1 <= rec <= limits["ub"]:
            problems.append(f"point {size}: recommendation {rec} outside [1, ub]")
            continue
        instance = ProblemInstance(
            transactions=tuple(Transaction(i, size) for i in range(config["instance_n"])),
            nodes=(NodeProfile(0, bandwidth),),
            limits=BlockLimits(limits["lb"], limits["ub"], limits["cb"]))
        optimum = oracle.instance_optimum(instance, predictor)
        if best < optimum * (1 - REL_TOL):
            problems.append(f"point {size}: best_fitness {best!r} beats the exact "
                            f"optimum {optimum!r}")
        ratios.append(best / optimum)
        tput.append(_simulated_throughput_ratio(config, size, rec, p["data_seed"]))
    quality = {"optimum_ratio": float(np.mean(ratios)) if ratios else float("nan"),
               "throughput_ratio": float(np.mean(tput)) if tput else float("nan"),
               "recommended_block_size": [p["recommended_block_size"] for p in points]}
    return problems, quality, predictors[0], [bandwidth]
