"""Command-line entry point: simulate, gen-data, train, optimize,
sensitivity, validate, and the end-to-end pipeline.

Every run writes a manifest next to its outputs capturing the resolved
config, all derived seeds, input/output paths, tool version, and wall-clock
duration; a run is reproducible from its manifest alone. Exit codes:
0 success, 1 config/parse/validation error, 2 infeasible instance,
3 internal invariant failure.

Numeric knobs live in config files; the only global flags are --seed
(overriding every internal seed derivation), --out-dir, --quiet, and
--no-timestamps (drops wall-clock fields so reports diff cleanly).
Every subcommand resolves its root seed the same way: --seed, then the
BLOCKTUNE_SEED environment variable, then the config file; a seed outside
[0, 2**32) is a config error. No subcommand mutates its inputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import configio, experiments, ga, simulator, surrogate
from .configio import ManifestClock, RunManifest, resolve_seed, write_json
from .errors import (
    BlocktuneError,
    ConfigError,
    InfeasibleInstanceError,
    InternalInvariantError,
)
from .simulator import derive_seed

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


def _out_path(args, name):
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        return os.path.join(args.out_dir, name)
    return name


def _emit(args, lines):
    if not args.quiet:
        for line in lines:
            print(line)


def _finish(args, manifest: RunManifest, clock: ManifestClock, out):
    clock.stamp(manifest)
    manifest.write(str(out) + ".manifest.json",
                   include_timestamps=not args.no_timestamps)


def cmd_simulate(args) -> int:
    clock = ManifestClock()
    raw = configio.load_json(args.config)
    seed = resolve_seed(args.seed, raw.get("rng_seed"))
    config = configio.build_sim_config(raw, seed)
    result = simulator.run_simulation(config)
    out = _out_path(args, args.out)
    write_json(out, result.to_dict())
    result.write_block_table(str(out) + ".blocks.csv")
    _emit(args, [f"simulated {result.total_tx} transactions in "
                 f"{len(result.per_block_records)} blocks: "
                 f"{result.throughput_tps:.1f} tps, "
                 f"mean latency {result.mean_latency_s:.3f} s"])
    manifest = RunManifest("simulate", raw, {"root": seed}, [args.config],
                           [out, str(out) + ".blocks.csv"])
    _finish(args, manifest, clock, out)
    return EXIT_OK


def cmd_gen_data(args) -> int:
    clock = ManifestClock()
    raw = configio.load_json(args.config)
    if "sim" not in raw or "grid" not in raw:
        raise ConfigError(f"{args.config}: gen-data config needs 'sim' and 'grid'")
    sim = configio.check_object(raw["sim"], f"{args.config}: sim")
    grid = configio.check_object(raw["grid"], f"{args.config}: grid")
    seed = resolve_seed(args.seed, sim.get("rng_seed"))
    base = configio.build_sim_config(sim, seed)
    out = _out_path(args, args.out)
    data = simulator.generate_training_dataset(
        base,
        block_sizes=configio.check_numbers(grid.get("block_sizes", []),
                                           "grid.block_sizes", True),
        tx_sizes=configio.check_numbers(grid.get("tx_sizes", []), "grid.tx_sizes", True),
        bandwidths=configio.check_numbers(grid.get("bandwidths", []), "grid.bandwidths"),
        replicates=configio.check_number(grid.get("replicates", 1), "grid.replicates",
                                         True),
    )
    surrogate.save_dataset(data, out)
    _emit(args, [f"wrote {len(data)} training samples to {out}"])
    manifest = RunManifest("gen-data", raw, {"root": seed}, [args.config], [out],
                           extra={"n_samples": len(data)})
    _finish(args, manifest, clock, out)
    return EXIT_OK


def cmd_train(args) -> int:
    clock = ManifestClock()
    data = surrogate.load_dataset(args.dataset)
    overrides = configio.load_json(args.config) if args.config else {}
    section = dict(configio.check_object(overrides.get("surrogate", overrides),
                                         f"{args.config}: surrogate"))
    section["rng_seed"] = resolve_seed(args.seed, section.get("rng_seed"))
    config = configio.build_surrogate_config(section)
    predictor = surrogate.fit_predictor(data, config)
    out = _out_path(args, args.out)
    write_json(out, predictor.to_dict())
    report = predictor.fit_report
    _emit(args, [f"fitted on {report['n_train']} samples "
                 f"(holdout {report['n_holdout']}); train MSE "
                 f"vt={report['train_mse']['vt']:.3e} "
                 f"ct={report['train_mse']['ct']:.3e} "
                 f"latency={report['train_mse']['latency']:.3e}",
                 f"model written to {out}"])
    manifest = RunManifest("train", {"surrogate": config.__dict__},
                           {"root": config.rng_seed},
                           [args.dataset] + ([args.config] if args.config else []),
                           [out], extra={"fit_report": report})
    _finish(args, manifest, clock, out)
    return EXIT_OK


def cmd_optimize(args) -> int:
    clock = ManifestClock()
    raw = configio.load_json(args.instance)
    if "transactions" in raw or "instance" not in raw:
        instance = configio.build_instance(raw, where=args.instance)
    else:
        instance = configio.build_instance(raw["instance"], f"{args.instance}: instance")
    ga_section = dict(configio.check_object(raw.get("ga", {}), f"{args.instance}: ga"))
    seed = resolve_seed(args.seed, ga_section.get("rng_seed"))
    ga_section["rng_seed"] = seed
    config = configio.build_ga_config(ga_section)
    predictor = surrogate.PerformancePredictor.load(args.model)
    result = ga.run(instance, predictor, config)
    out = _out_path(args, args.out)
    payload = result.to_dict()
    payload["instance"] = {"n": instance.n, "nb": instance.nb,
                           "limits": {"lb": instance.limits.lb,
                                      "ub": instance.limits.ub,
                                      "cb": instance.limits.cb}}
    write_json(out, payload)
    history_path = str(out) + ".history.csv"
    with open(history_path, "w", encoding="utf-8") as fh:
        fh.write("generation,best_fitness\n")
        for gen, fit in enumerate(result.fitness_history):
            fh.write(f"{gen},{fit!r}\n")
    _emit(args, [f"recommended block size: {result.recommended_block_size} "
                 f"(fitness {result.best_fitness:.4f} after "
                 f"{result.generations_run} generations)"])
    manifest = RunManifest("optimize", raw, {"root": seed},
                           [args.instance, args.model], [out, history_path])
    _finish(args, manifest, clock, out)
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    clock = ManifestClock()
    raw = configio.load_json(args.spec)
    raw = dict(raw, rng_seed=resolve_seed(args.seed, raw.get("rng_seed")))
    spec = experiments.SweepSpec.from_dict(raw)
    result = experiments.run_sensitivity(spec)
    out = _out_path(args, args.out)
    write_json(out, result.to_dict())
    series_path = str(out) + ".series.csv"
    result.write_series(series_path)
    _emit(args, result.summary_lines())
    manifest = RunManifest("sensitivity", raw, {"root": spec.rng_seed},
                           [args.spec], [out, series_path])
    _finish(args, manifest, clock, out)
    return EXIT_OK


def cmd_validate(args) -> int:
    clock = ManifestClock()
    raw = configio.load_json(args.scenarios)
    entries = configio.check_list(raw.get("scenarios", []), f"{args.scenarios}: scenarios")
    if not entries:
        raise ConfigError(f"{args.scenarios}: no 'scenarios' list")
    offsets = experiments.read_neighbor_offsets(raw)
    # A seed from the flag or the environment roots every scenario's seed;
    # otherwise each scenario keeps its own config value.
    root = resolve_seed(args.seed, None, default=None)
    scenarios = []
    for i, entry in enumerate(entries):
        configio.check_object(entry, f"{args.scenarios}: scenarios[{i}]")
        if root is not None:
            entry = dict(entry, rng_seed=derive_seed(root, "scenario", i))
        scenarios.append(experiments.Scenario.from_dict(entry, i))
    report = experiments.run_validation(scenarios, offsets)
    out = _out_path(args, args.out)
    write_json(out, report.to_dict())
    _emit(args, report.summary_lines())
    manifest = RunManifest("validate", raw,
                           {"scenario_roots": [s.rng_seed for s in scenarios]},
                           [args.scenarios], [out])
    _finish(args, manifest, clock, out)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    clock = ManifestClock()
    raw = configio.load_json(args.config)
    raw = dict(raw, rng_seed=resolve_seed(args.seed, raw.get("rng_seed")))
    scenario = experiments.Scenario.from_dict(raw)
    offsets = experiments.read_neighbor_offsets(raw)
    os.makedirs(args.out_dir or ".", exist_ok=True)

    outcome = experiments.run_scenario_pipeline(scenario)
    dataset_path = _out_path(args, "dataset.csv")
    surrogate.save_dataset(outcome.samples, dataset_path)
    model_path = _out_path(args, "model.json")
    write_json(model_path, outcome.predictor.to_dict())
    optimize_path = _out_path(args, "optimize.json")
    write_json(optimize_path, outcome.ga_result.to_dict())

    validation = experiments.run_validation([scenario], offsets)
    validation_path = _out_path(args, "validation.json")
    write_json(validation_path, validation.to_dict())

    _emit(args, [f"pipeline for {scenario.name!r}: recommended "
                 f"{outcome.ga_result.recommended_block_size}"]
          + validation.summary_lines())
    outputs = [dataset_path, model_path, optimize_path, validation_path]
    manifest = RunManifest("pipeline", raw, outcome.seeds, [args.config], outputs)
    _finish(args, manifest, clock, _out_path(args, "pipeline"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocktune",
        description="Block size tuning: simulate, learn performance models, "
                    "search for the throughput-optimal block size, validate.")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every internal seed derivation")
    parser.add_argument("--quiet", action="store_true", help="suppress summaries")
    parser.add_argument("--out-dir", default=None, help="directory for outputs")
    parser.add_argument("--no-timestamps", action="store_true",
                        help="omit wall-clock fields from manifests")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one simulator scenario")
    p.add_argument("config")
    p.add_argument("-o", "--out", default="sim_result.json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen-data", help="harvest training samples over a grid")
    p.add_argument("config")
    p.add_argument("-o", "--out", default="dataset.csv")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="fit the performance models on a dataset")
    p.add_argument("dataset")
    p.add_argument("--config", default=None, help="surrogate hyperparameter file")
    p.add_argument("-o", "--out", default="model.json")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("optimize", help="search for the best block size")
    p.add_argument("instance")
    p.add_argument("model")
    p.add_argument("-o", "--out", default="optimize.json")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sensitivity", help="run one factor sweep")
    p.add_argument("spec")
    p.add_argument("-o", "--out", default="sweep.json")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("validate", help="check recommendations against the simulator")
    p.add_argument("scenarios")
    p.add_argument("-o", "--out", default="validation.json")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pipeline", help="gen-data, train, optimize, validate")
    p.add_argument("config")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleInstanceError as exc:
        print(f"error: infeasible instance: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InternalInvariantError as exc:
        print(f"error: internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BlocktuneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
