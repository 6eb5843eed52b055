"""Command-line entry point: simulate, gen-data, train, optimize,
sensitivity, validate, and the end-to-end pipeline.

Every run writes a manifest next to its outputs capturing the resolved
config, all derived seeds, input/output paths, tool version, and wall-clock
duration; a run is reproducible from its manifest alone. Every file is
written by :mod:`blocktune.configio`'s two atomic writers: results, which
are dataclasses whose fields are the keys they store, as JSON through
``configio.to_json``, and tables as CSV. Exit codes:
0 success, 1 config/parse/validation error, 2 infeasible instance,
3 internal invariant failure.

Config files follow the schema in :mod:`blocktune.configio`. A key that
names no field of its section is an error, like a missing required key or
a value of the wrong type: it exits 1 with one line naming the key, before
any work. A model file that ``train`` or ``pipeline`` writes is read by
the same rule, so a malformed one exits 1 the same way.

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
import time

from . import configio, experiments, ga, simulator, surrogate
from .configio import resolve_seed, to_json, write_csv, write_json
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


# The columns of sensitivity's series table, each a SweepPoint field.
SERIES_COLUMNS = ("value", "run_index", "recommended_block_size", "best_fitness")


def _out_path(args, name):
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        return os.path.join(args.out_dir, name)
    return name


def _emit(args, lines):
    if not args.quiet:
        for line in lines:
            print(line)


def _finish(args, out, config, seeds, inputs, outputs, extra=None):
    """Write the run's manifest, ``<out>.manifest.json``. It records
    ``extra`` when that is not empty, and the run's start time and duration
    unless --no-timestamps."""
    manifest = {"subcommand": args.command, "tool_version": configio.TOOL_VERSION,
                "config": config, "seeds": seeds, "inputs": inputs, "outputs": outputs}
    if extra:
        manifest["extra"] = extra
    if not args.no_timestamps:
        wall, started = args.started
        manifest.update(timestamp=wall, duration_s=time.perf_counter() - started)
    write_json(f"{out}.manifest.json", manifest)


def cmd_simulate(args) -> int:
    raw = configio.load_json(args.config)
    seed = resolve_seed(args.seed, raw.get("rng_seed"))
    config = configio.build_config(simulator.SimConfig, dict(raw, rng_seed=seed),
                                   args.config)
    result = simulator.run_simulation(config)
    out = _out_path(args, args.out)
    blocks_path = f"{out}.blocks.csv"
    write_json(out, result.to_dict())
    write_csv(blocks_path, simulator.BLOCK_TABLE_COLUMNS,
              result.per_block_records.tolist())
    _emit(args, [f"simulated {result.total_tx} transactions in "
                 f"{len(result.per_block_records)} blocks: "
                 f"{result.throughput_tps:.1f} tps, "
                 f"mean latency {result.mean_latency_s:.3f} s"])
    _finish(args, out, raw, {"root": seed}, [args.config], [out, blocks_path])
    return EXIT_OK


def cmd_gen_data(args) -> int:
    raw = configio.load_json(args.config)
    seed = resolve_seed(args.seed, raw.get("rng_seed"))
    grid = configio.build_config(simulator.DataGrid, dict(raw, rng_seed=seed), args.config)
    out = _out_path(args, args.out)
    data = simulator.generate_training_dataset(grid)
    surrogate.save_dataset(data, out)
    _emit(args, [f"wrote {len(data)} training samples to {out}"])
    _finish(args, out, raw, {"root": seed}, [args.config], [out],
            extra={"n_samples": len(data)})
    return EXIT_OK


def cmd_train(args) -> int:
    data = surrogate.load_dataset(args.dataset)
    section = configio.load_json(args.config) if args.config else {}
    where = args.config or "surrogate"
    if "surrogate" in section:  # {"surrogate": {...}} or the section itself
        section = configio.check_keys(section, ("surrogate",), where)["surrogate"]
        where = f"{where}.surrogate"
    section = dict(configio.check_object(section, where))
    section["rng_seed"] = resolve_seed(args.seed, section.get("rng_seed"))
    config = configio.build_config(surrogate.SurrogateConfig, section, where)
    predictor = surrogate.fit_predictor(data, config)
    out = _out_path(args, args.out)
    write_json(out, to_json(predictor))
    report = predictor.fit_report
    _emit(args, [f"fitted on {report.n_train} samples "
                 f"(holdout {report.n_holdout}); train MSE "
                 f"vt={report.train_mse['vt']:.3e} "
                 f"ct={report.train_mse['ct']:.3e} "
                 f"latency={report.train_mse['latency']:.3e}",
                 f"model written to {out}"])
    _finish(args, out, {"surrogate": to_json(config)}, {"root": config.rng_seed},
            [args.dataset] + ([args.config] if args.config else []), [out],
            extra={"fit_report": to_json(report)})
    return EXIT_OK


def cmd_optimize(args) -> int:
    raw = configio.load_json(args.instance)
    # {"instance": {...}, "ga": {...}}, or the instance's own keys beside "ga"
    if "transactions" in raw or "instance" not in raw:
        instance = configio.build_instance({k: v for k, v in raw.items() if k != "ga"},
                                           args.instance)
    else:
        configio.check_keys(raw, ("instance", "ga"), args.instance)
        instance = configio.build_instance(raw["instance"], f"{args.instance}.instance")
    ga_section = configio.check_object(raw.get("ga", {}), f"{args.instance}.ga")
    seed = resolve_seed(args.seed, ga_section.get("rng_seed"))
    config = configio.build_config(ga.GaConfig, dict(ga_section, rng_seed=seed),
                                   f"{args.instance}.ga")
    predictor = surrogate.PerformancePredictor.load(args.model)
    result = ga.run(instance, predictor, config)
    out = _out_path(args, args.out)
    write_json(out, dict(to_json(result), instance={
        "n": instance.n, "nb": instance.nb, "limits": to_json(instance.limits)}))
    history_path = f"{out}.history.csv"
    write_csv(history_path, ("generation", "best_fitness"),
              enumerate(result.fitness_history))
    _emit(args, [f"recommended block size: {result.recommended_block_size} "
                 f"(fitness {result.best_fitness:.4f} after "
                 f"{result.generations_run} generations)"])
    _finish(args, out, raw, {"root": seed}, [args.instance, args.model],
            [out, history_path])
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    raw = configio.load_json(args.spec)
    raw = dict(raw, rng_seed=resolve_seed(args.seed, raw.get("rng_seed")))
    spec = configio.build_config(experiments.SweepSpec, raw, args.spec)
    result = experiments.run_sensitivity(spec)
    out = _out_path(args, args.out)
    write_json(out, to_json(result))
    series_path = f"{out}.series.csv"
    write_csv(series_path, SERIES_COLUMNS,
              ([getattr(p, column) for column in SERIES_COLUMNS] for p in result.points))
    _emit(args, result.summary_lines())
    _finish(args, out, raw, {"root": spec.rng_seed}, [args.spec], [out, series_path])
    return EXIT_OK


def cmd_validate(args) -> int:
    raw = configio.check_keys(configio.load_json(args.scenarios), ("scenarios",),
                              args.scenarios)
    entries = configio.check_list(raw.get("scenarios", []), f"{args.scenarios}.scenarios")
    if not entries:
        raise ConfigError(f"{args.scenarios}: no 'scenarios' list")
    # A seed from the flag or the environment roots every scenario's seed;
    # otherwise each scenario keeps its own config value.
    root = resolve_seed(args.seed, None, default=None)
    scenarios = []
    for i, entry in enumerate(entries):
        where = f"{args.scenarios}.scenarios[{i}]"
        entry = {"name": f"scenario-{i}", **configio.check_object(entry, where)}
        if root is not None:
            entry["rng_seed"] = derive_seed(root, "scenario", i)
        scenarios.append(configio.build_config(experiments.Scenario, entry, where))
    report = experiments.run_validation(scenarios)
    out = _out_path(args, args.out)
    write_json(out, to_json(report))
    _emit(args, report.summary_lines())
    _finish(args, out, raw, {"scenario_roots": [s.rng_seed for s in scenarios]},
            [args.scenarios], [out])
    return EXIT_OK


def cmd_pipeline(args) -> int:
    raw = configio.load_json(args.config)
    raw = dict(raw, rng_seed=resolve_seed(args.seed, raw.get("rng_seed")))
    scenario = configio.build_config(experiments.Scenario, raw, args.config)
    os.makedirs(args.out_dir or ".", exist_ok=True)

    outcome = experiments.run_scenario_pipeline(scenario)
    dataset_path = _out_path(args, "dataset.csv")
    surrogate.save_dataset(outcome.samples, dataset_path)
    model_path = _out_path(args, "model.json")
    write_json(model_path, to_json(outcome.predictor))
    optimize_path = _out_path(args, "optimize.json")
    write_json(optimize_path, to_json(outcome.ga_result))

    validation = experiments.run_validation([scenario])
    validation_path = _out_path(args, "validation.json")
    write_json(validation_path, to_json(validation))

    _emit(args, [f"pipeline for {scenario.name!r}: recommended "
                 f"{outcome.ga_result.recommended_block_size}"]
          + validation.summary_lines())
    outputs = [dataset_path, model_path, optimize_path, validation_path]
    _finish(args, _out_path(args, "pipeline"), raw, outcome.seeds, [args.config], outputs)
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
    # the manifest's timestamp (wall clock) and its duration's start
    # (perf_counter, immune to clock adjustments)
    args.started = (time.time(), time.perf_counter())
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
