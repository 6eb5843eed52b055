"""Benchmark for blocktune: end-to-end speed and recommendation quality,
or per-layer readings from a traced run.

Run from the root of a blocktune source tree:

    python3 bench/run.py --workload tune-uniform-n800 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process, no threads: a closed loop of one operation at a time. An
operation is one ``pipeline`` or ``sensitivity`` command through
``blocktune.cli.main`` in-process, on a config generated from ``--seed``.
Operations start until the next one would end after ``--seconds``; at least
two always run. A traced run (``--trace 1``) runs one untraced and then one
traced operation, and reports per-layer metrics. Every operation's
outputs are checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 5
# On a shared host the CPU speed one process gets drifts by 25-30% over
# minutes, and every timing drifts with it. A fixed kernel timed before each
# operation and after the last one tracks that drift: timings are reported
# scaled to seconds on a host where the kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.045
CALIBRATION_REPEATS = 10
# The host's speed drifts over tens of seconds; the median of two or more
# operations per run damps it.
MIN_OPERATIONS = 2

# Runs in a fresh interpreter: import the CLI and build the workload's config
# objects, as a user's `blocktune` invocation does before any work.
SETUP_CHILD = """
import sys, time, json
import workloads
name, path = sys.argv[1], sys.argv[2]
t0 = time.perf_counter()
import blocktune.cli
with open(path, encoding="utf-8") as fh:
    workloads.build_objects(name, json.load(fh))
print(repr(time.perf_counter() - t0))
"""


def _log(line: str):
    print(line, file=sys.stderr, flush=True)


def measure_setup(root: str, name: str, config_path: str) -> list:
    """Set-up times of SETUP_REPEATS fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), BENCH_DIR] + env.get("PYTHONPATH", "").split(os.pathsep))
    env.pop("BLOCKTUNE_SEED", None)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, name, config_path],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def calibrate() -> float:
    """Median time of a fixed interpreter-and-numpy kernel, the same mix of
    Python loops and small-array numpy calls as the program's hot paths."""
    import numpy as np

    rng = np.random.default_rng(0)
    points = rng.random((8000, 3))
    rows = rng.integers(0, 8000, 8000)
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(300_000):
            acc += i * 0.5
        for _ in range(300):
            left = points[rows, 0] <= 0.5
            acc += float(np.where(left, points[:, 1], points[:, 2]).sum())
            np.sort(points[:, 0])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cli_args(command: str) -> list:
    args = ["--quiet", "--no-timestamps", "--out-dir", "out", command, "config.json"]
    if command == "sensitivity":
        args += ["-o", "sweep.json"]
    return args


def _dir_files(path: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(path):
        for f in files:
            full = os.path.join(dirpath, f)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


class Operation:
    """One operation's wall time, output directory and problems found."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.wall_s = None
        self.host = 1.0  # host slowness against the calibration reference
        self.problems = []
        self.out_dir = None
        self.output_bytes = 0


def run_operation(cli, command: str, work: str, op: Operation, tracer=None):
    """One closed-loop operation with cwd = ``work``; outputs land in op<i>/."""
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.operation(op.index):
                rc = cli.main(_cli_args(command))
        else:
            rc = cli.main(_cli_args(command))
    except Exception:  # an operation that raises is counted as failed
        rc = None
        op.problems.append("raised:\n" + traceback.format_exc())
    op.wall_s = time.perf_counter() - t0
    if rc not in (0, None):
        op.problems.append(f"cli.main returned {rc}")
    op.out_dir = os.path.join(work, f"op{op.index}")
    if os.path.isdir(out):
        os.replace(out, op.out_dir)
        files = _dir_files(op.out_dir)
        op.output_bytes = sum(len(b) for b in files.values())
        return files
    op.problems.append("no output directory")
    return {}


def run(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "blocktune", "cli.py")):
        _log(f"error: {root} holds no blocktune source tree (src/blocktune); "
             "run from the repository root")
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    name = args.workload
    command = workloads.WORKLOADS[name][0]
    os.environ.pop("BLOCKTUNE_SEED", None)  # the config file alone seeds the run
    # One operation at a time on one core: BLAS threads would compete with
    # the operation for the other core on a small shared host.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    work = os.path.join(root, ".bench_work", f"{name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = workloads.make_config(name, args.seed)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
    with open(os.path.join(work, "why.txt"), "w", encoding="utf-8") as fh:
        fh.write(workloads.WHY[name] + "\n")

    setup_times, setup_host = [], 1.0
    if not args.trace:
        before = calibrate()
        setup_times = measure_setup(root, name, config_path)
        setup_host = (before + calibrate()) / (2 * CALIBRATION_REF_S)

    sys.path.insert(0, os.path.join(root, "src"))
    import blocktune.cli as cli
    from blocktune import experiments

    import tracing

    predictors = []  # the sweep writes no model: keep the surrogates it fits
    fit_predictor = experiments.fit_predictor
    if command == "sensitivity":
        def _keep(*a, **k):
            predictor = fit_predictor(*a, **k)
            predictors.append(predictor)
            return predictor
        experiments.fit_predictor = _keep

    tracer = tracing.Tracer() if args.trace else None
    os.chdir(work)
    ops, reference, first_predictors, calibrations = [], None, [], []
    start = time.perf_counter()
    try:
        while True:
            op = Operation(len(ops), traced=bool(args.trace) and len(ops) == 1)
            calibrations.append(calibrate())
            del predictors[:]
            if op.traced:
                tracer.install()
            try:
                files = run_operation(cli, command, work, op, tracer if op.traced else None)
            finally:
                if op.traced:
                    tracer.uninstall()
            if reference is None:
                reference, first_predictors = files, list(predictors)
            elif files != reference:
                differing = sorted(k for k in set(files) | set(reference)
                                   if files.get(k) != reference.get(k))
                op.problems.append(f"outputs differ from operation 0: {differing}")
            if op.index > 0:
                shutil.rmtree(op.out_dir, ignore_errors=True)
            ops.append(op)
            _log(f"operation {op.index}: {op.wall_s:.3f} s measured")
            if len(ops) < MIN_OPERATIONS:
                continue
            elapsed = time.perf_counter() - start
            if args.trace or elapsed + statistics.median(o.wall_s for o in ops) > args.seconds:
                break
    finally:
        experiments.fit_predictor = fit_predictor
        os.chdir(root)
    calibrations.append(calibrate())
    for op, before, after in zip(ops, calibrations, calibrations[1:]):
        op.host = (before + after) / (2 * CALIBRATION_REF_S)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality = {}
    if not ops[0].problems:
        quality = check_outputs(command, config, ops[0], first_predictors)
    if ops[0].problems:  # later operations are checked by equality with the first
        for op in ops[1:]:
            if not op.problems:
                op.problems.append("wrote the same outputs as operation 0")

    for op in ops:
        for p in op.problems:
            _log(f"operation {op.index}: {p}")
    failed = sum(1 for op in ops if op.problems)
    ok_walls = [op.wall_s / op.host for op in ops if not op.problems]

    if args.trace:
        tracer.write(os.path.join(work, "spans.json"))
        traced = ops[1]
        values = tracing.layer_metrics(tracer, traced.index, traced.output_bytes)
        values["trace.overhead_s"] = traced.wall_s - ops[0].wall_s
        if tracer.missing:
            _log("missing trace points: " + ", ".join(tracer.missing))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}
    else:
        values = {"setup_s": statistics.median(setup_times) / setup_host,
                  "peak_rss_mb": rss_mb,
                  "success_share": (len(ops) - failed) / len(ops)}
        if ok_walls:
            values["wall_s"] = statistics.median(ok_walls)
        for key in ("optimum_ratio", "throughput_ratio"):
            if quality.get(key) == quality.get(key):  # present and not NaN
                values[key] = quality[key]
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        _log(f"{name} seed={args.seed}: {len(ops)} operation(s), {failed} failed; "
             f"setup over {len(setup_times)} interpreters; measured setup "
             f"{statistics.median(setup_times):.3f} s at host {setup_host:.3f}; host per "
             f"operation {[round(op.host, 3) for op in ops]}; "
             f"recommended {quality.get('recommended_block_size')}")
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    absent = [k for k in expected if k not in metrics]
    if absent:
        _log("metrics not measured: " + ", ".join(absent))
    for k, m in metrics.items():
        _log(f"  {k} = {m['value']!r} {m['unit']}")
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def check_outputs(command: str, config: dict, op: Operation, predictors: list) -> dict:
    """Check the first operation's outputs and self-test the oracle on its
    model; problems go to ``op``. Returns the quality readings."""
    import checks
    import oracle

    try:
        if command == "pipeline":
            problems, quality, predictor, bandwidths = checks.check_pipeline(
                config, op.out_dir)
        else:
            problems, quality, predictor, bandwidths = checks.check_sweep(
                config, op.out_dir, predictors)
        op.problems += problems
        if predictor is not None:
            op.problems += ["oracle self-test: " + p
                            for p in oracle.self_test(predictor, bandwidths)]
        return quality
    except Exception:  # a check that cannot run fails the operation
        op.problems.append("check raised:\n" + traceback.format_exc())
        return {}


def run_all(args) -> int:
    """Run every workload in its own process and print their metrics."""
    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        print(name, done.stdout.strip().splitlines()[-1], flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
