"""In-memory span tracing installed from outside the program.

Wrappers replace module and class attributes of each layer for the traced
operation only and are removed afterwards. A span holds its name, start,
end, parent span and operation id, plus counts taken where the work
happens. A wrapped name that no longer exists is recorded as missing, so
the metrics derived from it are left out instead of failing the operation.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

import numpy as np


def _rows(points):
    return np.atleast_2d(np.asarray(points, dtype=np.float64))


def _predict_counts(args, kwargs, result):
    predictor, points = args[0], _rows(args[1] if len(args) > 1 else kwargs["points"])
    counts = {"rows": points.shape[0],
              "distinct": np.unique(points, axis=0).shape[0]}
    mask = getattr(predictor, "extrapolation_mask", None)
    if mask is not None:
        counts["extrapolating"] = int(np.count_nonzero(mask(points)))
    return counts


# (module name, owner attribute or None, attribute, span name, counter)
TRACE_POINTS = (
    ("experiments", None, "run_scenario_pipeline", "experiments.run_scenario_pipeline", None),
    ("experiments", None, "validate_scenario", "experiments.validate_scenario", None),
    ("experiments", None, "run_point", "experiments.run_point", None),
    ("experiments", None, "generate_training_dataset",
     "experiments.generate_training_dataset", None),
    ("experiments", None, "fit_predictor", "experiments.fit_predictor",
     lambda a, k, r: {"samples": len(a[0])}),
    ("experiments", None, "throughput_vs_blocksize",
     "experiments.throughput_vs_blocksize", None),
    ("simulator", None, "run_simulation", "simulator.run_simulation",
     lambda a, k, r: {"blocks": len(r.per_block_records)}),
    ("ga", None, "run", "ga.run",
     lambda a, k, r: {"generations": r.generations_run, "queries": r.total_queries}),
    ("ga", None, "_population_fitness", "ga._population_fitness", None),
    ("_kernels", None, "repair_assignment", "_kernels.repair_assignment",
     lambda a, k, r: {"fallback": int(not r)}),
    ("surrogate", "PerformancePredictor", "predict_f_batch",
     "surrogate.predict_f_batch", _predict_counts),
    ("surrogate", "PerformancePredictor", "predict_g_batch",
     "surrogate.predict_g_batch", _predict_counts),
)


class Tracer:
    """Records spans while an operation is active; passes calls straight
    through otherwise."""

    def __init__(self):
        # [name, start, end, parent index, operation id, counts]
        self.spans = []
        self.missing = []
        self._stack = []
        self._patches = []
        self.op = None

    def wrap(self, owner, attr: str, name: str, counter=None):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self.op is None:
                return original(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                record[5] = counter(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self):
        """Wrap every trace point of the imported blocktune package."""
        for module_name, owner_name, attr, name, counter in TRACE_POINTS:
            try:
                owner = importlib.import_module(f"blocktune.{module_name}")
            except ImportError:
                self.missing.append(name)
                continue
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
                if owner is None:
                    self.missing.append(name)
                    continue
            self.wrap(owner, attr, name, counter)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def operation(self, op_id):
        """Make ``op_id`` the active operation under a root span named
        ``operation``."""
        self.op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(["operation", time.perf_counter(), 0.0, None, op_id, None])
        try:
            yield
        finally:
            self.spans[self._stack.pop()][2] = time.perf_counter()
            self.op = None

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing,
                       "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def _percentile_metrics(samples):
    """p50, and p90 when at least ten samples lie beyond it."""
    out = {}
    if samples:
        out["ga.generation_s.p50"] = float(np.percentile(samples, 50))
    if len(samples) * 0.1 >= 10:
        out["ga.generation_s.p90"] = float(np.percentile(samples, 90))
    return out


def layer_metrics(tracer: Tracer, op_id, output_bytes: int) -> dict:
    """Per-layer metrics of one traced operation, keyed by metric name."""
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[4] == op_id]
    children = {}
    for i, s in spans:
        children.setdefault(s[3], []).append(i)

    def dur(i):
        s = tracer.spans[i]
        return s[2] - s[1]

    def self_time(i):
        return dur(i) - sum(dur(c) for c in children.get(i, ()))

    by_name = {}
    for i, s in spans:
        by_name.setdefault(s[0], []).append(i)
    present = {p[3] for p in TRACE_POINTS} - set(tracer.missing)

    def total(name):
        return sum(dur(i) for i in by_name.get(name, ()))

    def count_sum(name, key):
        return sum((tracer.spans[i][5] or {}).get(key, 0) for i in by_name.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    if "simulator.run_simulation" in present:
        busy = total("simulator.run_simulation")
        blocks = count_sum("simulator.run_simulation", "blocks")
        m.update({"simulator.runs": len(by_name.get("simulator.run_simulation", ())),
                  "simulator.blocks": blocks, "simulator.busy_s": busy,
                  "simulator.blocks_per_s": ratio(blocks, busy)})
    if "experiments.generate_training_dataset" in present:
        m["simulator.gen_data_s"] = total("experiments.generate_training_dataset")
    if "experiments.throughput_vs_blocksize" in present:
        m["simulator.validation_s"] = total("experiments.throughput_vs_blocksize")
    if "experiments.fit_predictor" in present:
        m["surrogate.fit_s"] = total("experiments.fit_predictor")
        m["surrogate.fit_samples"] = count_sum("experiments.fit_predictor", "samples")
    predict = [n for n in ("surrogate.predict_f_batch", "surrogate.predict_g_batch")
               if n in present]
    if len(predict) == 2:
        calls = sum(len(by_name.get(n, ())) for n in predict)
        rows = sum(count_sum(n, "rows") for n in predict)
        busy = sum(total(n) for n in predict)
        m.update({"surrogate.predict_calls": calls, "surrogate.predict_rows": rows,
                  "surrogate.predict_s": busy,
                  "surrogate.predict_rows_per_s": ratio(rows, busy),
                  "surrogate.distinct_row_share":
                      ratio(sum(count_sum(n, "distinct") for n in predict), rows),
                  "surrogate.extrapolation_share":
                      ratio(sum(count_sum(n, "extrapolating") for n in predict), rows)})
    if "ga.run" in present:
        m.update({"ga.runs": len(by_name.get("ga.run", ())),
                  "ga.run_s": total("ga.run"),
                  "ga.generations": count_sum("ga.run", "generations"),
                  "ga.queries": count_sum("ga.run", "queries")})
        if "ga._population_fitness" in present:
            # A generation ends with its population's fitness evaluation; the
            # first evaluation in a run closes initialization, not a generation.
            gens = []
            for run in by_name.get("ga.run", ()):
                ends = [tracer.spans[c][2] for c in children.get(run, ())
                        if tracer.spans[c][0] == "ga._population_fitness"]
                gens.extend(np.diff(ends).tolist())
            m.update(_percentile_metrics(gens))
    if "ga._population_fitness" in present:
        m["ga.fitness_self_s"] = sum(self_time(i)
                                     for i in by_name.get("ga._population_fitness", ()))
    if "_kernels.repair_assignment" in present:
        m.update({"ga.repair_calls": len(by_name.get("_kernels.repair_assignment", ())),
                  "ga.repair_s": total("_kernels.repair_assignment"),
                  "ga.repair_fallbacks": count_sum("_kernels.repair_assignment",
                                                   "fallback")})
    if "experiments.run_scenario_pipeline" in present:
        m["experiments.pipeline_runs"] = len(
            by_name.get("experiments.run_scenario_pipeline", ()))
        m["experiments.tune_s"] = total("experiments.run_scenario_pipeline")
    if "experiments.validate_scenario" in present:
        m["experiments.validate_s"] = total("experiments.validate_scenario")
    if "experiments.run_point" in present:
        m["experiments.point_s"] = total("experiments.run_point")
    for i in by_name.get("operation", ()):
        m["cli.write_self_s"] = self_time(i)
    m["cli.output_bytes"] = output_bytes
    return m

