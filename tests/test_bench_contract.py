"""The benchmark's trace contract: every trace point in bench/tracing.py
still names a function of the package that a traced run calls, and a
traced run yields every per-layer metric that BENCHMARK.json declares."""

import json
from pathlib import Path

import pytest

from blocktune import cli

from test_cli import PIPELINE, SWEEP, write

ROOT = Path(__file__).resolve().parent.parent
# Per-layer metrics that bench/run.py computes itself, from two operations.
FROM_RUNNER = {"trace.overhead_s"}
# Two GA runs per pipeline (tune, then validate) of 60 generations give the
# 100 generation samples that ga.generation_s.p90 needs.
GENERATIONS = 60


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.delenv("BLOCKTUNE_SEED", raising=False)
    import tracing
    return tracing


def test_traced_runs_measure_every_layer(tmp_path, tracing):
    ga = {"population_size": 6, "max_generations": GENERATIONS,
          "stagnation_limit": GENERATIONS}
    runs = [("pipeline", dict(PIPELINE, ga=ga), []),
            ("sensitivity", dict(SWEEP, ga=ga), ["-o", "sweep.json"])]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"] for m in spec["per_layer"]} - FROM_RUNNER

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op, (command, config, extra) in enumerate(runs):
            path = write(tmp_path / f"{command}.json", config)
            with tracer.operation(op):
                assert cli.main(["--quiet", "--no-timestamps", "--out-dir",
                                 str(tmp_path / command), command, path, *extra]) == 0
    finally:
        tracer.uninstall()

    assert tracer.missing == []
    # A trace point whose function the program no longer calls (renamed,
    # or bypassed by a new name) records nothing, and its metrics read 0.
    recorded = {span[0] for span in tracer.spans}
    assert {point[3] for point in tracing.TRACE_POINTS} - recorded == set()
    for op, (command, _, _) in enumerate(runs):
        metrics = tracing.layer_metrics(tracer, op, 0)
        assert expected - set(metrics) == set(), command
