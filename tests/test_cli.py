"""The command line, run in-process: exit codes, seed priority, byte-identical
reruns and a pinned optimize result."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blocktune import _kernels, cli, configio, simulator, surrogate
from blocktune.simulator import derive_seed

PINNED_OPTIMIZE = Path(__file__).parent / "data" / "pinned_optimize.json"
SRC = Path(__file__).resolve().parent.parent / "src"

GEN_DATA = {"block_sizes": [2, 4, 8], "tx_sizes": [500, 1000, 2000],
            "bandwidths": [1.0e6, 2.0e6, 4.0e6], "arrival_rate_tps": 200.0,
            "total_tx": 60, "max_bytes": 65536, "timeout_s": 1.0, "replicates": 1,
            "rng_seed": 3}
SURROGATE = {"surrogate": {"boost_rounds": 10, "holdout_fraction": 0.2}}
INSTANCE = {
    "instance": {"transactions": {"sizes_bytes": [500, 1200, 800, 2000, 300, 1500,
                                                  900, 1100, 700, 1800, 400, 1000]},
                 "nodes": [{"bandwidth_bytes_per_sec": 2.0e6},
                           {"bandwidth_bytes_per_sec": 1.0e6}],
                 "limits": {"lb": 3, "ub": 6, "cb": 6000}},
    "ga": {"population_size": 12, "max_generations": 10, "stagnation_limit": 10,
           "rng_seed": 4},
}
PIPELINE = {
    "name": "tiny", "rng_seed": 11,
    "instance": {"transactions": {"count": 10, "size_bytes": 1000},
                 "nodes": [{"bandwidth_bytes_per_sec": 4.0e6}],
                 "limits": {"lb": 2, "ub": 5, "cb": 1048576}},
    "workload": {"arrival_rate_tps": 200.0, "total_tx": 100, "tx_size_bytes": 1000},
    "block_cut": {"max_tx_count": 5, "max_bytes": 1048576, "timeout_s": 1.0},
    "train_grid": {"block_sizes": [2, 4, 6], "total_tx": 60},
    "surrogate": {"boost_rounds": 5},
    "ga": {"population_size": 8, "max_generations": 5},
}
SIMULATE = {"workload": {"arrival_rate_tps": 200.0, "total_tx": 20, "tx_size_bytes": 500},
            "nodes": [{"bandwidth_bytes_per_sec": 1.0e6}],
            "block_cut": {"max_tx_count": 4, "max_bytes": 65536, "timeout_s": 1.0}}
SWEEP = {"varied_factor": "tx_size", "values": [500, 1000, 2000],
         "fixed": {"arrival_rate": 200.0, "bandwidth": 4.0e6}, "instance_n": 10,
         "limits": {"lb": 2, "ub": 5, "cb": 1048576},
         "train_grid": {"block_sizes": [2, 4, 6], "total_tx": 60},
         "surrogate": {"boost_rounds": 5},
         "ga": {"population_size": 8, "max_generations": 5}, "rng_seed": 3}


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("BLOCKTUNE_SEED", raising=False)


def write(path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(out_dir, *argv) -> int:
    return cli.main(["--quiet", "--no-timestamps", "--out-dir", str(out_dir), *argv])


def load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    """gen-data then train on the tiny grid; returns the model file."""
    d = tmp_path_factory.mktemp("model")
    assert run(d, "gen-data", write(d / "gen.json", GEN_DATA), "-o", "d.csv") == 0
    assert run(d, "train", str(d / "d.csv"), "--config",
               write(d / "s.json", SURROGATE), "-o", "m.json") == 0
    return str(d / "m.json")


@pytest.fixture
def instance_path(tmp_path):
    return write(tmp_path / "instance.json", INSTANCE)


class TestExitCodes:
    def test_ok_and_pinned_optimize(self, tmp_path, model_path, instance_path):
        """gen-data, train and optimize reproduce the pinned optimize.json
        byte for byte; it may change only with the GA's random stream, the
        objective or the fitted model's arithmetic."""
        assert run(tmp_path, "optimize", instance_path, model_path) == cli.EXIT_OK
        assert (tmp_path / "optimize.json").read_bytes() == PINNED_OPTIMIZE.read_bytes()

    def test_config_errors(self, tmp_path, model_path):
        assert run(tmp_path, "simulate", str(tmp_path / "missing.json")) == cli.EXIT_CONFIG
        (tmp_path / "bad.json").write_text("{", encoding="utf-8")
        assert run(tmp_path, "optimize", str(tmp_path / "bad.json"),
                   model_path) == cli.EXIT_CONFIG

    def test_infeasible_instance(self, tmp_path, model_path):
        raw = json.loads(json.dumps(INSTANCE))
        raw["instance"]["limits"]["cb"] = 1000  # the 2,000-byte transaction cannot fit
        assert run(tmp_path, "optimize", write(tmp_path / "i.json", raw),
                   model_path) == cli.EXIT_INFEASIBLE

    def test_more_large_transactions_than_blocks(self, tmp_path, model_path):
        """Four 7-byte transactions under cb = 10 need four blocks, so the
        three blocks of lb = 2 cannot hold them, although 3 * 10 >= 28 bytes."""
        raw = json.loads(json.dumps(INSTANCE))
        raw["instance"]["transactions"] = {"sizes_bytes": [7, 7, 7, 7]}
        raw["instance"]["limits"] = {"lb": 2, "ub": 4, "cb": 10}
        assert run(tmp_path, "optimize", write(tmp_path / "i.json", raw),
                   model_path) == cli.EXIT_INFEASIBLE

    def test_internal_invariant(self, tmp_path, model_path, instance_path, monkeypatch):
        monkeypatch.setattr(_kernels, "repair_assignment", lambda *args: False)
        assert run(tmp_path, "optimize", instance_path, model_path) == cli.EXIT_INTERNAL


class TestMalformedModel:
    """A malformed model file, such as one the tree walk could not answer
    for, exits 1 with one error line, before any prediction."""

    def broken_model(self, tmp_path, model_path, edit):
        d = load(model_path)
        assert d["vt_model"]["feature"][0] >= 0  # the first round splits at its root
        edit(d["vt_model"])
        return write(tmp_path / "broken.json", d)

    def test_cycle_exits_1(self, tmp_path, model_path, instance_path):
        # Run in a subprocess: a walk through a cycle never ends.
        def cycle(forest):
            forest["left"][0] = 0
        model = self.broken_model(tmp_path, model_path, cycle)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("BLOCKTUNE_SEED", None)
        proc = subprocess.run(
            [sys.executable, "-m", "blocktune.cli", "--quiet", "--out-dir",
             str(tmp_path), "optimize", instance_path, model],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == cli.EXIT_CONFIG
        assert proc.stderr.startswith("error:") and "left" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key, edit", [
        # its right child, left + 1, would lie past the last node
        ("left", lambda forest: forest["left"].__setitem__(0, len(forest["left"]) - 1)),
        ("value", lambda forest: forest.pop("value")),
    ])
    def test_bad_child_or_missing_key_exits_1(self, tmp_path, model_path,
                                              instance_path, capsys, key, edit):
        model = self.broken_model(tmp_path, model_path, edit)
        capsys.readouterr()
        assert run(tmp_path, "optimize", instance_path, model) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{model}.vt_model: " in err and key in err
        assert "Traceback" not in err

    def test_per_round_tree_objects_exit_1(self, tmp_path, model_path, instance_path,
                                           capsys):
        """A model stored in the earlier layout, one object per boosting
        round under ``trees`` with each round's nodes numbered from 0, exits
        1 naming vt_model and trees: the node arrays are the only layout
        read."""
        d = load(model_path)
        forest = d["vt_model"]
        keys = ("feature", "threshold", "left", "value", "n_samples")
        pointed = {c + side for c in forest["left"] if c >= 0 for side in (0, 1)}
        starts = [i for i in range(len(forest["feature"])) if i not in pointed]
        trees = []
        for lo, hi in zip(starts, starts[1:] + [len(forest["feature"])]):
            tree = {key: forest[key][lo:hi] for key in keys}
            tree["left"] = [c - lo if c >= 0 else -1 for c in tree["left"]]
            trees.append(dict(tree, max_depth=forest["max_depth"],
                              min_samples_leaf=forest["min_samples_leaf"]))
        assert len(trees) == len(forest["train_mse"]) - 1 == 10
        d["vt_model"] = {"base_value": forest["base_value"], "trees": trees,
                         "learning_rate": forest["learning_rate"],
                         "train_mse": forest["train_mse"]}
        model = write(tmp_path / "per_round.json", d)
        capsys.readouterr()
        assert run(tmp_path, "optimize", instance_path, model) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}.vt_model: unknown key 'trees'")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "optimize.json").exists()

    def test_earlier_stored_layout_exits_1(self, tmp_path, model_path, instance_path,
                                           capsys):
        """The model file as ``train`` wrote it before every stored key was
        one an answer reads, with each model's ``family``, each node's
        ``right`` child and the polynomial's ``exponents``, exits 1 naming
        the first of those keys."""
        d = load(model_path)
        for name, family in (("vt_model", "boosted"), ("latency_model", "tree")):
            d[name].update(family=family,
                           right=[c + 1 if c >= 0 else -1 for c in d[name]["left"]])
        d["ct_model"].update(family="polynomial",
                             exponents=surrogate._monomial_exponents(d["ct_model"]["degree"]))
        model = str(tmp_path / "earlier.json")
        configio.write_json(model, d)
        # the digest train/m.json was pinned at in that layout
        assert (hashlib.sha256(Path(model).read_bytes()).hexdigest()
                == "ef685ae766fed9b2df7bbc3ad8c018de1d3fcf969a353662097dbcbe3ec7c8f0")
        capsys.readouterr()
        assert run(tmp_path, "optimize", instance_path, model) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}.vt_model: unknown key 'family'")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "optimize.json").exists()

    @pytest.mark.parametrize("key, edit", [
        # a matmul traceback before the model classes were read by the
        # config reader
        ("ct_model: coefficients", lambda d: d["ct_model"]["coefficients"].pop()),
        # exit 0 and "best_fitness": NaN before
        ("ct_model: feature_scale",
         lambda d: d["ct_model"]["feature_scale"].__setitem__(0, 0)),
    ])
    def test_broken_model_exits_1(self, tmp_path, model_path, instance_path, capsys,
                                  key, edit):
        d = load(model_path)
        edit(d)
        model = write(tmp_path / "broken.json", d)
        capsys.readouterr()
        assert run(tmp_path, "optimize", instance_path, model) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}") and key in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "optimize.json").exists()


    def test_inverted_feature_range_exits_1(self, tmp_path, model_path, instance_path,
                                            capsys):
        """A training range with low above high flagged every query as
        extrapolating, and optimize exited 0."""
        d = load(model_path)
        d["feature_ranges"][0].reverse()
        model = write(tmp_path / "inverted.json", d)
        capsys.readouterr()
        assert run(tmp_path, "optimize", instance_path, model) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert (err.startswith(f"error: {model}") and "feature_ranges[0]" in err
                and err.count("\n") == 1)
        assert not (tmp_path / "optimize.json").exists()


class TestSeedPriority:
    def seed_used(self, out_dir, instance_path, model_path, *flags):
        assert cli.main(["--quiet", "--no-timestamps", "--out-dir", str(out_dir),
                         *flags, "optimize", instance_path, model_path]) == 0
        return load(Path(out_dir) / "optimize.json")["seed_used"]

    def test_flag_then_env_then_config(self, tmp_path, model_path, instance_path,
                                       monkeypatch):
        assert self.seed_used(tmp_path / "a", instance_path, model_path) == 4
        monkeypatch.setenv("BLOCKTUNE_SEED", "9")
        assert self.seed_used(tmp_path / "b", instance_path, model_path) == 9
        assert self.seed_used(tmp_path / "c", instance_path, model_path,
                              "--seed", "7") == 7
        assert self.seed_used(tmp_path / "d", instance_path, model_path,
                              "--seed", str(2**32 - 1)) == 2**32 - 1

    @pytest.mark.parametrize("command", ["simulate", "gen-data", "optimize"])
    @pytest.mark.parametrize("flag, env", [("-1", None), (str(2**32), None),
                                           (None, "-3")])
    def test_out_of_range_seed_is_config_error(self, tmp_path, model_path,
                                               instance_path, monkeypatch,
                                               command, flag, env):
        if env is not None:
            monkeypatch.setenv("BLOCKTUNE_SEED", env)
        inputs = {"simulate": [write(tmp_path / "sim.json", SIMULATE)],
                  "gen-data": [write(tmp_path / "gen.json", GEN_DATA)],
                  "optimize": [instance_path, model_path]}[command]
        flags = ["--seed", flag] if flag is not None else []
        assert cli.main(["--quiet", "--out-dir", str(tmp_path), *flags, command,
                         *inputs]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command, key", [("optimize", "transactions"),
                                              ("simulate", "workload")])
    def test_out_of_range_config_file_seed(self, tmp_path, model_path, capsys,
                                           command, key):
        """A file's rng_seed that numpy would consume directly is checked
        like the root seed: exit 1 with an error naming the key."""
        if command == "optimize":
            raw = json.loads(json.dumps(INSTANCE))
            raw["instance"]["transactions"] = {"count": 12, "rng_seed": -1,
                                               "size_range_bytes": [300, 2000]}
            inputs = [write(tmp_path / "i.json", raw), model_path]
        else:
            raw = json.loads(json.dumps(SIMULATE))
            raw["workload"]["rng_seed"] = -5
            inputs = [write(tmp_path / "sim.json", raw)]
        capsys.readouterr()
        assert run(tmp_path, command, *inputs) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{key}.rng_seed" in err
        assert "Traceback" not in err

    def test_train_honours_env(self, tmp_path, model_path, monkeypatch):
        dataset = str(Path(model_path).parent / "d.csv")
        config = write(tmp_path / "s.json", SURROGATE)
        monkeypatch.setenv("BLOCKTUNE_SEED", "9")
        assert run(tmp_path, "train", dataset, "--config", config, "-o", "m.json") == 0
        assert load(tmp_path / "m.json.manifest.json")["seeds"] == {"root": 9}
        assert run(tmp_path, "--seed", "5", "train", dataset, "--config", config,
                   "-o", "m.json") == 0
        assert load(tmp_path / "m.json.manifest.json")["seeds"] == {"root": 5}

    def test_pipeline_honours_env(self, tmp_path, monkeypatch):
        config = write(tmp_path / "p.json", PIPELINE)
        monkeypatch.setenv("BLOCKTUNE_SEED", "9")
        assert run(tmp_path / "out", "pipeline", config) == 0
        assert load(tmp_path / "out" / "pipeline.manifest.json")["seeds"]["root"] == 9

    def test_validate_honours_env(self, tmp_path, monkeypatch):
        config = write(tmp_path / "v.json", {"scenarios": [PIPELINE]})
        assert run(tmp_path, "validate", config) == 0
        assert load(tmp_path / "validation.json")["scenarios"][0]["seeds"]["root"] == 11
        monkeypatch.setenv("BLOCKTUNE_SEED", "9")
        assert run(tmp_path, "validate", config) == 0
        assert (load(tmp_path / "validation.json")["scenarios"][0]["seeds"]["root"]
                == derive_seed(9, "scenario", 0))


def edited(config, path, value):
    """A deep copy of ``config`` with the key at ``path`` set to ``value``."""
    config = json.loads(json.dumps(config))
    *parents, key = path
    inner = config
    for name in parents:
        inner = inner[name]
    inner[key] = value
    return config


TRANSACTIONS = ("instance", "transactions")


def config_argv(command, config, model_path):
    """The arguments that run ``command`` on the config file ``config``."""
    return {"train": [str(Path(model_path).parent / "d.csv"), "--config", config],
            "optimize": [config, model_path]}.get(command, [config])


@pytest.mark.parametrize("command, config, key", [
    ("sensitivity", dict(SWEEP, values=["a", "b", "c"]), "values"),
    ("pipeline", dict(PIPELINE, train_grid={"block_sizes": "abc"}), "block_sizes"),
    ("pipeline", dict(PIPELINE, surrogate={"holdout_fraction": "x"}), "holdout_fraction"),
    ("pipeline", dict(PIPELINE, ga={"population_size": 2.5}), "population_size"),
    ("sensitivity", dict(SWEEP, limits={"lb": 2, "ub": "x", "cb": 1048576}), "ub"),
    ("pipeline", dict(PIPELINE, ga=dict(PIPELINE["ga"], max_generations=-1)),
     "max_generations"),
    ("pipeline", dict(PIPELINE, ga=dict(PIPELINE["ga"], stagnation_limit=0)),
     "stagnation_limit"),
    ("pipeline", edited(PIPELINE, TRANSACTIONS, {"sizes_bytes": [1000, "x"]}),
     "sizes_bytes[1]"),
    ("pipeline", edited(PIPELINE, TRANSACTIONS,
                        {"count": 10, "size_range_bytes": [1, "x"]}),
     "size_range_bytes[1]"),
    ("pipeline", edited(PIPELINE, TRANSACTIONS, {"count": 10, "size_range_bytes": 5}),
     "size_range_bytes"),
    ("pipeline", edited(PIPELINE, TRANSACTIONS,
                        {"count": 10, "size_range_bytes": [5, 1]}),
     "size_range_bytes"),
    ("pipeline", edited(PIPELINE, TRANSACTIONS,
                        {"count": 10, "size_range_bytes": [0, 5]}),
     "size_range_bytes"),
    ("pipeline", edited(PIPELINE, TRANSACTIONS,
                        {"count": -1, "size_range_bytes": [1, 5]}),
     "count must be >= 0"),
    ("simulate", edited(SIMULATE, ("workload",),
                        {"arrival_rate_tps": 200.0, "total_tx": 20,
                         "tx_size_range_bytes": [1, "x"]}),
     "tx_size_range_bytes[1]"),
    ("simulate", edited(SIMULATE, ("workload",),
                        {"arrival_rate_tps": 200.0, "total_tx": 20,
                         "tx_size_range_bytes": 5}),
     "tx_size_range_bytes"),
    ("gen-data", dict(GEN_DATA, block_sizes=["a"]), "grid.block_sizes[0]"),
    ("gen-data", dict(GEN_DATA, tx_sizes=[500, "a"]), "grid.tx_sizes[1]"),
    ("gen-data", dict(GEN_DATA, bandwidths=["a"]), "grid.bandwidths[0]"),
    ("gen-data", dict(GEN_DATA, replicates="x"), "grid.replicates"),
    # the sections and keys of the gen-data file that the grid replaced,
    # which changed no sample
    ("gen-data", dict(GEN_DATA, grid={"replicates": 1}), "unknown key 'grid'"),
    ("gen-data", dict(GEN_DATA, sim={"rng_seed": 3}), "sim"),
    # validation's neighbours are fixed offsets
    ("pipeline", dict(PIPELINE, neighbor_offsets=[-2, -1, 0, 1, 2]), "neighbor_offsets"),
    # more gen-data keys that the grid replaced
    ("gen-data", dict(GEN_DATA, nodes=[{"bandwidth_bytes_per_sec": 2.0e6}]),
     "unknown key 'nodes'"),
    ("gen-data", dict(GEN_DATA, workload={"tx_size_bytes": 1000}),
     "unknown key 'workload'"),
    ("gen-data", dict(GEN_DATA, block_cut={"max_tx_count": 8}), "unknown key 'block_cut'"),
    ("gen-data", dict(GEN_DATA, max_tx_count=8), "unknown key 'max_tx_count'"),
    ("validate", {"scenarios": [PIPELINE], "neighbor_offsets": [-2, -1, 0, 1, 2]},
     "neighbor_offsets"),
    ("train", {"surrogate": 5}, "surrogate"),
    ("optimize", dict(INSTANCE, ga=5), "ga"),
    ("optimize", dict(INSTANCE, instance=5), "instance"),
    ("optimize", edited(INSTANCE, TRANSACTIONS, 5), "transactions"),
    ("optimize", edited(INSTANCE, ("instance", "nodes"), [5]), "nodes[0]"),
    ("optimize", edited(INSTANCE, ("instance", "limits"), 5), "limits"),
    ("validate", {"scenarios": 5}, "scenarios"),
    ("validate", {"scenarios": [5]}, "scenarios[0]"),
    ("--seed 1 validate", {"scenarios": 5}, "scenarios"),
    ("--seed 1 validate", {"scenarios": [5]}, "scenarios[0]"),
    ("pipeline", dict(PIPELINE, instance=5), "instance"),
    ("pipeline", dict(PIPELINE, workload=5), "workload"),
    ("pipeline", dict(PIPELINE, block_cut=5), "block_cut"),
    ("simulate", dict(SIMULATE, nodes=5), "nodes"),
    ("simulate", dict(SIMULATE, workload=5), "workload"),
    ("sensitivity", dict(SWEEP, fixed=5), "fixed"),
    ("sensitivity", dict(SWEEP, fixed=[1]), "fixed"),
    ("sensitivity", dict(SWEEP, values=5), "values"),
    ("sensitivity", dict(SWEEP, limits=5), "limits"),
    # A key that names no field, in each config object: every one of these
    # configs ran, with the key ignored, before the one reader.
    ("pipeline", dict(PIPELINE, surogate={"boost_rounds": 5}), "unknown key 'surogate'"),
    ("sensitivity", dict(SWEEP, runs_per_pont=2), "unknown key 'runs_per_pont'"),
    ("pipeline", edited(PIPELINE, ("instance", "limit"), {"ub": 5}),
     "instance: unknown key 'limit'"),
    ("optimize", edited(INSTANCE, TRANSACTIONS + ("count",), 12),
     "transactions: unknown key 'count'"),
    ("simulate", edited(SIMULATE, ("nodes", 0, "bandwith_bytes_per_sec"), 2.0e6),
     "nodes[0]: unknown key 'bandwith_bytes_per_sec'"),
    ("sensitivity", edited(SWEEP, ("limits", "lbb"), 3), "limits: unknown key 'lbb'"),
    ("pipeline", edited(PIPELINE, ("workload", "arrival_proces"), "poisson"),
     "workload: unknown key 'arrival_proces'"),
    ("simulate", edited(SIMULATE, ("block_cut", "timeout"), 0.5),
     "block_cut: unknown key 'timeout'"),
    ("pipeline", dict(PIPELINE, cost={"vt_per_tx": 0.001}), "cost: unknown key 'vt_per_tx'"),
    ("sensitivity", edited(SWEEP, ("train_grid", "replicate"), 3),
     "train_grid: unknown key 'replicate'"),
    ("sensitivity", edited(SWEEP, ("fixed", "bandwith"), 1.0e6),
     "unknown factor 'bandwith'"),
    ("train", {"surrogate": {"boost_round": 5}}, "surrogate: unknown key 'boost_round'"),
    ("train", {"boost_round": 5}, "unknown key 'boost_round'"),
    ("train", {"surrogate": {}, "holdout_fraction": 0.2},
     "unknown key 'holdout_fraction'"),
    ("optimize", edited(INSTANCE, ("ga", "population"), 12), "ga: unknown key 'population'"),
    ("optimize", dict(INSTANCE, gaa={}), "unknown key 'gaa'"),
    ("gen-data", dict(GEN_DATA, seed=3), "grid: unknown key 'seed'"),
    ("gen-data", dict(GEN_DATA, replicate=3), "grid: unknown key 'replicate'"),
    ("gen-data", dict(GEN_DATA, tx_size_bytes=1000), "grid: unknown key 'tx_size_bytes'"),
    ("validate", {"scenarios": [dict(PIPELINE, neighbor_offsets=[-1, 0, 1])]},
     "scenarios[0]: unknown key 'neighbor_offsets'"),
    ("validate", {"scenarios": [PIPELINE], "neighbour_offsets": [0]},
     "unknown key 'neighbour_offsets'"),
    ("pipeline", {k: v for k, v in PIPELINE.items() if k != "workload"},
     "missing required key 'workload'"),
    # the known keys are the scenario's
    ("pipeline", dict(PIPELINE, neighbour_offsets=[0]),
     "unknown key 'neighbour_offsets' (known keys: instance, workload, block_cut, "
     "train_grid, name, cost, surrogate, ga, rng_seed)"),
    # NaN parses as JSON; before the reader rejected it, this run ended in a
    # ZeroDivisionError traceback
    ("simulate", edited(SIMULATE, ("workload", "arrival_rate_tps"), float("nan")),
     "workload.arrival_rate_tps must be a number, got nan"),
    # Infinity parses as JSON too; each of these once ran, the first writing
    # "makespan_s": Infinity
    ("simulate", dict(SIMULATE, cost={"ct_fixed_s": float("inf")}),
     "cost: ct_fixed_s must be finite"),
    ("simulate", edited(SIMULATE, ("workload", "arrival_rate_tps"), float("inf")),
     "workload: arrival_rate_tps must be finite"),
    ("simulate", edited(SIMULATE, ("block_cut", "timeout_s"), float("inf")),
     "block_cut: timeout_s must be finite"),
    # each of these once ran with the value ignored or clamped
    ("pipeline", dict(PIPELINE, surrogate={"holdout_fraction": 1.5}),
     "surrogate: holdout_fraction must be in [0, 1)"),
    ("pipeline", dict(PIPELINE, surrogate={"holdout_fraction": -0.5}),
     "surrogate: holdout_fraction must be in [0, 1)"),
    ("pipeline", dict(PIPELINE, surrogate={"boost_rounds": -3}),
     "surrogate: boost_rounds must be >= 0"),
    ("pipeline", dict(PIPELINE, surrogate={"tree_max_depth": -1}),
     "surrogate: tree_max_depth must be >= 0"),
    ("pipeline", dict(PIPELINE, surrogate={"tree_min_samples_leaf": 0}),
     "surrogate: tree_min_samples_leaf must be >= 1"),
    ("train", {"surrogate": {"boost_learning_rate": 1.5}},
     "surrogate: boost_learning_rate must be in (0, 1]"),
    ("train", {"surrogate": {"poly_degree": 4}}, "surrogate: poly_degree must be one of"),
    # these two once failed with an error that named another cause
    ("pipeline", edited(PIPELINE, ("train_grid", "bandwidth_factors"), [0, 1]),
     "train_grid: bandwidth_factors must be finite and > 0"),
    ("sensitivity", edited(SWEEP, ("train_grid", "tx_size_factors"), [-1, 1]),
     "train_grid: tx_size_factors must be finite and > 0"),
    ("pipeline", edited(PIPELINE, ("train_grid", "tx_size_factors"), [1, float("inf")]),
     "train_grid: tx_size_factors must be finite and > 0"),
    # these once failed only when the grid was simulated
    ("pipeline", edited(PIPELINE, ("train_grid", "block_sizes"), [0, 4]),
     "train_grid: block_sizes must be a non-empty list of integers >= 1"),
    ("pipeline", edited(PIPELINE, ("train_grid", "replicates"), 0),
     "train_grid: replicates must be >= 1"),
    # and this one ran
    ("sensitivity", edited(SWEEP, ("train_grid", "timeout_s"), float("inf")),
     "train_grid: timeout_s must be finite and > 0"),
    # every cost is finite, but this window overflowed the transfer time: the
    # run warned, exited 0 and wrote "makespan_s": Infinity
    ("simulate", dict(SIMULATE, cost={"burst_window_s": 1e-320}),
     "cost: the simulated times overflow"),
    # these failed inside the simulator, with an error naming no grid key or
    # another key, and a zero bandwidth exited 2 naming a node
    ("gen-data", dict(GEN_DATA, block_sizes=[0]),
     "grid: block_sizes must be a non-empty list of integers >= 1"),
    ("gen-data", dict(GEN_DATA, tx_sizes=[500, 0]),
     "grid: tx_sizes must be a non-empty list of integers >= 1"),
    ("gen-data", dict(GEN_DATA, bandwidths=[0]),
     "grid: bandwidths must be a non-empty list of finite numbers > 0"),
    ("gen-data", dict(GEN_DATA, bandwidths=[1.0e6, float("inf")]),
     "grid: bandwidths must be a non-empty list of finite numbers > 0"),
    ("gen-data", dict(GEN_DATA, tx_sizes=[]),
     "grid: tx_sizes must be a non-empty list of integers >= 1"),
    ("gen-data", dict(GEN_DATA, replicates=0),
     "grid: replicates must be >= 1"),
    # the default factors round 1- and 2-byte transactions to one size, and
    # the fit failed on a rank-deficient design, naming no key
    ("pipeline", edited(PIPELINE, TRANSACTIONS, {"count": 10, "size_bytes": 1}),
     "train_grid.tx_size_factors round to one transaction size, 1 bytes"),
    ("pipeline", edited(PIPELINE, TRANSACTIONS, {"count": 10, "size_bytes": 2}),
     "train_grid.tx_size_factors round to one transaction size, 2 bytes"),
    # a finite factor times the node's bandwidth overflows: this exited 2,
    # naming a node, and then 1, naming the simulator grid's bandwidths
    ("pipeline", edited(PIPELINE, ("train_grid", "bandwidth_factors"), [1, 1e308]),
     "train_grid.bandwidth_factors times the 4000000.0 bytes/s bandwidth must be "
     "finite and > 0"),
    # the sweep's own values replaced it: the run exited 0, its output as if
    # the entry were absent
    ("sensitivity", edited(SWEEP, ("fixed", "tx_size"), 99999),
     "fixed: 'tx_size' is the varied factor"),
    # each of these exited 1 with an IndexError traceback
    ("pipeline", edited(PIPELINE, ("train_grid", "bandwidth_factors"), []),
     "train_grid: bandwidth_factors must not be empty"),
    ("sensitivity", edited(SWEEP, ("train_grid", "bandwidth_factors"), []),
     "train_grid: bandwidth_factors must not be empty"),
    # and each of these with an OverflowError traceback: numpy holds the
    # sizes as int64
    ("simulate", edited(edited(SIMULATE, ("workload", "tx_size_bytes"), 10**30),
                        ("block_cut", "max_bytes"), 10**31),
     "workload.tx_size_bytes must lie in [-2**63, 2**63), got 10000"),
    ("pipeline", edited(edited(PIPELINE, TRANSACTIONS + ("size_bytes",), 10**30),
                        ("instance", "limits", "cb"), 10**31),
     "transactions.size_bytes must lie in [-2**63, 2**63), got 10000"),
    ("sensitivity", dict(SWEEP, values=[10**30, 2 * 10**30, 3 * 10**30]),
     "c.json: tx_size must lie below 2**63 bytes, got [10000"),
    ("sensitivity", dict(SWEEP, varied_factor="bandwidth", values=[1.0e6, 2.0e6, 4.0e6],
                         fixed={"arrival_rate": 200.0, "tx_size": 1e30}),
     "c.json: tx_size must lie below 2**63 bytes, got [1e+30]"),
    # each value fits in an int64 but the byte sums of these did not:
    # simulate exited 0 with every block_bytes 0, and the instance passed
    # its total-bytes check on the wrapped sum
    ("simulate", edited(edited(SIMULATE, ("workload", "tx_size_bytes"), 2**62),
                        ("block_cut", "max_bytes"), 2**63 - 1),
     "c.json: workload.total_tx times the largest transaction size must lie below "
     "2**63 bytes, got 20 * 4611686018427387904"),
    ("gen-data", dict(GEN_DATA, tx_sizes=[500, 2**62], max_bytes=2**63 - 1),
     "grid: total_tx times the largest transaction size must lie below 2**63 bytes"),
    ("pipeline", edited(edited(PIPELINE, TRANSACTIONS, {"count": 4, "size_bytes": 2**62}),
                        ("instance", "limits", "cb"), 2**63 - 1),
     "c.json.instance: transactions must sum to below 2**53 bytes, got 18446744073709551616"),
    # gen-data checks its largest tx size as a simulated scenario does
    ("gen-data", dict(GEN_DATA, max_bytes=1500),
     "grid: a transaction of 2000 bytes can never fit under max_bytes=1500"),
    # this exited 1 only after the tune had written dataset.csv, model.json
    # and optimize.json
    ("pipeline", edited(PIPELINE, ("workload", "tx_size_bytes"), 2_000_000),
     "c.json: a transaction of 2000000 bytes can never fit under max_bytes=1048576"),
])
def test_bad_config_value_exits_1(tmp_path, capsys, model_path, command, config, key):
    """A config value or section of the wrong type, a value out of range, an
    unknown key or a missing one exits 1 with one error line naming its key,
    before any work: nothing is written. ``command`` may start with global
    flags. A gen-data file holds one grid and is named ``grid``, so its
    errors name a key as ``grid.<key>`` or ``grid: <key>``."""
    *flags, command = command.split()
    name = "grid" if command == "gen-data" else "c.json"
    argv = config_argv(command, write(tmp_path / name, config), model_path)
    capsys.readouterr()
    assert run(tmp_path, *flags, command, *argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and err.count("\n") == 1
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == [name]


def test_byte_sums_near_the_int64_limit(tmp_path):
    """Two transactions of 2**62 - 1 bytes sum below 2**63, so simulate runs
    them, one per block. Run in a subprocess: a cut whose byte bound wrapped
    past 2**63 never ended."""
    config = edited(edited(edited(edited(SIMULATE, ("workload", "tx_size_bytes"),
                                         2**62 - 1), ("workload", "total_tx"), 2),
                           ("block_cut", "max_tx_count"), 1),
                    ("block_cut", "max_bytes"), 2**63 - 1)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BLOCKTUNE_SEED", None)
    subprocess.run([sys.executable, "-m", "blocktune.cli", "--quiet", "--out-dir",
                    str(tmp_path), "simulate", write(tmp_path / "c.json", config)],
                   env=env, timeout=20, check=True)
    header, *rows = (tmp_path / "sim_result.json.blocks.csv").read_text(
        encoding="utf-8").splitlines()
    column = header.split(",").index("block_bytes")
    assert [row.split(",")[column] for row in rows] == [str(2**62 - 1)] * 2


def test_gen_data_seed_moves_poisson_arrivals(tmp_path):
    """The root seed draws a grid's noise and, on a Poisson grid, its
    arrivals too: without noise, two seeds give one dataset at a fixed rate
    and two on a Poisson grid, whose 20 ms timeout cuts by arrival time."""
    quiet = dict(GEN_DATA, timeout_s=0.02, cost={"noise_sd_fraction": 0.0})
    for process, datasets in (("fixed", 1), ("poisson", 2)):
        config = write(tmp_path / f"{process}.json", dict(quiet, arrival_process=process))
        written = set()
        for seed in ("1", "2"):
            assert run(tmp_path, "--seed", seed, "gen-data", config, "-o", "d.csv") == 0
            written.add((tmp_path / "d.csv").read_bytes())
        assert len(written) == datasets, process


# The scenario of tests/data/pinned_simulation.json: its 36 blocks are cut by
# all three reasons.
SIMULATE_MIXED = {
    "workload": {"arrival_rate_tps": 300.0, "total_tx": 240, "arrival_process": "poisson",
                 "tx_size_range_bytes": [200, 3000], "rng_seed": 21},
    "nodes": [{"bandwidth_bytes_per_sec": bw} for bw in (2.0e6, 5.0e5, 1.0e6)],
    "block_cut": {"max_tx_count": 9, "max_bytes": 12000, "timeout_s": 0.03},
    "cost": {"burst_window_s": 0.005, "noise_sd_fraction": 0.05}, "rng_seed": 8}


def test_simulate_summary_counts_its_block_table(tmp_path):
    """simulate's summary counts the rows and the cut reasons of its
    per-block table, which holds one row per record of the run; the records
    are a read-only record array with the table's columns."""
    path = write(tmp_path / "sim.json", SIMULATE_MIXED)
    assert run(tmp_path, "simulate", path, "-o", "r.json") == cli.EXIT_OK
    summary = load(tmp_path / "r.json")
    header, *rows = (tmp_path / "r.json.blocks.csv").read_text(encoding="utf-8").splitlines()
    assert header.split(",") == list(simulator.BLOCK_TABLE_COLUMNS)
    reasons = [row.split(",")[simulator.BLOCK_TABLE_COLUMNS.index("cut_reason")]
               for row in rows]
    records = simulator.run_simulation(configio.build_config(
        simulator.SimConfig, SIMULATE_MIXED, "sim")).per_block_records
    assert len(records) == summary["blocks"] == len(rows) == 36
    assert summary["cut_reasons"] == {
        reason: reasons.count(reason)
        for reason in (simulator.CUT_COUNT, simulator.CUT_BYTES, simulator.CUT_TIMEOUT)}
    assert min(summary["cut_reasons"].values()) > 0
    assert isinstance(records, np.recarray)
    assert records.dtype.names == simulator.BLOCK_TABLE_COLUMNS
    assert not records.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        records.tx_count[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        records[0] = records[1]


@pytest.mark.parametrize("command, config", [
    # a LinAlgError traceback before
    ("pipeline", edited(PIPELINE, ("instance", "nodes", 0, "bandwidth_bytes_per_sec"),
                        float("inf"))),
    # a ZeroDivisionError traceback before
    ("simulate", {"workload": {"arrival_rate_tps": 10.0, "total_tx": 1, "tx_size_bytes": 1},
                  "nodes": [{"bandwidth_bytes_per_sec": float("inf")}],
                  "block_cut": {"max_tx_count": 1, "max_bytes": 1, "timeout_s": 1.0},
                  "cost": {name: 0.0 for name in ("vt_per_tx_s", "vt_per_byte_s",
                                                  "ct_fixed_s", "ct_per_byte_s",
                                                  "dispatch_overhead_s",
                                                  "noise_sd_fraction")}}),
])
def test_infinite_bandwidth_exits_2(tmp_path, capsys, command, config):
    """A node's bandwidth must be finite: an infinite one exits 2, like a
    bandwidth of 0, with one error line naming the key, before any work."""
    path = write(tmp_path / "c.json", config)
    capsys.readouterr()
    assert run(tmp_path, command, path) == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bandwidth_bytes_per_sec must be finite" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert os.listdir(tmp_path) == ["c.json"]


def test_bare_instance_with_ga_runs(tmp_path, model_path):
    """optimize also takes the instance's own keys beside "ga" at the top
    level, and searches exactly as with the {"instance", "ga"} form."""
    bare = dict(INSTANCE["instance"], ga=INSTANCE["ga"])
    assert run(tmp_path, "optimize", write(tmp_path / "i.json", bare), model_path) == 0
    assert (tmp_path / "optimize.json").read_bytes() == PINNED_OPTIMIZE.read_bytes()


@pytest.mark.parametrize("command", ["simulate", "gen-data", "train", "optimize",
                                     "sensitivity", "validate", "pipeline"])
def test_non_object_config_exits_1(tmp_path, capsys, model_path, command):
    """A config file whose top level is not a JSON object exits 1 with one
    error line naming the file."""
    config = write(tmp_path / "c.json", [1, 2])
    argv = config_argv(command, config, model_path)
    capsys.readouterr()
    assert run(tmp_path, command, *argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: expected a JSON object")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unwritable_dataset_exits_1(tmp_path, capsys):
    """gen-data writes its dataset with the pipeline's writer; a path in a
    missing directory exits 1 with one error line naming the file."""
    capsys.readouterr()
    assert run(tmp_path, "gen-data", write(tmp_path / "gen.json", GEN_DATA),
               "-o", str(Path("missing") / "d.csv")) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "d.csv" in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_pipeline_rerun_byte_identical(tmp_path):
    """Two seeded runs write identical bytes, and a run from the manifest's
    recorded config alone reproduces every output file."""
    config = write(tmp_path / "p.json", PIPELINE)
    assert run(tmp_path / "a", "pipeline", config) == 0
    assert run(tmp_path / "b", "pipeline", config) == 0
    first = files(tmp_path / "a")
    second = files(tmp_path / "b")
    manifest = "pipeline.manifest.json"
    manifests = [json.loads(f.pop(manifest)) for f in (first, second)]
    for m in manifests:  # the output paths name the two directories
        m.pop("outputs")
    assert manifests[0] == manifests[1]
    assert first == second
    assert set(first) == {"dataset.csv", "model.json", "optimize.json", "validation.json"}

    recorded = write(tmp_path / "m.json", load(tmp_path / "a" / manifest)["config"])
    assert run(tmp_path / "c", "pipeline", recorded) == 0
    third = files(tmp_path / "c")
    third.pop(manifest)
    assert third == first


@pytest.mark.parametrize("command, config, extra", [("pipeline", PIPELINE, []),
                                                     ("sensitivity", SWEEP,
                                                      ["-o", "sweep.json"])])
def test_quiet_leaves_stdout_alone(tmp_path, capsys, command, config, extra):
    """Under --quiet the commands the benchmark runs in-process write nothing
    to stdout and leave sys.stdout in place: the benchmark's result is the
    last line of its own stdout."""
    stdout = sys.stdout
    assert run(tmp_path, command, write(tmp_path / "c.json", config), *extra) == 0
    assert sys.stdout is stdout
    assert capsys.readouterr().out == ""


def test_import_loads_no_scipy():
    """Start-up is paid on every run, and importing scipy once took most of
    it; the package computes what it needs with numpy alone."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, blocktune.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


PINNED_OUTPUTS = Path(__file__).parent / "data" / "pinned_cli_outputs.json"
# Each subcommand's arguments, run from one directory with every path
# relative, so the manifests record the same paths wherever it runs.
SUBCOMMANDS = (
    ("simulate", ["sim.json"]),
    ("gen-data", ["gen.json", "-o", "d.csv"]),
    ("train", [os.path.join("gen-data", "d.csv"), "--config", "s.json", "-o", "m.json"]),
    ("optimize", ["i.json", os.path.join("train", "m.json")]),
    ("sensitivity", ["sweep.json"]),
    ("validate", ["v.json"]),
    ("pipeline", ["p.json"]),
)


def run_subcommands(directory, *flags):
    """Every subcommand on this module's configs, each into its own output
    directory under ``directory``; returns {relative path: bytes} of every
    file they wrote."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        mp.delenv("BLOCKTUNE_SEED", raising=False)
        for name, config in (("sim.json", SIMULATE), ("gen.json", GEN_DATA),
                             ("s.json", SURROGATE), ("i.json", INSTANCE),
                             ("sweep.json", SWEEP), ("v.json", {"scenarios": [PIPELINE]}),
                             ("p.json", PIPELINE)):
            write(Path(name), config)
        for command, argv in SUBCOMMANDS:
            assert cli.main(["--quiet", *flags, "--out-dir", command, command,
                             *argv]) == cli.EXIT_OK
        return {f"{command}/{p.name}": p.read_bytes()
                for command, _ in SUBCOMMANDS
                for p in sorted(Path(command).iterdir())}


@pytest.fixture(scope="module")
def subcommand_outputs(tmp_path_factory):
    """The outputs of every subcommand with and without --no-timestamps."""
    return (run_subcommands(tmp_path_factory.mktemp("pinned"), "--no-timestamps"),
            run_subcommands(tmp_path_factory.mktemp("stamped")))


def test_outputs_pinned(subcommand_outputs):
    """Every file the seven subcommands write under --no-timestamps, manifests
    included, has the SHA-256 pinned from the writers each result type once
    had."""
    outputs, _ = subcommand_outputs
    digests = {path: hashlib.sha256(data).hexdigest() for path, data in outputs.items()}
    assert digests == load(PINNED_OUTPUTS)


def test_manifest_rules(subcommand_outputs):
    """Without --no-timestamps a manifest gains exactly duration_s and
    timestamp, and no other output changes; only gen-data and train record
    ``extra``."""
    plain, stamped = subcommand_outputs
    assert set(plain) == set(stamped)
    for path in plain:
        if not path.endswith(".manifest.json"):
            assert plain[path] == stamped[path], path
            continue
        before, after = json.loads(plain[path]), json.loads(stamped[path])
        assert set(after) - set(before) == {"duration_s", "timestamp"}
        assert {k: v for k, v in after.items() if k in before} == before
        assert after["duration_s"] >= 0 and after["timestamp"] > 0
        assert ("extra" in before) == (path.split("/")[0] in ("gen-data", "train")), path


def test_validate_matches_pipeline(subcommand_outputs):
    """validate on a one-scenario file writes the validation.json that
    pipeline writes on that scenario."""
    outputs, _ = subcommand_outputs
    assert outputs["validate/validation.json"] == outputs["pipeline/validation.json"]
