"""The command line, run in-process: exit codes, seed priority, byte-identical
reruns and a pinned optimize result."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blocktune import _kernels, cli
from blocktune.simulator import derive_seed

PINNED_OPTIMIZE = Path(__file__).parent / "data" / "pinned_optimize.json"
SRC = Path(__file__).resolve().parent.parent / "src"

GEN_DATA = {
    "sim": {"workload": {"arrival_rate_tps": 200.0, "total_tx": 60,
                         "tx_size_bytes": 1000, "rng_seed": 5},
            "nodes": [{"bandwidth_bytes_per_sec": 2.0e6}],
            "block_cut": {"max_tx_count": 8, "max_bytes": 65536, "timeout_s": 1.0},
            "rng_seed": 3},
    "grid": {"block_sizes": [2, 4, 8], "tx_sizes": [500, 1000, 2000],
             "bandwidths": [1.0e6, 2.0e6, 4.0e6], "replicates": 1},
}
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
        """gen-data, train and optimize reproduce the optimize.json that the
        same configs produced before the GA and the objective were merged."""
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

    def test_internal_invariant(self, tmp_path, model_path, instance_path, monkeypatch):
        monkeypatch.setattr(_kernels, "repair_assignment", lambda *args: False)
        assert run(tmp_path, "optimize", instance_path, model_path) == cli.EXIT_INTERNAL


class TestMalformedModel:
    """A model file the tree walk could not answer for exits 1 with one
    error line, before any prediction."""

    def broken_model(self, tmp_path, model_path, edit):
        d = load(model_path)
        tree = next(t for t in d["vt_model"]["trees"] if t["feature"][0] >= 0)
        edit(tree)
        return write(tmp_path / "broken.json", d)

    def test_cycle_exits_1(self, tmp_path, model_path, instance_path):
        # Run in a subprocess: a walk through a cycle never ends.
        def cycle(tree):
            tree["left"][0] = 0
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
        ("right", lambda tree: tree["right"].__setitem__(0, len(tree["right"]))),
        ("value", lambda tree: tree.pop("value")),
    ])
    def test_bad_child_or_missing_key_exits_1(self, tmp_path, model_path,
                                              instance_path, capsys, key, edit):
        model = self.broken_model(tmp_path, model_path, edit)
        capsys.readouterr()
        assert run(tmp_path, "optimize", instance_path, model) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "vt_model.trees[" in err and key in err
        assert "Traceback" not in err


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
    ("simulate", edited(SIMULATE, ("workload",),
                        {"arrival_rate_tps": 200.0, "total_tx": 20,
                         "tx_size_range_bytes": [1, "x"]}),
     "tx_size_range_bytes[1]"),
    ("simulate", edited(SIMULATE, ("workload",),
                        {"arrival_rate_tps": 200.0, "total_tx": 20,
                         "tx_size_range_bytes": 5}),
     "tx_size_range_bytes"),
    ("gen-data", edited(GEN_DATA, ("grid", "block_sizes"), ["a"]), "grid.block_sizes[0]"),
    ("gen-data", edited(GEN_DATA, ("grid", "tx_sizes"), [500, "a"]), "grid.tx_sizes[1]"),
    ("gen-data", edited(GEN_DATA, ("grid", "bandwidths"), ["a"]), "grid.bandwidths[0]"),
    ("gen-data", edited(GEN_DATA, ("grid", "replicates"), "x"), "grid.replicates"),
    ("gen-data", edited(GEN_DATA, ("grid",), [2, 4]), "grid"),
    ("gen-data", edited(GEN_DATA, ("sim",), 5), "sim"),
    ("pipeline", dict(PIPELINE, neighbor_offsets=5), "neighbor_offsets"),
    ("pipeline", dict(PIPELINE, neighbor_offsets=["a", 0]), "neighbor_offsets[0]"),
    ("pipeline", dict(PIPELINE, neighbor_offsets=[-0.5, 0]), "neighbor_offsets[0]"),
    ("pipeline", dict(PIPELINE, neighbor_offsets=[1, 2]), "neighbor_offsets"),
    ("validate", {"scenarios": [PIPELINE], "neighbor_offsets": [0, True]},
     "neighbor_offsets[1]"),
    ("validate", {"scenarios": [PIPELINE], "neighbor_offsets": [1, 2]},
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
])
def test_bad_config_value_exits_1(tmp_path, capsys, model_path, command, config, key):
    """A config value or section of the wrong type, or a value out of range,
    exits 1 with one error line naming its key, before any work: nothing is
    written. ``command`` may start with global flags."""
    *flags, command = command.split()
    argv = config_argv(command, write(tmp_path / "c.json", config), model_path)
    capsys.readouterr()
    assert run(tmp_path, *flags, command, *argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and err.count("\n") == 1
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["c.json"]


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
