"""The benchmark's workloads: each one's config generator, written from the
seed argument, with the reason the workload exists beside it.

The program receives only the generated config file. Every ``rng_seed`` in
a config is the benchmark seed, so the same seed gives the same inputs.

The GA runs a fixed generation budget (``stagnation_limit`` equal to
``max_generations``). With the default stagnation stop, the generation
count swings between about 110 and 200 from seed to seed, and with it the
operation time; a fixed budget makes every seed do the same amount of work.
"""

from __future__ import annotations

MIB = 1024 * 1024
TRAIN_BLOCK_SIZES = [5, 10, 20, 40, 60, 80, 100]
TUNE_GENERATIONS = 60
TIMEOUT_S = 1.0

WHY = {
    "tune-uniform-n800": (
        "GA and forest prediction dominate and surrogate queries repeat heavily; "
        "uniform sizes give an exact optimum; validation re-runs the pipeline"),
    "tune-mixed-3node-n200": (
        "same GA and predict layers with mostly distinct query rows, byte-driven "
        "repair, 3-node fan-out and extrapolating queries: query dedup should not pay"),
    "sweep-txsize-n40": (
        "simulator gen-data and surrogate fit dominate and nothing is validated, "
        "so pipeline and GA changes should leave it unchanged"),
}


def _tune_uniform(seed: int) -> dict:
    # 800 transactions of 1,024 B on one 8 MB/s node at 400 tps: about 65% of
    # GA time is forest prediction, and only 1 query row in 31 to 437 is
    # distinct. Sizes are uniform, so the count-DP oracle gives the exact
    # optimum. This is where grouping-GA operators and bin-and-lookup
    # prediction should show.
    return {
        "name": "tune-uniform-n800",
        "rng_seed": seed,
        "instance": {
            "transactions": {"count": 800, "size_bytes": 1024},
            "nodes": [{"bandwidth_bytes_per_sec": 8.0e6}],
            "limits": {"lb": 10, "ub": 100, "cb": 4 * MIB},
        },
        "workload": {"arrival_process": "fixed", "arrival_rate_tps": 400.0,
                     "total_tx": 1200, "tx_size_bytes": 1024, "rng_seed": seed},
        "block_cut": {"max_tx_count": 100, "max_bytes": 4 * MIB,
                      "timeout_s": TIMEOUT_S},
        "train_grid": {"block_sizes": TRAIN_BLOCK_SIZES},
        "ga": {"max_generations": TUNE_GENERATIONS,
               "stagnation_limit": TUNE_GENERATIONS},
    }


def _tune_mixed(seed: int) -> dict:
    # Sizes uniform in [256, 8192] B under a 48 KiB byte cap, so the cap
    # binds and repair moves are byte-driven. Three nodes at 2, 8 and 32 MB/s
    # fan every block out three ways; training covers only the first node's
    # bandwidth, so most queries extrapolate. About 86% of query rows are
    # distinct: the side where query deduplication should gain nothing.
    cb = 48 * 1024
    return {
        "name": "tune-mixed-3node-n200",
        "rng_seed": seed,
        "instance": {
            "transactions": {"count": 200, "size_range_bytes": [256, 8192],
                             "rng_seed": seed},
            "nodes": [{"bandwidth_bytes_per_sec": bw} for bw in (2.0e6, 8.0e6, 32.0e6)],
            "limits": {"lb": 10, "ub": 100, "cb": cb},
        },
        "workload": {"arrival_process": "poisson", "arrival_rate_tps": 400.0,
                     "total_tx": 3000, "tx_size_range_bytes": [256, 8192],
                     "rng_seed": seed},
        "block_cut": {"max_tx_count": 100, "max_bytes": cb, "timeout_s": TIMEOUT_S},
        "train_grid": {"block_sizes": TRAIN_BLOCK_SIZES},
        "ga": {"max_generations": TUNE_GENERATIONS,
               "stagnation_limit": TUNE_GENERATIONS},
    }


def _sweep_txsize(seed: int) -> dict:
    # Five sweep points, each simulating a 3-replicate training grid and
    # fitting the surrogate before a small GA: gen-data and fit carry most of
    # the time and there is no validation step.
    return {
        "varied_factor": "tx_size",
        "values": [256, 512, 1024, 2048, 4096],
        "fixed": {"arrival_rate": 400.0, "bandwidth": 8.0e6},
        "instance_n": 40,
        "limits": {"lb": 10, "ub": 100, "cb": 4 * MIB},
        "train_grid": {"block_sizes": TRAIN_BLOCK_SIZES, "replicates": 3,
                       "total_tx": 2400},
        "ga": {"population_size": 40, "max_generations": 60,
               "stagnation_limit": 60},
        "rng_seed": seed,
    }


# name -> (blocktune subcommand, config generator)
WORKLOADS = {
    "tune-uniform-n800": ("pipeline", _tune_uniform),
    "tune-mixed-3node-n200": ("pipeline", _tune_mixed),
    "sweep-txsize-n40": ("sensitivity", _sweep_txsize),
}


def make_config(name: str, seed: int) -> dict:
    """The config file contents for workload ``name`` under ``seed``."""
    return WORKLOADS[name][1](seed % (1 << 32))


def build_objects(name: str, config: dict):
    """Build the program's config objects, as the CLI does on start-up."""
    from blocktune import experiments

    if WORKLOADS[name][0] == "pipeline":
        return experiments.Scenario.from_dict(config)
    return experiments.SweepSpec.from_dict(config)
