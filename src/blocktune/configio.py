"""Shared JSON config schema, seed derivation, and run manifests.

One structured format covers every entry point. The building blocks:

``instance``::

    {"transactions": {"count": 12, "size_bytes": 1024},   # constant sizes
     "nodes": [{"bandwidth_bytes_per_sec": 8.0e6}],
     "limits": {"lb": 4, "ub": 8, "cb": 16384}}

``transactions`` alternatively takes ``{"sizes_bytes": [...]}`` for explicit
sizes or ``{"count": N, "size_range_bytes": [lo, hi], "rng_seed": k}`` for
uniformly random sizes. Transaction and node ids are implicit by position.

``workload``::

    {"arrival_process": "fixed" | "poisson", "arrival_rate_tps": 400.0,
     "total_tx": 1200, "tx_size_bytes": 1024, "rng_seed": 3}

(``tx_size_range_bytes: [lo, hi]`` replaces ``tx_size_bytes`` for mixed
sizes.)

``block_cut``:  {"max_tx_count": 100, "max_bytes": 1048576, "timeout_s": 0.5}
``cost``:       any subset of the GroundTruthCost fields
``ga`` / ``surrogate``: any subset of the respective config fields

Seeds resolve in priority order --seed flag > BLOCKTUNE_SEED environment
variable > config file value, and must lie in [0, 2**32); sub-seeds always
derive deterministically from the resolved root seed
(``simulator.derive_seed``), so one number reproduces an entire run.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import MISSING, dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from . import __version__
from .errors import ConfigError
from .ga import GaConfig
from .model import BlockLimits, NodeProfile, ProblemInstance, Transaction
from .simulator import BlockCutRule, GroundTruthCost, SimConfig, WorkloadProfile
from .surrogate import SurrogateConfig

TOOL_VERSION = __version__
SEED_ENV_VAR = "BLOCKTUNE_SEED"


def check_seed(seed, source: str) -> int:
    """``seed`` as an int, which must lie in [0, 2**32): seeds are derived
    modulo 2**32, so a larger one would silently alias a smaller, and numpy
    rejects a negative one. ``source`` names the seed in the error."""
    try:
        seed = int(seed)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{source} must be an integer, got {seed!r}") from None
    if not 0 <= seed < 2**32:
        raise ConfigError(f"{source} must be in [0, 2**32), got {seed}")
    return seed


def resolve_seed(cli_seed, config_seed, default: int | None = 0) -> int | None:
    """--seed beats BLOCKTUNE_SEED beats the config file value; ``default``
    when none is set. The chosen seed passes :func:`check_seed`."""
    env = os.environ.get(SEED_ENV_VAR, "").strip()
    if cli_seed is not None:
        return check_seed(cli_seed, "--seed")
    if env:
        return check_seed(env, SEED_ENV_VAR)
    if config_seed is not None:
        return check_seed(config_seed, "config rng_seed")
    return default


def write_json(path, payload):
    """Write ``payload`` as sorted, indented JSON, atomically: readers see
    the old file or the whole new one."""
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def load_json(path) -> dict:
    """The JSON object in the config file ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    return raw


def _req(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return d[key]


def check_number(value, where: str, integer: bool = False):
    """``value``, which must be an integer or, unless ``integer``, any real
    number (a bool is neither); ``where`` names it in the error."""
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        raise ConfigError(f"{where} must be {'an integer' if integer else 'a number'}, "
                          f"got {value!r}")
    return value


def check_numbers(values, where: str, integer: bool = False, length: int | None = None):
    """``values`` as a list, which must be a list (or tuple) of numbers that
    :func:`check_number` accepts, and of ``length`` of them when given."""
    if not isinstance(values, (list, tuple)) or length not in (None, len(values)):
        raise ConfigError(f"{where} must be a list of {f'{length} ' if length else ''}"
                          f"{'integers' if integer else 'numbers'}, got {values!r}")
    return [check_number(v, f"{where}[{i}]", integer) for i, v in enumerate(values)]


def check_object(value, where: str) -> dict:
    """``value``, which must be a JSON object; ``where`` names it in the error."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


def check_list(value, where: str) -> list:
    """``value``, which must be a JSON list; ``where`` names it in the error."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return value


def read_number(d: dict, key: str, where: str, integer: bool = False):
    """The required number ``d[key]``, as an int if ``integer`` else a float."""
    value = check_number(_req(d, key, where), f"{where}.{key}", integer)
    return value if integer else float(value)


def build_config(cls, d: dict, where: str):
    """``cls(**d)`` for a config dataclass: a field whose default is an int
    takes an int, one whose default is a float or None a number (or None)."""
    check_object(d, where)
    defaults = {f.name: f.default for f in fields(cls)}
    for key, value in d.items():
        default = defaults.get(key, MISSING)
        if isinstance(default, (int, float)) or (default is None and value is not None):
            check_number(value, f"{where}.{key}", isinstance(default, int))
    try:
        return cls(**d)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def build_transactions(d: dict, where: str = "transactions"):
    check_object(d, where)
    if "sizes_bytes" in d:
        sizes = check_numbers(d["sizes_bytes"], f"{where}.sizes_bytes", True)
    elif "size_bytes" in d:
        sizes = [read_number(d, "size_bytes", where, True)] * read_number(
            d, "count", where, True)
    elif "size_range_bytes" in d:
        lo, hi = check_numbers(d["size_range_bytes"], f"{where}.size_range_bytes",
                               True, 2)
        if not 1 <= lo <= hi:
            raise ConfigError(f"{where}.size_range_bytes must satisfy 1 <= lo <= hi, "
                              f"got {[lo, hi]!r}")
        rng = np.random.default_rng(check_seed(d.get("rng_seed", 0),
                                               f"{where}.rng_seed"))
        sizes = rng.integers(lo, hi + 1,
                             size=read_number(d, "count", where, True)).tolist()
    else:
        raise ConfigError(
            f"{where}: need one of sizes_bytes / size_bytes / size_range_bytes")
    return tuple(Transaction(i, s) for i, s in enumerate(sizes))


def build_nodes(items, where: str = "nodes"):
    if not check_list(items, where):
        raise ConfigError(f"{where}: at least one node is required")
    return tuple(NodeProfile(i, read_number(check_object(nd, f"{where}[{i}]"),
                                            "bandwidth_bytes_per_sec", where))
                 for i, nd in enumerate(items))


def build_limits(d: dict, where: str = "limits") -> BlockLimits:
    check_object(d, where)
    return BlockLimits(*(read_number(d, key, where, True) for key in ("lb", "ub", "cb")))


def build_instance(d: dict, where: str = "instance") -> ProblemInstance:
    check_object(d, where)
    return ProblemInstance(
        transactions=build_transactions(_req(d, "transactions", where),
                                        f"{where}.transactions"),
        nodes=build_nodes(_req(d, "nodes", where), f"{where}.nodes"),
        limits=build_limits(_req(d, "limits", where), f"{where}.limits"),
    )


def build_workload(d: dict, where: str = "workload") -> WorkloadProfile:
    check_object(d, where)
    kwargs = {
        "arrival_rate_tps": read_number(d, "arrival_rate_tps", where),
        "total_tx": read_number(d, "total_tx", where, True),
        "arrival_process": d.get("arrival_process", "fixed"),
        "rng_seed": check_seed(d.get("rng_seed", 0), f"{where}.rng_seed"),
    }
    if "tx_size_range_bytes" in d:
        kwargs["tx_size_range_bytes"] = tuple(check_numbers(
            d["tx_size_range_bytes"], f"{where}.tx_size_range_bytes", True, 2))
    elif "tx_size_bytes" in d:
        kwargs["tx_size_bytes"] = read_number(d, "tx_size_bytes", where, True)
    else:
        raise ConfigError(f"{where}: need tx_size_bytes or tx_size_range_bytes")
    return WorkloadProfile(**kwargs)


def build_cost(d: dict) -> GroundTruthCost:
    return build_config(GroundTruthCost, d, "cost")


def build_block_cut(d: dict, where: str = "block_cut") -> BlockCutRule:
    check_object(d, where)
    return BlockCutRule(read_number(d, "max_tx_count", where, True),
                        read_number(d, "max_bytes", where, True),
                        read_number(d, "timeout_s", where))


def build_sim_config(d: dict, rng_seed: int, where: str = "sim") -> SimConfig:
    """The simulator config in ``d``, seeded with the resolved ``rng_seed``."""
    check_object(d, where)
    return SimConfig(
        workload=build_workload(_req(d, "workload", where), f"{where}.workload"),
        nodes=build_nodes(_req(d, "nodes", where), f"{where}.nodes"),
        block_cut=build_block_cut(_req(d, "block_cut", where), f"{where}.block_cut"),
        cost=build_cost(d.get("cost", {})),
        rng_seed=rng_seed,
    )


def build_ga_config(d: dict) -> GaConfig:
    return build_config(GaConfig, d, "ga")


def build_surrogate_config(d: dict) -> SurrogateConfig:
    return build_config(SurrogateConfig, d, "surrogate")


@dataclass
class RunManifest:
    """Everything needed to reproduce a run, written next to its outputs."""

    subcommand: str
    config: dict
    seeds: dict
    inputs: list
    outputs: list
    tool_version: str = TOOL_VERSION
    duration_s: float | None = None
    timestamp: float | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self, include_timestamps: bool = True) -> dict:
        d = {
            "subcommand": self.subcommand,
            "tool_version": self.tool_version,
            "config": self.config,
            "seeds": self.seeds,
            "inputs": [str(p) for p in self.inputs],
            "outputs": [str(p) for p in self.outputs],
        }
        if self.extra:
            d["extra"] = self.extra
        if include_timestamps:
            d["duration_s"] = self.duration_s
            d["timestamp"] = self.timestamp
        return d

    def write(self, path, include_timestamps: bool = True):
        write_json(path, self.to_dict(include_timestamps))


class ManifestClock:
    """Stamps a manifest with its run's start time (wall clock) and duration
    (monotonic ``perf_counter``, immune to clock adjustments)."""

    def __init__(self):
        self.start = time.time()
        self._t0 = time.perf_counter()

    def stamp(self, manifest: RunManifest):
        manifest.timestamp = self.start
        manifest.duration_s = time.perf_counter() - self._t0
        return manifest
