"""The JSON config schema and its reader, the output writers, and seeds.

One reader, :func:`build_config`, turns every JSON config object into its
dataclass by one rule. Every key must name a field, and a field without a
default is required. ``int`` takes an integer in [-2**63, 2**63), as numpy
holds it; ``float`` any number, stored as a float; ``Real`` any number,
kept as written; ``str`` a string; ``tuple[int, int]`` a list of exactly
two integers and ``tuple[float, ...]`` a list of any length; ``dict[str,
float]`` an object of numbers;
``X | None`` also null; ``np.ndarray`` a list of numbers, read as float64;
a nested dataclass an object read by the same rule; ``rng_seed`` an integer
in [0, 2**32). A number may not be NaN, which Python's ``json`` parses;
``Infinity`` and ``-Infinity`` read as floats, and range checks that reject
them live with the others in each dataclass's ``__post_init__``. Only two
forms are read by hand:

* ``transactions`` is ``{"sizes_bytes": [...]}``, ``{"count": N,
  "size_bytes": s}`` or ``{"count": N, "size_range_bytes": [lo, hi],
  "rng_seed": k}`` (uniformly random sizes);
* ``nodes`` is a non-empty list of ``{"bandwidth_bytes_per_sec": bw}``.

Transaction and node ids are implicit by position. For example, an
``instance``, a ``workload``, and a ``gen-data`` file, which is one
``simulator.DataGrid`` (its ``cost`` object may be given too)::

    {"transactions": {"count": 12, "size_bytes": 1024},
     "nodes": [{"bandwidth_bytes_per_sec": 8.0e6}],
     "limits": {"lb": 4, "ub": 8, "cb": 16384}}

    {"arrival_process": "fixed" | "poisson", "arrival_rate_tps": 400.0,
     "total_tx": 1200, "tx_size_bytes": 1024, "rng_seed": 3}

    {"block_sizes": [2, 4, 8], "tx_sizes": [500, 1000], "bandwidths": [1.0e6],
     "arrival_rate_tps": 200.0, "total_tx": 60, "max_bytes": 65536, "timeout_s": 1.0,
     "arrival_process": "fixed", "replicates": 1, "rng_seed": 3}

:func:`to_json` runs the rule backwards: a dataclass becomes an object of
its fields, and a tuple or an array a list. So reading what it writes and
writing that again gives the same JSON. A result type's fields are the keys
it stores, so no type has a writer of its own. The one exception is
``simulate``'s summary, ``SimResult.to_dict``: it stores a block count and
a count per cut reason, not the per-block records.

This module opens every output file, through one of two writers:
:func:`write_json` (sorted, indented JSON) and :func:`write_csv` (a header
line, then one line per row). Both write ``<path>.tmp`` and rename it over
``<path>``, so a reader sees the old file or the whole new one; a write
that fails midway removes the temporary file and leaves the old one.

Seeds resolve in priority order --seed flag > BLOCKTUNE_SEED environment
variable > config file value, and must lie in [0, 2**32); sub-seeds always
derive deterministically from the resolved root seed
(``simulator.derive_seed``), so one number reproduces an entire run.
"""

from __future__ import annotations

import contextlib
import json
import os
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from numbers import Integral, Real

import numpy as np

from . import __version__
from .errors import ConfigError, InternalInvariantError
from .model import NodeProfile, ProblemInstance, Transaction

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


@contextlib.contextmanager
def _replacing(path):
    """A text file to write in place of ``path``: it is written beside it as
    ``<path>.tmp`` and renamed over ``path`` once whole, so readers see the
    old file or the whole new one. On an error the temporary file is removed
    and ``path`` is left as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, payload):
    """Write ``payload`` as sorted, indented JSON, atomically. NaN and
    infinities are not JSON: a payload holding one, which the checks on
    every input should rule out, raises InternalInvariantError and leaves
    the old file."""
    with _replacing(path) as fh:
        try:
            json.dump(payload, fh, indent=1, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise InternalInvariantError(f"{path}: {exc}") from None
        fh.write("\n")


def write_csv(path, columns, rows):
    """Write a header of ``columns`` and then one line per row of ``rows``,
    atomically. Cells are written with ``str``: a Python float as its
    shortest exact form, a string as it is."""
    with _replacing(path) as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


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


def check_number(value, where: str, integer: bool = False):
    """``value``, which must be an integer or, unless ``integer``, any real
    number other than NaN (a bool is neither); ``where`` names it in the
    error."""
    if (isinstance(value, bool) or not isinstance(value, Integral if integer else Real)
            or value != value):
        raise ConfigError(f"{where} must be {'an integer' if integer else 'a number'}, "
                          f"got {value!r}")
    return value


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


def check_keys(d, keys, where: str) -> dict:
    """``d``, which must be a JSON object whose every key is one of ``keys``."""
    for key in check_object(d, where):
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {key!r} "
                              f"(known keys: {', '.join(keys)})")
    return d


def build_config(cls, d, where: str, **given):
    """The dataclass ``cls`` read from the JSON object ``d`` by the rule in
    the module docstring. ``given`` sets fields that the file does not: a
    key of ``d`` that names one is unknown. ``where`` names ``d`` in errors."""
    hints = typing.get_type_hints(cls)
    read = [f for f in fields(cls) if f.init and f.name not in given]
    check_keys(d, [f.name for f in read], where)
    kwargs = dict(given)
    for f in read:
        if f.name in d:
            value = read_value(hints[f.name], d[f.name], f"{where}.{f.name}")
            kwargs[f.name] = (check_seed(value, f"{where}.{f.name}")
                              if f.name == "rng_seed" else value)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}: missing required key {f.name!r}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def read_value(hint, value, where: str):
    """The JSON ``value`` read as the type ``hint``; ``where`` names it in
    errors."""
    if hint in _HAND_READERS:
        return _HAND_READERS[hint](value, where)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        (hint,) = [arg for arg in args if arg is not type(None)]
        return None if value is None else read_value(hint, value, where)
    if origin is tuple:
        items = check_list(value, where)
        hints = args[:1] * len(items) if args[-1] is Ellipsis else args
        if len(hints) != len(items):
            raise ConfigError(f"{where} must be a list of {len(hints)} values, "
                              f"got {value!r}")
        return tuple(read_value(h, v, f"{where}[{i}]")
                     for i, (h, v) in enumerate(zip(hints, items)))
    if origin is dict:
        return {key: read_value(args[1], v, f"{where}.{key}")
                for key, v in check_object(value, where).items()}
    if hint is np.ndarray:
        # Each entry passes check_number: one check per distinct type and one
        # NaN scan, or else the per-entry check names the first that fails.
        items = check_list(value, where)
        if all(t is not bool and issubclass(t, Real) for t in set(map(type, items))):
            array = np.array(items, dtype=np.float64)
            if not np.isnan(array).any():
                return array
        return np.array([check_number(v, f"{where}[{i}]") for i, v in enumerate(items)],
                        dtype=np.float64)
    if is_dataclass(hint):
        return build_config(hint, value, where)
    if hint is int:
        # numpy holds every integer as an int64
        if not -2**63 <= check_number(value, where, integer=True) < 2**63:
            raise ConfigError(f"{where} must lie in [-2**63, 2**63), got {value}")
        return value
    if hint is float:
        return float(check_number(value, where))
    if hint is Real:
        return check_number(value, where)
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {value!r}")
        return value
    raise TypeError(f"{where}: the config reader has no rule for type {hint!r}")


def to_json(value):
    """The JSON form of ``value``, by the reader's rule run backwards: a
    dataclass becomes an object of its fields, and a tuple, list or array a
    list. An object keeps its keys. Members are written by the same rule,
    and any other value is returned as it is."""
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {key: to_json(v) for key, v in value.items()}
    return value


@dataclass(frozen=True)
class SizeList:
    """``transactions`` given size by size."""

    sizes_bytes: tuple[int, ...]

    def sizes(self):
        return self.sizes_bytes


@dataclass(frozen=True)
class ConstantSizes:
    """``count`` transactions of ``size_bytes`` each."""

    count: int
    size_bytes: int

    def sizes(self):
        return (self.size_bytes,) * self.count


@dataclass(frozen=True)
class RandomSizes:
    """``count`` transactions of sizes drawn uniformly from
    ``size_range_bytes`` (both ends included) with ``rng_seed``."""

    count: int
    size_range_bytes: tuple[int, int]
    rng_seed: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ConfigError(f"count must be >= 0, got {self.count}")
        lo, hi = self.size_range_bytes
        if not 1 <= lo <= hi:
            raise ConfigError(f"size_range_bytes must satisfy 1 <= lo <= hi, "
                              f"got {[lo, hi]!r}")

    def sizes(self):
        lo, hi = self.size_range_bytes
        rng = np.random.default_rng(self.rng_seed)
        return rng.integers(lo, hi + 1, size=self.count).tolist()


# The key that names each form of ``transactions``, in the order they are
# looked for.
TRANSACTION_FORMS = {"sizes_bytes": SizeList, "size_bytes": ConstantSizes,
                     "size_range_bytes": RandomSizes}


def build_transactions(d, where: str = "transactions") -> tuple:
    """The transactions of a ``transactions`` object in one of its three
    forms, with ids by position."""
    check_object(d, where)
    form = next((cls for key, cls in TRANSACTION_FORMS.items() if key in d), None)
    if form is None:
        raise ConfigError(f"{where}: need one of {' / '.join(TRANSACTION_FORMS)}")
    sizes = build_config(form, d, where).sizes()
    return tuple(Transaction(i, s) for i, s in enumerate(sizes))


def build_nodes(items, where: str = "nodes") -> tuple:
    """The nodes of a ``nodes`` list, with ids by position."""
    if not check_list(items, where):
        raise ConfigError(f"{where}: at least one node is required")
    return tuple(build_config(NodeProfile, nd, f"{where}[{i}]", id=i)
                 for i, nd in enumerate(items))


_HAND_READERS = {tuple[Transaction, ...]: build_transactions,
                 tuple[NodeProfile, ...]: build_nodes}


def build_instance(d, where: str = "instance") -> ProblemInstance:
    return build_config(ProblemInstance, d, where)
