"""The config reader: every field of every config dataclass has a type the
reader has a rule for, and the rules read values as the schema says. The
writers: a write is whole or leaves the old file."""

import os
import re
import types
import typing
from dataclasses import fields, is_dataclass
from numbers import Real

import numpy as np
import pytest

from blocktune import configio, experiments, ga, simulator, surrogate
from blocktune.errors import ConfigError, InternalInvariantError
from blocktune.model import NodeProfile, ProblemInstance

# The dataclasses a config object is read into directly. The ones their
# fields nest are found by walking the fields.
ROOTS = (experiments.Scenario, experiments.SweepSpec, simulator.DataGrid,
         simulator.SimConfig, ga.GaConfig, surrogate.SurrogateConfig, ProblemInstance,
         NodeProfile, *configio.TRANSACTION_FORMS.values(),
         surrogate.PerformancePredictor)


def has_rule(hint, nested: list) -> bool:
    """Whether ``configio.read_value`` has a rule for ``hint``; the
    dataclasses it reads by the same rule are appended to ``nested``."""
    if hint in configio._HAND_READERS:
        return True
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return (len(args) == 2 and type(None) in args
                and all(arg is type(None) or has_rule(arg, nested) for arg in args))
    if origin is tuple:
        items = args[:-1] if args[-1:] == (Ellipsis,) else args
        return bool(items) and Ellipsis not in items and all(
            has_rule(arg, nested) for arg in items)
    if origin is dict:
        return args[0] is str and has_rule(args[1], nested)
    if is_dataclass(hint):
        nested.append(hint)
        return True
    return hint in (int, float, Real, str, np.ndarray)


def read_fields(cls):
    """(name, type) of each field the reader reads."""
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls) if f.init]


def config_classes() -> list:
    found, todo = [], list(ROOTS)
    while todo:
        cls = todo.pop(0)
        if cls not in found:
            found.append(cls)
            for _, hint in read_fields(cls):
                has_rule(hint, todo)
    return found


@pytest.mark.parametrize("cls", config_classes(), ids=lambda cls: cls.__name__)
def test_every_field_has_a_reader_rule(cls):
    """A field of a type without a rule would reach the program as raw JSON,
    unchecked; ``rng_seed`` is an int so that the range check sees one."""
    for name, hint in read_fields(cls):
        assert has_rule(hint, []), f"{cls.__name__}.{name}: no reader rule for {hint!r}"
        assert name != "rng_seed" or hint is int, f"{cls.__name__}.rng_seed is {hint!r}"


def test_nested_config_classes_are_reached():
    assert {experiments.TrainingGrid, simulator.WorkloadProfile, simulator.BlockCutRule,
            simulator.GroundTruthCost} <= set(config_classes())


@pytest.mark.parametrize("hint, value, expected", [
    (float, 3, 3.0),
    (Real, 256, 256),  # stays an int: a sweep point's seed derives from its repr
    (tuple[Real, ...], [256, 0.5], (256, 0.5)),
    (tuple[int, int], [1, 2], (1, 2)),
    (float | None, None, None),
    (dict[str, float], {"a": 1}, {"a": 1.0}),
    (np.ndarray, [1, 2.5], np.array([1.0, 2.5])),
    (np.ndarray, [np.int64(1), np.float32(0.5), float("-inf")], np.array([1.0, 0.5, -np.inf])),
    (np.ndarray, [], np.array([])),
    (float, float("inf"), float("inf")),
    # the int64 range, in which numpy holds every integer config value
    (int, 2**63 - 1, 2**63 - 1),
    (int, -2**63, -2**63),
])
def test_read_value(hint, value, expected):
    assert repr(configio.read_value(hint, value, "x")) == repr(expected)  # types too


@pytest.mark.parametrize("hint, value, message", [
    (int, 2.0, "x must be an integer"),
    (float, True, "x must be a number"),
    (str, 5, "x must be a string"),
    (tuple[int, int], [1, 2, 3], "x must be a list of 2 values"),
    (tuple[int, ...], [1, "a"], r"x\[1\] must be an integer"),
    (dict[str, float], {"a": "b"}, "x.a must be a number"),
    (float, float("nan"), "x must be a number, got nan"),
    (Real, float("nan"), "x must be a number, got nan"),
    (np.ndarray, [1, "a"], r"x\[1\] must be a number"),
    (int, 2**63, r"x must lie in \[-2\*\*63, 2\*\*63\), got 9223372036854775808"),
    (int, -2**63 - 1, r"x must lie in \[-2\*\*63, 2\*\*63\)"),
])
def test_read_value_rejects(hint, value, message):
    with pytest.raises(ConfigError, match=message):
        configio.read_value(hint, value, "x")


@pytest.mark.parametrize("bad, shown", [("1", "'1'"), (True, "True"), (None, "None"),
                                        (float("nan"), "nan")])
def test_array_names_its_first_non_number(bad, shown):
    """An array entry must be a number, by the rule of a single number: the
    first entry that is not is named, after numbers of numpy types too."""
    with pytest.raises(ConfigError, match=re.escape(f"x[2] must be a number, got {shown}")):
        configio.read_value(np.ndarray, [np.int64(1), np.float32(0.5), bad, bad], "x")


def test_write_csv(tmp_path):
    """A header line, then each row's cells by ``str``: an int, a float's
    shortest exact form and a string as it is."""
    path = tmp_path / "t.csv"
    configio.write_csv(path, ("a", "b", "c"), [(1, 0.1, "x"), (2, 1e-07, "y")])
    assert path.read_text(encoding="utf-8") == "a,b,c\n1,0.1,x\n2,1e-07,y\n"
    assert os.listdir(tmp_path) == ["t.csv"]


def rows_then_fail():
    """Two rows and then an error, like a run that dies while writing."""
    yield (1, 0.5)
    yield (2, 1.5)
    raise RuntimeError("cut midway")


@pytest.mark.parametrize("write", [
    lambda path: configio.write_csv(path, ("a", "b"), rows_then_fail()),
    # json.dump has written part of the object when it meets one it cannot
    # serialise
    lambda path: configio.write_json(path, {"a": 1, "b": object()}),
    # NaN and infinities are not JSON
    lambda path: configio.write_json(path, {"a": 1, "b": float("inf")}),
    lambda path: configio.write_json(path, {"a": [0.5, float("nan")]}),
], ids=["csv", "json", "json-infinity", "json-nan"])
def test_failed_write_keeps_the_old_file(tmp_path, write):
    """A write that fails midway leaves the old file's bytes and no
    temporary file."""
    path = tmp_path / "out"
    path.write_bytes(b"old,bytes\n")
    with pytest.raises((RuntimeError, TypeError, InternalInvariantError)):
        write(path)
    assert path.read_bytes() == b"old,bytes\n"
    assert os.listdir(tmp_path) == ["out"]
