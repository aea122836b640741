"""No module of the library keeps mutable state at module level, and no
frozen geometry keeps any in its attributes.

A module-level name may hold constants, functions, classes and frozen
dataclass instances such as ``fields.DEFAULT_ENGINE``; an instance of any
other class of the library there would be state shared by every caller
in the process, the kind a result must not depend on. The same holds
for the attributes of a scenario and of its frozen geometries, which
every check of every point reads.
"""

import dataclasses
import importlib
import pkgutil
import types

import pytest

import bundlecurv
from bundlecurv.scenarios import build_scenario, sample_points
from bundlecurv.verify import run_checks

MODULES = ["bundlecurv"] + sorted(
    info.name for info in pkgutil.walk_packages(bundlecurv.__path__,
                                                "bundlecurv."))


def _is_frozen_dataclass(cls):
    return (dataclasses.is_dataclass(cls)
            and cls.__dataclass_params__.frozen)


def stateful_globals(module):
    """Names of ``module``, or of the attributes of any object, bound to
    an instance of a ``bundlecurv`` class that is not a frozen
    dataclass."""
    return sorted(
        name for name, value in vars(module).items()
        if type(value).__module__.split(".")[0] == "bundlecurv"
        and not _is_frozen_dataclass(type(value)))


def test_stateful_globals_are_found():
    @dataclasses.dataclass(frozen=True)
    class Frozen:
        value: float = 1.0

    @dataclasses.dataclass
    class Open:
        value: float = 1.0

    class Store:
        def __init__(self):
            self.rows = {}

    for cls in (Frozen, Open, Store):
        cls.__module__ = "bundlecurv.probe"
    module = types.ModuleType("bundlecurv.probe")
    module.ENGINE = Frozen()
    module.CONFIG = Open()
    module._STORE = Store()
    module.Store = Store
    module.make = lambda: Store()
    module.TABLE = {"rows": 1}
    assert stateful_globals(module) == ["CONFIG", "_STORE"]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_level_state(name):
    assert stateful_globals(importlib.import_module(name)) == []


def test_frozen_geometries_hold_no_state(engine):
    """After a run of every check, no attribute of a scenario, of its
    bundle data or of its adapted geometry is an instance of a library
    class that is not a frozen dataclass: whatever the checks of a point
    share, they share through the point's record, which is dropped after
    the point."""
    scenario = build_scenario("twisted_bundle")
    assert run_checks(scenario, sample_points(scenario, 2, seed=29),
                      engine=engine).passed
    for holder in (scenario, scenario.orig, scenario.adapted):
        assert stateful_globals(holder) == [], type(holder).__name__
