"""No module of the library keeps mutable state at module level.

A module-level name may hold constants, functions, classes and frozen
dataclass instances such as ``fields.DEFAULT_ENGINE``; an instance of any
other class of the library there would be state shared by every caller
in the process, the kind a result must not depend on.
"""

import dataclasses
import importlib
import pkgutil
import types

import pytest

import bundlecurv

MODULES = ["bundlecurv"] + sorted(
    info.name for info in pkgutil.walk_packages(bundlecurv.__path__,
                                                "bundlecurv."))


def _is_frozen_dataclass(cls):
    return (dataclasses.is_dataclass(cls)
            and cls.__dataclass_params__.frozen)


def stateful_globals(module):
    """Names of ``module`` bound to an instance of a ``bundlecurv`` class
    that is not a frozen dataclass."""
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
