"""Every field of every dataclass the package defines, and every entry of
the point record, is read somewhere in the library, or by the one reader
outside it that ``READ_OUTSIDE`` names."""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil

import pytest

import bundlecurv
from bundlecurv.curvature import PointTerms

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "bundlecurv").rglob("*.py"))

#: The fields that no library source reads, each with the file outside
#: ``src`` that reads it.
READ_OUTSIDE = {
    ("Scenario", "chart"): "perfbench/workloads.py",
    ("ReducedSdeCoeffs", "H"): "tests/test_sde.py",
    ("MomentReport", "mean_target"): "tests/test_sde.py",
    ("MomentReport", "mean_sample"): "tests/test_sde.py",
    ("MomentReport", "cov_target"): "tests/test_sde.py",
    ("MomentReport", "cov_sample"): "tests/test_sde.py",
}


def attributes_read(source):
    """Names of the attributes that some expression in ``source`` reads."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_names(names, sources):
    """The ``names`` that no source reads as an attribute. The match is
    by name: a name counts as read when any expression reads an
    attribute of that name."""
    read = set().union(*(attributes_read(source) for source in sources))
    return [name for name in names if name not in read]


def unread_fields(cls, sources):
    """Fields of the dataclass ``cls`` that no source reads as an
    attribute."""
    return unread_names([field.name for field in dataclasses.fields(cls)],
                        sources)


def package_dataclasses():
    """Every dataclass defined in a module of the package, by name."""
    found = {}
    for info in pkgutil.iter_modules(bundlecurv.__path__):
        module = importlib.import_module("bundlecurv." + info.name)
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                found[name] = obj
    return found


DATACLASSES = package_dataclasses()


@dataclasses.dataclass
class _Probe:
    d: int
    h_xx: int
    h_vv: int


def test_unread_fields_are_found():
    sources = ["def f(fs):\n    return fs.d + g(h_vv=fs)\n",
               "fs.h_vv = 1\nprint(fs.h_xx[0])\n"]
    assert unread_fields(_Probe, sources) == ["h_vv"]


def test_the_scan_sees_every_named_class():
    named = {"FrameStack", "HorizontalJet", "AdaptedGeometry"}
    assert named | {cls for cls, _ in READ_OUTSIDE} <= set(DATACLASSES)


@pytest.mark.parametrize("name", sorted(DATACLASSES))
def test_every_dataclass_field_is_read(name):
    """A field that no library source reads is read by the file that
    ``READ_OUTSIDE`` names for it, and only such a field is listed."""
    unread = unread_fields(DATACLASSES[name],
                           [path.read_text() for path in SOURCES])
    listed = {field: reader for (cls, field), reader in READ_OUTSIDE.items()
              if cls == name}
    assert sorted(unread) == sorted(listed)
    for field, reader in listed.items():
        assert field in attributes_read((ROOT / reader).read_text()), reader


def test_every_point_record_entry_is_read():
    assert unread_names(PointTerms._ENTRIES,
                        [path.read_text() for path in SOURCES]) == []
