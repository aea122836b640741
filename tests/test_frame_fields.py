"""Every field of the frame stack, the horizontal jet and the adapted
geometry, and every entry of the point record, is read somewhere in the
library."""

import ast
import dataclasses
import pathlib

from bundlecurv.connection import HorizontalJet
from bundlecurv.geometry import AdaptedGeometry, FrameStack
from bundlecurv.jacobian import PointRecord

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "bundlecurv").rglob("*.py"))


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


@dataclasses.dataclass
class _Probe:
    d: int
    h_xx: int
    h_vv: int


def test_unread_fields_are_found():
    sources = ["def f(fs):\n    return fs.d + g(h_vv=fs)\n",
               "fs.h_vv = 1\nprint(fs.h_xx[0])\n"]
    assert unread_fields(_Probe, sources) == ["h_vv"]


def test_every_frame_stack_field_is_read():
    assert unread_fields(FrameStack,
                         [path.read_text() for path in SOURCES]) == []


def test_every_horizontal_jet_field_is_read():
    assert unread_fields(HorizontalJet,
                         [path.read_text() for path in SOURCES]) == []


def test_every_adapted_geometry_field_is_read():
    assert unread_fields(AdaptedGeometry,
                         [path.read_text() for path in SOURCES]) == []


def test_every_point_record_entry_is_read():
    assert unread_names(PointRecord._ENTRIES,
                        [path.read_text() for path in SOURCES]) == []
