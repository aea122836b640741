"""Every field of the frame stack and of the horizontal jet is read
somewhere in the library."""

import ast
import dataclasses
import pathlib

from bundlecurv.connection import HorizontalJet
from bundlecurv.geometry import FrameStack

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "bundlecurv").rglob("*.py"))


def attributes_read(source):
    """Names of the attributes that some expression in ``source`` reads."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_fields(cls, sources):
    """Fields of the dataclass ``cls`` that no source reads as an
    attribute. The match is by name: a field counts as read when any
    expression reads an attribute of that name."""
    read = set().union(*(attributes_read(source) for source in sources))
    return [field.name for field in dataclasses.fields(cls)
            if field.name not in read]


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
