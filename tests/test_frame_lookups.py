"""Only the geometry module compiles frames by chart coordinates.

The checks of a chart point read its frames from the point's record
(``curvature.PointTerms``), which compiles each of its stencils once and
hands the stacks to every reader. A call of ``geometry.point_frame`` or
``geometry.point_frames`` anywhere else in the library would compile the
frames at a point again, by its coordinates, outside the record.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(path for path in (ROOT / "src" / "bundlecurv").rglob("*.py")
                 if path.name != "geometry.py")
LOOKUPS = frozenset({"point_frame", "point_frames"})


def coordinate_lookups(source):
    """``(line, name)`` of each import of and each reference to
    ``point_frame`` or ``point_frames`` in ``source``, bare or as an
    attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name in LOOKUPS)
        elif isinstance(node, ast.Name) and node.id in LOOKUPS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in LOOKUPS:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_coordinate_lookups_are_found():
    source = ("from .geometry import frames_at, point_frame\n"
              "from . import geometry\n"
              "frames = point_frame(orig, point)\n"
              "stack = geometry.point_frames(orig, zs)\n"
              "compile_rows = partial(point_frames, orig)\n"
              "frames_at(adapted, zs)\n")
    assert coordinate_lookups(source) == [
        (1, "point_frame"), (3, "point_frame"), (4, "point_frames"),
        (5, "point_frames")]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_coordinate_lookups_outside_geometry(path):
    assert coordinate_lookups(path.read_text()) == []
