"""One route per quantity: the per-point routes read a point record.

A route that computes a per-point quantity takes a
``curvature.PointTerms`` and returns one leading entry per point of it,
so a caller holding a record passes it and a caller without one builds
one. A ``terms`` or ``frames`` parameter with a default would make a
second way in, a one-point twin that builds its own record; a private
route imported across modules would be a second entry point beside the
public one. The one-point functions that remain are the ones the
benchmark harness in ``perfbench/`` calls, named in ``ONE_POINT``.
"""

import ast
import inspect
import pathlib

import pytest

from bundlecurv import jacobian, sde

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "bundlecurv").rglob("*.py")) + sorted(
    (ROOT / "demos").glob("*.py"))
RECORD_PARAMETERS = frozenset({"terms", "frames"})
ROUTE_MODULES = frozenset({"jacobian", "sde"})

#: The public functions of ``jacobian`` and ``sde`` that take no record:
#: the one-point functions the benchmark harness calls, and one matrix
#: function that is no per-point route.
ONE_POINT = {
    "jacobian": {"jacobian_direct", "jacobian_geometric"},
    "sde": {"reduced_sde_coefficients", "euler_maruyama_check",
            "symmetric_sqrt"},
}


def defaulted_record_parameters(source):
    """``(line, function, parameter)`` of each ``terms`` or ``frames``
    parameter with a default value, positional or keyword-only."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [arg for arg, default in zip(args.kwonlyargs,
                                                  args.kw_defaults)
                      if default is not None]
        name = getattr(node, "name", "<lambda>")
        found.extend((node.lineno, name, arg.arg) for arg in defaulted
                     if arg.arg in RECORD_PARAMETERS)
    return sorted(found)


def private_route_imports(source):
    """``(line, name)`` of each underscore-prefixed name imported from
    ``jacobian`` or ``sde``, relatively or through the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[-1] in ROUTE_MODULES):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name.startswith("_"))
    return sorted(found)


def test_detectors_find_twins_and_private_imports():
    source = ("from .sde import _drifts, density_H\n"
              "from bundlecurv.jacobian import _closed_form\n"
              "from .curvature import _nested_stencil\n"
              "def density(adapted, point, terms=None): pass\n"
              "def block(adapted, frames): pass\n"
              "def report(adapted, *, frames=None, terms): pass\n"
              "run = lambda terms=None: terms\n")
    assert private_route_imports(source) == [(1, "_drifts"),
                                             (2, "_closed_form")]
    assert defaulted_record_parameters(source) == [
        (4, "density", "terms"), (6, "report", "frames"),
        (7, "<lambda>", "terms")]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_record_parameter_has_a_default(path):
    assert defaulted_record_parameters(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_private_route_is_imported(path):
    assert private_route_imports(path.read_text()) == []


@pytest.mark.parametrize("module", [jacobian, sde],
                         ids=lambda module: module.__name__)
def test_public_routes_take_a_record_alone(module):
    short = module.__name__.split(".")[-1]
    routes = {name: getattr(module, name) for name in module.__all__
              if inspect.isfunction(getattr(module, name))}
    assert ONE_POINT[short] <= set(routes)
    for name, route in routes.items():
        if name in ONE_POINT[short]:
            continue
        parameters = list(inspect.signature(route).parameters.values())
        assert [(p.name, p.annotation) for p in parameters] == [
            ("terms", "PointTerms")], name
