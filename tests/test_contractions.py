"""Every contraction in the library is a plain einsum of at most two arrays.

``np.tensordot`` and ``einsum(..., optimize=...)`` route through BLAS,
whose bits depend on the kernel OpenBLAS picks at run time; plain einsum
does not. An einsum of three or more arrays loops over every index at
once, which over the 8-dim frame index costs 8**5 index tuples a row.
"""

import ast
import pathlib

import numpy as np
import pytest

from bundlecurv.connection import christoffel_general, frame_derivatives
from bundlecurv.curvature import (_coordinate_ricci, _ricci_from_pieces,
                                  coordinate_ricci_scalar)
from bundlecurv.scenarios import sample_points

from conftest import jet_at

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "bundlecurv").rglob("*.py"))


def kernel_dependent_contractions(source):
    """``(line, what)`` of each ``tensordot`` and each call that passes
    ``optimize`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if ((isinstance(node, ast.Attribute) and node.attr == "tensordot")
                or (isinstance(node, ast.ImportFrom) and any(
                    alias.name == "tensordot" for alias in node.names))):
            found.append((node.lineno, "tensordot"))
        elif isinstance(node, ast.Call) and any(
                keyword.arg == "optimize" for keyword in node.keywords):
            found.append((node.lineno, "optimize"))
    return sorted(found)


def test_kernel_dependent_contractions_are_found():
    source = ("import numpy as np\n"
              "from numpy import tensordot\n"
              "np.einsum('ij,jk->ik', a, b)\n"
              "np.einsum('ij,jk,kl->il', a, b, c, optimize=True)\n"
              "np.tensordot(a, b, axes=1)\n")
    assert kernel_dependent_contractions(source) == [
        (2, "tensordot"), (4, "optimize"), (5, "tensordot")]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_kernel_dependent_contractions(path):
    assert kernel_dependent_contractions(path.read_text()) == []


def _count_operands(monkeypatch):
    """Wrap ``np.einsum`` to record the number of arrays of each call."""
    operands = []
    einsum = np.einsum

    def counted(*args, **kwargs):
        # subscript string then arrays, or array, sublist, ..., [output]
        operands.append(len(args) - 1 if isinstance(args[0], str)
                        else len(args) // 2)
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    return operands


def test_frame_contractions_take_two_operands(twisted, engine, monkeypatch):
    """One ``christoffel_general`` call and one ``frame_derivatives`` call
    on the Christoffel symbols make only einsums of one or two arrays."""
    point = sample_points(twisted, 1)[0]
    jet = jet_at(twisted.adapted, point.coords[None], engine)
    operands = _count_operands(monkeypatch)
    gammas = christoffel_general(jet)
    frame_derivatives(gammas, np.zeros((1, 5) + gammas.shape[1:]), jet.A,
                      ("upper", "lower", "lower"), twisted.adapted.c)
    monkeypatch.undo()
    assert operands and max(operands) <= 2, operands


@pytest.mark.parametrize("internal", [5, 8])
def test_ricci_contraction_takes_two_operands(monkeypatch, internal):
    """The frame Ricci contraction, over every frame index or the
    horizontal ones only, makes only einsums of one or two arrays."""
    rng = np.random.default_rng(5)
    gamma0 = rng.normal(size=(8, 8, 8))
    hat = rng.normal(size=(8, 8, 8, 8))
    cc = rng.normal(size=(8, 8, 8))
    operands = _count_operands(monkeypatch)
    _ricci_from_pieces(gamma0, hat, cc, internal)
    monkeypatch.undo()
    assert operands and max(operands) <= 2, operands


def test_coordinate_ricci_takes_two_operands(monkeypatch):
    """The coordinate Ricci scalar of ``R_M`` and the oracle, the frame
    contraction without its structure-function term, makes only einsums
    of one or two arrays."""
    rng = np.random.default_rng(7)
    gammas = rng.normal(size=(21, 5, 5, 5))
    steps = rng.uniform(1e-4, 2e-4, size=(1, 2, 5))
    g_inv = rng.normal(size=(5, 5))
    operands = _count_operands(monkeypatch)
    _coordinate_ricci(gammas, steps, g_inv)
    monkeypatch.undo()
    assert operands and max(operands) <= 2, operands


def test_coordinate_oracle_takes_two_operands(monkeypatch):
    """The oracle's coordinate Ricci scalar, from the metric's first and
    second partials at the point to the partials of its symbols and the
    Ricci contraction, makes only einsums of one or two arrays."""
    def metric(zs):
        s = np.sin(zs)
        return ((1.0 + (zs * zs).sum(axis=1))[:, None, None] * np.eye(5)
                + 0.1 * s[:, :, None] * s[:, None, :])

    operands = _count_operands(monkeypatch)
    coordinate_ricci_scalar(metric, np.linspace(-0.2, 0.3, 5))
    monkeypatch.undo()
    assert operands and max(operands) <= 2, operands
