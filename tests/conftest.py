from types import SimpleNamespace

import numpy as np
import pytest

from bundlecurv.connection import horizontal_jet
from bundlecurv.fields import DEFAULT_ENGINE, _stencil
from bundlecurv.geometry import frames_at
from bundlecurv.liecore import RULE_SIGN
from bundlecurv.scenarios import build_scenario


def assert_close(actual, expected, tol, what=""):
    """Relative max-norm gap |a - b| / max(1, |a|, |b|) <= tol."""
    a = np.asarray(actual, dtype=float)
    b = np.asarray(expected, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)))
    gap = float(np.max(np.abs(a - b), initial=0.0)) / scale
    assert gap <= tol, "%s: relative gap %.3e exceeds %.0e" % (what, gap, tol)


def constant_field(value):
    """A stack function with the same value at every row."""
    value = np.asarray(value, dtype=float)
    return lambda zs: np.repeat(value[None], len(zs), axis=0)


def frames_of(**fields):
    """The ``frames`` callable of a hand-built ``AdaptedGeometry``: each
    keyword names one of its seven arrays and maps an ``(N, n_x + n_v)``
    stack to the ``(N, ...)`` values there."""
    def frames(zs):
        return SimpleNamespace(**{name: func(zs)
                                  for name, func in fields.items()})

    return frames


def frame_array(adapted, name):
    """The frame array ``name`` of ``adapted`` as a stack function."""
    return lambda zs: getattr(frames_at(adapted, zs), name)


def jet_at(adapted, zs, engine):
    """The ``HorizontalJet`` at the rows of ``zs``, built as the point
    record builds its own: one centre-first stencil at the engine's step
    and one ``frames_at`` read on it."""
    rows, steps = _stencil(np.asarray(zs, dtype=float), engine.fd_step,
                           centre=True)
    return horizontal_jet(adapted, rows, steps, frames_at(adapted, rows))


def rule_by_loops(tensor, signature, c, gamma):
    """The group-direction rule along ``gamma``, index by index: each
    lower orbit index contracts with c^j_{gamma i}, each upper one with
    -c^i_{gamma j}, on the trailing ``n_g`` slots of its axis."""
    n_g = c.shape[0]
    out = np.zeros(tensor.shape)
    for idx in np.ndindex(tensor.shape):
        total = 0.0
        for axis, kind in enumerate(signature):
            offset = tensor.shape[axis] - n_g
            i = idx[axis] - offset
            if kind == "inert" or i < 0:
                continue
            for j in range(n_g):
                source = tensor[idx[:axis] + (offset + j,) + idx[axis + 1:]]
                if kind == "lower":
                    total += c[j, gamma, i] * source
                else:
                    total -= c[i, gamma, j] * source
        out[idx] = RULE_SIGN * total
    return out


def patch_everywhere(monkeypatch, original, replacement):
    """Replace the function ``original`` by ``replacement`` in every
    ``bundlecurv`` module that binds it: its home and each module that
    imported it by name."""
    import sys

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("bundlecurv")
                and getattr(module, original.__name__, None) is original):
            monkeypatch.setattr(module, original.__name__, replacement)


@pytest.fixture
def compiles(monkeypatch):
    """The row count of each frame compile made while the test runs, in
    order; the library keeps no counter of its own."""
    from bundlecurv import geometry

    counts = []

    def counted(orig, zs, _compute=geometry._compute_frames):
        counts.append(len(zs))
        return _compute(orig, zs)

    monkeypatch.setattr(geometry, "_compute_frames", counted)
    return counts


@pytest.fixture(scope="session")
def engine():
    return DEFAULT_ENGINE


@pytest.fixture(scope="session")
def twisted():
    return build_scenario("twisted_bundle")


@pytest.fixture(scope="session")
def abelian():
    return build_scenario("abelian_limit")


@pytest.fixture(scope="session")
def scaled():
    return build_scenario("scaled_orbit")


@pytest.fixture(scope="session")
def flat():
    return build_scenario("flat_product")
