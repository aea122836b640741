"""The demos run to completion against the library as it stands."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    """Run the demo at ``path`` in its own interpreter with ``src`` on
    the import path; returns the finished process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_there_are_three_demos():
    assert [path.name for path in DEMOS] == [
        "curvature_tour.py", "reduced_diffusion.py", "reduction_jacobian.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path):
    done = run_demo(path)
    assert done.returncode == 0, done.stderr
    if path.name == "curvature_tour.py":
        spread = re.search(r"^spread: (\S+)$", done.stdout, re.MULTILINE)
        assert spread is not None, done.stdout
        assert float(spread.group(1)) < 1e-6
