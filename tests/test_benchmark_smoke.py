"""Short runs of the benchmark harness.

The harness binds the library by name: its tracer wraps
``fields.FieldHandle`` and the public functions of the traced modules,
and its oracle workload calls ``scalar_curvature_coordinate_oracle`` with
a scenario's ``chart``. A rename that breaks one of these fails the
traced oracle run. The untraced first-order run gates pooled batches of
four points per ``run_checks`` call, so a change to the stacked
first-order checks that breaks those gates fails here too. Each run works
on a copy of ``src`` and ``perfbench`` in a temporary directory, so the
result file it writes stays out of the checkout.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_harness(tmp_path, workload, trace):
    """The result line of a 0.1 s harness run of ``workload``."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    return json.loads(run.stdout.strip().splitlines()[-1])


def test_traced_oracle_shift_run_is_correct(tmp_path):
    result = _run_harness(tmp_path, "oracle_shift", 1)
    assert result["correct"] is True
    assert result["failed"] == 0


def test_first_order_run_is_correct(tmp_path):
    result = _run_harness(tmp_path, "first_order", 0)
    assert result["correct"] is True
    assert result["failed"] == 0
