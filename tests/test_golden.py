"""CLI artifacts against committed golden files, byte for byte.

``tests/data`` holds the stdout of ``bundlecurv verify --points 3 --seed 0
--format json``, of ``report --points 3 --seed 0 --format csv`` and of
``simulate --points 3 --seed 0 --format json`` on every built-in scenario.
A change that alters any printed residual or value, or an exit code, fails
here. Regenerate the files only in a change that alters the artifacts on
purpose, and record that in CHANGES.md:

    PYTHONPATH=src python -m bundlecurv.cli verify --scenario NAME \\
        --points 3 --seed 0 --format json > tests/data/verify_NAME.json
    PYTHONPATH=src python -m bundlecurv.cli report --scenario NAME \\
        --points 3 --seed 0 --format csv > tests/data/report_NAME.csv
    PYTHONPATH=src python -m bundlecurv.cli simulate --scenario NAME \\
        --points 3 --seed 0 --format json > tests/data/simulate_NAME.json
"""

from pathlib import Path

import pytest

from bundlecurv.cli import main
from bundlecurv.scenarios import SCENARIO_NAMES

DATA = Path(__file__).parent / "data"

GOLDEN = [([command, "--scenario", name, "--points", "3", "--seed", "0",
            "--format", fmt], "%s_%s.%s" % (command, name, fmt))
          for command, fmt in (("verify", "json"), ("report", "csv"),
                               ("simulate", "json"))
          for name in SCENARIO_NAMES]


@pytest.mark.parametrize("argv, name", GOLDEN, ids=[n for _, n in GOLDEN])
def test_cli_stdout_matches_golden_file(argv, name, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (DATA / name).read_text()
