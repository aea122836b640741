"""CLI artifacts against committed golden files, byte for byte.

``tests/data`` holds the stdout of ``bundlecurv verify --points 3 --seed 0
--format json`` on every built-in scenario and of one ``report --format
csv``. A change that alters any printed residual or value, or an exit
code, fails here. Regenerate the files only in a change that alters the
artifacts on purpose, and record that in CHANGES.md:

    PYTHONPATH=src python -m bundlecurv.cli verify --scenario NAME \\
        --points 3 --seed 0 --format json > tests/data/verify_NAME.json
    PYTHONPATH=src python -m bundlecurv.cli report --points 3 --seed 0 \\
        --format csv > tests/data/report_twisted_bundle.csv
"""

from pathlib import Path

import pytest

from bundlecurv.cli import main
from bundlecurv.scenarios import SCENARIO_NAMES

DATA = Path(__file__).parent / "data"

GOLDEN = [(["verify", "--scenario", name, "--points", "3", "--seed", "0",
            "--format", "json"], "verify_%s.json" % name)
          for name in SCENARIO_NAMES]
GOLDEN.append((["report", "--points", "3", "--seed", "0", "--format", "csv"],
               "report_twisted_bundle.csv"))


@pytest.mark.parametrize("argv, name", GOLDEN, ids=[n for _, n in GOLDEN])
def test_cli_stdout_matches_golden_file(argv, name, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (DATA / name).read_text()
