"""Config loading and the three CLI commands, run in-process."""

import dataclasses
import json

import pytest

from bundlecurv.cli import (REPORT_COLUMNS, RunConfig, _parser, load_config,
                            main)
from bundlecurv.fields import ConfigError

from conftest import assert_close


# ---------------------------------------------------------------------------
# configuration


def test_defaults():
    config = load_config()
    assert config.scenario == "twisted_bundle"
    assert config.points == 20
    assert config.seed == 0
    assert config.fd_step == 1e-5
    assert config.format == "text"
    assert config.dt == 1e-4
    assert config.n_paths == 200_000
    assert len(config.checks) == 7


def test_file_and_override_merge(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"scenario": "flat_product", "points": 3,
                                "checks": "christoffel, detfact"}))
    config = load_config(str(path), {"points": 5, "seed": None})
    assert config.scenario == "flat_product"
    assert config.points == 5          # override wins
    assert config.seed == 0            # None override is ignored
    assert config.checks == ("christoffel", "detfact")


@pytest.mark.parametrize("command", ["verify", "report", "simulate"])
def test_every_config_key_but_params_has_a_flag(command):
    """Each command parses a flag for every ``RunConfig`` field but the
    scenario ``params``, which only a config file sets; ``main`` hands
    the flags to ``load_config`` by these names."""
    parsed = vars(_parser().parse_args([command]))
    keys = {field.name for field in dataclasses.fields(RunConfig)}
    assert keys - set(parsed) == {"params"}


def test_config_error_messages(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    with pytest.raises(ConfigError, match="no-such-file"):
        load_config(str(tmp_path / "no-such-file.json"))
    listfile = tmp_path / "list.json"
    listfile.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(str(listfile))
    with pytest.raises(ConfigError, match="pints"):
        load_config(None, {"pints": 2})


def test_value_gates():
    with pytest.raises(ConfigError, match="points"):
        RunConfig(points=0)
    with pytest.raises(ConfigError, match="points"):
        RunConfig(points=True)
    with pytest.raises(ConfigError, match="fd_step"):
        RunConfig(fd_step=0.5)
    with pytest.raises(ConfigError, match="format"):
        RunConfig(format="yaml")
    with pytest.raises(ConfigError, match="checks"):
        RunConfig(checks=("christoffel", "spectral"))
    with pytest.raises(ConfigError, match="dt"):
        RunConfig(dt=-1.0)
    with pytest.raises(ConfigError, match="n_paths"):
        RunConfig(n_paths=0)
    with pytest.raises(ConfigError, match="tol_identity"):
        RunConfig(tol_identity=0.0)
    with pytest.raises(ConfigError, match="params"):
        RunConfig(params=[1, 2])


def test_echo_round_trips_to_json():
    config = RunConfig(checks=("christoffel",), params={"lam": 2.0})
    echo = config.echo()
    assert echo["checks"] == ["christoffel"]
    assert echo["params"] == {"lam": 2.0}
    json.dumps(echo)  # must be serializable as-is


# ---------------------------------------------------------------------------
# verify command


def test_verify_flat_json_artifact(tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--scenario", "flat_product", "--points", "2",
               "--checks", "christoffel,detfact", "--format", "json",
               "--output", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == ""                 # artifact went to the file
    assert "verify:" in captured.err          # timing is stderr-only
    payload = json.loads(out.read_text())
    assert payload["scenario"] == "flat_product"
    assert payload["passed"] is True
    names = [r["name"] for r in payload["checks"]]
    assert names == ["christoffel", "detfact"]
    assert "curvature" in payload["not_run"]
    assert "wall_time" not in payload
    assert payload["config"]["points"] == 2
    for result in payload["checks"]:
        for part in result["parts"]:
            assert len(part["residuals"]) == 2
            assert part["max_residual"] <= part["tolerance"]


def test_verify_stdout_is_reproducible(capsys):
    argv = ["verify", "--scenario", "flat_product", "--points", "2",
            "--checks", "detfact", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_text_lists_skipped_checks(capsys):
    rc = main(["verify", "--scenario", "flat_product", "--points", "1",
               "--checks", "christoffel"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "christoffel" in out
    assert "not run" in out
    assert "PASS" in out


def test_verify_unknown_scenario_exits_2(capsys):
    rc = main(["verify", "--scenario", "nosuch", "--points", "1"])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_verify_rejects_double_config(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("{}")
    rc = main(["verify", str(path), "--config", str(path)])
    assert rc == 2
    assert "once" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report command


def test_report_flat_csv_values(capsys):
    rc = main(["report", "--scenario", "flat_product", "--points", "1",
               "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert header == ["x0", "x1", "f0", "f1", "f2"] + list(REPORT_COLUMNS)
    row = dict(zip(header, map(float, lines[1].split(","))))
    assert row["R_G"] == pytest.approx(-1.5)
    assert row["R_total"] == pytest.approx(-1.5, abs=1e-8)
    assert row["H"] == pytest.approx(1.0)
    for name in ("R_M", "FF", "DdDd", "lap_ln_d", "grad_ln_d", "J_direct",
                 "J_geometric", "j_norm2"):
        assert abs(row[name]) <= 1e-8, name


def test_report_scaled_json_center(capsys):
    rc = main(["report", "--scenario", "scaled_orbit", "--points", "1",
               "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert_close(rows[0]["J_direct"], 9.0, 1e-6, "center Jacobian")
    assert_close(rows[0]["J_geometric"], 9.0, 1e-6, "center Jacobian")
    assert_close(rows[0]["grad_ln_d"], 9.0, 1e-6, "center gradient term")


def test_report_csv_artifact_is_bit_identical(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ["report", "--scenario", "twisted_bundle", "--points", "2",
            "--seed", "9", "--format", "csv"]
    assert main(base + ["--output", str(out_a)]) == 0
    assert main(base + ["--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_report_text_is_aligned(capsys):
    rc = main(["report", "--scenario", "flat_product", "--points", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "R_total" in out
    assert len(out.strip().splitlines()) == 3


# ---------------------------------------------------------------------------
# simulate command


def test_simulate_flat_passes(capsys):
    rc = main(["simulate", "--scenario", "flat_product", "--points", "1",
               "--seed", "7", "--n-paths", "20000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "blind to a wrong drift b or diffusion X" in out


def test_simulate_json_payload(capsys):
    rc = main(["simulate", "--scenario", "flat_product", "--points", "1",
               "--seed", "7", "--n-paths", "20000", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["n_paths"] == 20000
    assert payload["seed"] == 7
    assert payload["mean_max_sigma"] <= 4.0
    assert payload["cov_max_sigma"] <= 4.0


def test_simulate_rejects_bad_paths(capsys):
    rc = main(["simulate", "--scenario", "flat_product", "--n-paths", "0"])
    assert rc == 2
    assert "n_paths" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "report", "simulate"])
def test_negative_seed_is_a_config_error(command, capsys):
    """A negative seed is refused as a configuration error, exit 2, not
    a failed check."""
    rc = main([command, "--scenario", "flat_product", "--points", "1",
               "--seed", "-1"])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=-1)


def test_richardson_switch_is_gone(tmp_path, capsys):
    """Every stencil extrapolates; neither a flag nor a config key turns
    that off."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--no-richardson"])
    assert exc.value.code == 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"richardson": True}))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    assert "unknown config key: richardson" in capsys.readouterr().err
