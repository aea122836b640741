"""Batch front end: verification suites, value reports, moment checks.

Three subcommands share one flat configuration:

``bundlecurv verify``
    runs named identity checks over sampled points and writes a report;
    exit 0 when every residual is inside tolerance, 1 when any check
    fails, 2 on configuration or scenario errors.

``bundlecurv report``
    tabulates the curvature decomposition, both Jacobian routes, the
    squared second fundamental form and the orbit-space density per point.

``bundlecurv simulate``
    runs the Euler-Maruyama moment check for the reduced diffusion at the
    first sampled point.

Configuration is a flat JSON object (``--config file.json`` or a
positional path); command line flags mirror the keys and override file
values. Identical configurations produce byte-identical outputs; wall
time goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields

from . import __version__
from .fields import ConfigError, DerivEngine
from .curvature import PointTerms, decomposition_terms
from .jacobian import jacobian_direct, jacobian_geometric, j_norm_squared
from .sde import SdeParams, density_H, euler_maruyama_check
from .scenarios import build_scenario, sample_points
from .verify import CHECK_NAMES, run_checks

__all__ = ["RunConfig", "load_config", "cmd_verify", "cmd_report",
           "cmd_simulate", "main"]

FORMATS = ("json", "csv", "text")

#: Column order of the per-point report, after the point coordinates.
REPORT_COLUMNS = ("R_M", "R_G", "FF", "DdDd", "lap_ln_d", "grad_ln_d",
                  "R_total", "J_direct", "J_geometric", "j_norm2", "H")


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs, overridable from flags and JSON."""

    scenario: str = "twisted_bundle"
    params: dict = field(default_factory=dict)
    points: int = 20
    seed: int = 0
    fd_step: float = 1e-5
    tol_identity: float = None
    tol_oracle: float = None
    stat_sigma: float = 4.0
    checks: tuple = CHECK_NAMES
    format: str = "text"
    output: str = None
    dt: float = 1e-4
    n_paths: int = 200_000

    def __post_init__(self):
        if not isinstance(self.points, int) or isinstance(self.points, bool) \
                or self.points < 1:
            raise ConfigError("points: must be a positive integer, got %r"
                              % (self.points,))
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError("seed: must be an integer, got %r"
                              % (self.seed,))
        for key in ("tol_identity", "tol_oracle"):
            value = getattr(self, key)
            if value is not None and not value > 0:
                raise ConfigError("%s: must be positive, got %r"
                                  % (key, value))
        if not self.stat_sigma > 0:
            raise ConfigError("stat_sigma: must be positive, got %r"
                              % (self.stat_sigma,))
        if not self.checks:
            raise ConfigError("checks: must be a nonempty subset of: %s"
                              % ", ".join(CHECK_NAMES))
        unknown = set(self.checks) - set(CHECK_NAMES)
        if unknown:
            raise ConfigError("checks: unknown names %s (choose from %s)"
                              % (", ".join(sorted(unknown)),
                                 ", ".join(CHECK_NAMES)))
        if self.format not in FORMATS:
            raise ConfigError("format: must be one of %s, got %r"
                              % ("/".join(FORMATS), self.format))
        if not isinstance(self.params, dict):
            raise ConfigError("params: must be an object of scenario "
                              "parameters, got %r" % (self.params,))
        if not self.dt > 0:
            raise ConfigError("dt: must be positive, got %r" % (self.dt,))
        if not isinstance(self.n_paths, int) \
                or isinstance(self.n_paths, bool) or self.n_paths < 1:
            raise ConfigError("n_paths: must be a positive integer, got %r"
                              % (self.n_paths,))
        try:
            self.engine()
        except ValueError as exc:
            raise ConfigError("fd_step: %s" % exc)

    def engine(self) -> DerivEngine:
        return DerivEngine(fd_step=self.fd_step)

    def echo(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def load_config(path: str = None, overrides: dict = None) -> RunConfig:
    """Merge a flat JSON config file with flag overrides."""
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError("config file %s: %s" % (path, exc))
        except json.JSONDecodeError as exc:
            raise ConfigError("config file %s is not valid JSON: %s"
                              % (path, exc))
        if not isinstance(data, dict):
            raise ConfigError("config file %s: top level must be an object"
                              % path)
    data.update({k: v for k, v in (overrides or {}).items()
                 if v is not None})
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError("unknown config key%s: %s"
                          % ("s" if len(unknown) > 1 else "",
                             ", ".join(sorted(unknown))))
    if "checks" in data:
        raw = data["checks"]
        if isinstance(raw, str):
            raw = [piece.strip() for piece in raw.split(",") if piece.strip()]
        if not isinstance(raw, (list, tuple)):
            raise ConfigError("checks: must be a list of names, got %r"
                              % (data["checks"],))
        data["checks"] = tuple(raw)
    for key in ("fd_step", "tol_identity", "tol_oracle", "stat_sigma", "dt"):
        if data.get(key) is not None:
            try:
                data[key] = float(data[key])
            except (TypeError, ValueError):
                raise ConfigError("%s: must be a number, got %r"
                                  % (key, data[key]))
    try:
        return RunConfig(**data)
    except TypeError as exc:
        raise ConfigError("bad config value: %s" % exc)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("fd_step: %s" % exc)


def _emit(text: str, output: str = None) -> None:
    """Write a rendered artifact, which ends in a newline."""
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _fmt(value: float) -> str:
    """Locale-free decimal rendering at 17 significant digits."""
    return "%.17g" % value


def _report_rows(scenario, points, engine):
    adapted = scenario.adapted
    rows = []
    for point in points:
        terms = PointTerms(adapted, point, engine)
        breakdown = decomposition_terms(adapted, point, engine, terms)
        row = {}
        for i, value in enumerate(point.x):
            row["x%d" % i] = float(value)
        for a, value in enumerate(point.f):
            row["f%d" % a] = float(value)
        row.update({
            "R_M": breakdown.R_M, "R_G": breakdown.R_G, "FF": breakdown.FF,
            "DdDd": breakdown.DdDd, "lap_ln_d": breakdown.lap_ln_d,
            "grad_ln_d": breakdown.grad_ln_d, "R_total": breakdown.R_total,
            "J_direct": jacobian_direct(adapted, point, engine, terms),
            "J_geometric": jacobian_geometric(adapted, point, engine,
                                              terms),
            "j_norm2": j_norm_squared(adapted, point, engine, terms),
            "H": density_H(adapted, point),
        })
        rows.append(row)
    return rows


def _render_report_csv(rows) -> str:
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[key]) for key in header))
    return "\n".join(lines) + "\n"


def _render_report_json(rows) -> str:
    return json.dumps(rows, indent=2) + "\n"


def _render_report_text(rows) -> str:
    header = list(rows[0].keys())
    width = max(12, max(len(h) for h in header) + 1)
    lines = ["".join(h.rjust(width) for h in header)]
    for row in rows:
        lines.append("".join(("%.6g" % row[key]).rjust(width)
                             for key in header))
    return "\n".join(lines) + "\n"


def _render_verify_text(report) -> str:
    lines = ["scenario %s  points %d  seed %d  version %s"
             % (report.scenario, report.n_points, report.seed, __version__)]
    for result in report.results:
        for part in result.parts:
            status = "pass" if part.passed else "FAIL"
            lines.append("%-4s %-12s %-24s max %.3e  mean %.3e  tol %.0e"
                         % (status, result.name, part.name,
                            part.max_residual, part.mean_residual,
                            part.tolerance))
    for name in report.not_run:
        lines.append("     %-12s not run" % name)
    lines.append("overall: %s" % ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines) + "\n"


def _render_verify_csv(report) -> str:
    lines = ["check,part,points,max_residual,mean_residual,tolerance,status"]
    for result in report.results:
        for part in result.parts:
            lines.append("%s,%s,%d,%s,%s,%s,%s"
                         % (result.name, part.name, report.n_points,
                            _fmt(part.max_residual),
                            _fmt(part.mean_residual),
                            _fmt(part.tolerance),
                            "pass" if part.passed else "fail"))
    for name in report.not_run:
        lines.append("%s,,,,,,not run" % name)
    return "\n".join(lines) + "\n"


def _render_verify_json(report) -> str:
    payload = {
        "scenario": report.scenario,
        "points": report.n_points,
        "seed": report.seed,
        "version": __version__,
        "passed": report.passed,
        "checks": [
            {"name": result.name,
             "passed": result.passed,
             "parts": [
                 {"name": part.name,
                  "max_residual": part.max_residual,
                  "mean_residual": part.mean_residual,
                  "tolerance": part.tolerance,
                  "passed": part.passed,
                  "residuals": list(part.residuals)}
                 for part in result.parts]}
            for result in report.results],
        "not_run": list(report.not_run),
        "config": report.config_echo,
    }
    return json.dumps(payload, indent=2) + "\n"


def cmd_verify(config: RunConfig) -> int:
    """Run the selected checks; exit 0 pass, 1 fail, 2 config error."""
    scenario = build_scenario(config.scenario, config.params)
    points = sample_points(scenario, config.points, seed=config.seed)
    report = run_checks(scenario, points, config.checks,
                        engine=config.engine(),
                        tol_identity=config.tol_identity,
                        tol_oracle=config.tol_oracle,
                        seed=config.seed,
                        config_echo=config.echo())
    renderer = {"text": _render_verify_text, "csv": _render_verify_csv,
                "json": _render_verify_json}[config.format]
    _emit(renderer(report), config.output)
    sys.stderr.write("verify: %d points in %.2fs\n"
                     % (report.n_points, report.wall_time))
    return 0 if report.passed else 1


def cmd_report(config: RunConfig) -> int:
    """Tabulate per-point curvature, Jacobian, and density values."""
    start = time.perf_counter()
    scenario = build_scenario(config.scenario, config.params)
    points = sample_points(scenario, config.points, seed=config.seed)
    rows = _report_rows(scenario, points, config.engine())
    renderer = {"text": _render_report_text, "csv": _render_report_csv,
                "json": _render_report_json}[config.format]
    _emit(renderer(rows), config.output)
    sys.stderr.write("report: %d points in %.2fs\n"
                     % (len(rows), time.perf_counter() - start))
    return 0


def cmd_simulate(config: RunConfig) -> int:
    """Moment-check the reduced diffusion at the first sampled point."""
    start = time.perf_counter()
    scenario = build_scenario(config.scenario, config.params)
    if scenario.orig is None:
        raise ConfigError("scenario %r provides no bundle data for the "
                          "drift" % config.scenario)
    point = sample_points(scenario, config.points, seed=config.seed)[0]
    report = euler_maruyama_check(
        scenario.adapted, point=point,
        params=SdeParams(), dt=config.dt, n_paths=config.n_paths,
        seed=config.seed, sigma_limit=config.stat_sigma,
        engine=config.engine())
    if config.format == "json":
        payload = {
            "scenario": config.scenario, "n_paths": report.n_paths,
            "dt": report.dt, "seed": report.seed,
            "sigma_limit": report.sigma_limit,
            "mean_max_sigma": report.mean_max_sigma,
            "cov_max_sigma": report.cov_max_sigma,
            "passed": report.passed,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = ("scenario %s  n_paths %d  dt %s  seed %d\n"
                "mean deviation %.3f sigma, covariance deviation %.3f sigma"
                " (limit %.1f)\noverall: %s\n"
                % (config.scenario, report.n_paths, _fmt(report.dt),
                   report.seed, report.mean_max_sigma, report.cov_max_sigma,
                   report.sigma_limit,
                   "PASS" if report.passed else "FAIL"))
    _emit(text, config.output)
    sys.stderr.write("simulate: %d paths in %.2fs\n"
                     % (report.n_paths, time.perf_counter() - start))
    return 0 if report.passed else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundlecurv",
        description="Verify, tabulate, or simulate bundle-chart geometry.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("verify", "run identity checks over sampled points"),
            ("report", "tabulate per-point curvature and Jacobian values"),
            ("simulate", "Euler-Maruyama moment check of the reduced SDE")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config_path", nargs="?", default=None,
                         help="flat JSON config file")
        cmd.add_argument("--config", dest="config_flag", default=None,
                         help="flat JSON config file")
        cmd.add_argument("--scenario")
        cmd.add_argument("--points", type=int)
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--fd-step", dest="fd_step", type=float)
        cmd.add_argument("--tol-identity", dest="tol_identity", type=float)
        cmd.add_argument("--tol-oracle", dest="tol_oracle", type=float)
        cmd.add_argument("--stat-sigma", dest="stat_sigma", type=float)
        cmd.add_argument("--checks",
                         help="comma-separated subset of: %s"
                         % ", ".join(CHECK_NAMES))
        cmd.add_argument("--format", choices=FORMATS)
        cmd.add_argument("--output")
        cmd.add_argument("--dt", type=float)
        cmd.add_argument("--n-paths", dest="n_paths", type=int)
    return parser


_COMMANDS = {"verify": cmd_verify, "report": cmd_report,
             "simulate": cmd_simulate}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.config_path and args.config_flag:
        sys.stderr.write("error: give the config path once, either "
                         "positionally or with --config\n")
        return 2
    overrides = {key: getattr(args, key) for key in (
        "scenario", "points", "seed", "fd_step", "tol_identity",
        "tol_oracle", "stat_sigma", "checks", "format", "output", "dt",
        "n_paths")}
    try:
        config = load_config(args.config_path or args.config_flag, overrides)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
