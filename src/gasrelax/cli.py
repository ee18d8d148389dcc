"""Command-line front end: bounds, gamma sweeps, simulation campaigns, reports.

Runs are described by a plain-text config of `key = value` lines (# starts a
comment).  Every key can also be given as a --key flag, which overrides the
file.  Unknown keys are errors.  Exit codes: 0 success, 1 runtime failure,
2 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from . import __version__
from ._kernel import KernelBuildError
from .bounds import (_MIN_SAMPLES, PhysicalUnits, RegimeError,
                     build_bound_report, t_relax_lower)
from .dynamics import (_MIN_TIMES, _MIN_TRAJ, EnergyDriftError,
                       IntegratorConfig, WallBreachError, lower_bound_curve,
                       make_relaxation_report)
from .gibbs import (_MAX_GRID, _MIN_GRID, build_marginal, gamma_h,
                    gamma_tilde_h, hoelder_certificate)
from .model import ModelParams
from .numerics import QuadratureError
from .rng import philox_key

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2

_OUTPUT_DIR_ENV = "GASRELAX_OUTPUT_DIR"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # model
    n_particles: int = 64
    beta: float = 1.0
    delta_wall: float = 1.0
    box_side: float = 10.0
    field: float = 1e-3
    mass: float = 1.0
    sigma: float = 1.0
    # physical unit constants (all four or none)
    mass_kg: Optional[float] = None
    sigma_m: Optional[float] = None
    box_m: Optional[float] = None
    temperature_k: Optional[float] = None
    # integrator
    dt: float = 2.5e-4
    t_end: Optional[float] = None
    energy_drift_tol: float = 1e-5
    wall_guard: float = 0.999
    # estimator sizes
    n_samples: int = 100000
    n_traj: int = 10000
    n_times: int = 64
    grid_size: int = 2048
    # gamma sweep
    delta_moment: float = 0.1
    epsilon: float = 0.01
    h_min: float = 1e-5
    h_max: float = 0.1
    h_points: int = 9
    # run control
    seed: int = 20260808
    workers: int = 1
    output_dir: str = ""

    def __post_init__(self):
        if not self.output_dir:
            self.output_dir = os.environ.get(_OUTPUT_DIR_ENV, ".")
        units = [self.mass_kg, self.sigma_m, self.box_m, self.temperature_k]
        given = [u is not None for u in units]
        if any(given) and not all(given):
            raise ConfigError("physical units require all of mass_kg, sigma_m, "
                              "box_m, temperature_k")
        for name in ("delta_moment", "epsilon", "h_min", "h_max"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be strictly positive and "
                                  "finite")
        # the floors of the library calls that take these keys; h_points
        # is the length of a np.geomspace grid.  seed needs none: philox_key
        # folds any integer mod 2^64
        for name, floor in (("n_samples", _MIN_SAMPLES),
                            ("n_traj", _MIN_TRAJ), ("n_times", _MIN_TIMES),
                            ("grid_size", _MIN_GRID), ("h_points", 0),
                            ("workers", 1)):
            if getattr(self, name) < floor:
                raise ConfigError(f"{name} must be >= {floor}")
        # the ceiling of build_marginal, whose guide table is int32
        if self.grid_size > _MAX_GRID:
            raise ConfigError(f"grid_size must be <= {_MAX_GRID}")
        if self.sigma != 1.0:
            raise ConfigError("sigma must be 1: lengths are in units of "
                              "sigma; give its physical size as sigma_m")
        # each class checks its own keys, for every command
        self.model_params()
        self.physical_units()
        self.integrator_config(self.dt)

    def model_params(self) -> ModelParams:
        return ModelParams(n_particles=self.n_particles, beta=self.beta,
                           delta_wall=self.delta_wall, box_side=self.box_side,
                           field=self.field, mass=self.mass)

    def physical_units(self) -> Optional[PhysicalUnits]:
        if self.mass_kg is None:
            return None
        return PhysicalUnits(mass_kg=self.mass_kg, sigma_m=self.sigma_m,
                             box_m=self.box_m, temperature_k=self.temperature_k)

    def integrator_config(self, t0: float) -> IntegratorConfig:
        t_end = self.t_end if self.t_end is not None else 2.0 * t0
        return IntegratorConfig(dt=self.dt, t_end=t_end,
                                energy_drift_tol=self.energy_drift_tol,
                                wall_guard=self.wall_guard)

    def hash(self) -> str:
        blob = "\n".join(f"{f.name}={getattr(self, f.name)!r}"
                         for f in fields(self))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# key -> declared type; str stays raw, int goes through int(), the rest
# (float and Optional[float]) through float()
_KEY_TYPES = get_type_hints(RunConfig)


def _coerce(key: str, raw: str):
    kind = _KEY_TYPES[key]
    if kind is str:
        return raw
    try:
        return int(raw) if kind is int else float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        # a config that cannot be read is bad input, not a failed run
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def load_config(args: argparse.Namespace) -> RunConfig:
    values = parse_config_file(args.config) if args.config else {}
    for key in _KEY_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = _coerce(key, flag)
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _meta(config: RunConfig) -> dict:
    return {"version": __version__, "config_hash": config.hash(),
            "seed": config.seed}


def _write_csv(path: Path, config: RunConfig, header: list[str],
               rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# gasrelax {__version__}\n# config_hash: {config.hash()}\n"
                 f"# seed: {config.seed}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def cmd_bounds(config: RunConfig) -> int:
    params = config.model_params()
    report = build_bound_report(params, n_samples=config.n_samples,
                                key=philox_key(config.seed, 101),
                                units=config.physical_units(),
                                grid_size=config.grid_size)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bounds_report.json").write_text(report.to_json(_meta(config)) + "\n")
    print(f"c = {report.c:.6f}")
    print(f"eta_analytic = {report.eta_analytic:.6f}")
    print(f"t0_natural = {report.t0_natural:.6f}")
    if report.t0_physical is not None:
        print(f"t0_physical = {report.t0_physical:.6e} s")
    print(f"z_tilde = {report.z_tilde:.6f}")
    for chk in report.inequality_checks:
        verdict = "PASS" if chk.passed else "FAIL"
        print(f"{verdict} {chk.name}: lhs={chk.lhs:.6g} rhs={chk.rhs:.6g}")
    return EXIT_OK if report.all_passed else EXIT_RUNTIME


def cmd_gamma(config: RunConfig) -> int:
    params = config.model_params()
    marginal = build_marginal(params, grid_size=config.grid_size)
    h_grid = [0.0] + [float(h) for h in np.geomspace(config.h_min, config.h_max,
                                                     config.h_points)]
    rows = []
    cert_limit = config.delta_moment / (2.0 * params.beta)
    for h in h_grid:
        if h < cert_limit:
            cert = hoelder_certificate(marginal, config.delta_moment, h,
                                       config.epsilon)
            rows.append((h, cert.gamma, cert.gamma_tilde, cert.hoelder_bound,
                         cert.ok))
        else:
            rows.append((h, gamma_h(marginal, h), gamma_tilde_h(marginal, h),
                         float("nan"), False))
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "gamma_sweep.csv", config,
               ["h", "gamma", "gamma_tilde", "hoelder_bound", "pass"], rows)
    print(f"gamma sweep written: {len(rows)} rows, "
          f"certificate limit h < {cert_limit:.6g}")
    return EXIT_OK


def cmd_simulate(config: RunConfig) -> int:
    params = config.model_params()
    t0 = t_relax_lower(params)
    int_config = config.integrator_config(t0)
    report, series = make_relaxation_report(
        params, int_config, n_traj=config.n_traj, seed=config.seed,
        n_times=config.n_times, n_workers=config.workers,
        grid_size=config.grid_size)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "relaxation_report.json").write_text(
        report.to_json(_meta(config)) + "\n")
    curve = lower_bound_curve(params, series.times)
    rows = list(zip(series.times.tolist(), series.c_values.tolist(),
                    series.std_errors.tolist(), curve.tolist()))
    _write_csv(out / "correlation.csv", config,
               ["t", "c", "stderr", "bound_curve"], rows)
    t_star = report.t_star_empirical
    print(f"t0_bound = {report.t0_bound:.6f}")
    print("t_star = " + (f"{t_star:.6f}" if t_star is not None
                         else "not crossed within t_end"))
    stop = (f" (run stopped at t = {series.times[-1]:.6g} < t0)"
            if series.times[-1] < t0 else "")
    for name in ("positivity_ok", "curve_check", "displacement_ok"):
        verdict = "PASS" if getattr(report, name) else "FAIL"
        print(f"{verdict} {name}{stop if name != 'displacement_ok' else ''}")
    print(f"max_energy_drift = {report.max_energy_drift:.3e}")
    return EXIT_OK if report.all_ok else EXIT_RUNTIME


def _last_time(path: Path) -> float:
    """The t of the last row of a correlation.csv."""
    rows = [line for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    return float(rows[-1].split(",", 1)[0])


def _read(path: Path, parse):
    """parse(path), with any content it cannot take apart a ConfigError
    that names the file."""
    try:
        return parse(path)
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise ConfigError(f"malformed input file {path}: {exc!r}") from None


def _relaxation_fields(path: Path) -> tuple:
    """t0, t* (a float, or the string saying it was not crossed) and the
    check flags of a relaxation_report.json."""
    doc = json.loads(path.read_text())
    t_star = doc["t_star_empirical"]
    return (float(doc["t0_bound"]),
            t_star if isinstance(t_star, str) else float(t_star),
            {name: doc[name] for name in
             ("positivity_ok", "curve_check", "displacement_ok")})


def _bounds_fields(path: Path) -> tuple:
    """eta_analytic, eta_empirical and t0 in seconds (None without units) of
    a bounds_report.json."""
    doc = json.loads(path.read_text())
    t0_si = doc.get("t0_physical_seconds")
    return (float(doc["eta_analytic"]), float(doc["eta_empirical"]["value"]),
            None if t0_si is None else float(t0_si))


def cmd_report(config: RunConfig) -> int:
    out = Path(config.output_dir)
    bounds_path = out / "bounds_report.json"
    relax_path = out / "relaxation_report.json"
    corr_path = out / "correlation.csv"
    missing = [str(p) for p in (bounds_path, relax_path, corr_path)
               if not p.exists()]
    if missing:
        raise ConfigError("missing input files: " + ", ".join(missing))
    t0, t_star, flags = _read(relax_path, _relaxation_fields)
    eta_analytic, eta_empirical, t0_si = _read(bounds_path, _bounds_fields)
    t_end = _read(corr_path, _last_time)
    print(f"analytic lower bound t0 = {t0:.6f}")
    if isinstance(t_star, str):
        # no crossing says nothing about t0 unless the run got past it
        verdict = ("t* >= t0 holds" if t_end >= t0 else
                   f"inconclusive: run stopped at t = {t_end:.6g} < t0")
        print(f"empirical crossing t* : {t_star} ({verdict})")
    else:
        holds = "holds" if t_star >= t0 else "VIOLATED"
        print(f"empirical crossing t* = {t_star:.6f} (t* >= t0 {holds})")
    print(f"eta_analytic = {eta_analytic:.6f}, "
          f"eta_empirical = {eta_empirical:.6f}")
    if t0_si is not None:
        print(f"t0_physical = {t0_si:.6e} s")
    print("checks: " + ", ".join(f"{k}={v}" for k, v in flags.items()))
    return EXIT_OK


_COMMANDS = {"bounds": cmd_bounds, "gamma": cmd_gamma,
             "simulate": cmd_simulate, "report": cmd_report}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: each
    add_argument call leaves a HelpFormatter in a reference cycle, so a
    parser per main() call would leave cyclic garbage every call."""
    parser = argparse.ArgumentParser(
        prog="gasrelax",
        description="Relaxation-time bounds for a gas in a box: closed forms "
                    "and empirical verification.")
    parser.add_argument(
        "command", choices=_COMMANDS,
        help="bounds: compute analytic bounds and inequality checks; gamma: "
             "sweep the measure-change diagnostics over field sizes; "
             "simulate: run the ensemble campaign against the bound; "
             "report: summarize previously written reports")
    parser.add_argument("--config", help="key = value configuration file")
    for f in fields(RunConfig):
        parser.add_argument(f"--{f.name}", default=None,
                            help=f"override config key {f.name}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        return _COMMANDS[args.command](config)
    except (ConfigError, RegimeError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        # finite parameters so large or small that a derived quantity
        # leaves the float range; the message without the errno that a
        # float ** overflow puts in front of it
        print("validation error: parameters out of numeric range: "
              f"{exc.args[-1] if exc.args else exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (QuadratureError, EnergyDriftError, WallBreachError,
            KernelBuildError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"runtime error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
