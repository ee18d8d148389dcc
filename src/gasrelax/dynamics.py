"""Ensemble dynamics under the perturbed Hamiltonian H1 = H0 - h A.

Trajectories use a fixed-step velocity-Verlet scheme.  Adaptive stepping
would break symplecticity, so accuracy is enforced the other way around: a
per-trajectory energy monitor aborts loudly when the relative drift of H1
exceeds the configured tolerance.

The central estimator follows the mixed-measure protocol of the bound being
tested: initial conditions are drawn from the unperturbed Gibbs measure,
the flow is generated by H1, and the rate of change of the response is
reported through the autocorrelation kernel beta*h*E[B(x_t) B(x_0)] rather
than by finite-differencing a noisy response curve.

Ensembles are sharded with one counter-based stream per shard and reduced
in shard order, so results are bitwise identical for any worker count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bounds as _bounds
from .gibbs import (WallMarginal, NormEstimate, build_marginal, gamma_h,
                    gamma_tilde_h, norm0_mc, sample_batch)
from .model import ModelParams, hamiltonian, observable_B, _wall_force_into
from .rng import substream

__all__ = [
    "WallBreachError",
    "EnergyDriftError",
    "IntegratorConfig",
    "CorrelationSeries",
    "RelaxationReport",
    "autocorr_B",
    "empirical_relax_time",
    "displacement_norms",
    "lower_bound_curve",
    "make_relaxation_report",
]


class WallBreachError(RuntimeError):
    """A particle reached the wall region: the time step is too large."""


class EnergyDriftError(RuntimeError):
    def __init__(self, message: str, max_drift: float, tolerance: float):
        super().__init__(message)
        self.max_drift = max_drift
        self.tolerance = tolerance


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration parameters.

    dt is an upper limit; ensemble runs shrink it so that record times fall
    exactly on step boundaries.  wall_guard is the fraction of the half-box
    beyond which a step is treated as a breach.
    """

    dt: float
    t_end: float
    energy_drift_tol: float = 1e-5
    wall_guard: float = 0.999

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.t_end >= self.dt:
            raise ValueError("t_end must be >= dt")
        if not self.energy_drift_tol > 0.0:
            raise ValueError("energy_drift_tol must be positive")
        if not 0.0 < self.wall_guard < 1.0:
            raise ValueError("wall_guard must lie in (0, 1)")


@dataclass
class CorrelationSeries:
    """Ensemble autocorrelation C(t) = E[B(x_t) B(x_0)] with standard errors."""

    times: np.ndarray
    c_values: np.ndarray
    std_errors: np.ndarray
    n_trajectories: int
    field_h: float
    max_energy_drift: float = 0.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.c_values = np.asarray(self.c_values, dtype=float)
        self.std_errors = np.asarray(self.std_errors, dtype=float)
        if not (self.times.shape == self.c_values.shape == self.std_errors.shape):
            raise ValueError("times, c_values and std_errors must share a shape")
        if self.times[0] != 0.0:
            raise ValueError("the time grid must start at 0")
        if np.any(self.std_errors < 0.0):
            raise ValueError("standard errors must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "c_values": self.c_values.tolist(),
            "std_errors": self.std_errors.tolist(),
            "n_trajectories": self.n_trajectories,
            "field_h": self.field_h,
        }


def _beyond_guard(z, guard: float) -> bool:
    # max|z| as two reductions without an abs temporary; a NaN position
    # makes both NaN, so the check fails on it too
    return not max(z.max(), -z.min()) < guard


def _evolve_batch(z, p, params: ModelParams, h: float, dt: float,
                  steps_per_record: int, n_records: int,
                  energy_tol: float, wall_guard: float):
    """Velocity-Verlet the (rows, N) batch in place, recording B at each grid time.

    Returns (b_records of shape (n_records, rows), max relative H1 drift).
    Every kick, drift and force evaluation runs in four buffers of the
    batch's shape, allocated once.
    """
    half = params.half_box
    delta = params.delta_wall
    guard = wall_guard * half
    dt_over_m = dt / params.mass
    half_dt = 0.5 * dt

    # before the first force and energy, which divide by zero at a wall
    if _beyond_guard(z, guard):
        raise WallBreachError(
            f"particle beyond {wall_guard:g} of the half-box at record 0")
    b_rec = np.empty((n_records, z.shape[0]))
    b_rec[0] = observable_B(z, p)
    e_ref = hamiltonian(z, p, params, h)
    e_scale = np.maximum(np.abs(e_ref), 1e-30)
    max_drift = 0.0

    f, s1, s2, s3 = (np.empty_like(z) for _ in range(4))

    def force():
        _wall_force_into(z, half, delta, f, s1, s2, s3)
        np.add(f, h, out=f)

    def kick():
        np.multiply(f, half_dt, out=s1)
        np.add(p, s1, out=p)

    force()
    for rec in range(1, n_records):
        for _ in range(steps_per_record):
            kick()
            np.multiply(p, dt_over_m, out=s1)
            np.add(z, s1, out=z)
            if _beyond_guard(z, guard):
                raise WallBreachError(
                    f"particle beyond {wall_guard:g} of the half-box at "
                    f"record {rec}; reduce dt")
            force()
            kick()
        b_rec[rec] = observable_B(z, p)
        drift = float(np.max(np.abs(hamiltonian(z, p, params, h) - e_ref)
                             / e_scale))
        # checked before max(), which would drop a NaN drift
        if not drift <= energy_tol:
            raise EnergyDriftError(
                f"relative H1 drift {drift:.3e} exceeds tolerance "
                f"{energy_tol:.3e} at t={rec * steps_per_record * dt:.6g}",
                drift, energy_tol)
        max_drift = max(max_drift, drift)
    return b_rec, max_drift


def _records_grid(config: IntegratorConfig, n_records: int):
    if n_records < 2:
        raise ValueError("need at least two record times")
    spacing = config.t_end / (n_records - 1)
    spr = max(1, int(math.ceil(spacing / config.dt - 1e-12)))
    dt = spacing / spr
    times = np.linspace(0.0, config.t_end, n_records)
    return times, dt, spr


def _reduce_autocorr(b_rec):
    prod = b_rec * b_rec[0]
    return prod.sum(axis=1), (prod * prod).sum(axis=1)


def _reduce_displacement(b_rec):
    d = b_rec - b_rec[0]
    q = d * d
    return q.sum(axis=1), (q * q).sum(axis=1)


_REDUCERS = {"autocorr": _reduce_autocorr, "displacement": _reduce_displacement}


def _run_shard(job):
    (tag, seed, idx, rows, marginal, h, dt, spr, n_records, tol, guard) = job
    rng = substream(seed, idx)
    z, p = sample_batch(marginal, rng, rows)
    b_rec, drift = _evolve_batch(z, p, marginal.params, h, dt, spr, n_records,
                                 tol, guard)
    s1, s2 = _REDUCERS[tag](b_rec)
    return idx, s1, s2, drift


def _run_ensemble(tag: str, marginal: WallMarginal, h: float,
                  config: IntegratorConfig, n_traj: int, seed: int,
                  n_records: int, shard_size: int, n_workers: int):
    times, dt, spr = _records_grid(config, n_records)
    jobs = []
    start = 0
    idx = 0
    while start < n_traj:
        rows = min(shard_size, n_traj - start)
        jobs.append((tag, seed, idx, rows, marginal, h, dt, spr, n_records,
                     config.energy_drift_tol, config.wall_guard))
        start += rows
        idx += 1
    if n_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = {r[0]: r for r in pool.map(_run_shard, jobs)}
        results = [parts[k] for k in range(len(jobs))]
    else:
        results = [_run_shard(job) for job in jobs]
    s1 = np.zeros(n_records)
    s2 = np.zeros(n_records)
    max_drift = 0.0
    for _, p1, p2, drift in results:  # fixed shard order keeps sums bitwise stable
        s1 += p1
        s2 += p2
        max_drift = max(max_drift, drift)
    return times, s1, s2, max_drift


def autocorr_B(params: ModelParams, h: float, config: IntegratorConfig,
               n_traj: int, seed: int, marginal: Optional[WallMarginal] = None,
               n_times: int = 64, shard_size: int = 1024,
               n_workers: int = 1) -> CorrelationSeries:
    """Estimate C(t) = E[B(x_t) B(x_0)]: rho0 initial data, H1 flow.

    The derivative of the response increment is beta*h*C(t).  At least ~100
    trajectories are needed for the quoted errors to mean anything; fewer are
    allowed for smoke runs (standard errors are zeroed for n_traj < 2).
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if marginal is None:
        marginal = build_marginal(params)
    times, s1, s2, max_drift = _run_ensemble("autocorr", marginal, h, config,
                                             n_traj, seed, n_times, shard_size,
                                             n_workers)
    c = s1 / n_traj
    if n_traj > 1:
        var = np.maximum((s2 - n_traj * c * c) / (n_traj - 1), 0.0)
        sem = np.sqrt(var / n_traj)
    else:
        sem = np.zeros_like(c)
    return CorrelationSeries(times=times, c_values=c, std_errors=sem,
                             n_trajectories=n_traj, field_h=h,
                             max_energy_drift=max_drift)


def empirical_relax_time(series: CorrelationSeries) -> Optional[float]:
    """First grid time where C drops below zero by more than two errors."""
    below = series.c_values < -2.0 * series.std_errors
    hits = np.nonzero(below)[0]
    return float(series.times[hits[0]]) if hits.size else None


def displacement_norms(params: ModelParams, h: float, times: Sequence[float],
                       n_traj: int, seed: int, config: IntegratorConfig,
                       marginal: Optional[WallMarginal] = None,
                       shard_size: int = 1024,
                       n_workers: int = 1) -> list[NormEstimate]:
    """rho1 norms ||B(x_t) - B(x_0)||_1 at the requested times.

    Initial conditions come from the field-tilted measure, matching the
    displacement bound being verified.
    """
    times = sorted(float(t) for t in times)
    if not times or times[0] < 0.0:
        raise ValueError("displacement times must be nonnegative")
    if marginal is None:
        marginal = build_marginal(params, tilted=True)
    if marginal.tilt == 0.0 and h != 0.0:
        raise ValueError("displacement norms sample rho1: pass a tilted marginal")
    grid = [t for t in times if t > 0.0]
    if not grid:
        return [NormEstimate(0.0, 0.0, n_traj, marginal.which_measure)
                for _ in times]
    # one uniform grid fine enough to land on every requested time
    base = grid[0]
    n_records = int(round(grid[-1] / base)) + 1
    if any(abs(t / base - round(t / base)) > 1e-9 for t in grid):
        raise ValueError("displacement times must be multiples of the smallest")
    run_cfg = IntegratorConfig(dt=config.dt, t_end=grid[-1],
                               energy_drift_tol=config.energy_drift_tol,
                               wall_guard=config.wall_guard)
    grid_times, s1, s2, _ = _run_ensemble("displacement", marginal, h, run_cfg,
                                          n_traj, seed, n_records, shard_size,
                                          n_workers)
    out = []
    for t in times:
        if t == 0.0:
            out.append(NormEstimate(0.0, 0.0, n_traj, marginal.which_measure))
            continue
        k = int(round(t / base))
        mean_q = s1[k] / n_traj
        var_q = max((s2[k] - n_traj * mean_q * mean_q) / max(n_traj - 1, 1), 0.0)
        value = math.sqrt(max(mean_q, 0.0))
        sem_q = math.sqrt(var_q / n_traj)
        sem = sem_q / (2.0 * value) if value > 0.0 else math.sqrt(sem_q)
        out.append(NormEstimate(value, sem, n_traj, marginal.which_measure))
    return out


def lower_bound_curve(params: ModelParams, h: float, t):
    """beta*h*(1 - eta^2 t^2 / 2) * ||B||_0^2 with the closed-form norm.

    ||B||_0^2 is the specified closed form 2N/beta (norm0_B_closed squared),
    twice E_rho0[B^2] = N m / beta.  At t = 0 the curve therefore sits a
    factor of two above the kernel beta*h*C(0) that the dynamics produce,
    which is why `simulate` reports curve_check = False on the reference
    configuration.
    """
    eta = _bounds.eta_analytic(params)
    t = np.asarray(t, dtype=float)
    curve = (params.beta * h * (1.0 - 0.5 * eta * eta * t * t)
             * 2.0 * params.n_particles / params.beta)
    return float(curve) if curve.ndim == 0 else curve


@dataclass
class RelaxationReport:
    """Verdicts of the dynamical checks for one simulation campaign."""

    t0_bound: float
    t_star_empirical: Optional[float]
    positivity_ok: bool
    curve_check: bool
    displacement_ok: bool
    gamma: float
    gamma_tilde: float
    field_h: float
    n_trajectories: int
    max_energy_drift: float
    displacement_details: list

    @property
    def all_ok(self) -> bool:
        return self.positivity_ok and self.curve_check and self.displacement_ok

    def to_json_dict(self) -> dict:
        t_star = (self.t_star_empirical if self.t_star_empirical is not None
                  else "not crossed within t_end")
        return {
            "t0_bound": self.t0_bound,
            "t_star_empirical": t_star,
            "positivity_ok": self.positivity_ok,
            "curve_check": self.curve_check,
            "displacement_ok": self.displacement_ok,
            "gamma": self.gamma,
            "gamma_tilde": self.gamma_tilde,
            "field_h": self.field_h,
            "n_trajectories": self.n_trajectories,
            "max_energy_drift": self.max_energy_drift,
            "displacement_details": self.displacement_details,
        }

    def to_json(self, meta: Optional[dict] = None) -> str:
        doc = {"meta": meta or {}}
        doc.update(self.to_json_dict())
        return json.dumps(doc, indent=2, sort_keys=True)


def make_relaxation_report(params: ModelParams, config: IntegratorConfig,
                           n_traj: int, seed: int, n_times: int = 64,
                           displacement_fracs: Sequence[float] = (0.25, 0.5, 1.0),
                           eta_margin: float = 0.05, norm_samples: int = 20000,
                           n_workers: int = 1,
                           ) -> tuple[RelaxationReport, CorrelationSeries]:
    """Run the full dynamical campaign against the analytic bound.

    Positivity and curve checks cover the grid times up to t0; displacement
    checks run at the given fractions of t0 against (1 + eta_margin) * eta *
    t * ||B||_1 plus three combined standard errors.
    """
    h = params.field
    t0 = _bounds.t_relax_lower(params)
    eta = _bounds.eta_analytic(params)
    marginal0 = build_marginal(params)
    marginal1 = build_marginal(params, tilted=True) if h != 0.0 else marginal0

    series = autocorr_B(params, h, config, n_traj, seed, marginal=marginal0,
                        n_times=n_times, n_workers=n_workers)

    window = series.times <= t0 + 1e-12
    c_win = series.c_values[window]
    e_win = series.std_errors[window]
    positivity_ok = bool(np.all(c_win - 2.0 * e_win > 0.0))

    curve = lower_bound_curve(params, h, series.times[window]) if h > 0.0 else None
    if h > 0.0:
        bh = params.beta * h
        curve_check = bool(np.all(bh * c_win >= curve - 3.0 * bh * e_win))
    else:
        curve_check = positivity_ok

    disp_times = [f * t0 for f in displacement_fracs]
    disp = displacement_norms(params, h, disp_times, n_traj,
                              seed + 1, config, marginal=marginal1,
                              n_workers=n_workers)
    b1 = norm0_mc(observable_B, marginal1, norm_samples, substream(seed, 7001))
    details = []
    displacement_ok = True
    for t, est in zip(disp_times, disp):
        bound = (1.0 + eta_margin) * eta * t * b1.value
        slack = 3.0 * (est.std_error + (1.0 + eta_margin) * eta * t * b1.std_error)
        passed = est.value <= bound + slack
        displacement_ok = displacement_ok and passed
        details.append({"t": t, "norm": est.value, "std_error": est.std_error,
                        "bound": bound, "passed": passed})

    report = RelaxationReport(
        t0_bound=t0,
        t_star_empirical=empirical_relax_time(series),
        positivity_ok=positivity_ok,
        curve_check=curve_check,
        displacement_ok=displacement_ok,
        gamma=gamma_h(params, marginal0),
        gamma_tilde=gamma_tilde_h(params, marginal0),
        field_h=h,
        n_trajectories=n_traj,
        max_energy_drift=series.max_energy_drift,
        displacement_details=details)
    return report, series
