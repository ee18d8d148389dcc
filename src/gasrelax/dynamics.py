"""Ensemble dynamics under the perturbed Hamiltonian H1 = H0 - h A.

Trajectories use a fixed-step velocity-Verlet scheme.  Adaptive stepping
would break symplecticity, so accuracy is enforced the other way around: a
per-trajectory energy monitor aborts loudly when the relative drift of H1
exceeds the configured tolerance.  One call of the C kernel per shard,
given the parameters as they are, draws the shard's states a block at a
time and runs the wall guard, the steps and, at every record time, the row
sums of B and H1, which it reduces to each record's largest relative drift;
the monitor then reads those drifts, so a shard's steps never return to
Python, and its only array is its B records.

The central estimator follows the mixed-measure protocol of the bound being
tested: initial conditions are drawn from the unperturbed Gibbs measure,
the flow is generated by H1, and the rate of change of the response is
reported through the autocorrelation kernel beta*h*E[B(x_t) B(x_0)] rather
than by finite-differencing a noisy response curve.

Ensembles are sharded with one counter-based stream per shard and reduced
in shard order, so results are bitwise identical for any worker count.
Workers are threads of the one process: a shard spends its time in kernel
calls, which release the GIL.  The kernel draws each shard's states, the
bits of gibbs._states, and the momenta behind ||B||_1 (gibbs.norm0_B_mc)
from their stream's key, so a run never imports numpy.random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernel
from . import bounds as _bounds
from .gibbs import (WallMarginal, NormEstimate, _measure, build_marginal,
                    gamma_h, gamma_tilde_h, norm0_B_mc)
from .model import ModelParams, _require_positive_finite
from .rng import philox_key, philox_state

# trajectories per shard: shard k draws from the stream philox_key(seed, k)
_SHARD = 1024

# the displacement checks of a campaign: at these fractions of t0, against
# (1 + _ETA_MARGIN) * eta * t * ||B||_1, with ||B||_1 from _NORM_SAMPLES draws
_DISPLACEMENT_FRACS = (0.25, 0.5, 1.0)
_ETA_MARGIN = 0.05
_NORM_SAMPLES = 20000
# the standard errors that each verdict allows (make_relaxation_report)
_POSITIVITY_K = 2.0
_CROSSING_K = 2.0  # empirical_relax_time
_CURVE_K = 3.0
_DISPLACEMENT_K = 3.0

# the fewest trajectories and record times (t = 0 and one more) of a run
_MIN_TRAJ = 1
_MIN_TIMES = 2

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
        _require_positive_finite(self, "dt", "t_end", "energy_drift_tol")
        if not self.t_end >= self.dt:
            raise ValueError("t_end must be >= dt")
        if not 0.0 < self.wall_guard < 1.0:
            raise ValueError("wall_guard must lie in (0, 1)")


@dataclass(eq=False)
class CorrelationSeries:
    """Ensemble autocorrelation C(t) = E[B(x_t) B(x_0)] with standard errors."""

    times: np.ndarray
    c_values: np.ndarray
    std_errors: np.ndarray
    n_trajectories: int
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


def _evolve_batch(z, p, params: ModelParams, dt: float,
                  steps_per_record: int, n_records: int,
                  energy_tol: float, wall_guard: float):
    """Velocity-Verlet the (rows, N) batch in place under H1 with the field of
    params, recording B at each grid time.

    z and p are C-contiguous float64 arrays, which the C kernel
    `verlet_records` loads and steps: an initial state beyond the guard
    raises WallBreachError at record 0, before any step.  Returns (b_records
    of shape (n_records, rows), max relative H1 drift); see
    _verlet_records.
    """
    for a in (z, p):
        if not (a.dtype == np.float64 and a.ndim == 2 and a.flags.c_contiguous
                and a.flags.writeable and a.shape == z.shape):
            raise ValueError("z and p must be writeable C-contiguous float64 "
                             "arrays of one (rows, N) shape")
    return _verlet_records(
        (z.ctypes.data, p.ctypes.data, None, 0.0, None, None, 0), z.shape,
        params, dt, steps_per_record, n_records, energy_tol, wall_guard)


def _evolve_sampled(marginal: WallMarginal, rows: int, state: np.ndarray,
                    dt: float, steps_per_record: int, n_records: int,
                    energy_tol: float, wall_guard: float):
    """_evolve_batch of the states _states(marginal, rows, state) would give,
    under the field of marginal.params, with no state array made.

    The kernel draws each block's heights and momenta from the Philox state
    (rng.philox_state) on its stack just before the block steps, so a
    block's initial state beyond the guard raises WallBreachError at record
    0 after the earlier blocks have stepped.  Returns (b_records, max
    relative H1 drift), with the bits of _evolve_batch on those states.
    """
    params = marginal.params
    return _verlet_records(
        (None, None, state.ctypes.data, params.beta,
         *marginal._kernel_tables()), (rows, params.n_particles), params, dt,
        steps_per_record, n_records, energy_tol, wall_guard)


def _verlet_records(states: tuple, shape: tuple, params: ModelParams,
                    dt: float, steps_per_record: int, n_records: int,
                    energy_tol: float, wall_guard: float):
    """One `verlet_records` call on states, its loaded (z, p) or drawn
    (Philox state, beta and inverse-CDF tables) arguments, and the drift
    monitor.

    The kernel runs the whole trajectory: each block steps through every
    record, and at each record it writes every row's B, with NumPy's row
    sums, and raises that record's largest relative H1 drift over the rows.
    A block is whole rows of at most the kernel's BLOCK values, or one
    longer row, whose force, and states when drawn, the kernel keeps in a
    scratch array of 3 N values.  The monitor then reads the drifts of the
    records below the first breach.  A drift beyond energy_tol at such a
    record raises EnergyDriftError at the first one; otherwise a breach
    raises WallBreachError at its record.
    """
    if n_records < 1:
        raise ValueError("n_records must be >= 1")
    rows, n = shape
    b_rec = np.empty((n_records, rows))
    drift = np.empty(n_records)
    scratch = np.empty(3 * n)
    end = _kernel.library().verlet_records(
        *states, rows, n, scratch.ctypes.data, n_records, steps_per_record,
        dt, params.half_box, params.delta_wall, params.field, wall_guard,
        b_rec.ctypes.data, None, drift.ctypes.data)
    if end == 0:
        raise WallBreachError(
            f"particle beyond {wall_guard:g} of the half-box at record 0")

    # the drift of each record below the first breach; a NaN drift fails
    # too.  The floor of the drift's scale guards an exact zero alone, so
    # the drift is the same in any energy unit
    drift = drift[1:end]
    failed = np.flatnonzero(~(drift <= energy_tol))
    if failed.size:
        rec = int(failed[0]) + 1
        worst = float(drift[rec - 1])
        raise EnergyDriftError(
            f"relative H1 drift {worst:.3e} exceeds tolerance "
            f"{energy_tol:.3e} at t={rec * steps_per_record * dt:.6g}",
            worst, energy_tol)
    if end < n_records:
        raise WallBreachError(
            f"particle beyond {wall_guard:g} of the half-box at "
            f"record {end}; reduce dt")
    return b_rec, float(drift.max()) if drift.size else 0.0


def _records_grid(dt: float, t_end: float, n_records: int):
    if n_records < _MIN_TIMES:
        raise ValueError("need at least two record times")
    spacing = t_end / (n_records - 1)
    spr = max(1, int(math.ceil(spacing / dt - 1e-12)))
    # the kernel counts steps in a ptrdiff_t, which ctypes would truncate
    if spr > np.iinfo(np.intp).max:
        raise ValueError(f"dt = {dt:g} needs {float(spr):.3g} steps "
                         "per record, more than the integrator can count")
    return np.linspace(0.0, t_end, n_records), spacing / spr, spr


def _autocorr_terms(b_rec):
    """b_rec[r] * b_rec[0] at each record r, formed in b_rec's own memory
    from a copy of its row 0."""
    b_rec *= b_rec[0].copy()
    return b_rec


def _displacement_terms(b_rec):
    """(b_rec[r] - b_rec[0])^2 at each record r, formed in b_rec's own
    memory from a copy of its row 0."""
    b_rec -= b_rec[0].copy()
    b_rec *= b_rec
    return b_rec


def _run_ensemble(terms, marginal: WallMarginal, config: IntegratorConfig,
                  t_end: float, n_traj: int, seed: int, n_records: int,
                  n_workers: int):
    """Per-record means and variances (ddof 1, or 0 for n_traj = 1) of
    x = terms(b_records), which forms x in b_records' memory, over n_traj,
    at n_records times on [0, t_end].

    Steps are config.dt at most; H1 has the field of marginal.params.
    Shard k holds trajectories k*_SHARD onward, drawn from the stream
    philox_key(seed, k), and runs on one of up to n_workers threads.  The
    shards are summed in shard order whichever thread ran them, so the
    results do not depend on n_workers.  Returns (record times, means,
    variances, max relative H1 drift).
    """
    times, dt, spr = _records_grid(config.dt, t_end, n_records)

    def shard(start):
        b_rec, drift = _evolve_sampled(
            marginal, min(_SHARD, n_traj - start),
            philox_state(philox_key(seed, start // _SHARD)), dt, spr,
            n_records, config.energy_drift_tol, config.wall_guard)
        x = terms(b_rec)
        s1 = x.sum(axis=1)
        return s1, np.square(x, out=x).sum(axis=1), drift

    starts = range(0, n_traj, _SHARD)
    if n_workers > 1 and len(starts) > 1:
        # imported here, not with the module: only workers > 1 need it, and
        # it adds several ms to every CLI start
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(shard, starts))
    else:
        results = map(shard, starts)
    s1 = np.zeros(n_records)
    s2 = np.zeros(n_records)
    max_drift = 0.0
    for p1, p2, drift in results:
        s1 += p1
        s2 += p2
        max_drift = max(max_drift, drift)
    mean = s1 / n_traj
    var = np.maximum((s2 - n_traj * mean * mean) / max(n_traj - 1, 1), 0.0)
    return times, mean, var, max_drift


def _require_traj(n_traj: int) -> None:
    """Raise ValueError unless an ensemble of n_traj trajectories can run."""
    if n_traj < _MIN_TRAJ:
        raise ValueError(f"n_traj must be >= {_MIN_TRAJ}")


def autocorr_B(params: ModelParams, config: IntegratorConfig, n_traj: int,
               seed: int, marginal: Optional[WallMarginal] = None,
               n_times: int = 64, n_workers: int = 1) -> CorrelationSeries:
    """Estimate C(t) = E[B(x_t) B(x_0)]: rho0 initial data, H1 flow.

    marginal, if given, is the rho0 marginal of params.  The derivative of the
    response increment is beta*h*C(t), h = params.field.  At least ~100
    trajectories are needed for the quoted errors to mean anything; fewer are
    allowed for smoke runs (one trajectory gives standard errors of 0).
    """
    _require_traj(n_traj)
    if marginal is None:
        marginal = build_marginal(params)
    if marginal.params != params or marginal.tilt != 0.0:
        raise ValueError("C(t) samples rho0: pass the untilted marginal of "
                         "params")
    times, c, var, max_drift = _run_ensemble(
        _autocorr_terms, marginal, config, config.t_end, n_traj, seed,
        n_times, n_workers)
    return CorrelationSeries(times=times, c_values=c,
                             std_errors=np.sqrt(var / n_traj),
                             n_trajectories=n_traj,
                             max_energy_drift=max_drift)


def empirical_relax_time(series: CorrelationSeries) -> Optional[float]:
    """First grid time where C drops below -_CROSSING_K standard errors."""
    below = series.c_values < -_CROSSING_K * series.std_errors
    hits = np.nonzero(below)[0]
    return float(series.times[hits[0]]) if hits.size else None


def displacement_norms(params: ModelParams, times: Sequence[float],
                       n_traj: int, seed: int, config: IntegratorConfig,
                       grid_size: int = 2048,
                       n_workers: int = 1) -> list[NormEstimate]:
    """rho1 norms ||B(x_t) - B(x_0)||_1 at the requested times, one per
    time in the order given.

    Initial conditions come from rho1, tilted by h = params.field, matching
    the displacement bound being verified; their marginal is built here on
    grid_size cells, once a time above 0 needs it.  The steps are config.dt
    at most; config.t_end is not read.
    """
    _require_traj(n_traj)
    times = [float(t) for t in times]
    if not times or not all(0.0 <= t < math.inf for t in times):
        raise ValueError("displacement times must be finite and nonnegative")
    grid = sorted(t for t in times if t > 0.0)
    if not grid:
        return [NormEstimate(0.0, 0.0, n_traj, _measure(params.field))
                for _ in times]
    # one uniform grid fine enough to land on every requested time
    base = grid[0]
    n_records = int(round(grid[-1] / base)) + 1
    if any(abs(t / base - round(t / base)) > 1e-9 for t in grid):
        raise ValueError("displacement times must be multiples of the smallest")
    marginal = build_marginal(params, grid_size=grid_size, tilted=True)
    _, mean_q, var_q, _ = _run_ensemble(
        _displacement_terms, marginal, config, grid[-1], n_traj, seed,
        n_records, n_workers)
    # record 0 has zero displacement, so t = 0 gives a norm of 0
    return [NormEstimate.from_moments(mean_q[k], var_q[k], n_traj,
                                      marginal.which_measure)
            for k in (int(round(t / base)) for t in times)]


def lower_bound_curve(params: ModelParams, t):
    """beta*h*(1 - eta^2 t^2 / 2) * ||B||_0^2, h = params.field, with the
    closed-form norm.

    ||B||_0^2 is the specified closed form 2N/beta (norm0_B_closed squared),
    twice E_rho0[B^2] = N / beta.  At t = 0 the curve therefore sits a
    factor of two above the kernel beta*h*C(0) that the dynamics produce,
    which is why `simulate` reports curve_check = False on the reference
    configuration.
    """
    eta = _bounds.eta_analytic(params)
    t = np.asarray(t, dtype=float)
    curve = (params.beta * params.field * (1.0 - 0.5 * eta * eta * t * t)
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


def make_relaxation_report(params: ModelParams, config: IntegratorConfig,
                           n_traj: int, seed: int, n_times: int = 64,
                           n_workers: int = 1, grid_size: int = 2048,
                           ) -> tuple[RelaxationReport, CorrelationSeries]:
    """Run the full dynamical campaign against the analytic bound.

    Positivity (_POSITIVITY_K) and curve checks (_CURVE_K standard errors)
    cover the grid times up to t0 (both fail if the run stops before t0);
    displacement checks run at the _DISPLACEMENT_FRACS of t0 against
    (1 + _ETA_MARGIN) * eta * t * ||B||_1 plus _DISPLACEMENT_K combined
    standard errors.  The rho0 marginal built here, and the rho1 marginal
    that displacement_norms builds, are tabulated on grid_size cells.
    """
    h = params.field
    t0 = _bounds.t_relax_lower(params)
    eta = _bounds.eta_analytic(params)
    marginal0 = build_marginal(params, grid_size=grid_size)

    series = autocorr_B(params, config, n_traj, seed, marginal=marginal0,
                        n_times=n_times, n_workers=n_workers)

    # relative to t0, so the window is the same in any time unit
    window = series.times <= t0 * (1.0 + 1e-12)
    c_win = series.c_values[window]
    e_win = series.std_errors[window]
    positivity_ok = bool(np.all(c_win - _POSITIVITY_K * e_win > 0.0))

    if h > 0.0:
        bh = params.beta * h
        curve = lower_bound_curve(params, series.times[window])
        curve_check = bool(np.all(bh * c_win >= curve - _CURVE_K * bh * e_win))
    else:
        curve_check = positivity_ok
    if series.times[-1] < t0:
        # a run that stopped before t0 says nothing about it
        positivity_ok = curve_check = False

    disp_times = [f * t0 for f in _DISPLACEMENT_FRACS]
    disp = displacement_norms(params, disp_times, n_traj, seed + 1, config,
                              grid_size=grid_size, n_workers=n_workers)
    b1 = norm0_B_mc(params, _NORM_SAMPLES, philox_key(seed, 7001))
    details = []
    displacement_ok = True
    for t, est in zip(disp_times, disp):
        bound = (1.0 + _ETA_MARGIN) * eta * t * b1.value
        slack = _DISPLACEMENT_K * (
            est.std_error + (1.0 + _ETA_MARGIN) * eta * t * b1.std_error)
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
        gamma=gamma_h(marginal0, h),
        gamma_tilde=gamma_tilde_h(marginal0, h),
        field_h=h,
        n_trajectories=n_traj,
        max_energy_drift=series.max_energy_drift,
        displacement_details=details)
    return report, series
