"""Full-scale verification of the advertised guarantees, one test per criterion.

Every check prints a single "ACCEPTANCE <id>: PASS/FAIL" line (run pytest
with -s to see them as they execute).  Sizes and tolerances are fixed here,
not tuned at runtime.

The dynamical checks 5a and 5c compare the measured response kernel
K(t) = beta*h*C(t) with the exact rho0 norm of the momentum sum,
||B||_0^2 = E_rho0[B^2] = N m / beta (helpers.norm0_B_sq_exact), computed
from the parameters alone.  5a asks for K(0) = beta*h*||B||_0^2; 5c asks for
K(t) >= beta*h*||B||_0^2 (1 - eta^2 t^2 / 2) on [0, t0].  The program's own
closed form norm0_B_closed, sqrt(2N/beta), is twice that norm squared and
is not used as a target here; the failure messages carry the measured
numbers.
"""

import math

import numpy as np
import pytest

import helpers
from gasrelax.bounds import (PhysicalUnits, constant_c, eta_analytic,
                             t0_physical, t_relax_lower)
from gasrelax.dynamics import IntegratorConfig, autocorr_B, displacement_norms
from gasrelax.gibbs import (build_marginal, gamma_h, gamma_tilde_h,
                            hoelder_certificate, norm0_B_closed, norm0_B_mc,
                            norm0_mc, norm0_poisson_B_H0_quadrature)
from gasrelax.model import ModelParams
from gasrelax.rng import philox_key

SEED = 20260808
REF = ModelParams(n_particles=64, beta=1.0, delta_wall=1.0, box_side=10.0,
                  field=1e-3)
DELTA_MOMENT = 0.1
EPSILON = 0.01

# sweep of parameter triples inside the validity regime (criteria 2 and 3)
SWEEP = [ModelParams(1, beta, delta, box)
         for beta in (0.5, 1.0, 2.0, 4.0)
         for delta in (0.25, 1.0, 4.0)
         for box in (6.0, 10.0)]
# plus the edge where (beta*delta)^(1/12) equals box_side/3 exactly
SWEEP_EDGE = SWEEP + [ModelParams(1, 1.0, (10.0 / 3.0) ** 12, 10.0)]


def _verdict(name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def reference_run():
    """Criterion 5 ensemble: 10^4 trajectories, 64 grid times on [0, 2 t0]."""
    t0 = t_relax_lower(REF)
    config = IntegratorConfig(dt=2.5e-4, t_end=2.0 * t0, energy_drift_tol=1e-5)
    series = autocorr_B(REF, config, n_traj=10000, seed=SEED, n_times=64)
    return t0, config, series


@pytest.fixture(scope="module")
def displacement_run(reference_run):
    t0, config, _ = reference_run
    times = [0.25 * t0, 0.5 * t0, 1.0 * t0]
    marginal1 = build_marginal(REF, tilted=True)
    estimates = displacement_norms(REF, times, n_traj=10000, seed=SEED + 1,
                                   config=config, marginal=marginal1)
    b1 = norm0_B_mc(REF, 20000, philox_key(SEED, 501), 20000 * 64 // 4)
    return times, estimates, b1


def test_criterion_1_constant():
    c = constant_c()
    ok = abs(c - 24.45) <= 0.02 and abs(c - 25.0) < 0.6
    line = _verdict("1 (constant c)", ok, f"c = {c:.5f}")
    assert ok, line


def test_criterion_2_partition_exceeds_quarter_box():
    assert len(SWEEP_EDGE) >= 20
    worst = math.inf
    ok = True
    for params in SWEEP_EDGE:
        scale = (params.beta * params.delta_wall) ** (1.0 / 12.0)
        assert scale <= params.box_side / 3.0 + 1e-9
        z_tilde = build_marginal(params, grid_size=64).z_tilde
        ratio = z_tilde / (params.box_side / 4.0)
        worst = min(worst, ratio)
        ok = ok and z_tilde > params.box_side / 4.0
    line = _verdict("2 (Z~ > L/4)", ok,
                    f"{len(SWEEP_EDGE)} triples, worst margin x{worst:.3f}")
    assert ok, line


def test_criterion_3_eta_inequality():
    ok = True
    worst = 0.0
    for params in SWEEP:
        lhs = norm0_poisson_B_H0_quadrature(build_marginal(params,
                                                           grid_size=64))
        rhs = eta_analytic(params) * norm0_B_closed(params)
        worst = max(worst, lhs / rhs)
        ok = ok and lhs <= rhs
    marginal = build_marginal(REF)
    mc = norm0_mc(marginal, 100000, philox_key(SEED, 301))
    quad = norm0_poisson_B_H0_quadrature(marginal)
    agree = abs(mc.value - quad) <= 3.0 * mc.std_error
    ok = ok and agree
    line = _verdict(
        "3 (eta inequality)", ok,
        f"{len(SWEEP)} triples, worst lhs/rhs = {worst:.3f}; "
        f"MC {mc.value:.4f} vs quadrature {quad:.4f} "
        f"(3-sigma {3.0 * mc.std_error:.4f})")
    assert ok, line


def test_criterion_4_measure_change_certificates():
    marginal = build_marginal(REF)
    grid = np.geomspace(1e-5, 1e-1, 9)
    gam = np.array([gamma_h(REF, marginal, h) for h in grid])
    gtl = np.array([gamma_tilde_h(REF, marginal, h) for h in grid])
    ok = gamma_h(REF, marginal, 0.0) == 0.0
    ok = ok and gamma_tilde_h(REF, marginal, 0.0) == 0.0
    ok = ok and np.all(gam >= 0.0) and np.all(gtl >= 0.0)
    ok = ok and np.all(np.diff(gam) > 0.0) and np.all(np.diff(gtl) > 0.0)
    cert_limit = DELTA_MOMENT / (2.0 * REF.beta)
    for h in grid[grid < cert_limit]:
        cert = hoelder_certificate(REF, marginal, DELTA_MOMENT, h, EPSILON)
        ok = ok and cert.bound_holds
    probe = hoelder_certificate(REF, marginal, DELTA_MOMENT, 0.0, EPSILON)
    below = hoelder_certificate(REF, marginal, DELTA_MOMENT,
                                0.99 * probe.h_threshold, EPSILON)
    ok = ok and below.gamma < EPSILON
    line = _verdict(
        "4 (gamma certificates)", ok,
        f"gamma range [{gam[0]:.3e}, {gam[-1]:.3e}], "
        f"threshold h < {probe.h_threshold:.4e}, "
        f"gamma at 0.99 threshold = {below.gamma:.3e}")
    assert ok, line


def test_criterion_5a_initial_kernel(reference_run):
    _, _, series = reference_run
    bh = REF.beta * REF.field
    measured = bh * series.c_values[0]
    target = bh * helpers.norm0_B_sq_exact(REF)
    window = 3.0 * bh * series.std_errors[0]
    ok = abs(measured - target) <= window
    line = _verdict(
        "5a (initial kernel = N h m)", ok,
        f"beta*h*C(0) = {measured:.5f}, target N*h*m = {target:.5f}, "
        f"3-sigma window {window:.5f}")
    assert ok, line


def test_criterion_5b_positivity_window(reference_run):
    t0, _, series = reference_run
    window = series.times <= t0 + 1e-12
    c = series.c_values[window]
    err = series.std_errors[window]
    ok = bool(np.all(c - 2.0 * err > 0.0))
    line = _verdict(
        "5b (kernel positive up to t0)", ok,
        f"{window.sum()} grid times, min(C - 2 sigma) = "
        f"{float(np.min(c - 2.0 * err)):.4f}")
    assert ok, line


def test_criterion_5c_bound_curve(reference_run):
    t0, _, series = reference_run
    bh = REF.beta * REF.field
    window = series.times <= t0 + 1e-12
    t_win = series.times[window]
    kernel = bh * series.c_values[window]
    eta = eta_analytic(REF)
    curve = (bh * helpers.norm0_B_sq_exact(REF)
             * (1.0 - 0.5 * eta * eta * t_win * t_win))
    slack = 3.0 * bh * series.std_errors[window]
    violations = kernel < curve - slack
    ok = not bool(np.any(violations))
    first = float(t_win[np.argmax(violations)]) if violations.any() else None
    line = _verdict(
        "5c (kernel above bound curve)", ok,
        f"{int(violations.sum())} of {t_win.size} grid times below the curve"
        + (f", first at t = {first:.4f}; curve(0) = {curve[0]:.5f} vs "
           f"kernel(0) = {kernel[0]:.5f}" if first is not None else ""))
    assert ok, line


def test_criterion_5d_displacement_bound(displacement_run):
    times, estimates, b1 = displacement_run
    eta = eta_analytic(REF)
    ok = True
    details = []
    for t, est in zip(times, estimates):
        bound = 1.05 * eta * t * b1.value
        slack = 3.0 * (est.std_error + 1.05 * eta * t * b1.std_error)
        ok = ok and est.value <= bound + slack
        details.append(f"t={t:.4f}: {est.value:.3f} <= {bound:.3f}")
    line = _verdict("5d (displacement bound)", ok, "; ".join(details))
    assert ok, line


def test_criterion_6_physical_units():
    units = PhysicalUnits(mass_kg=4.65e-26, sigma_m=1e-10, box_m=1.0,
                          temperature_k=300.0)
    t0 = t0_physical(REF, units)
    ok = 1e-9 <= t0 <= 1e-7 and 0.1 <= t0 / 1e-8 <= 10.0
    line = _verdict("6 (physical relaxation scale)", ok, f"t0 = {t0:.3e} s")
    assert ok, line


def test_criterion_7_deterministic_oracle_matches_mc():
    params = ModelParams(n_particles=1, beta=1.0, delta_wall=1.0,
                         box_side=10.0, field=1e-3)
    t_end = 2.0 * t_relax_lower(params)
    times, c_quad = helpers.quadrature_autocorr_n1(params, params.field, t_end,
                                                   n_times=8)
    config = IntegratorConfig(dt=2.5e-4, t_end=t_end, energy_drift_tol=1e-5)
    series = autocorr_B(params, config, n_traj=10000, seed=SEED + 2,
                        n_times=8)
    devs = (series.c_values - c_quad) / series.std_errors
    ok = bool(np.all(np.abs(devs) <= 3.0))
    line = _verdict(
        "7 (quadrature oracle vs MC)", ok,
        f"8 grid times, max deviation {float(np.max(np.abs(devs))):.2f} sigma")
    assert ok, line
