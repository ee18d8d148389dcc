"""Independent oracles and statistics shared by the test modules.

Everything here deliberately avoids the code paths it is used to check:
finite differences instead of closed-form derivatives, composite Simpson
instead of the adaptive rule, rejection sampling instead of inverse-CDF
lookup, and a deterministic initial-condition grid instead of Monte Carlo.
The allocating forms of the inverse CDF, the wall force and the Verlet loop
are kept here as the references that the in-place kernels must match bit for
bit.
"""

import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

from gasrelax.dynamics import (EnergyDriftError, WallBreachError,
                               _evolve_batch, _records_grid)
from gasrelax.model import hamiltonian, observable_B
from gasrelax.numerics import integrate_finite


def norm0_B_sq_exact(params):
    """Exact rho0 norm ||B||_0^2 = E_rho0[B^2] = N m / beta of the momentum sum.

    Under rho0 the momenta are independent of the heights and of each other,
    each Gaussian with mean 0 and variance m / beta (the Boltzmann factor of
    the kinetic term p^2 / 2m).  B = sum_j p_j is then Gaussian with mean 0,
    so E[B^2] = Var(B) = sum_j Var(p_j) = N m / beta.
    """
    return params.n_particles * params.mass / params.beta


def gaussian_moment(n, beta):
    """E[p^n] under the density proportional to exp(-beta p^2 / 2).

    Even n: (n-1)!! * beta^(-n/2).  Odd moments vanish by symmetry.  A
    momentum of mass m has the moments of gaussian_moment(n, beta / m).
    """
    if n < 0 or int(n) != n:
        raise ValueError("moment order must be a nonnegative integer")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    n = int(n)
    if n % 2 == 1:
        return 0.0
    acc = 1.0
    for k in range(n - 1, 0, -2):
        acc *= k
    return acc * beta ** (-n / 2)


def integrate_semi_infinite(f, a, rel_tol=1e-10, abs_floor=1e-14,
                            max_panels=4096):
    """Integrate f over (a, +inf) via the map u = a + t/(1-t), t in (0, 1)."""

    def mapped(t):
        t = np.asarray(t, dtype=float)
        w = 1.0 - t
        return f(a + t / w) / (w * w)

    return integrate_finite(mapped, 0.0, 1.0, rel_tol=rel_tol,
                            abs_floor=abs_floor, max_panels=max_panels)


def numerical_poisson_bracket(f, g, z, p, eps=1e-6):
    """Central-difference canonical bracket sum_j (df/dz dg/dp - df/dp dg/dz).

    f and g map 1-d position and momentum arrays (z, p) to a number.
    """
    total = 0.0
    for j in range(z.size):
        bump = np.zeros(z.size)
        bump[j] = eps
        df_dz = (f(z + bump, p) - f(z - bump, p)) / (2 * eps)
        df_dp = (f(z, p + bump) - f(z, p - bump)) / (2 * eps)
        dg_dz = (g(z + bump, p) - g(z - bump, p)) / (2 * eps)
        dg_dp = (g(z, p + bump) - g(z, p - bump)) / (2 * eps)
        total += df_dz * dg_dp - df_dp * dg_dz
    return total


def verlet_steps(z, p, params, h, dt, n_steps):
    """n_steps velocity-Verlet steps of _evolve_batch, without a drift abort.

    z, p are 1-d (one state) or (rows, N); returns the final (rows, N) arrays.
    """
    z = np.array(z, dtype=float, ndmin=2)
    p = np.array(p, dtype=float, ndmin=2)
    _evolve_batch(z, p, params, h, dt, 1, n_steps + 1, 1.0, 0.999)
    return z, p


def inverse_cdf_searchsorted(marginal, u):
    """Monotone-cubic inverse CDF with a binary search over every knot.

    The bracket lookup and cubic of WallMarginal.inverse_cdf before its guide
    table, on the whole batch at once.
    """
    u = np.asarray(u, dtype=float)
    inv_u, inv_z, inv_m = marginal._inv_u, marginal._inv_z, marginal._inv_m
    idx = np.clip(np.searchsorted(inv_u, u, side="right") - 1,
                  0, inv_u.size - 2)
    x0 = inv_u[idx]
    dx = inv_u[idx + 1] - x0
    t = (u - x0) / dx
    y0 = inv_z[idx]
    y1 = inv_z[idx + 1]
    m0 = inv_m[idx] * dx
    m1 = inv_m[idx + 1] * dx
    t2 = t * t
    t3 = t2 * t
    return ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + t) * m0
            + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * m1)


def _recip_pow13(u):
    u2 = u * u
    u4 = u2 * u2
    return 1.0 / (u4 * u4 * u4 * u)


def wall_force_reference(z, params):
    """12 delta [(z+L/2)^-13 + (z-L/2)^-13] as one allocating expression."""
    half = params.half_box
    with np.errstate(over="ignore"):
        return 12.0 * params.delta_wall * (_recip_pow13(z + half)
                                           + _recip_pow13(z - half))


def evolve_batch_reference(z, p, params, h, dt, steps_per_record, n_records,
                           energy_tol, wall_guard):
    """The allocating velocity-Verlet loop that _evolve_batch must match.

    Same contract as _evolve_batch: evolves z, p in place and returns
    (B records, max relative H1 drift).
    """
    half = params.half_box
    guard = wall_guard * half
    dt_over_m = dt / params.mass
    half_dt = 0.5 * dt

    b_rec = np.empty((n_records, z.shape[0]))
    b_rec[0] = observable_B(z, p)
    e_ref = hamiltonian(z, p, params, h)
    e_scale = np.maximum(np.abs(e_ref), 1e-30)
    max_drift = 0.0

    f = wall_force_reference(z, params) + h
    for rec in range(1, n_records):
        for _ in range(steps_per_record):
            p += half_dt * f
            z += dt_over_m * p
            if not np.max(np.abs(z)) < guard:
                raise WallBreachError(f"wall breach at record {rec}")
            f = wall_force_reference(z, params) + h
            p += half_dt * f
        b_rec[rec] = observable_B(z, p)
        drift = float(np.max(np.abs(hamiltonian(z, p, params, h) - e_ref)
                             / e_scale))
        if not drift <= energy_tol:
            raise EnergyDriftError("drift", drift, energy_tol)
        max_drift = max(max_drift, drift)
    return b_rec, max_drift


def simpson_integral(f, a, b, n=1 << 15):
    """Composite Simpson rule on n cells (n even)."""
    x = np.linspace(a, b, n + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def boltzmann_weight(z, params, tilt=0.0):
    """Inline wall weight exp(-beta V + beta tilt z), zero outside the box."""
    z = np.asarray(z, dtype=float)
    half = 0.5 * params.box_side
    u = z + half
    v = z - half
    inside = (u > 0) & (v < 0)
    us = np.where(inside, u, 1.0)
    vs = np.where(inside, v, -1.0)
    with np.errstate(over="ignore"):
        expo = -params.beta * (params.delta_wall * (us ** -12.0 + vs ** -12.0)
                               - tilt * z)
    return np.where(inside & (expo > -745.0), np.exp(np.maximum(expo, -745.0)), 0.0)


def rejection_sample_z(params, rng, n, tilt=0.0):
    """Exact sampler: uniform proposals accepted with the Boltzmann weight."""
    half = 0.5 * params.box_side
    out = np.empty(n)
    k = 0
    while k < n:
        m = max(4 * (n - k), 1000)
        zc = rng.uniform(-half, half, m)
        acc = zc[rng.random(m) < boltzmann_weight(zc, params, tilt)]
        take = min(acc.size, n - k)
        out[k:k + take] = acc[:take]
        k += take
    return out


def kolmogorov_sf(lam):
    """Asymptotic survival function of the Kolmogorov statistic."""
    if lam < 1e-8:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        total += 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
    return min(max(total, 0.0), 1.0)


def ks_two_sample_pvalue(x, y):
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / x.size
    cdf_y = np.searchsorted(y, grid, side="right") / y.size
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    ne = x.size * y.size / (x.size + y.size)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    return kolmogorov_sf(lam)


def regularized_gamma_p(a, x):
    """Lower regularized incomplete gamma P(a, x), series/continued fraction."""
    if a <= 0.0 or x < 0.0:
        raise ValueError("need a > 0 and x >= 0")
    if x == 0.0:
        return 0.0
    norm = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if x < a + 1.0:
        term = 1.0 / a
        total = term
        denom = a
        for _ in range(1000):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        return total * norm
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return 1.0 - norm * h


def chi2_sf(x, dof):
    return 1.0 - regularized_gamma_p(dof / 2.0, x / 2.0)


def quadrature_autocorr_n1(params, h, t_end, n_times, n_z=256, n_p=64,
                           dt=1e-4, drift_tol=1e-4, weight_cut=1e-30):
    """Single-particle autocorrelation from a deterministic weighted grid.

    Gauss-Legendre nodes in z weighted by the equilibrium density and
    Gauss-Hermite nodes in p replace the Monte-Carlo average over initial
    conditions; the flow itself is the same integrator.  Nodes whose weight
    is below `weight_cut` of the maximum sit deep in the wall layer, carry
    no measurable probability, and are dropped so they cannot dominate the
    step-size requirement.
    """
    from gasrelax.dynamics import IntegratorConfig
    from gasrelax.gibbs import build_marginal

    assert params.n_particles == 1
    marginal = build_marginal(params)
    x, wz = leggauss(n_z)
    z_nodes = 0.5 * params.box_side * x
    wz = wz * 0.5 * params.box_side * marginal.density(z_nodes)
    xp, wp = hermegauss(n_p)
    p_nodes = xp * math.sqrt(params.mass) / math.sqrt(params.beta)
    wp = wp / math.sqrt(2.0 * math.pi)
    z0 = np.repeat(z_nodes, n_p)
    p0 = np.tile(p_nodes, n_z)
    w = (wz[:, None] * wp[None, :]).ravel()
    keep = w >= weight_cut * w.max()
    z0, p0, w = z0[keep], p0[keep], w[keep]

    config = IntegratorConfig(dt=dt, t_end=t_end, energy_drift_tol=drift_tol)
    times, dt_run, spr = _records_grid(config, n_times)
    b_rec, _ = _evolve_batch(z0[:, None].copy(), p0[:, None].copy(), params, h,
                             dt_run, spr, n_times, drift_tol,
                             config.wall_guard)
    c = (b_rec * (w * p0)[None, :]).sum(axis=1) / w.sum()
    return times, c
