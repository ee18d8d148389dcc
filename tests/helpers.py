"""Independent oracles and statistics shared by the test modules.

Everything here deliberately avoids the code paths it is used to check:
finite differences instead of closed-form derivatives, composite Simpson
instead of the adaptive rule, rejection sampling instead of inverse-CDF
lookup, and a deterministic initial-condition grid instead of Monte Carlo,
with the hard-wall closed form of the single-particle C(t) beside it.
The allocating NumPy forms of the inverse CDF and its guide table, the wall
potential and force, the bracket [B, H0], H1 and the Verlet loop, the
per-panel Kronrod loop (its weighted sums in exact arithmetic, rounded once
per fused multiply-add), the NumPy state draw (uniforms on the open
interval and Generator normals), the whole-batch Monte-Carlo norm and the
blocked norm of any observable are kept here as the references that the C
kernels, the kernel's guide table, the row-chunked bracket, the batched
Kronrod pass, the kernel's state draw and the sampled norms must match bit
for bit; the Philox rounds run backwards plant a 0.0 in the kernel's
stream.
Observables that only tests evaluate (the height sum A, its flow
derivative B, the moment generating function of z, and H1 outside the
trajectory kernel, which records it, and the normalized density of a wall
marginal) live here too.
"""

import ctypes
import math
import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

from gasrelax import _kernel
from gasrelax.dynamics import (EnergyDriftError, WallBreachError,
                               _evolve_batch, _records_grid)
from gasrelax.gibbs import (NormEstimate, _centered_mgf, _monotone_tangents,
                            _weight)
from gasrelax.numerics import (_WG, _WGK, _XGK, QuadratureError,
                               integrate_finite)


def density(marginal, z):
    """Normalized density of a wall marginal at z (0 outside the box)."""
    return _weight(z, marginal.params, marginal.tilt) / marginal.z_tilde


def norm0_B_sq_exact(params):
    """Exact rho0 norm ||B||_0^2 = E_rho0[B^2] = N / beta of the momentum sum.

    Under rho0 the momenta are independent of the heights and of each other,
    each Gaussian with mean 0 and variance 1 / beta (the Boltzmann factor of
    the kinetic term p^2 / 2, the particle mass being the unit).  B = sum_j
    p_j is then Gaussian with mean 0, so E[B^2] = Var(B) = sum_j Var(p_j)
    = N / beta.
    """
    return params.n_particles / params.beta


def observable_A(z, p):
    """Height sum, the observable conjugate to the uniform field (B's integral)."""
    return np.sum(z, axis=-1)


def observable_B(z, p):
    """Vertical momentum sum: the flow derivative of the height sum."""
    return np.sum(p, axis=-1)


def mgf_z(t, marginal):
    """Moment generating function E[exp(t z)] of the single-particle height."""
    return 1.0 + _centered_mgf(t, marginal)


def gaussian_moment(n, beta):
    """E[p^n] under the density proportional to exp(-beta p^2 / 2).

    Even n: (n-1)!! * beta^(-n/2).  Odd moments vanish by symmetry.
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
    _evolve_batch(z, p, replace(params, field=h), dt, 1, n_steps + 1, 1.0,
                  0.999)
    return z, p


def inverse_cdf_searchsorted(marginal, u):
    """Monotone-cubic inverse CDF with a binary search over every knot.

    The NumPy bracket lookup and cubic of WallMarginal.inverse_cdf before
    its guide table and its C kernel, on the whole batch at once.
    """
    u = np.asarray(u, dtype=float)
    inv_u, inv_z, inv_m = marginal._table
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


def traced_peak(call):
    """(call(), the peak of the allocations tracemalloc sees while it runs)."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def guide_cells():
    """Cells of the kernel's inverse-CDF guide, as built."""
    return ctypes.c_ssize_t.in_dll(_kernel.library(), "guide_cells").value


def block():
    """Values per block of the kernel's row loops and inverse-CDF passes,
    as built."""
    return ctypes.c_ssize_t.in_dll(_kernel.library(), "block").value


def child_env(**extra):
    """os.environ, with extra, for a child that imports gasrelax and tests/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(_kernel.__file__).parents[1]), str(Path(__file__).parent),
         os.environ.get("PYTHONPATH", "")]), **extra)


def guide_table_one_shot(inv_u):
    """The guide table of the knots inv_u, searched for every cell edge at
    once with NumPy: what the kernel's guide_table builds in one merge
    pass."""
    cells = guide_cells()
    edges = np.arange(cells) / cells
    return np.clip(np.searchsorted(inv_u, edges, side="right") - 1,
                   0, inv_u.size - 2)


def open_uniforms(rng, shape):
    """Uniform draws on the open interval (0, 1): the next values of
    rng.random that are not 0.0, in order.

    inverse_cdf(0.0) is the wall itself, so an exact 0.0 (probability 2^-53
    per draw) is dropped, and fresh draws are appended until none is left.
    Without a zero, the draws are those of rng.random(shape).
    """
    size = math.prod(shape)
    u = rng.random(size)
    while not u.all():
        u = u[u != 0.0]
        u = np.concatenate((u, rng.random(size - u.size)))
    return u.reshape(shape)


def sample_batch_reference(marginal, rng, n_states):
    """The states of gibbs._states drawn by the NumPy Generator rng, as they
    were before the kernel drew them: the inverse CDF of open_uniforms, then
    rng.normal momenta of variance 1 / beta.  _states on rng's state, packed
    into the kernel's words, gives the same bits and leaves the words where
    this leaves rng."""
    params = marginal.params
    u = open_uniforms(rng, (n_states, params.n_particles))
    z = marginal.inverse_cdf(u)
    p = rng.normal(0.0, 1.0 / math.sqrt(params.beta),
                   (n_states, params.n_particles))
    return z, p


def norm0_mc_one_batch(f, marginal, n_samples, rng):
    """norm0_mc drawn, inverted and evaluated as one whole batch.

    All n_samples * N height uniforms come from rng, then all the momenta;
    the NumPy inverse CDF gives the heights, and f sees every state at once.
    The uniforms must hold no exact 0.0.
    """
    params = marginal.params
    u = rng.random((n_samples, params.n_particles))
    assert u.min() > 0.0
    z = inverse_cdf_searchsorted(marginal, u)
    p = rng.normal(0.0, 1.0 / math.sqrt(params.beta), u.shape)
    sq = np.asarray(f(z, p), dtype=float) ** 2
    return NormEstimate.from_moments(float(np.mean(sq)),
                                     float(np.var(sq, ddof=1)), n_samples,
                                     marginal.which_measure)


# values per block of norm0_mc_blocks
_MC_BLOCK = 1 << 16


def norm0_mc_blocks(f, marginal, n_samples, rng):
    """The Monte-Carlo norm sqrt(E[f^2]) of heights drawn from rng a block of
    _MC_BLOCK values at a time: gibbs.norm0_mc before the kernel drew,
    inverted and summed them itself, for any observable f of the (rows, N)
    heights.  An exact 0.0 uniform is dropped (see open_uniforms)."""
    n = marginal.params.n_particles
    values = np.empty(n_samples)
    step = max(1, _MC_BLOCK // n)
    for start in range(0, n_samples, step):
        rows = min(step, n_samples - start)
        u = open_uniforms(rng, (rows, n))
        block = np.asarray(f(marginal.inverse_cdf(u)), dtype=float)
        assert block.shape == (rows,)
        values[start:start + rows] = block
    return NormEstimate.from_values(values, marginal.which_measure)


_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK64 = (1 << 64) - 1


def philox_counter_with_zeros(key, indices):
    """A start counter of NumPy's Philox(key=key) whose stream values at
    `indices`, which lie in one block of 4, are the double 0.0.

    A Philox round maps (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
    hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)); the multipliers are odd, so it is
    undone by multiplying the low words by their inverses mod 2^64.  The ten
    rounds are run backwards from a block whose planted words are 5 < 2^11,
    and the counter is moved back by that block's index plus one, the
    counter being raised before each block is made.
    """
    blocks = {i // 4 for i in indices}
    assert len(blocks) == 1
    k0, k1 = (int(w) for w in key)
    inv0, inv1 = (pow(m, -1, 1 << 64) for m in _PHILOX_M)
    c = [0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x0F1E2D3C4B5A6978,
         0x8796A5B4C3D2E1F0]
    for i in indices:
        c[i % 4] = 5
    for r in reversed(range(10)):
        kr0 = (k0 + r * _PHILOX_W[0]) & _MASK64
        kr1 = (k1 + r * _PHILOX_W[1]) & _MASK64
        a2 = (c[1] * inv1) & _MASK64
        a0 = (c[3] * inv0) & _MASK64
        a1 = c[0] ^ ((_PHILOX_M[1] * a2) >> 64) ^ kr0
        a3 = c[2] ^ ((_PHILOX_M[0] * a0) >> 64) ^ kr1
        c = [a0, a1, a2, a3]
    block = sum(w << (64 * i) for i, w in enumerate(c))
    return (block - blocks.pop() - 1) % (1 << 256)


def kernel_force_sums(marginal, state, rows):
    """[B, H0] of each of `rows` states that the kernel draws, as norm0_mc
    does, from the Philox state (rng.philox_state), which it leaves past
    them: norm0_mc's kernel call on a state that the caller keeps."""
    params = marginal.params
    out = np.empty(rows)
    scratch = np.empty(params.n_particles)
    outside = _kernel.library().sampled_force_sums(
        state.ctypes.data, out.ctypes.data, rows, params.n_particles,
        scratch.ctypes.data, params.half_box, params.delta_wall,
        *marginal._kernel_tables())
    assert outside == 0
    return out


def kernel_state(rng):
    """The kernel's 11 words (rng.philox_state) of the Philox Generator
    rng: key, counter, buffer and buffer position."""
    st = rng.bit_generator.state
    return np.array([*st["state"]["key"], *st["state"]["counter"],
                     *st["buffer"], st["buffer_pos"]], dtype=np.uint64)


def _recip_pow12(u):
    u2 = u * u
    u4 = u2 * u2
    return 1.0 / (u4 * u4 * u4)


def wall_potential_reference(z, params):
    """delta [(z+L/2)^-12 + (z-L/2)^-12] as one allocating expression."""
    half = params.half_box
    with np.errstate(over="ignore"):
        return params.delta_wall * (_recip_pow12(z + half)
                                    + _recip_pow12(z - half))


def hamiltonian_reference(z, p, params, h=0.0):
    """H1 per row with the NumPy potential and allocating passes."""
    v = wall_potential_reference(z, params)
    return 0.5 * np.sum(p * p, axis=-1) + np.sum(v, axis=-1) \
        - h * np.sum(z, axis=-1)


def weight_reference(z, params, tilt=0.0):
    """gibbs._weight (no wall-distance powers) with the NumPy potential."""
    z = np.asarray(z, dtype=float)
    half = params.half_box
    inside = (z + half > 0.0) & (half - z > 0.0)
    with np.errstate(over="ignore"):
        logw = -params.beta * (wall_potential_reference(
            np.where(inside, z, 0.0), params) - tilt * z)
    logw = np.where(inside, logw, -np.inf)
    return np.exp(np.maximum(logw, -745.0)) * (logw > -745.0)


def kronrod_panel(f, a, b):
    """One K15/G7 pass over [a, b], one call of f: (k15, |k15 - g7|)."""
    center = 0.5 * (a + b)
    halfw = 0.5 * (b - a)
    nodes = np.concatenate((center - halfw * _XGK[:7],
                            [center],
                            center + halfw * _XGK[6::-1]))
    fv = np.asarray(f(nodes), dtype=float)
    if not np.all(np.isfinite(fv)):
        raise QuadratureError(
            f"non-finite integrand value on panel [{a!r}, {b!r}]")
    pairs = fv[:7] + fv[14:7:-1]
    fc = fv[7]
    k15 = halfw * (fma_sum(_WGK[:7], pairs) + _WGK[7] * fc)
    g7 = halfw * (fma_sum(_WG[:3], pairs[1::2]) + _WG[3] * fc)
    return k15, abs(k15 - g7)


def fma_sum(weights, values):
    """The forward chain of fused multiply-adds of weights[j] * values[j]
    from +0.0, each rounded once from its exact rational value: np.dot of a
    short row under OpenBLAS's AVX-512 ddot, on any CPU."""
    acc = 0.0
    for w, v in zip(weights, values):
        acc = float(Fraction(w) * Fraction(v) + Fraction(acc))
    return acc


def kronrod_panels_loop(f, a, b):
    """numerics._kronrod_panels as a loop of one-panel passes."""
    done = [kronrod_panel(f, float(pa), float(pb)) for pa, pb in zip(a, b)]
    return (np.array([k15 for k15, _ in done]),
            np.array([err for _, err in done]))


def kronrod_masses_loop(params, grid_size=2048, tilted=False):
    """The cell masses of build_marginal, one Kronrod pass per cell.

    The weight is weight_reference, so the NumPy potential is checked too.
    """
    tilt = params.field if tilted else 0.0
    half = params.half_box
    nodes = np.linspace(-half, half, grid_size + 1)
    masses, _ = kronrod_panels_loop(
        lambda z: weight_reference(z, params, tilt), nodes[:-1], nodes[1:])
    return masses


def cdf_reference(params, grid_size=2048, tilted=False):
    """The normalized CDF at every grid node, from kronrod_masses_loop."""
    cdf = np.concatenate(([0.0], np.cumsum(
        kronrod_masses_loop(params, grid_size, tilted))))
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return cdf


def inverse_table_reference(params, grid_size=2048, tilted=False):
    """(inv_u, inv_z, inv_m) of build_marginal from kronrod_masses_loop."""
    half = params.half_box
    nodes = np.linspace(-half, half, grid_size + 1)
    cdf = cdf_reference(params, grid_size, tilted)
    keep = np.concatenate(([True], np.diff(cdf) > 0.0))
    return cdf[keep], nodes[keep], _monotone_tangents(cdf[keep], nodes[keep])


def cdf_values(marginal, grid_size=2048):
    """The normalized CDF at every node of the marginal's grid.

    build_marginal keeps only the nodes where the CDF increases; a dropped
    node has the CDF value of the last kept node before it.
    """
    half = marginal.params.half_box
    nodes = np.linspace(-half, half, grid_size + 1)
    inv_u, inv_z, _ = marginal._table
    kept = np.searchsorted(inv_z, nodes, side="right") - 1
    return inv_u[kept]


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


def poisson_B_H0_reference(z, params):
    """[B, H0] per row from one force array over the whole batch."""
    return np.sum(wall_force_reference(z, params), axis=-1)


def evolve_batch_reference(z, p, params, dt, steps_per_record, n_records,
                           energy_tol, wall_guard):
    """The allocating velocity-Verlet loop that _evolve_batch must match.

    Same contract as _evolve_batch: evolves z, p in place under H1 with the
    field of params and returns (B records, max relative H1 drift).
    """
    h = params.field
    half = params.half_box
    guard = wall_guard * half
    half_dt = 0.5 * dt

    b_rec = np.empty((n_records, z.shape[0]))
    b_rec[0] = observable_B(z, p)
    e_ref = hamiltonian_reference(z, p, params, h)
    e_scale = np.maximum(np.abs(e_ref), 1e-30)
    max_drift = 0.0

    f = wall_force_reference(z, params) + h
    for rec in range(1, n_records):
        for _ in range(steps_per_record):
            p += half_dt * f
            z += dt * p
            if not np.max(np.abs(z)) < guard:
                raise WallBreachError(
                    f"particle beyond {wall_guard:g} of the half-box at "
                    f"record {rec}; reduce dt")
            f = wall_force_reference(z, params) + h
            p += half_dt * f
        b_rec[rec] = observable_B(z, p)
        drift = float(np.max(np.abs(hamiltonian_reference(z, p, params, h)
                                    - e_ref) / e_scale))
        if not drift <= energy_tol:
            raise EnergyDriftError(
                f"relative H1 drift {drift:.3e} exceeds tolerance "
                f"{energy_tol:.3e} at t={rec * steps_per_record * dt:.6g}",
                drift, energy_tol)
        max_drift = max(max_drift, drift)
    return b_rec, max_drift


def kernel_records(z, p, params, h, dt, steps_per_record, n_records,
                   wall_guard=0.999, drift=None):
    """One call of the C kernel verlet_records on copies of the (rows, N) z, p.

    Returns (first breach record, B records, H1 records, final z, final p);
    record rows at or past the breach are NaN rather than unwritten.  The
    kernel's per-record drift goes to drift, an array of n_records values,
    when it is given.
    """
    z = np.array(z, dtype=float, order="C", ndmin=2)
    p = np.array(p, dtype=float, order="C", ndmin=2)
    rows, n = z.shape
    b = np.full((n_records, rows), np.nan)
    e = np.full((n_records, rows), np.nan)
    if drift is None:
        drift = np.empty(n_records)
    assert drift.shape == (n_records,) and drift.dtype == np.float64
    scratch = np.empty(3 * n)
    end = _kernel.library().verlet_records(
        z.ctypes.data, p.ctypes.data, None, 0.0, None, None, 0, rows, n,
        scratch.ctypes.data, n_records, steps_per_record, dt, params.half_box,
        params.delta_wall, h, wall_guard, b.ctypes.data, e.ctypes.data,
        drift.ctypes.data)
    return end, b, e, z, p


def kernel_sampled_records(marginal, state, rows, dt, steps_per_record,
                           n_records, wall_guard=0.999):
    """One call of the C kernel verlet_records that draws its `rows` states
    from the Philox state (rng.philox_state), leaving it past their
    heights, and evolves them under the field of marginal.params.

    Returns (first breach record, B records, H1 records, per-record drift);
    record rows at or past the breach are NaN rather than unwritten.
    """
    params = marginal.params
    n = params.n_particles
    b = np.full((n_records, rows), np.nan)
    e = np.full((n_records, rows), np.nan)
    drift = np.empty(n_records)
    scratch = np.empty(3 * n)
    end = _kernel.library().verlet_records(
        None, None, state.ctypes.data, params.beta,
        *marginal._kernel_tables(), rows, n, scratch.ctypes.data, n_records,
        steps_per_record, dt, params.half_box, params.delta_wall,
        params.field, wall_guard, b.ctypes.data, e.ctypes.data,
        drift.ctypes.data)
    return end, b, e, drift


def monitor_drift(e, end):
    """The drift monitor's NumPy arithmetic on H1 records e: each record's
    largest relative drift |e_r - e_0| / max(|e_0|, tiny) over the rows,
    for the records 1 .. end - 1."""
    e_scale = np.maximum(np.abs(e[0]), np.finfo(float).tiny)
    later = np.abs(e[1:end] - e[0])
    later /= e_scale
    return np.max(later, axis=1)


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


def quadrature_autocorr_n1(params, h, t_end, n_times, n_z=64, n_p=256,
                           dt=2.5e-4, drift_tol=1e-4, weight_cut=1e-30):
    """Single-particle autocorrelation from a deterministic weighted grid.

    Gauss-Legendre nodes in z weighted by the equilibrium density and a
    uniform midpoint grid over |p| <= 7 sigma weighted by the Gaussian
    replace the Monte-Carlo average over initial conditions; the flow
    itself is the same integrator.  Nodes whose weight is below
    `weight_cut` of the maximum sit deep in the wall layer, carry no
    measurable probability, and are dropped so they cannot dominate the
    step-size requirement.

    At beta = delta = 1, h = 1e-3 and L = 10 (20) the defaults put the
    first zero t* of C within 5e-5 of the orbit-by-orbit quadrature's
    2.59560 (5.75079).
    """
    from gasrelax.dynamics import IntegratorConfig
    from gasrelax.gibbs import build_marginal

    assert params.n_particles == 1
    marginal = build_marginal(params)
    x, wz = leggauss(n_z)
    z_nodes = 0.5 * params.box_side * x
    wz = wz * 0.5 * params.box_side * density(marginal, z_nodes)
    sigma = 1.0 / math.sqrt(params.beta)
    p_nodes = sigma * 7.0 * ((2.0 * np.arange(n_p) + 1.0) / n_p - 1.0)
    wp = np.exp(-0.5 * (p_nodes / sigma) ** 2)
    z0 = np.repeat(z_nodes, n_p)
    p0 = np.tile(p_nodes, n_z)
    w = (wz[:, None] * wp[None, :]).ravel()
    keep = w >= weight_cut * w.max()
    z0, p0, w = z0[keep], p0[keep], w[keep]

    config = IntegratorConfig(dt=dt, t_end=t_end, energy_drift_tol=drift_tol)
    times, dt_run, spr = _records_grid(config.dt, config.t_end, n_times)
    b_rec, _ = _evolve_batch(z0[:, None].copy(), p0[:, None].copy(),
                             replace(params, field=h), dt_run, spr, n_times,
                             drift_tol, config.wall_guard)
    c = (b_rec * (w * p0)[None, :]).sum(axis=1) / w.sum()
    return times, c


def c1_hard_wall(t, l_eff, beta, n_p=100_001):
    """Single-particle C(t) = E[p(t) p(0)] in a hard box of length l_eff.

    A free particle between hard walls keeps |p|; its p(t) p(0), averaged
    over its uniform position, is p^2 R(|p| t / l_eff) with the triangle
    wave R(x) = 1 - 4 dist(x / 2, Z).  The average over p ~ N(0, 1 / beta)
    is the trapezoid rule on n_p nodes over 0 <= p <= 12 sigma, doubled.
    """
    sigma = math.sqrt(1.0 / beta)
    p = np.linspace(0.0, 12.0 * sigma, n_p)
    half = 0.5 * p * t / l_eff
    f = p * p * (1.0 - 4.0 * np.abs(half - np.round(half))) \
        * np.exp(-0.5 * (p / sigma) ** 2)
    trapezoid = (p[1] - p[0]) * (f.sum() - 0.5 * (f[0] + f[-1]))
    return 2.0 * trapezoid / (math.sqrt(2.0 * math.pi) * sigma)


def first_zero(f, a, b, rounds=60):
    """The zero of f in [a, b], where f(a) >= 0 > f(b), by bisection."""
    assert f(a) >= 0.0 > f(b)
    for _ in range(rounds):
        mid = 0.5 * (a + b)
        if f(mid) >= 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def first_zero_of_records(times, c):
    """The first zero of a smooth curve sampled at uniform record times:
    the cubic through the four records around its first sign change, from
    >= 0 to < 0, solved by bisection between the middle two."""
    k = int(np.flatnonzero((c[:-1] >= 0.0) & (c[1:] < 0.0))[0])
    assert 1 <= k <= len(c) - 3
    cubic = np.polynomial.Polynomial.fit(times[k - 1:k + 3], c[k - 1:k + 3], 3)
    return first_zero(cubic, times[k], times[k + 1])
