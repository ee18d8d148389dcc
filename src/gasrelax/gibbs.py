"""Equilibrium measures for the box model: sampling, norms, divergences.

The full phase-space measure factorizes over particles and over (z, p), so
everything here reduces to the one-dimensional wall marginal with density
proportional to exp(-beta V(z)) (or its field-tilted variant
exp(-beta V(z) + h beta z) for the perturbed measure) times independent
Gaussian momenta of variance m/beta.

Positions are drawn by inverse-CDF lookup from a tabulated marginal with a
monotone-cubic inverse; naive rejection would accept with probability
z_tilde / L, which degrades for strong walls and is kept only as a test
oracle.  The lookup is a guide-table (indexed) search: 2^16 equal cells of
u in [0, 1) each store the CDF bracket that covers the whole cell, so most
draws find their bracket with one gather.  Cells that a CDF knot splits
(about 2.6 % of them on the reference grid), and inputs outside [0, 1) or
NaN, fall back to a binary search.  The cubic is evaluated in fixed chunks
of 2^13 values, so its temporaries stay small instead of a dozen arrays the
size of the batch.  Every drawn value is bitwise what a binary search over
the whole batch gives.

Integrands that multiply the Gibbs weight by inverse powers of the wall
distance are evaluated in log space: the exponential kills the power in the
wall limit, but the power overflows first if formed naively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, _wall_potential_raw
from .numerics import _kronrod_panel, integrate_finite

__all__ = [
    "WallMarginal",
    "NormEstimate",
    "HoelderCertificate",
    "build_marginal",
    "sample_batch",
    "norm0_B_closed",
    "norm0_mc",
    "norm0_poisson_B_H0_quadrature",
    "mgf_z",
    "log_mgf_z",
    "gamma_h",
    "gamma_tilde_h",
    "hoelder_certificate",
]

# exp underflows to 0 below ~-745; anything smaller is identically zero mass
_LOG_FLOOR = -745.0

# cells of the inverse-CDF guide table over u in [0, 1); a power of two, so
# u * _GUIDE_CELLS is exact and its floor is the cell that holds u
_GUIDE_CELLS = 1 << 16
# values per inverse-CDF evaluation pass.  Its 64 KiB temporaries stay below
# glibc's 128 KiB mmap threshold, so they are reused from the heap; with 2^15
# values they were mmapped and page-faulted afresh, and a draw cost twice as
# much (33 against 17 ns per value on an AMD EPYC core)
_INVERSE_CDF_CHUNK = 1 << 13


def _log_weight(z, params: ModelParams, tilt: float = 0.0,
                pow_left: float = 0.0, pow_right: float = 0.0):
    """log of exp(-beta V(z) + beta*tilt*z) / (z+L/2)^pow_left / (L/2-z)^pow_right.

    Returns -inf outside the open box and wherever the wall factor has
    already crushed the weight to zero.
    """
    z = np.asarray(z, dtype=float)
    half = params.half_box
    u = z + half
    v = half - z
    inside = (u > 0.0) & (v > 0.0)
    us = np.where(inside, u, 1.0)
    vs = np.where(inside, v, 1.0)
    with np.errstate(over="ignore"):
        logw = -params.beta * (_wall_potential_raw(np.where(inside, z, 0.0),
                                                   half, params.delta_wall)
                               - tilt * z)
    if pow_left:
        logw = logw - pow_left * np.log(us)
    if pow_right:
        logw = logw - pow_right * np.log(vs)
    return np.where(inside, logw, -np.inf)


def _weight(z, params: ModelParams, tilt: float = 0.0,
            pow_left: float = 0.0, pow_right: float = 0.0):
    logw = _log_weight(z, params, tilt, pow_left, pow_right)
    return np.exp(np.maximum(logw, _LOG_FLOOR)) * (logw > _LOG_FLOOR)


def _wall_breakpoints(params: ModelParams) -> tuple:
    """Quadrature seed points around both wall layers.

    The weight switches on over the scale (beta*delta)^(1/12) next to each
    wall; panels must be anchored there or the adaptive rule never sees the
    layer.
    """
    half = params.half_box
    scale = (params.beta * params.delta_wall) ** (1.0 / 12.0)
    pts = []
    for s in (0.25, 1.0, 4.0, 16.0):
        w = s * scale
        if w < 2.0 * half:
            pts.extend((-half + w, half - w))
    return tuple(sorted(pts))


@dataclass(frozen=True)
class NormEstimate:
    """Monte-Carlo L2-norm estimate under rho0 or rho1."""

    value: float
    std_error: float
    n_samples: int
    which_measure: str = "rho0"

    def __post_init__(self):
        if self.value < 0.0 or self.std_error < 0.0:
            raise ValueError("norm estimates are nonnegative")


@dataclass
class WallMarginal:
    """Tabulated single-particle height marginal with its normalization.

    `z_tilde` is the partition integral of the (possibly tilted) weight over
    the box.  The CDF table, together with monotone-cubic inverse tangents,
    supports vectorized inverse-CDF draws.  `_guide` holds, for each of the
    _GUIDE_CELLS equal cells of u, the index of the CDF bracket containing
    the whole cell, or -1 when a knot lies inside the cell; one more -1
    entry at the end serves the inputs outside [0, 1) and NaN.
    """

    params: ModelParams
    tilt: float
    z_tilde: float
    cdf_values: np.ndarray
    # strictly increasing knots of the inverse map u -> z and its tangents
    _inv_u: np.ndarray = field(repr=False, default=None)
    _inv_z: np.ndarray = field(repr=False, default=None)
    _inv_m: np.ndarray = field(repr=False, default=None)
    _guide: np.ndarray = field(repr=False, default=None)

    @property
    def which_measure(self) -> str:
        return "rho1" if self.tilt != 0.0 else "rho0"

    def density(self, z):
        """Normalized marginal density at z (0 outside the box)."""
        return _weight(z, self.params, self.tilt) / self.z_tilde

    def inverse_cdf(self, u):
        """Monotone-cubic inverse of the tabulated CDF, for u in [0, 1).

        Evaluated in chunks of _INVERSE_CDF_CHUNK values written into one
        output array; a 0-d input gives a scalar.
        """
        u = np.asarray(u, dtype=float)
        out = np.empty(u.shape)
        flat_u = u.reshape(-1)
        flat_out = out.reshape(-1)
        for start in range(0, flat_u.size, _INVERSE_CDF_CHUNK):
            stop = start + _INVERSE_CDF_CHUNK
            flat_out[start:stop] = self._invert(flat_u[start:stop])
        return out if out.ndim else out[()]

    def _bracket(self, u):
        """Index k of the knot bracket [_inv_u[k], _inv_u[k+1]) of each u.

        Equal to clip(searchsorted(_inv_u, u, "right") - 1, 0, size - 2).
        """
        cell = np.floor(u * _GUIDE_CELLS)
        # u < 0 and NaN go to cell -1, u >= 1 to cell _GUIDE_CELLS: both
        # index the trailing -1 entry of the guide
        np.fmax(cell, -1.0, out=cell)
        np.fmin(cell, _GUIDE_CELLS, out=cell)
        idx = self._guide[cell.astype(np.intp)]
        miss = np.flatnonzero(idx < 0)
        if miss.size:
            idx[miss] = np.clip(
                np.searchsorted(self._inv_u, u[miss], side="right") - 1,
                0, self._inv_u.size - 2)
        return idx

    def _invert(self, u):
        idx = self._bracket(u)
        x0 = self._inv_u[idx]
        dx = self._inv_u[idx + 1] - x0
        t = (u - x0) / dx
        y0 = self._inv_z[idx]
        y1 = self._inv_z[idx + 1]
        m0 = self._inv_m[idx] * dx
        m1 = self._inv_m[idx + 1] * dx
        t2 = t * t
        t3 = t2 * t
        return ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + t) * m0
                + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * m1)


def _guide_table(inv_u: np.ndarray) -> np.ndarray:
    """Bracket index per cell of u, -1 where a knot splits the cell.

    Cell j holds u in [j, j+1) / _GUIDE_CELLS.  When no knot lies in
    (j, j+1] / _GUIDE_CELLS, every u of the cell has the bracket of the
    cell's left edge.  The table ends with one extra -1 entry.
    """
    edges = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS
    below = np.searchsorted(inv_u, edges, side="right")
    guide = np.full(_GUIDE_CELLS + 1, -1, dtype=np.intp)
    whole = below[1:] == below[:-1]
    guide[:-1][whole] = np.clip(below[:-1][whole] - 1, 0, inv_u.size - 2)
    return guide


def _monotone_tangents(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Fritsch-Carlson limiter: keeps the cubic interpolant monotone.
    dx = np.diff(x)
    secants = np.diff(y) / dx
    m = np.empty_like(y)
    m[0] = secants[0]
    m[-1] = secants[-1]
    m[1:-1] = 0.5 * (secants[:-1] + secants[1:])
    for k in range(secants.size):
        if secants[k] == 0.0:
            m[k] = m[k + 1] = 0.0
    alpha = np.zeros_like(secants)
    beta_ = np.zeros_like(secants)
    nz = secants != 0.0
    alpha[nz] = m[:-1][nz] / secants[nz]
    beta_[nz] = m[1:][nz] / secants[nz]
    r = np.hypot(alpha, beta_)
    scale = np.where(r > 3.0, 3.0 / np.where(r > 0, r, 1.0), 1.0)
    m[:-1] = m[:-1] * scale
    m[1:] = m[1:] * np.where(r > 3.0, scale, 1.0)
    return m


def build_marginal(params: ModelParams, grid_size: int = 2048,
                   tilted: bool = False) -> WallMarginal:
    """Construct the tabulated wall marginal.

    Parameters
    ----------
    params : ModelParams
    grid_size : number of CDF table cells (>= 64).
    tilted : build the field-tilted density exp(-beta V + h beta z) instead
        of the unperturbed one.  Requires params.field for the tilt.

    The normalization is computed by adaptive quadrature; the CDF table by a
    fixed Kronrod pass per cell, then normalized so the endpoints are exactly
    0 and 1.
    """
    if grid_size < 64:
        raise ValueError("grid_size must be >= 64")
    tilt = params.field if tilted else 0.0
    half = params.half_box

    def w(z):
        return _weight(z, params, tilt)

    z_tilde = integrate_finite(w, -half, half, rel_tol=1e-10,
                               breakpoints=_wall_breakpoints(params)).value
    nodes = np.linspace(-half, half, grid_size + 1)
    masses = np.empty(grid_size)
    for k in range(grid_size):
        masses[k], _ = _kronrod_panel(w, nodes[k], nodes[k + 1])
    cdf = np.concatenate(([0.0], np.cumsum(masses)))
    total = cdf[-1]
    cdf /= total
    cdf[-1] = 1.0

    keep = np.concatenate(([True], np.diff(cdf) > 0.0))
    inv_u = cdf[keep]
    inv_z = nodes[keep]
    if inv_u.size < 2:
        raise ValueError("degenerate marginal: density has no support on the grid")
    inv_m = _monotone_tangents(inv_u, inv_z)

    return WallMarginal(params=params, tilt=tilt, z_tilde=z_tilde,
                        cdf_values=cdf, _inv_u=inv_u, _inv_z=inv_z,
                        _inv_m=inv_m, _guide=_guide_table(inv_u))


def sample_batch(marginal: WallMarginal, rng: np.random.Generator,
                 n_states: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw (Z, P) arrays of shape (n_states, N): iid particles, Gaussian p.

    The momenta have variance m / beta, from the factor exp(-beta p^2 / 2m).
    """
    params = marginal.params
    n = params.n_particles
    z = marginal.inverse_cdf(rng.random((n_states, n)))
    p = rng.normal(0.0, math.sqrt(params.mass) / math.sqrt(params.beta),
                   (n_states, n))
    return z, p


def norm0_B_closed(params: ModelParams) -> float:
    """Closed form sqrt(2 N / beta) for the momentum-sum norm, as specified.

    Its square 2N/beta is twice E_rho0[B^2] = N m / beta, the value that the
    Gaussian momenta give exactly (and that the sampled C(0) reproduces).
    The eta checks, eta_empirical and the bound curve are built on this
    constant, which is why `simulate` reports curve_check = False on the
    reference configuration.
    """
    return math.sqrt(2.0 * params.n_particles / params.beta)


def norm0_mc(f, marginal: WallMarginal, n_samples: int,
             rng: np.random.Generator) -> NormEstimate:
    """Monte-Carlo L2 norm sqrt(E[f^2]) with a delta-method standard error.

    f maps the sampled (Z, P) arrays of shape (n_samples, N) to one value per
    row.  Sampling follows the marginal's measure (rho0, or rho1 when the
    marginal is tilted).
    """
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    z, p = sample_batch(marginal, rng, n_samples)
    values = np.asarray(f(z, p), dtype=float)
    if values.shape != (n_samples,):
        raise ValueError("observable must return one value per sampled state")
    sq = values * values
    if not np.all(np.isfinite(sq)):
        raise ValueError("observable returned a non-finite value")
    mean_sq = float(np.mean(sq))
    var_sq = float(np.var(sq, ddof=1)) if n_samples > 1 else 0.0
    value = math.sqrt(max(mean_sq, 0.0))
    sem_sq = math.sqrt(var_sq / n_samples)
    std_error = sem_sq / (2.0 * value) if value > 0.0 else math.sqrt(sem_sq)
    return NormEstimate(value=value, std_error=std_error,
                        n_samples=n_samples, which_measure=marginal.which_measure)


def norm0_poisson_B_H0_quadrature(params: ModelParams) -> float:
    """Quadrature value of the rho0 norm of [B, H0].

    Cross terms between distinct particles vanish (odd factors against an
    even density), leaving N copies of the single-particle integral.  Its
    three pieces (two identical wall terms and a negative cross term) are
    integrated in log space.
    """
    half = params.half_box
    pts = _wall_breakpoints(params)
    z_tilde = integrate_finite(lambda z: _weight(z, params), -half, half,
                               rel_tol=1e-10, breakpoints=pts).value

    def term(pl, pr):
        return integrate_finite(
            lambda z: _weight(z, params, pow_left=pl, pow_right=pr),
            -half, half, rel_tol=1e-10, breakpoints=pts).value

    # s(z)^2 = u^-26 + v^-26 - 2 u^-13 |v|^-13 with u = z+L/2, v = L/2-z
    single = 2.0 * term(26.0, 0.0) - 2.0 * term(13.0, 13.0)
    per_particle = 144.0 * params.delta_wall ** 2 * single / z_tilde
    return math.sqrt(params.n_particles * per_particle)


def _centered_mgf(t: float, marginal: WallMarginal) -> float:
    """E[exp(t z)] - 1 under the wall marginal, computed without cancellation."""
    if marginal.tilt != 0.0:
        raise ValueError("MGF-based divergences are defined against rho0; "
                         "pass an untilted marginal")
    params = marginal.params
    half = params.half_box

    def g(z):
        return np.expm1(t * z) * _weight(z, params)

    res = integrate_finite(g, -half, half, rel_tol=1e-10, abs_floor=1e-16,
                           breakpoints=_wall_breakpoints(params))
    return res.value / marginal.z_tilde


def mgf_z(t: float, marginal: WallMarginal) -> float:
    """Moment generating function E[exp(t z)] of the single-particle height."""
    return 1.0 + _centered_mgf(t, marginal)


def log_mgf_z(t: float, marginal: WallMarginal) -> float:
    return math.log1p(_centered_mgf(t, marginal))


def gamma_h(params: ModelParams, marginal: WallMarginal,
            h: float | None = None) -> float:
    """Chi-square divergence of the tilted measure from rho0.

    Equals (M(2 h beta) / M(h beta)^2)^N - 1 by particle independence;
    nonnegative, and vanishing as h -> 0.
    """
    hh = params.field if h is None else float(h)
    t = hh * params.beta
    expo = params.n_particles * (log_mgf_z(2.0 * t, marginal)
                                 - 2.0 * log_mgf_z(t, marginal))
    return math.expm1(expo)


def gamma_tilde_h(params: ModelParams, marginal: WallMarginal,
                  h: float | None = None) -> float:
    """Reverse-direction divergence (M(h beta) M(-h beta))^N - 1."""
    hh = params.field if h is None else float(h)
    t = hh * params.beta
    expo = params.n_particles * (log_mgf_z(t, marginal)
                                 + log_mgf_z(-t, marginal))
    return math.expm1(expo)


@dataclass(frozen=True)
class HoelderCertificate:
    """Record of the interpolation bound 1 + gamma(h) <= K^(4 beta h / delta).

    `h_threshold` is the explicit field size below which gamma(h) < epsilon
    is guaranteed; `ok` requires the bound to hold and, whenever h is below
    the threshold, the epsilon claim too.
    """

    h: float
    delta_moment: float
    epsilon: float
    k: float
    log_k: float
    hoelder_bound: float
    gamma: float
    gamma_tilde: float
    bound_holds: bool
    h_threshold: float
    h_below_threshold: bool
    gamma_below_epsilon: bool

    @property
    def ok(self) -> bool:
        return self.bound_holds and (not self.h_below_threshold
                                     or self.gamma_below_epsilon)


def hoelder_certificate(params: ModelParams, marginal: WallMarginal,
                        delta_moment: float, h: float | None = None,
                        epsilon: float = 0.01) -> HoelderCertificate:
    """Evaluate both sides of the small-field certificate at field size h.

    Requires h < delta_moment / (2 beta) so the interpolation step applies.
    """
    hh = params.field if h is None else float(h)
    if not delta_moment > 0.0:
        raise ValueError("delta_moment must be positive")
    if not hh < delta_moment / (2.0 * params.beta):
        raise ValueError("need h < delta_moment / (2 beta)")
    log_k = params.n_particles * max(log_mgf_z(delta_moment, marginal),
                                     log_mgf_z(-delta_moment, marginal))
    log_bound = 4.0 * params.beta * hh / delta_moment * log_k
    gamma = gamma_h(params, marginal, hh)
    gtilde = gamma_tilde_h(params, marginal, hh)
    # tiny relative slack: both sides come from quadrature
    bound_holds = math.log1p(gamma) <= log_bound + 1e-12
    if log_k > 0.0:
        h_threshold = min(delta_moment / (2.0 * params.beta),
                          delta_moment * math.log1p(epsilon)
                          / (4.0 * params.beta * log_k))
    else:
        h_threshold = delta_moment / (2.0 * params.beta)
    below = hh < h_threshold
    return HoelderCertificate(
        h=hh, delta_moment=delta_moment, epsilon=epsilon,
        k=math.exp(log_k), log_k=log_k, hoelder_bound=math.exp(log_bound),
        gamma=gamma, gamma_tilde=gtilde, bound_holds=bound_holds,
        h_threshold=h_threshold, h_below_threshold=below,
        gamma_below_epsilon=gamma < epsilon)
