"""Equilibrium measures for the box model: sampling, norms, divergences.

The full phase-space measure factorizes over particles and over (z, p), so
everything here reduces to the one-dimensional wall marginal with density
proportional to exp(-beta V(z)) (or its field-tilted variant
exp(-beta V(z) + h beta z) for the perturbed measure) times independent
Gaussian momenta of variance m/beta.

Positions are drawn by inverse-CDF lookup from a tabulated marginal with a
monotone-cubic inverse; naive rejection would accept with probability
z_tilde / L, which degrades for strong walls and is kept only as a test
oracle.  The lookup runs in the C kernel (`_verlet.c`) and is a guide-table
(indexed) search: 2^16 equal cells of u in [0, 1) each store the CDF
bracket of their left edge, so a draw finds its bracket with one gather and
a step past each knot that lies in its cell (about 2.6 % of the cells on the
reference grid hold one); a u below 0 or NaN starts from the first cell,
and one of 1 or more from the last.  The kernel works through the values in
chunks of a few hundred, so it needs no temporaries beyond the stack, and it
may write over its input.  Every drawn value is bitwise what a binary search
over the whole batch and the NumPy cubic give.

A heights-only Monte-Carlo norm draws, inverts and evaluates its states one
block of _MC_BLOCK values at a time, so it holds no array of all the sampled
heights.

Integrands that multiply the Gibbs weight by inverse powers of the wall
distance are evaluated in log space: the exponential kills the power in the
wall limit, but the power overflows first if formed naively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .model import ModelParams, wall_potential
from .numerics import _kronrod_panels, integrate_finite

__all__ = [
    "WallMarginal",
    "NormEstimate",
    "HoelderCertificate",
    "build_marginal",
    "sample_batch",
    "norm0_B_closed",
    "norm0_mc",
    "norm0_poisson_B_H0_quadrature",
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

# heights per block of a heights-only norm0_mc: 1024 rows of 64 particles,
# 512 KiB, which stay in L2 from the draw to the observable
_MC_BLOCK = 1 << 16


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
    pot = wall_potential(np.where(inside, z, 0.0), params)
    with np.errstate(over="ignore"):
        logw = -params.beta * (pot - tilt * z)
    if pow_left:
        logw = logw - pow_left * np.log(us)
    if pow_right:
        logw = logw - pow_right * np.log(vs)
    return np.where(inside, logw, -np.inf)


def _weight(z, params: ModelParams, tilt: float = 0.0,
            pow_left: float = 0.0, pow_right: float = 0.0):
    logw = _log_weight(z, params, tilt, pow_left, pow_right)
    # a weight past the float range is a FloatingPointError, which the CLI
    # reports as parameters out of numeric range
    with np.errstate(over="raise"):
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

    @classmethod
    def from_moments(cls, mean_sq: float, var_sq: float, n_samples: int,
                     which_measure: str) -> NormEstimate:
        """sqrt(E[f^2]) and its delta-method standard error, from the sample
        mean and variance of f^2 over n_samples draws."""
        value = math.sqrt(max(mean_sq, 0.0))
        sem_sq = math.sqrt(var_sq / n_samples)
        std_error = sem_sq / (2.0 * value) if value > 0.0 else math.sqrt(sem_sq)
        return cls(value, std_error, n_samples, which_measure)


@dataclass
class WallMarginal:
    """Tabulated single-particle height marginal with its normalization.

    `z_tilde` is the partition integral of the (possibly tilted) weight over
    the box.  The CDF knots, the grid nodes where the CDF increases, and
    their monotone-cubic inverse tangents support vectorized inverse-CDF
    draws.  `_guide` holds, for each of the _GUIDE_CELLS equal cells of u,
    the index of the CDF bracket containing the cell's left edge; the
    kernel steps up from it past any knot inside the cell.  `_log_mgf`
    keeps the values of log_mgf_z already evaluated on this marginal.
    """

    params: ModelParams
    tilt: float
    z_tilde: float
    # strictly increasing knots of the inverse map u -> z and its tangents
    _inv_u: np.ndarray = field(repr=False)
    _inv_z: np.ndarray = field(repr=False)
    _inv_m: np.ndarray = field(repr=False)
    _guide: np.ndarray = field(repr=False)
    _log_mgf: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        # the C inverse CDF reads these tables through bare pointers
        k = self._inv_u.size
        tables = (self._inv_u, self._inv_z, self._inv_m)
        if not (k >= 2
                and all(a.dtype == np.float64 and a.shape == (k,)
                        and a.flags.c_contiguous for a in tables)
                and self._guide.dtype == np.intp
                and self._guide.shape == (_GUIDE_CELLS,)
                and self._guide.flags.c_contiguous
                and 0 <= self._guide.min() and self._guide.max() <= k - 2):
            raise ValueError("inverse-CDF tables of inconsistent size or "
                             "layout")

    @property
    def which_measure(self) -> str:
        return "rho1" if self.tilt != 0.0 else "rho0"

    def inverse_cdf(self, u, out=None):
        """Monotone-cubic inverse of the tabulated CDF, for u in [0, 1).

        out, when given, must be laid out like u, and may be u itself; a 0-d
        input gives a scalar.  The kernel walks memory: a u in neither C nor
        Fortran order is copied first, and a new out keeps u's layout.
        """
        u = np.asarray(u, dtype=float)
        if not (u.flags.c_contiguous or u.flags.f_contiguous):
            u = u.copy(order="K")
        if out is None:
            out = np.empty_like(u)
        elif not (out.dtype == np.float64 and out.flags.writeable
                  and out.shape == u.shape and out.strides == u.strides):
            raise ValueError("out must be a writeable float64 array laid out "
                             "like z")
        _kernel.library().inverse_cdf(
            u.ctypes.data, out.ctypes.data, u.size, self._inv_u.ctypes.data,
            self._inv_z.ctypes.data, self._inv_m.ctypes.data,
            self._guide.ctypes.data, self._inv_u.size, _GUIDE_CELLS)
        return out if out.ndim else out[()]


def _guide_table(inv_u: np.ndarray) -> np.ndarray:
    """Bracket index of the left edge j / _GUIDE_CELLS of each cell j of u.

    No u of the cell has a lower bracket; one above it lies past a knot
    inside the cell.
    """
    edges = np.arange(_GUIDE_CELLS) / _GUIDE_CELLS
    return np.clip(np.searchsorted(inv_u, edges, side="right") - 1,
                   0, inv_u.size - 2)


def _monotone_tangents(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Fritsch-Carlson limiter: keeps the cubic interpolant monotone.  A knot
    # interval of subnormal width (a CDF increment near 1e-313 next to a
    # wall) overflows its secant; like a zero secant, it gets flat tangents
    # at both ends, and no other knot changes.
    dx = np.diff(x)
    with np.errstate(over="ignore"):
        secants = np.diff(y) / dx
    m = np.empty_like(y)
    m[0] = secants[0]
    m[-1] = secants[-1]
    m[1:-1] = 0.5 * (secants[:-1] + secants[1:])
    flat = (secants == 0.0) | ~np.isfinite(secants)
    m[:-1][flat] = 0.0
    m[1:][flat] = 0.0
    alpha = np.zeros_like(secants)
    beta_ = np.zeros_like(secants)
    nz = ~flat
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
    fixed Kronrod pass per cell (one batched pass over all cells), then
    normalized so the endpoints are exactly 0 and 1.
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
    masses, _ = _kronrod_panels(w, nodes[:-1], nodes[1:])
    cdf = np.concatenate(([0.0], np.cumsum(masses)))
    total = cdf[-1]
    if not 0.0 < total < math.inf:
        raise ValueError("degenerate marginal: density has no support on the grid")
    cdf /= total
    cdf[-1] = 1.0

    keep = np.concatenate(([True], np.diff(cdf) > 0.0))
    inv_u = cdf[keep]
    inv_z = nodes[keep]
    inv_m = _monotone_tangents(inv_u, inv_z)

    return WallMarginal(params=params, tilt=tilt, z_tilde=z_tilde,
                        _inv_u=inv_u, _inv_z=inv_z, _inv_m=inv_m,
                        _guide=_guide_table(inv_u))


def _open_uniforms(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform draws on the open interval (0, 1).

    inverse_cdf(0.0) is the wall itself, so an exact 0.0 from rng.random
    (probability 2^-53 per draw) is redrawn from the same generator.
    Without a zero, the draws are those of rng.random(shape).
    """
    u = rng.random(shape)
    if not u.all():
        zero = np.flatnonzero(u == 0.0)
        while zero.size:
            u.flat[zero] = rng.random(zero.size)
            zero = zero[u.flat[zero] == 0.0]
    return u


def sample_batch(marginal: WallMarginal, rng: np.random.Generator,
                 n_states: int, *, momenta: bool = True
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw (Z, P) arrays of shape (n_states, N): iid particles, Gaussian p.

    The momenta have variance m / beta, from the factor exp(-beta p^2 / 2m).
    They come after the heights in the generator's stream, so with
    momenta=False, for an observable that reads only Z, the heights are the
    same and P is None.  The uniforms are inverted in place.
    """
    params = marginal.params
    n = params.n_particles
    u = _open_uniforms(rng, (n_states, n))
    z = marginal.inverse_cdf(u, out=u)
    if not momenta:
        return z, None
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
             rng: np.random.Generator, *, momenta: bool = True
             ) -> NormEstimate:
    """Monte-Carlo L2 norm sqrt(E[f^2]) with a delta-method standard error.

    f maps sampled (Z, P) arrays of shape (rows, N) to one value per row.
    Sampling follows the marginal's measure (rho0, or rho1 when the marginal
    is tilted).  With momenta=True, f sees all n_samples rows at once.  With
    momenta=False, P is None and no momentum is drawn, for an f that reads
    only Z: the states are drawn and passed to f a block of _MC_BLOCK
    heights at a time, which are the heights of one whole batch unless a
    uniform is an exact 0.0 (see _open_uniforms), and the mean and variance
    are still taken over all the values at once, so the estimate is
    unchanged.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    values = np.empty(n_samples)
    step = (n_samples if momenta
            else max(1, _MC_BLOCK // marginal.params.n_particles))
    for start in range(0, n_samples, step):
        rows = min(step, n_samples - start)
        z, p = sample_batch(marginal, rng, rows, momenta=momenta)
        values[start:start + rows] = _row_values(f(z, p), rows)
    sq = values * values
    if not np.all(np.isfinite(sq)):
        raise ValueError("observable returned a non-finite value")
    return NormEstimate.from_moments(float(np.mean(sq)),
                                     float(np.var(sq, ddof=1)), n_samples,
                                     marginal.which_measure)


def _row_values(values, rows: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (rows,):
        raise ValueError("observable must return one value per sampled state")
    return values


def norm0_poisson_B_H0_quadrature(marginal: WallMarginal) -> float:
    """Quadrature value of the rho0 norm of [B, H0], from the rho0 marginal.

    Cross terms between distinct particles vanish (odd factors against an
    even density), leaving N copies of the single-particle integral.  Its
    three pieces (two identical wall terms and a negative cross term) are
    integrated in log space and divided by the marginal's z_tilde.
    """
    if marginal.tilt != 0.0:
        raise ValueError("the bracket norm is a rho0 norm; pass an untilted "
                         "marginal")
    params = marginal.params
    half = params.half_box
    pts = _wall_breakpoints(params)

    def term(pl, pr):
        return integrate_finite(
            lambda z: _weight(z, params, pow_left=pl, pow_right=pr),
            -half, half, rel_tol=1e-10, breakpoints=pts).value

    # s(z)^2 = u^-26 + v^-26 - 2 u^-13 |v|^-13 with u = z+L/2, v = L/2-z
    single = 2.0 * term(26.0, 0.0) - 2.0 * term(13.0, 13.0)
    per_particle = 144.0 * params.delta_wall ** 2 * single / marginal.z_tilde
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


def log_mgf_z(t: float, marginal: WallMarginal) -> float:
    return math.log1p(_centered_mgf(t, marginal))


def _log_mgf(t: float, marginal: WallMarginal) -> float:
    """log_mgf_z(t, marginal), evaluated once per marginal and argument.

    The key keeps the sign of a zero t, which can reach the result's sign.
    """
    key = (t, math.copysign(1.0, t))
    if key not in marginal._log_mgf:
        marginal._log_mgf[key] = log_mgf_z(t, marginal)
    return marginal._log_mgf[key]


def gamma_h(params: ModelParams, marginal: WallMarginal, h: float) -> float:
    """Chi-square divergence of the tilted measure from rho0.

    Equals (M(2 h beta) / M(h beta)^2)^N - 1 by particle independence;
    nonnegative, and vanishing as h -> 0.
    """
    t = float(h) * params.beta
    expo = params.n_particles * (_log_mgf(2.0 * t, marginal)
                                 - 2.0 * _log_mgf(t, marginal))
    return math.expm1(expo)


def gamma_tilde_h(params: ModelParams, marginal: WallMarginal,
                  h: float) -> float:
    """Reverse-direction divergence (M(h beta) M(-h beta))^N - 1."""
    t = float(h) * params.beta
    expo = params.n_particles * (_log_mgf(t, marginal)
                                 + _log_mgf(-t, marginal))
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
                        delta_moment: float, h: float,
                        epsilon: float = 0.01) -> HoelderCertificate:
    """Evaluate both sides of the small-field certificate at field size h.

    Requires h < delta_moment / (2 beta) so the interpolation step applies.
    """
    h = float(h)
    if not delta_moment > 0.0:
        raise ValueError("delta_moment must be positive")
    if not h < delta_moment / (2.0 * params.beta):
        raise ValueError("need h < delta_moment / (2 beta)")
    log_k = params.n_particles * max(_log_mgf(delta_moment, marginal),
                                     _log_mgf(-delta_moment, marginal))
    log_bound = 4.0 * params.beta * h / delta_moment * log_k
    gamma = gamma_h(params, marginal, h)
    gtilde = gamma_tilde_h(params, marginal, h)
    # tiny relative slack: both sides come from quadrature
    bound_holds = math.log1p(gamma) <= log_bound + 1e-12
    if log_k > 0.0:
        h_threshold = min(delta_moment / (2.0 * params.beta),
                          delta_moment * math.log1p(epsilon)
                          / (4.0 * params.beta * log_k))
    else:
        h_threshold = delta_moment / (2.0 * params.beta)
    below = h < h_threshold
    return HoelderCertificate(
        h=h, delta_moment=delta_moment, epsilon=epsilon,
        k=math.exp(log_k), log_k=log_k, hoelder_bound=math.exp(log_bound),
        gamma=gamma, gamma_tilde=gtilde, bound_holds=bound_holds,
        h_threshold=h_threshold, h_below_threshold=below,
        gamma_below_epsilon=gamma < epsilon)
