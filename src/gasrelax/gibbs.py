"""Equilibrium measures for the box model: sampling, norms, divergences.

The full phase-space measure factorizes over particles and over (z, p), so
everything here reduces to the one-dimensional wall marginal with density
proportional to exp(-beta V(z)) (or its field-tilted variant
exp(-beta V(z) + h beta z) for the perturbed measure) times independent
Gaussian momenta of variance 1/beta.

Positions are drawn by inverse-CDF lookup from a tabulated marginal with a
monotone-cubic inverse, one (3, k) table of its CDF knots, heights and
tangents; naive rejection would accept with probability z_tilde / L, which
degrades for strong walls and is kept only as a test oracle.  The lookup
runs in the C kernel (`_verlet.c`) and is a guide-table (indexed) search:
the kernel's guide_cells (2^16) equal cells of u in [0, 1) each store the
CDF bracket of their left edge, which the kernel finds for every cell in
one merge pass over the marginal's own knots when the marginal is made.  A
draw finds its bracket with one gather and a step past each knot that
lies in its cell (about 2.6 % of the cells on the reference grid hold
one); a u below 0 or NaN starts from the first cell, and one of 1 or more
from the last.  The kernel works through the values in chunks of a few
hundred, so it needs no temporaries beyond the stack, and it may write over
its input.  Every drawn value is bitwise what a binary search over the
whole batch and the NumPy cubic give.

States are drawn in the C kernel from NumPy's Philox stream, given by its
key and start counter (rng.philox_state), which the kernel reads once, in
order.  The heights are the inverse CDF of its values, a 0.0 (a particle on
the wall, probability 2^-53) skipped; the momenta are NumPy's own normals,
its ziggurat linked from numpy/random/lib/libnpyrandom.a, drawn on from
where the heights stopped.  Without a 0.0 the bits are those of a NumPy
Generator on the same stream, and numpy.random is never imported.  The
ensemble shards of `dynamics` draw these states from a key alone, inside the
Verlet kernel, and sample_batch from the next two raw words of a Generator,
whose state it never reads.

A Monte-Carlo norm draws only what its observable reads, so it holds no
array of all the sampled states.  norm0_mc, the norm of the bracket [B, H0],
reads heights alone: one C kernel call draws, inverts and sums the forces
of each state a few rows at a time, so no height array is made.
norm0_B_mc, the norm of the momentum sum B, draws momenta alone (the tilt
of rho1 moves only the heights), one row at a time.

A marginal carries its ModelParams.  The quantities of rho0, the quadrature
norm of [B, H0], the moment generating function of z, the divergences
gamma(h) and gamma~(h) and the Hoelder certificate, take the untilted
marginal alone and read the parameters from it; a tilted one is refused.

Integrands that multiply the Gibbs weight by inverse powers of the wall
distance are evaluated in log space: the exponential kills the power in the
wall limit, but the power overflows first if formed naively.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .model import ModelParams, _require_inside, wall_potential
from .numerics import _kronrod_panels, integrate_finite
from .rng import philox_state

__all__ = [
    "WallMarginal",
    "NormEstimate",
    "HoelderCertificate",
    "build_marginal",
    "sample_batch",
    "norm0_B_closed",
    "norm0_mc",
    "norm0_B_mc",
    "norm0_poisson_B_H0_quadrature",
    "log_mgf_z",
    "gamma_h",
    "gamma_tilde_h",
    "hoelder_certificate",
]

# exp underflows to 0 below ~-745; anything smaller is identically zero weight
_LOG_FLOOR = -745.0

# the fewest and the most cells of a CDF table; the guide table holds
# bracket indices below grid_size as int32
_MIN_GRID = 64
_MAX_GRID = 2**31 - 1

# cells per Kronrod pass of a CDF table: each pass's nodes and integrand
# temporaries are 30 KiB, not those of every cell at once; a panel's sums
# are its own, so the masses have the same bits
_KRONROD_BLOCK = 256


def _measure(tilt: float) -> str:
    """The measure of the heights tilted by tilt: rho1 unless it is 0."""
    return "rho1" if tilt != 0.0 else "rho0"


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

    The weight switches on over params.wall_layer next to each wall; panels
    must be anchored there or the adaptive rule never sees the layer.
    """
    half = params.half_box
    pts = []
    for s in (0.25, 1.0, 4.0, 16.0):
        w = s * params.wall_layer
        if w < 2.0 * half:
            pts.extend((-half + w, half - w))
    return tuple(sorted(pts))


def _box_integral(f, params: ModelParams, **options) -> float:
    """The integral of f over the box, by adaptive quadrature to a relative
    tolerance of 1e-10, seeded at both wall layers (_wall_breakpoints);
    options, such as abs_floor, go to integrate_finite.

    A box whose float spacing at the walls is past 2^-21 of the wall layer
    (box_side past 2^32 layers) is refused: positions there are too coarse
    for the layer, and its integrals came out wrong or did not converge.
    """
    half = params.half_box
    spacing = math.ulp(half)
    if spacing > 2.0**-21 * params.wall_layer:
        raise ValueError(f"box_side {params.box_side!r} is too wide: floats "
                         f"at its walls are {spacing:.3g} apart, more than "
                         f"2^-21 of the wall layer {params.wall_layer:.3g}")
    return integrate_finite(f, -half, half, rel_tol=1e-10,
                            breakpoints=_wall_breakpoints(params),
                            **options).value


@dataclass(frozen=True)
class NormEstimate:
    """Monte-Carlo L2-norm estimate under rho0 or rho1."""

    value: float
    std_error: float
    n_samples: int
    which_measure: str = "rho0"

    def __post_init__(self):
        # NaN fails both comparisons
        if not (self.value >= 0.0 and self.std_error >= 0.0):
            raise ValueError("norm estimates are nonnegative")
        if self.n_samples < 1:
            raise ValueError("a norm estimate needs n_samples >= 1")

    @classmethod
    def from_moments(cls, mean_sq: float, var_sq: float, n_samples: int,
                     which_measure: str) -> NormEstimate:
        """sqrt(E[f^2]) and its delta-method standard error, from the sample
        mean and variance of f^2 over n_samples draws."""
        value = math.sqrt(max(mean_sq, 0.0))
        sem_sq = math.sqrt(var_sq / n_samples)
        std_error = sem_sq / (2.0 * value) if value > 0.0 else math.sqrt(sem_sq)
        return cls(value, std_error, n_samples, which_measure)

    @classmethod
    def from_values(cls, values: np.ndarray,
                    which_measure: str) -> NormEstimate:
        """The estimate from one value per sampled state; overwrites values."""
        n_samples = values.size
        sq = np.multiply(values, values, out=values)
        # the largest square is inf or NaN when any is, and needs no
        # n_samples mask
        if not math.isfinite(np.max(sq)):
            raise ValueError("observable returned a non-finite value")
        # np.mean(sq) and np.var(sq, ddof=1), with NumPy's own steps taken
        # in place: the same bits, and no second or third n_samples array;
        # a variance past the float range raises FloatingPointError
        with np.errstate(over="raise"):
            mean = np.mean(sq)
            sq -= mean
            np.square(sq, out=sq)
            var = np.add.reduce(sq) / (n_samples - 1)
        return cls.from_moments(float(mean), float(var), n_samples,
                                which_measure)


@dataclass(eq=False)
class WallMarginal:
    """Tabulated single-particle height marginal with its normalization.

    `z_tilde` is the partition integral of the (possibly tilted) weight over
    the box.  `_table` is the monotone-cubic inverse map u -> z, a
    C-ordered float64 array of shape (3, k): its rows are the CDF knots
    (strictly increasing), the grid nodes where the CDF increases, and the
    tangents.  `_guide` holds, for each of the kernel's guide_cells equal
    cells of u, the index of the CDF bracket containing the cell's left
    edge; the kernel steps up from it past any knot inside the cell.  It is
    not an argument: the kernel's guide_table builds it from the marginal's
    own knots once the table is checked.  `_log_mgf` keeps the values of
    log_mgf_z already evaluated on this marginal.
    """

    params: ModelParams
    tilt: float
    z_tilde: float
    _table: np.ndarray = field(repr=False)
    _guide: np.ndarray = field(init=False, repr=False)
    _log_mgf: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        # the C kernels read the table through one bare pointer
        table = self._table
        if not (table.dtype == np.float64 and table.ndim == 2
                and table.shape[0] == 3 and table.shape[1] >= 2
                and table.flags.c_contiguous):
            raise ValueError("the inverse-CDF table must be a C-ordered "
                             "float64 array of shape (3, k), k >= 2")
        lib = _kernel.library()
        cells = ctypes.c_ssize_t.in_dll(lib, "guide_cells").value
        self._guide = np.empty(cells, dtype=np.int32)
        lib.guide_table(table.ctypes.data, table.shape[1],
                        self._guide.ctypes.data)

    @property
    def which_measure(self) -> str:
        return _measure(self.tilt)

    def inverse_cdf(self, u):
        """Monotone-cubic inverse of the tabulated CDF, for u in [0, 1).

        Returns a new C-ordered array of u's shape; a 0-d input gives a
        scalar.
        """
        u = np.asarray(u, dtype=float, order="C")
        out = np.empty_like(u)
        _kernel.library().inverse_cdf(u.ctypes.data, out.ctypes.data, u.size,
                                      *self._kernel_tables())
        return out if out.ndim else out[()]

    def _kernel_tables(self) -> tuple:
        """The inverse-CDF arguments of the C kernels: the (3, k) table, the
        guide and the knot count k."""
        return (self._table.ctypes.data, self._guide.ctypes.data,
                self._table.shape[1])


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
    m[1:] = m[1:] * scale
    return m


def build_marginal(params: ModelParams, grid_size: int = 2048,
                   tilted: bool = False) -> WallMarginal:
    """Construct the tabulated wall marginal.

    Parameters
    ----------
    params : ModelParams
    grid_size : number of CDF table cells (64 to 2^31 - 1).
    tilted : build the field-tilted density exp(-beta V + h beta z) instead
        of the unperturbed one.  Requires params.field for the tilt.

    The normalization is computed by adaptive quadrature; the CDF table by a
    fixed Kronrod pass per cell (one batched pass per _KRONROD_BLOCK cells),
    then normalized so the endpoints are exactly 0 and 1.
    """
    if not _MIN_GRID <= grid_size <= _MAX_GRID:
        raise ValueError(f"grid_size must lie in [{_MIN_GRID}, {_MAX_GRID}]")
    tilt = params.field if tilted else 0.0
    half = params.half_box

    def w(z):
        return _weight(z, params, tilt)

    z_tilde = _box_integral(w, params)
    nodes = np.linspace(-half, half, grid_size + 1)
    masses = np.empty(grid_size)
    for start in range(0, grid_size, _KRONROD_BLOCK):
        stop = min(start + _KRONROD_BLOCK, grid_size)
        masses[start:stop], _ = _kronrod_panels(w, nodes[start:stop],
                                                nodes[start + 1:stop + 1])
    cdf = np.concatenate(([0.0], np.cumsum(masses)))
    total = cdf[-1]
    if not 0.0 < total < math.inf:
        raise ValueError("degenerate marginal: density has no support on the grid")
    cdf /= total
    cdf[-1] = 1.0

    keep = np.concatenate(([True], np.diff(cdf) > 0.0))
    inv_u, inv_z = cdf[keep], nodes[keep]
    table = np.stack((inv_u, inv_z, _monotone_tangents(inv_u, inv_z)))
    return WallMarginal(params=params, tilt=tilt, z_tilde=z_tilde,
                        _table=table)


def sample_batch(marginal: WallMarginal, rng: np.random.Generator,
                 n_states: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_states, N) states of _states, keyed by rng's next two raw words."""
    return _states(marginal, n_states,
                   philox_state(rng.bit_generator.random_raw(2)))


def _states(marginal: WallMarginal, rows: int,
            state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, N) heights and momenta drawn in the kernel from the Philox
    state (rng.philox_state), which is left past them.

    The heights are the inverse CDF of the stream's next rows * N values
    that are not 0.0: a 0.0 would put a particle on the wall (probability
    2^-53 each), so it is skipped.  The momenta, of variance 1 / beta, are
    NumPy's normals drawn on from there.
    """
    params = marginal.params
    z = np.empty((rows, params.n_particles))
    p = np.empty_like(z)
    _kernel.library().sampled_states(
        state.ctypes.data, z.ctypes.data, p.ctypes.data, rows,
        params.n_particles, params.beta, *marginal._kernel_tables())
    return z, p


def norm0_B_closed(params: ModelParams) -> float:
    """Closed form sqrt(2 N / beta) for the momentum-sum norm, as specified.

    Its square 2N/beta is twice E_rho0[B^2] = N / beta, the value that the
    Gaussian momenta give exactly (and that the sampled C(0) reproduces).
    The eta checks, eta_empirical and the bound curve are built on this
    constant, which is why `simulate` reports curve_check = False on the
    reference configuration.
    """
    return math.sqrt(2.0 * params.n_particles / params.beta)


def norm0_mc(marginal: WallMarginal, n_samples: int,
             key: np.ndarray) -> NormEstimate:
    """Monte-Carlo norm of the bracket [B, H0] = sum_j F(z_j), the total wall
    force, with a delta-method standard error.

    The states follow the marginal's measure (rho0, or rho1 when it is
    tilted), and no momentum is drawn.  key is a stream's philox_key: the
    heights are those of _states on philox_state(key), NumPy's
    Philox(key=key) stream.  One kernel call draws, inverts and sums them a
    few rows at a time; besides the n_samples values it needs one row of
    scratch.  Each state's value is the bits of poisson_B_H0 of its row.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    state = philox_state(key)
    params = marginal.params
    values = np.empty(n_samples)
    scratch = np.empty(params.n_particles)
    outside = _kernel.library().sampled_force_sums(
        state.ctypes.data, values.ctypes.data, n_samples, params.n_particles,
        scratch.ctypes.data, params.half_box, params.delta_wall,
        *marginal._kernel_tables())
    _require_inside(outside, params)
    return NormEstimate.from_values(values, marginal.which_measure)


def norm0_B_mc(params: ModelParams, n_samples: int,
               key: np.ndarray) -> NormEstimate:
    """Monte-Carlo norm of the momentum sum B, from momenta alone.

    The momenta start n_samples * N values into the stream of
    philox_state(key): at the Philox block of 4 values where those heights
    end, whose heights' share is read into values, which the sums
    overwrite.  The kernel draws and sums one row at a time.  They are the
    momenta of _states(n_samples rows) on that state when none of the
    heights' values is 0.0 (probability 2^-53 each); each 0.0 that _states
    skips starts its momenta one value later, so these then start that
    many values early, with the same law of B.  The tilt of rho1 moves only
    the heights, so B has one law under rho0 and rho1; the estimate carries
    the measure of params.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    block, spent = divmod(n_samples * params.n_particles, 4)
    state = philox_state(key, block)
    values = np.empty(n_samples)
    row = np.empty(params.n_particles)
    _kernel.library().philox_uniforms(
        state.ctypes.data, values.ctypes.data, spent)
    _kernel.library().sampled_momentum_sums(
        state.ctypes.data, values.ctypes.data, n_samples, params.n_particles,
        params.beta, row.ctypes.data)
    return NormEstimate.from_values(values, _measure(params.field))


def _require_rho0(marginal: WallMarginal) -> None:
    """Raise ValueError unless marginal is untilted: the measure rho0."""
    if marginal.tilt != 0.0:
        raise ValueError("expected the rho0 marginal: pass an untilted "
                         "marginal")


def norm0_poisson_B_H0_quadrature(marginal: WallMarginal) -> float:
    """Quadrature value of the rho0 norm of [B, H0], from the rho0 marginal.

    Cross terms between distinct particles vanish (odd factors against an
    even density), leaving N copies of the single-particle integral.  Its
    three pieces (two identical wall terms and a negative cross term) are
    integrated in log space and divided by the marginal's z_tilde.
    """
    _require_rho0(marginal)
    params = marginal.params

    def term(pl, pr):
        return _box_integral(
            lambda z: _weight(z, params, pow_left=pl, pow_right=pr), params)

    # s(z)^2 = u^-26 + v^-26 - 2 u^-13 |v|^-13 with u = z+L/2, v = L/2-z
    single = 2.0 * term(26.0, 0.0) - 2.0 * term(13.0, 13.0)
    per_particle = 144.0 * params.delta_wall ** 2 * single / marginal.z_tilde
    return math.sqrt(params.n_particles * per_particle)


def _centered_mgf(t: float, marginal: WallMarginal) -> float:
    """E[exp(t z)] - 1 under the wall marginal, computed without cancellation."""
    _require_rho0(marginal)  # the one check of every MGF-based quantity
    params = marginal.params

    def g(z):
        # past the float range: a FloatingPointError, as in _weight
        with np.errstate(over="raise"):
            return np.expm1(t * z) * _weight(z, params)

    return _box_integral(g, params, abs_floor=1e-16) / marginal.z_tilde


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


def gamma_h(marginal: WallMarginal, h: float) -> float:
    """Chi-square divergence from rho0, the measure of the untilted
    marginal, of its tilt by the field h.

    Equals (M(2 h beta) / M(h beta)^2)^N - 1 by particle independence;
    nonnegative, and vanishing as h -> 0.
    """
    params = marginal.params
    t = float(h) * params.beta
    expo = params.n_particles * (_log_mgf(2.0 * t, marginal)
                                 - 2.0 * _log_mgf(t, marginal))
    return math.expm1(expo)


def gamma_tilde_h(marginal: WallMarginal, h: float) -> float:
    """Reverse-direction divergence (M(h beta) M(-h beta))^N - 1, from the
    untilted marginal."""
    params = marginal.params
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

    k: float
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


def hoelder_certificate(marginal: WallMarginal, delta_moment: float, h: float,
                        epsilon: float = 0.01) -> HoelderCertificate:
    """Evaluate both sides of the small-field certificate at field size h,
    on the untilted marginal.

    Requires delta_moment and epsilon in (0, inf), and h < delta_moment /
    (2 beta) so the interpolation step applies.
    """
    params = marginal.params
    h = float(h)
    for name, value in (("delta_moment", delta_moment), ("epsilon", epsilon)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be strictly positive and finite")
    h_max = delta_moment / (2.0 * params.beta)
    if not h < h_max:
        raise ValueError("need h < delta_moment / (2 beta)")
    log_k = params.n_particles * max(_log_mgf(delta_moment, marginal),
                                     _log_mgf(-delta_moment, marginal))
    log_bound = 4.0 * params.beta * h / delta_moment * log_k
    gamma = gamma_h(marginal, h)
    gtilde = gamma_tilde_h(marginal, h)
    # tiny relative slack: both sides come from quadrature
    bound_holds = math.log1p(gamma) <= log_bound + 1e-12
    if log_k > 0.0:
        h_threshold = min(h_max, delta_moment * math.log1p(epsilon)
                          / (4.0 * params.beta * log_k))
    else:
        h_threshold = h_max
    below = h < h_threshold
    return HoelderCertificate(
        k=math.exp(log_k), hoelder_bound=math.exp(log_bound), gamma=gamma,
        gamma_tilde=gtilde, bound_holds=bound_holds, h_threshold=h_threshold,
        h_below_threshold=below, gamma_below_epsilon=gamma < epsilon)
