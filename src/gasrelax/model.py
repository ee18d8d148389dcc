"""The box-with-repulsive-walls model: parameters, potential, observables.

N non-interacting particles in a cubic box of side L.  Only the vertical
degrees of freedom are kept: the height sum A, its flow derivative B (the
vertical momentum sum), the canonical bracket of B with the wall Hamiltonian,
and the vertical dynamics under the uniform field h are all independent of
the horizontal coordinates, so those are never stored.

The walls at z = +/- L/2 repel with the r^-12 core of the Lennard-Jones
potential, with strength delta_wall.  Bracket sign convention:
[f, g] = sum_j (df/dz_j dg/dp_j - df/dp_j dg/dz_j), so that [A, H0] = B.

Phase-space states are the position and momentum arrays z, p of shape
(rows, N), or (N,) for a single state; observables reduce over the last axis
and return one value per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel

__all__ = [
    "ModelParams",
    "wall_potential",
    "wall_force",
    "observable_B",
    "poisson_B_H0",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: all finite, and strictly positive except field,
    which is >= 0.

    Natural units (mass = sigma = 1) are used internally; physical values are
    only introduced at the reporting boundary.
    """

    n_particles: int
    beta: float
    delta_wall: float
    box_side: float
    field: float = 0.0
    mass: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        if int(self.n_particles) != self.n_particles or self.n_particles < 1:
            raise ValueError("n_particles must be a positive integer")
        for name in ("beta", "delta_wall", "box_side", "mass", "sigma"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be strictly positive and "
                                 "finite")
        if not 0.0 <= self.field < math.inf:
            raise ValueError("field must be finite and >= 0")

    @property
    def bound_regime(self) -> bool:
        """True iff (beta * delta_wall)^(1/12) < box_side / 3.

        The closed-form bounds are only valid in this regime; operations that
        evaluate them refuse to run when it fails.
        """
        return (self.beta * self.delta_wall) ** (1.0 / 12.0) < self.box_side / 3.0

    @property
    def half_box(self) -> float:
        return 0.5 * self.box_side


# values per wall_force pass of poisson_B_H0: 1024 rows of 64 particles,
# whose force and box-check temporaries (about 1 MiB) stay in L2.  On the
# 10^5 x 64 bounds batch it took 6.7 ms against 12.5 ms in one pass, and
# 2^14 values 8.6 ms (AMD EPYC, 1 MiB L2 per core)
_BRACKET_CHUNK = 1 << 16


def _map_kernel(name: str, z, *args, out=None):
    """out = the C function `name` of `_verlet.c` at every element of z.

    The call is name(z, out, z.size, *args): "wall_potential" takes
    (half, delta), "wall_force" (half, 12 delta) and "inverse_cdf" its
    tables.  No domain check: callers of the wall functions guarantee
    |z| < half.  The kernel walks memory, so out, when given, must be laid
    out like z, and may be z itself; a new out keeps z's layout (C or
    Fortran order), so that row sums over it add in the order they did over
    the NumPy expressions.
    """
    z = np.asarray(z, dtype=float)
    if not (z.flags.c_contiguous or z.flags.f_contiguous):
        z = z.copy(order="K")
    if out is None:
        out = np.empty_like(z)
    elif not (out.dtype == np.float64 and out.flags.writeable
              and out.shape == z.shape and out.strides == z.strides):
        raise ValueError("out must be a writeable float64 array laid out "
                         "like z")
    getattr(_kernel.library(), name)(z.ctypes.data, out.ctypes.data, z.size,
                                     *args)
    return out


def _checked(z, params: ModelParams) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if np.any(np.abs(z) >= params.half_box):
        raise ValueError(
            f"position outside the open box (-{params.half_box}, {params.half_box})")
    return z


def wall_potential(z, params: ModelParams):
    """delta * [(z + L/2)^-12 + (z - L/2)^-12]; diverges at the walls.

    Evaluated by the C kernel (`_verlet.c`), the one place the potential
    expression lives.
    """
    out = _map_kernel("wall_potential", _checked(z, params), params.half_box,
                      params.delta_wall)
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def wall_force(z, params: ModelParams):
    """-d/dz of the wall potential: 12 delta * [(z+L/2)^-13 + (z-L/2)^-13].

    Positive for z < 0 and negative for z > 0: the walls push back toward
    the center.  The (z - L/2) term is negative inside the box.  Evaluated
    by the C kernel (`_verlet.c`), the one place the force expression lives.
    """
    out = _map_kernel("wall_force", _checked(z, params), params.half_box,
                      12.0 * params.delta_wall)
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def observable_B(z, p):
    """Vertical momentum sum: the flow derivative of the height sum."""
    return np.sum(p, axis=-1)


def poisson_B_H0(z, params: ModelParams):
    """[B, H0] = sum_j wall_force(z_j): the total force the walls exert.

    A batch is evaluated _BRACKET_CHUNK values at a time, in whole rows, so
    the force and the box check need no array the size of the batch.  Each
    row is summed on its own, so its bits do not depend on the chunking.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim < 2:
        return np.sum(wall_force(z, params), axis=-1)
    out = np.empty(z.shape[:-1])
    step = max(1, _BRACKET_CHUNK // max(z.shape[-1], 1))
    for start in range(0, z.shape[0], step):
        out[start:start + step] = np.sum(
            wall_force(z[start:start + step], params), axis=-1)
    return out
