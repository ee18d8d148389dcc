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


def _outside(params: ModelParams) -> ValueError:
    return ValueError(f"position outside the open box (-{params.half_box}, "
                      f"{params.half_box})")


def _checked(z, params: ModelParams) -> np.ndarray:
    """z as a float array, after checking that every value, and no NaN, lies
    strictly inside the box."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.abs(z) < params.half_box):
        raise _outside(params)
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

    C-contiguous rows take one pass of the C kernel, which sums each row's
    forces in NumPy's pairwise order and checks the box on the way, so no
    force array is made.  Other layouts are summed by np.sum, which adds the
    rows of a Fortran-ordered array in sequence rather than pairwise; either
    way the bits are those of np.sum(wall_force(z, params), axis=-1).
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 0 or not z.flags.c_contiguous:
        return np.sum(wall_force(z, params), axis=-1)
    out = np.empty(z.shape[:-1])
    outside = _kernel.library().bracket_rows(
        z.ctypes.data, out.ctypes.data, out.size, z.shape[-1],
        params.half_box, 12.0 * params.delta_wall)
    if outside:
        raise _outside(params)
    return out if out.ndim else out[()]
