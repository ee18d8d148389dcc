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
    "poisson_B_H0",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: all finite, and strictly positive except field,
    which is >= 0.

    Lengths are in units of the wall range sigma = 1; physical values, its
    size sigma_m among them, are only introduced at the reporting boundary.
    """

    n_particles: int
    beta: float
    delta_wall: float
    box_side: float
    field: float = 0.0
    mass: float = 1.0

    def __post_init__(self):
        if int(self.n_particles) != self.n_particles or self.n_particles < 1:
            raise ValueError("n_particles must be a positive integer")
        for name in ("beta", "delta_wall", "box_side", "mass"):
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


def _wall_sums(z, params: ModelParams, force: bool, per_row: bool):
    """The wall force (or potential) at every value of z, or with per_row
    its sum over each row of z's last axis, from one C kernel pass.

    The kernel reads z as C-ordered rows, so the row sums, in NumPy's
    pairwise order, do not depend on z's layout.  It counts the values not
    strictly inside the box, NaN included, on the way.  A 0-d z gives a
    float.
    """
    z = np.asarray(z, dtype=float, order="C")
    per_row = per_row and z.ndim > 0
    out = np.empty(z.shape[:-1] if per_row else z.shape)
    outside = _kernel.library().wall_sums(
        z.ctypes.data, out.ctypes.data, out.size,
        z.shape[-1] if per_row else 1, force, params.half_box,
        params.delta_wall)
    _require_inside(outside, params)
    return out if out.ndim else float(out)


def _require_inside(outside: int, params: ModelParams) -> None:
    """Raise ValueError when a kernel counted positions outside the box."""
    if outside:
        raise ValueError(f"position outside the open box (-{params.half_box}, "
                         f"{params.half_box})")


def wall_potential(z, params: ModelParams):
    """delta * [(z + L/2)^-12 + (z - L/2)^-12]; diverges at the walls.

    Evaluated by the C kernel (`_verlet.c`), the one place the potential
    expression lives.
    """
    return _wall_sums(z, params, force=False, per_row=False)


def wall_force(z, params: ModelParams):
    """-d/dz of the wall potential: 12 delta * [(z+L/2)^-13 + (z-L/2)^-13].

    Positive for z < 0 and negative for z > 0: the walls push back toward
    the center.  The (z - L/2) term is negative inside the box.  Evaluated
    by the C kernel (`_verlet.c`), the one place the force expression lives.
    """
    return _wall_sums(z, params, force=True, per_row=False)


def poisson_B_H0(z, params: ModelParams):
    """[B, H0] = sum_j wall_force(z_j): the total force the walls exert.

    One pass of the C kernel, with no force array: the bits are those of
    np.sum(wall_force(z, params), axis=-1) over z in C order.  The + 0.0 is
    np.sum's, which turns the -0.0 of a one-value row into +0.0.
    """
    return _wall_sums(z, params, force=True, per_row=True) + 0.0
