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

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "wall_potential",
    "wall_force",
    "observable_A",
    "observable_B",
    "poisson_B_H0",
    "hamiltonian",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: all strictly positive except field, which is >= 0.

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
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not self.field >= 0.0:
            raise ValueError("field must be >= 0")

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


def _recip_pow12(u):
    u2 = u * u
    u4 = u2 * u2
    return 1.0 / (u4 * u4 * u4)


def _recip_pow13_into(u, u4, out):
    """out = 1 / (((u4*u4)*u4)*u) with u4 = (u*u)*(u*u); u is left intact."""
    np.multiply(u, u, out=u4)
    np.multiply(u4, u4, out=u4)
    np.multiply(u4, u4, out=out)
    np.multiply(out, u4, out=out)
    np.multiply(out, u, out=out)
    np.divide(1.0, out, out=out)


def _wall_potential_raw(z, half_box, delta_wall):
    # No domain check; callers guarantee |z| < half_box.
    return delta_wall * (_recip_pow12(z + half_box) + _recip_pow12(z - half_box))


def _wall_force_into(z, half_box, delta_wall, out, u, u4, term):
    """Write 12 delta [(z+L/2)^-13 + (z-L/2)^-13] into out and return it.

    u, u4 and term are scratch arrays of z's shape, so a caller that keeps
    the four buffers evaluates the force without allocating.  No domain
    check; callers guarantee |z| < half_box.
    """
    np.add(z, half_box, out=u)
    _recip_pow13_into(u, u4, out)
    np.subtract(z, half_box, out=u)
    _recip_pow13_into(u, u4, term)
    np.add(out, term, out=out)
    np.multiply(out, 12.0 * delta_wall, out=out)
    return out


def _checked(z, params: ModelParams) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if np.any(np.abs(z) >= params.half_box):
        raise ValueError(
            f"position outside the open box (-{params.half_box}, {params.half_box})")
    return z


def wall_potential(z, params: ModelParams):
    """delta * [(z + L/2)^-12 + (z - L/2)^-12]; diverges at the walls."""
    zz = _checked(z, params)
    with np.errstate(over="ignore"):
        out = _wall_potential_raw(zz, params.half_box, params.delta_wall)
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def wall_force(z, params: ModelParams):
    """-d/dz of the wall potential: 12 delta * [(z+L/2)^-13 + (z-L/2)^-13].

    Positive for z < 0 and negative for z > 0: the walls push back toward
    the center.  The (z - L/2) term is negative inside the box.
    """
    zz = _checked(z, params)
    buffers = [np.empty_like(zz) for _ in range(4)]
    with np.errstate(over="ignore"):
        out = _wall_force_into(zz, params.half_box, params.delta_wall,
                               *buffers)
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def observable_A(z, p):
    """Height sum: the observable conjugate to the uniform field."""
    return np.sum(z, axis=-1)


def observable_B(z, p):
    """Vertical momentum sum: the flow derivative of the height sum."""
    return np.sum(p, axis=-1)


def poisson_B_H0(z, params: ModelParams):
    """[B, H0] = sum_j wall_force(z_j): the total force the walls exert."""
    return np.sum(wall_force(z, params), axis=-1)


def hamiltonian(z, p, params: ModelParams, h: float = 0.0):
    """H1 = sum p^2/2m + sum V(z) - h sum z; positions must lie in the box."""
    with np.errstate(over="ignore"):
        v = _wall_potential_raw(z, params.half_box, params.delta_wall)
    return (0.5 / params.mass) * np.sum(p * p, axis=-1) + np.sum(v, axis=-1) \
        - h * np.sum(z, axis=-1)
