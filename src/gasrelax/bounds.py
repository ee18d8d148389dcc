"""Closed-form relaxation bounds and their numerical verification.

The chain: the wall-bracket norm obeys ||[B,H0]||_0 <= eta ||B||_0 with
eta = sqrt(2) c / ((beta delta)^(1/24) sqrt(L beta)), which yields the
relaxation-time lower bound t0 = sqrt(2)/eta = (beta delta)^(1/24)
sqrt(L beta) / c.  The constant c = 24 sqrt(Gamma(25/12)) ~ 24.45 is always
computed from the integral, never hard-coded at its rounded value 25: using
25 would understate t0 by about 2 percent.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .gibbs import (NormEstimate, WallMarginal, build_marginal, norm0_B_closed,
                    norm0_mc, norm0_poisson_B_H0_quadrature,
                    _require_rho0_marginal, _wall_breakpoints, _weight)
from .model import ModelParams, poisson_B_H0
from .numerics import gamma_function, integrate_finite

__all__ = [
    "RegimeError",
    "PhysicalUnits",
    "InequalityCheck",
    "BoundReport",
    "BOLTZMANN_J_PER_K",
    "constant_c",
    "eta_analytic",
    "eta_empirical",
    "t_relax_lower",
    "t0_physical",
    "per_term_integral_bound_check",
    "build_bound_report",
]

BOLTZMANN_J_PER_K = 1.380649e-23

# the fewest states of the sampled bracket norm
_MIN_SAMPLES = 1000


class RegimeError(ValueError):
    """Raised when a closed form is requested outside its validity regime."""


def _require_regime(params: ModelParams) -> None:
    if not params.bound_regime:
        scale = (params.beta * params.delta_wall) ** (1.0 / 12.0)
        raise RegimeError(
            "bound formulas require (beta*delta_wall)^(1/12) < box_side/3; "
            f"got {scale:.6g} >= {params.box_side / 3.0:.6g}")


@lru_cache(maxsize=1)
def constant_c() -> float:
    """c = 24 sqrt(integral_0^inf u^(13/12) e^-u du) = 24 sqrt(Gamma(25/12))."""
    return 24.0 * math.sqrt(gamma_function(25.0 / 12.0))


def eta_analytic(params: ModelParams) -> float:
    """sqrt(2) c / ((beta delta)^(1/24) sqrt(L beta)); needs the regime."""
    _require_regime(params)
    bd = params.beta * params.delta_wall
    return math.sqrt(2.0) * constant_c() / (bd ** (1.0 / 24.0)
                                            * math.sqrt(params.box_side * params.beta))


def t_relax_lower(params: ModelParams) -> float:
    """Lower bound t0 = (beta delta)^(1/24) sqrt(L beta) / c = sqrt(2)/eta."""
    _require_regime(params)
    return math.sqrt(2.0) / eta_analytic(params)


def eta_empirical(params: ModelParams, marginal: WallMarginal, n_samples: int,
                  rng: np.random.Generator) -> NormEstimate:
    """Sampled ratio ||[B,H0]||_0 / ||B||_0 that the analytic eta must dominate."""
    if n_samples < _MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {_MIN_SAMPLES}")
    _require_rho0_marginal(params, marginal)
    est = norm0_mc(lambda z: poisson_B_H0(z, params), marginal, n_samples,
                   rng)
    denom = norm0_B_closed(params)
    return replace(est, value=est.value / denom,
                   std_error=est.std_error / denom)


@dataclass(frozen=True)
class PhysicalUnits:
    """SI constants for the reporting boundary."""

    mass_kg: float
    sigma_m: float
    box_m: float
    temperature_k: float

    def __post_init__(self):
        for name in ("mass_kg", "sigma_m", "box_m", "temperature_k"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    @property
    def beta_si(self) -> float:
        return 1.0 / (BOLTZMANN_J_PER_K * self.temperature_k)


def t0_physical(params: ModelParams, units: Optional[PhysicalUnits]) -> float:
    """t0 in seconds: (beta delta)^(1/24) sqrt(beta m L sigma) / c.

    The dimensionless (beta delta) factor comes from the natural-unit params;
    beta, m, L, sigma enter in SI through `units`.  Raises OverflowError
    when finite constants still give no finite positive time.
    """
    if units is None:
        raise ValueError("physical unit constants (m, sigma, L, T) are required")
    bd = params.beta * params.delta_wall
    t0 = (bd ** (1.0 / 24.0)
          * math.sqrt(units.beta_si * units.mass_kg * units.box_m * units.sigma_m)
          / constant_c())
    if not 0.0 < t0 < math.inf:
        raise OverflowError(f"t0_physical = {t0!r} s is out of range")
    return t0


class InequalityCheck(NamedTuple):
    name: str
    lhs: float
    rhs: float
    passed: bool


def per_term_integral_bound_check(params: ModelParams) -> InequalityCheck:
    """Single wall term of the bracket-norm integral against its closed bound.

    lhs = integral of (z + L/2)^-26 exp(-beta V) over the box;
    rhs = (beta delta)^(-23/12) Gamma(25/12).
    """
    _require_regime(params)
    half = params.half_box
    lhs = integrate_finite(
        lambda z: _weight(z, params, pow_left=26.0), -half, half,
        rel_tol=1e-10, breakpoints=_wall_breakpoints(params)).value
    rhs = ((params.beta * params.delta_wall) ** (-23.0 / 12.0)
           * gamma_function(25.0 / 12.0))
    return InequalityCheck("per_term_integral_le_bound", lhs, rhs, lhs <= rhs)


@dataclass
class BoundReport:
    """All analytic quantities plus the pass/fail state of each inequality."""

    c: float
    eta_analytic: float
    eta_empirical: NormEstimate
    t0_natural: float
    t0_physical: Optional[float]
    regime_ok: bool
    z_tilde: float
    inequality_checks: list

    @property
    def all_passed(self) -> bool:
        return all(chk.passed for chk in self.inequality_checks)

    def to_json(self, meta: Optional[dict] = None) -> str:
        doc = asdict(self)
        doc["t0_physical_seconds"] = doc.pop("t0_physical")
        doc["inequality_checks"] = [c._asdict() for c in self.inequality_checks]
        return _report_json(doc, meta)


def _report_json(doc: dict, meta: Optional[dict]) -> str:
    """Report fields under a "meta" header as strict JSON: no NaN or inf."""
    return json.dumps({"meta": meta or {}, **doc}, indent=2, sort_keys=True,
                      allow_nan=False)


def build_bound_report(params: ModelParams, n_samples: int,
                       rng: np.random.Generator,
                       marginal: Optional[WallMarginal] = None,
                       units: Optional[PhysicalUnits] = None,
                       grid_size: int = 2048) -> BoundReport:
    """Evaluate every bound quantity and inequality for one parameter set.

    Without a marginal, one is built on a CDF table of grid_size cells; a
    given one must be the untilted marginal of params.
    """
    _require_regime(params)
    if marginal is None:
        marginal = build_marginal(params, grid_size=grid_size)
    _require_rho0_marginal(params, marginal)
    eta = eta_analytic(params)
    t0 = math.sqrt(2.0) / eta
    bracket_norm = norm0_poisson_B_H0_quadrature(marginal)
    b_norm = norm0_B_closed(params)
    emp = eta_empirical(params, marginal, n_samples, rng)
    checks = [
        InequalityCheck("bracket_norm_le_eta_times_B_norm",
                        bracket_norm, eta * b_norm, bracket_norm <= eta * b_norm),
        per_term_integral_bound_check(params),
        InequalityCheck("z_tilde_gt_quarter_box", marginal.z_tilde,
                        params.box_side / 4.0,
                        marginal.z_tilde > params.box_side / 4.0),
    ]
    t0_si = t0_physical(params, units) if units is not None else None
    return BoundReport(c=constant_c(), eta_analytic=eta, eta_empirical=emp,
                       t0_natural=t0, t0_physical=t0_si,
                       regime_ok=params.bound_regime,
                       z_tilde=marginal.z_tilde, inequality_checks=checks)
