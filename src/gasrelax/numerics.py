"""Shared numerical kernels: adaptive 1D quadrature and the Gamma function.

The quadrature is a globally adaptive Gauss-Kronrod scheme (7-point Gauss
nested in a 15-point Kronrod rule).  Integrands must accept and return numpy
arrays; panels whose nested-rule error estimate dominates are bisected until
the summed estimate meets the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernel

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "integrate_finite",
    "gamma_function",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not self.error_estimate >= 0.0:
            raise ValueError("error_estimate must be >= 0")
        if self.evaluations <= 0:
            raise ValueError("evaluations must be positive")


# 15-point Kronrod nodes on [-1, 1] (positive half; node 7 is the center)
# with Kronrod weights, and the weights of the embedded 7-point Gauss rule.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([0.129484966168870, 0.279705391489277,
                0.381830050505119, 0.417959183673469])


def _kronrod_panels(f, a, b):
    """One K15/G7 pass over each panel [a[k], b[k]]: returns (k15, |k15 - g7|).

    f is evaluated once, on the 15 nodes of every panel.  One kernel call
    forms each panel's weighted sums as a forward chain of fused
    multiply-adds (kronrod_sums), the bits that np.dot of each row gave
    under OpenBLAS's AVX-512 kernel, now on any CPU.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    center = (0.5 * (a + b))[:, None]
    halfw = 0.5 * (b - a)
    offsets = halfw[:, None] * _XGK[:7]
    nodes = np.concatenate((center - offsets, center,
                            center + offsets[:, ::-1]), axis=1)
    fv = np.asarray(f(nodes.reshape(-1)), dtype=float)
    if fv.shape != (nodes.size,):
        raise QuadratureError("integrand must be vectorized over numpy arrays")
    fv = fv.reshape(nodes.shape)
    bad = np.flatnonzero(~np.isfinite(fv).all(axis=1))
    if bad.size:
        k = bad[0]
        raise QuadratureError(f"non-finite integrand value on panel "
                              f"[{float(a[k])!r}, {float(b[k])!r}]")
    pairs = fv[:, :7] + fv[:, 14:7:-1]
    fc = fv[:, 7]
    k_sum, g_sum = np.empty((2, len(fc)))
    _kernel.library().kronrod_sums(pairs.ctypes.data, len(fc),
                                   _WGK.ctypes.data, _WG.ctypes.data,
                                   k_sum.ctypes.data, g_sum.ctypes.data)
    k15 = halfw * (k_sum + _WGK[7] * fc)
    g7 = halfw * (g_sum + _WG[3] * fc)
    return k15, np.abs(k15 - g7)


def integrate_finite(f: Callable, a: float, b: float, rel_tol: float = 1e-10,
                     abs_floor: float = 1e-14, max_panels: int = 4096,
                     breakpoints: Sequence[float] = ()) -> QuadratureResult:
    """Integrate f over the finite interval (a, b).

    f must be finite on the open interval (endpoint limits may vanish); it is
    evaluated only at interior Kronrod nodes.  Convergence criterion:
    summed panel error <= max(rel_tol * |value|, abs_floor).

    Features narrower than the node spacing of the first panel are invisible
    to the adaptive refinement; callers that know where such features live
    (boundary layers, sharp peaks) must seed them via `breakpoints`.
    """
    if not a < b:
        raise ValueError("require a < b")
    edges = sorted({a, b, *(float(x) for x in breakpoints if a < x < b)})
    values, errs = _kronrod_panels(f, edges[:-1], edges[1:])
    panels = list(zip(errs, edges[:-1], edges[1:], values))
    evaluations = 15 * len(panels)
    while True:
        total = math.fsum(p[3] for p in panels)
        total_err = math.fsum(p[0] for p in panels)
        if total_err <= max(rel_tol * abs(total), abs_floor):
            return QuadratureResult(total, total_err, evaluations)
        if len(panels) >= max_panels:
            raise QuadratureError(
                f"no convergence after {max_panels} panels "
                f"(error {total_err:.3e} for value {total:.6e})")
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, pa, pb, _ = panels.pop(worst)
        mid = 0.5 * (pa + pb)
        (vl, vr), (el, er) = _kronrod_panels(f, (pa, mid), (mid, pb))
        panels.append((el, pa, mid, vl))
        panels.append((er, mid, pb, vr))
        evaluations += 30


# Lanczos approximation, g = 7, 9 coefficients: relative accuracy well below
# 1e-12 for real x >= 0.5; smaller arguments go through Gamma(x) = Gamma(x+1)/x.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_function(x: float) -> float:
    """Gamma(x) for real x > 0."""
    x = float(x)
    if not x > 0.0:
        raise ValueError("gamma_function requires x > 0")
    if x < 0.5:
        return gamma_function(x + 1.0) / x
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc
