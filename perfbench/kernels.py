"""Kernel accounting: the wall-force microbenchmark and computed per-element
operation and byte counts for `wall_force` and `WallMarginal.inverse_cdf`.

The counts are computed from the NumPy expressions in the package, one entry
per array pass: floating-point add/sub/mul/div per element, and bytes read
plus written per element by that pass (8 per float64 or int64 operand, 1 per
bool).  Each pass is counted as if its operands came from memory; whether
they do depends on the array size against the caches, which `cache_fit`
states.  They describe the kernels as written at the commit that added this
file and are labelled `computed`, never measured.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# model.wall_force(z): _checked, then 12 delta [(z+L/2)^-13 + (z-L/2)^-13]
_RECIP_POW13 = [("u*u", 1, 24), ("u2*u2", 1, 24), ("u4*u4", 1, 24),
                ("*u4", 1, 24), ("*u", 1, 24), ("1/x", 1, 16)]
WALL_FORCE_PASSES = (
    [("abs(z)", 0, 16), (">= half", 0, 9), ("any", 0, 1),
     ("z + half", 1, 16), ("z - half", 1, 16)]
    + _RECIP_POW13 + _RECIP_POW13
    + [("sum of terms", 1, 24), ("* 12 delta", 1, 16)])

# WallMarginal.inverse_cdf(u): bracket search, then the cubic Hermite form;
# idx + 1 is formed three times; table gathers read idx and the table entry.
INVERSE_CDF_PASSES = [
    ("searchsorted", 0, 16), ("- 1", 0, 16), ("clip", 0, 16),
    ("x0 gather", 0, 24), ("idx+1", 0, 16), ("x1 gather", 0, 24),
    ("dx", 1, 24), ("u - x0", 1, 24), ("/ dx", 1, 24),
    ("y0 gather", 0, 24), ("idx+1", 0, 16), ("y1 gather", 0, 24),
    ("m0 gather", 0, 24), ("m0 * dx", 1, 24),
    ("idx+1", 0, 16), ("m1 gather", 0, 24), ("m1 * dx", 1, 24),
    ("t2", 1, 24), ("t3", 1, 24),
    ("(2t3 - 3t2 + 1) y0", 5, 96), ("(t3 - 2t2 + t) m0", 4, 88),
    ("(-2t3 + 3t2) y1", 4, 80), ("(t3 - t2) m1", 2, 48),
    ("three sums", 3, 72),
]

SHARD_ROWS = 1024


def per_element(passes) -> tuple[int, int]:
    return sum(p[1] for p in passes), sum(p[2] for p in passes)


def wall_force_ns_per_elem(params, marginal, rng, repeats: int = 21,
                           calls: int = 10) -> float:
    """Median ns per element of `wall_force` on a shard-shaped batch."""
    from gasrelax.gibbs import sample_batch
    from gasrelax.model import wall_force

    z, _ = sample_batch(marginal, rng, SHARD_ROWS)
    wall_force(z, params)
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            wall_force(z, params)
        samples.append((perf_counter() - start) / (calls * z.size))
    return statistics.median(samples) * 1e9


def cache_fit(n_particles: int, n_samples: int, caches: dict) -> dict:
    """Array sizes of both kernels against the L2 and L3 caches."""
    def fit(nbytes):
        return {"bytes": nbytes,
                **{f"fits_{level}": nbytes <= size
                   for level, size in caches.items() if size}}

    return {
        "wall_force_array": fit(SHARD_ROWS * n_particles * 8),
        "inverse_cdf_array_bounds": fit(n_samples * n_particles * 8),
        "caches": caches,
    }
