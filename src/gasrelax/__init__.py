"""Relaxation-time lower bounds for a gas in a box with repulsive walls.

Closed-form constants and bounds, Gibbs-measure sampling, and ensemble
Hamiltonian dynamics for verifying the bounds empirically.  The package root
re-exports the names of the README library example; everything else is
imported from its submodule (`gasrelax.model`, `gasrelax.gibbs`, ...).
"""

__version__ = "0.1.0"

from .model import ModelParams
from .bounds import eta_analytic, t_relax_lower
from .dynamics import IntegratorConfig, autocorr_B

__all__ = ["ModelParams", "IntegratorConfig", "autocorr_B", "eta_analytic",
           "t_relax_lower"]
