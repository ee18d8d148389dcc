"""Are the standard errors honest?  Each sampled estimator is run on K fixed
seeds against its exact or quadrature target, and the K z-scores
(estimate - target) / standard error must look like unit normals: their
mean within 4/sqrt(K) of 0 and their sample sd inside SD_BAND.

The band was fixed before the test ran on any seed; a failure is a biased
estimate or a wrong standard error, not a reason to move it.  The norm at
beta*delta = 1e-12 is left out: the uniform CDF table under-resolves so
thin a wall layer, and its bias shows here as a mean z near +1.7.
"""

import math

import numpy as np
import pytest

from gasrelax.dynamics import IntegratorConfig, autocorr_B
from gasrelax.gibbs import (build_marginal, norm0_mc,
                            norm0_poisson_B_H0_quadrature)
from gasrelax.model import ModelParams
from gasrelax.rng import philox_key

K = 64
SD_BAND = (0.75, 1.3)
SEED = 20261020


def _assert_calibrated(z):
    z = np.asarray(z)
    assert z.shape == (K,)
    assert abs(z.mean()) <= 4.0 / math.sqrt(K), z.mean()
    assert SD_BAND[0] <= z.std(ddof=1) <= SD_BAND[1], z.std(ddof=1)


@pytest.mark.parametrize("delta", [1.0, 1e-6], ids=["bd1", "bd1e-6"])
def test_bracket_norm_against_quadrature(delta):
    # 20,000 states of 64 particles per seed, beta = 1, L = 10
    marginal = build_marginal(ModelParams(64, 1.0, delta, 10.0))
    target = norm0_poisson_B_H0_quadrature(marginal)
    z = []
    for k in range(K):
        est = norm0_mc(marginal, 20000, philox_key(SEED, 1, k))
        z.append((est.value - target) / est.std_error)
    _assert_calibrated(z)


def test_initial_kernel_against_momentum_variance():
    # C(0) = E[B^2] = N / beta exactly, whatever the walls; one step of
    # 2000 trajectories of 16 particles per seed.  The step is 1e-3 / sqrt(2):
    # one of 1e-3 drifts H1 by 1.5e-5, past the default tolerance
    params = ModelParams(16, 0.5, 1.0, 10.0)
    marginal = build_marginal(params)
    dt = 1e-3 / math.sqrt(2.0)
    config = IntegratorConfig(dt=dt, t_end=dt)
    target = params.n_particles / params.beta
    z = []
    for k in range(K):
        series = autocorr_B(params, config, 2000, SEED + k,
                            marginal=marginal, n_times=2)
        z.append((series.c_values[0] - target) / series.std_errors[0])
    _assert_calibrated(z)
