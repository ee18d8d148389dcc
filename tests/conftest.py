import pytest

from gasrelax.gibbs import build_marginal
from gasrelax.model import ModelParams


@pytest.fixture(scope="session")
def ref_params():
    """The reference configuration used throughout: N=64, beta=delta=1, L=10."""
    return ModelParams(n_particles=64, beta=1.0, delta_wall=1.0,
                       box_side=10.0, field=1e-3)


@pytest.fixture(scope="session")
def ref_marginal(ref_params):
    return build_marginal(ref_params)


@pytest.fixture(scope="session")
def ref_marginal_tilted(ref_params):
    return build_marginal(ref_params, tilted=True)
