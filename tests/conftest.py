import numpy as np
import pytest

from dqdnoise.model import ModelParams
from dqdnoise.steady import transport_point


def transport_bundle(params: ModelParams, hamiltonian: str = "full"):
    """(ops, liouvillian, steady state) for one parameter point."""
    return transport_point(params, hamiltonian)


@pytest.fixture(scope="session")
def fig2_params():
    return ModelParams(epsilon=0.0, delta=0.5, g=0.2, omega_b=1.0,
                       gamma_L=0.01, gamma_R=0.01, gamma_b=0.05,
                       temperature=0.0, n_fock=6)


@pytest.fixture(scope="session")
def fig2_bundle(fig2_params):
    return transport_bundle(fig2_params)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
