import os

# one BLAS thread unless the caller sets one: the per-point LUs and dense products
# are too small to gain from more (README, "Install and test"); set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dqdnoise import superop  # noqa: E402
from dqdnoise.model import ModelParams  # noqa: E402
from dqdnoise.noise import TransportPoint  # noqa: E402


@pytest.fixture(scope="session")
def fig2_params():
    return ModelParams(epsilon=0.0, delta=0.5, g=0.2, omega_b=1.0,
                       gamma_L=0.01, gamma_R=0.01, gamma_b=0.05,
                       temperature=0.0, n_fock=6)


@pytest.fixture(scope="session")
def fig2_bundle(fig2_params):
    return TransportPoint(fig2_params)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def operator_builds(monkeypatch):
    """Spaces passed to ``build_operators`` by ``GeneratorPlan`` while the test runs."""
    calls = []
    build = superop.build_operators

    def counting(space):
        calls.append(space)
        return build(space)

    monkeypatch.setattr(superop, "build_operators", counting)
    return calls
