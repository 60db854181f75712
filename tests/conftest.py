import os

# one BLAS thread unless the caller sets one: the per-point LUs and dense products
# are too small to gain from more (README, "Install and test"); set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dqdnoise import noise, superop  # noqa: E402
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


@pytest.fixture(scope="session")
def random_lindbladian():
    """A seeded generator on D = 4 (not dot (x) Fock: one whole-space block)
    with a complex H and two complex jump operators, whose X^dag X are not
    diagonal; e is counted."""
    gen = np.random.default_rng(99)

    def cplx():
        return gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))

    h = cplx()
    return superop.assemble_liouvillian(0.5 * (h + h.conj().T),
                                        [("in", 0.3, cplx(), False), ("e", 0.2, cplx(), True)])


@pytest.fixture()
def dense_cut(monkeypatch):
    """Force every nonzero-frequency grid onto one path: "dense" or "lu"."""
    def force(path):
        monkeypatch.setattr(noise, "DENSE_BREAK_EVEN", 0.0 if path == "dense" else np.inf)
    return force


@pytest.fixture()
def empty_plan_cache():
    """Empty the process's plan cache before the test, so that it builds every plan
    it uses. A test that alters how a plan is built empties it after itself too."""
    superop.generator_plan.cache_clear()


@pytest.fixture()
def plan_builds(monkeypatch, empty_plan_cache):
    """Arguments of each ``GeneratorPlan`` built while the test runs."""
    builds = []
    init = superop.GeneratorPlan.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(superop.GeneratorPlan, "__init__", counting)
    return builds


@pytest.fixture()
def operator_builds(monkeypatch, empty_plan_cache):
    """Spaces passed to ``build_operators`` by ``GeneratorPlan`` while the test runs."""
    calls = []
    build = superop.build_operators

    def counting(space):
        calls.append(space)
        return build(space)

    monkeypatch.setattr(superop, "build_operators", counting)
    return calls
