import numpy as np
import pytest

from cheshire import canonical_observables, canonical_states
from cheshire.qstate import Ket, normalize


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run the slow statistical tier (large shot counts)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow statistical tier; enable with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session")
def pre_post():
    return canonical_states()


@pytest.fixture(scope="session")
def observables():
    return canonical_observables()


@pytest.fixture
def random_state():
    """Factory for normalized random kets with complex amplitudes."""

    def make(rng: np.random.Generator):
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return normalize(Ket(amps))

    return make
