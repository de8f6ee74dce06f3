import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_spd(rng, n, jitter=0.5):
    """Well-conditioned SPD test matrix with O(1) entries."""
    a = rng.standard_normal((n, n))
    return a @ a.T / n + jitter * np.eye(n)


def random_correlation(rng, n, jitter=0.5):
    """SPD matrix normalised to a unit diagonal."""
    m = random_spd(rng, n, jitter)
    d = 1.0 / np.sqrt(np.diagonal(m))
    return m * np.outer(d, d)


def random_dense_contraction(rng, n1, n2, sigma=0.9):
    a = rng.standard_normal((n1, n2))
    return sigma * a / np.linalg.svd(a, compute_uv=False)[0]


@pytest.fixture
def spd_factory():
    return random_spd


@pytest.fixture
def contraction_factory():
    return random_dense_contraction


@pytest.fixture(scope="session")
def desk_darcy_stack():
    """The desk darcy problem (config seed 7) and a stack of 32 reduced
    fields drawn by Matheron's rule from the conditional of the model
    linearised at its warm start, as a block of independence moves
    proposes them, at correlation values uniform on (-0.9, 0.9)^2."""
    from jointprior.experiments import darcy
    from jointprior.experiments.configs import DarcyConfig, load_config
    from jointprior.inference import _Evidence, linearised_data

    problem = darcy.build_problem(load_config(DarcyConfig, None, {"seed": 7}))
    start = darcy.warm_start(problem)
    evidence = _Evidence(start.jacobian, linearised_data(start, problem["d"]),
                         problem["noise"], problem["family"])
    rng = np.random.default_rng(3)
    return problem, evidence.draw(rng, rng.uniform(-0.9, 0.9, (32, 2)))
