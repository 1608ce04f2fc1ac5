import numpy as np
import pytest

from binomcap import ChannelSpec, SolverConfig, exact_solution, solve_capacity
from binomcap.distributions import _info_density_against_logq, log_output_pmf


@pytest.fixture(scope="session")
def solved():
    """Memoized access to solver runs shared across the whole test session."""
    cache = {}

    def get(n, **config_kwargs):
        key = (n, tuple(sorted(config_kwargs.items())))
        if key not in cache:
            cfg = SolverConfig(**config_kwargs) if config_kwargs else SolverConfig()
            cache[key] = solve_capacity(ChannelSpec(n), cfg)
        return cache[key]

    def put(n, report, **config_kwargs):
        cache[(n, tuple(sorted(config_kwargs.items())))] = report

    get.put = put
    return get


@pytest.fixture(scope="session")
def table_dists():
    """Known optimal input distributions for n = 1, 2, 3."""
    return {n: exact_solution(n).input for n in (1, 2, 3)}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def uniform_sweep():
    """The certificate before peak refinement, kept as a reference: (slack,
    largest |i|) of the information density on 20490 uniform points of
    [0, 1] plus the atoms."""

    def sweep(dist, spec):
        logq = log_output_pmf(dist, spec)
        xs = np.union1d(np.linspace(0.0, 1.0, 20490), dist.points)
        ivals = _info_density_against_logq(spec, xs, logq)
        cap = float(dist.weights @ ivals[np.searchsorted(xs, dist.points)])
        return float(ivals.max()) - cap, float(np.abs(ivals).max())

    return sweep
