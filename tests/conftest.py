import pytest
from hypothesis import HealthCheck, settings

from rdiv import polyhedra, toric

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(autouse=True, scope="module")
def _clear_result_caches():
    """Empty the result caches after each module, so that no module leaves
    a cached result behind that changes what a later module computes or
    traces (a test that counts lp_solve calls sees none for a divisor an
    earlier module already decomposed).  The fan and vertex-table caches
    stay: a preset is one shared Fan, whatever module asks for it."""
    yield
    for cached in (toric.sigma_decomposition, polyhedra.lattice_points, polyhedra._facet_volumes):
        cached.cache_clear()
