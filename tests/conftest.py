import pytest
from hypothesis import HealthCheck, settings

from spinstat import model, report

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# the per-spin and per-field caches of the analyze path; su2.hermitian_basis
# keeps its own
ANALYZE_CACHES = (model._auto_block, model._field_block, report._pair_diagnosis)


@pytest.fixture
def clear_analyze_caches():
    """A function that empties the per-spin caches of the analyze path."""
    def clear():
        for cached in ANALYZE_CACHES:
            cached.cache_clear()
    return clear


@pytest.fixture(autouse=True)
def _empty_analyze_caches(clear_analyze_caches):
    # each test starts with the caches empty, so a test that spies on a
    # function they call sees every call, whatever test ran before it
    clear_analyze_caches()
