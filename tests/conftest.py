import pytest
from hypothesis import settings

import rsmcanon as rc

# Tier-1 runs must repeat exactly and stay fast: a fixed example
# sequence, few examples, and no per-example deadline (the first
# examples pay numpy's warm-up). Nothing is written to an example database.
settings.register_profile("tier1", derandomize=True, max_examples=40, deadline=None,
                          database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def eu_model():
    return rc.load_bundled_eu_model()


@pytest.fixture(scope="session")
def eu_canon(eu_model):
    return rc.canonicalize(eu_model)
