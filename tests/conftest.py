import os
import random

import pytest

from veronese_gb import veronese

SEED = int(os.environ.get("VERONESE_GB_TEST_SEED", "20250810"))


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture(autouse=True)
def empty_oracle_memo():
    """Each test starts with no oracle contexts, and so with no remembered
    oracle results, which each context keeps for its own shape, so that an
    S-pair count it reads, or a context it inspects, does not depend on the
    tests that ran before it."""
    veronese._oracle_context.cache_clear()
