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
    """Each test starts with no remembered oracle results, so that an S-pair
    count it reads does not depend on the tests that ran before it."""
    veronese._ORACLE_MEMO.clear()
