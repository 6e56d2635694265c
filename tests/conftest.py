import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from spfc import Field, Grid


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_field(grid: Grid, rng, mean_zero: bool = False, scale: float = 1.0) -> Field:
    values = scale * rng.standard_normal(grid.shape)
    if mean_zero:
        values -= values.mean()
    return Field(grid, values)


@pytest.fixture
def grid8():
    return Grid(dim=2, n=8, length=1.0)


@pytest.fixture
def grid16():
    return Grid(dim=2, n=16, length=1.0)


# property tests draw the same examples on every run, so tier-1 stays deterministic
settings.register_profile("spfc", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("spfc")
