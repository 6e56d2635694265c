import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy loads: idle BLAS workers spin, and their
# time would count toward the acceptance suite's process_time() budgets
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from spfc import Field, Grid, StepOperator
from spfc.harness import CLAIMS
from spfc.model import gradient


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_field(grid: Grid, rng, mean_zero: bool = False, scale: float = 1.0) -> Field:
    values = scale * rng.standard_normal(grid.shape)
    if mean_zero:
        values -= values.mean()
    return Field(grid, values)


def assert_kernel_modes_kept(op, phi: Field) -> None:
    """The kernel modes of ``-lap`` of a solution of the step ``op`` are
    those of ``phi^k``."""
    g = op.grid
    kept, start = g.rfft(phi.values)[g.kernel_mask], op.spectra[0][g.kernel_mask]
    assert np.max(np.abs(kept - start)) <= 1e-13 * (1.0 + np.max(np.abs(start)))


def recording_objective(objectives: list):
    """A ``StepOperator.nonlinear_hat`` to patch in that also appends the
    objective of every iterate it is called on (``psd_solve`` calls it once
    per residual) to ``objectives``."""
    nonlinear_hat = StepOperator.nonlinear_hat

    def wrapped(op, phi_hat, *args):
        grads = gradient(op.grid, phi_hat)
        objectives.append(op.objective_value(phi_hat, grads, op.rhs_hat))
        return nonlinear_hat(op, phi_hat, *args)

    return wrapped


# the claims' problems at a fraction of their sizes, for tests that check
# only how a battery or study is wired to its output
SMALL_SIZES = {
    "sbp_identities": (20, (16,)),
    "interpolation_inequalities": (200, (16,)),
    "gradient_consistency": 3,
    "psd_multistart_uniqueness": 64,
    "psd_mesh_independence": (32, 64),
    "mass_conservation": 10,
    "spatial_accuracy": (6, 8, 10, 12),
    "temporal_order": 16,
}


@pytest.fixture
def small_claims(monkeypatch):
    """``spfc.harness.CLAIMS`` with the sizes of :data:`SMALL_SIZES`."""
    for name, size in SMALL_SIZES.items():
        monkeypatch.setitem(CLAIMS, name, CLAIMS[name]._replace(size=size))
    return CLAIMS


@pytest.fixture
def grid8():
    return Grid(dim=2, n=8, length=1.0)


@pytest.fixture
def grid16():
    return Grid(dim=2, n=16, length=1.0)


# property tests draw the same examples on every run, so tier-1 stays deterministic
settings.register_profile("spfc", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("spfc")
