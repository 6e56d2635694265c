import math
import os
import sys
from pathlib import Path
from typing import Optional

# one BLAS thread, set before numpy loads: idle BLAS workers spin, and their
# time would count toward the acceptance suite's process_time() budgets
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from spfc import Field, Grid, StepOperator


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


def recording_objective(objectives: list, residuals: Optional[list] = None):
    """A ``StepOperator.nonlinear_hat`` to patch in that also appends the
    objective of every iterate it is called on (``psd_solve`` calls it once
    per residual) to ``objectives`` and, if given, the residual norm
    ``psd_solve`` forms from it to ``residuals``."""
    nonlinear_hat = StepOperator.nonlinear_hat

    def wrapped(op, phi_hat, grad_comps, *args):
        objectives.append(op.objective_value(phi_hat, grad_comps, op.rhs_hat))
        out = nonlinear_hat(op, phi_hat, grad_comps, *args)
        if residuals is not None:
            r_hat = op.rhs_hat - out
            r_hat[op.grid.kernel_mask] = 0.0
            residuals.append(math.sqrt(op.grid.spectral_norm2_sq(r_hat)))
        return out

    return wrapped


@pytest.fixture
def grid8():
    return Grid(dim=2, n=8, length=1.0)


@pytest.fixture
def grid16():
    return Grid(dim=2, n=16, length=1.0)


# property tests draw the same examples on every run, so tier-1 stays deterministic
settings.register_profile("spfc", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("spfc")
