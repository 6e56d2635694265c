"""Benchmark inputs: the run environment and the three workloads' set-up.

Importing this module pins numpy to one compute thread, puts the checkout's
``src`` directory first on ``sys.path`` and imports ``spfc`` from there, so the
benchmark always measures the source tree it ships with.  It is shared by
``run.py`` and ``setup_probe.py``; keep it free of benchmark machinery, because
``setup_probe.py`` times its import as part of ``setup_s``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import spfc  # noqa: E402

if Path(spfc.__file__).resolve().parent != SRC / "spfc":
    raise ImportError(f"spfc imported from {spfc.__file__}, not from {SRC}")

from spfc import harness, stepper  # noqa: E402
from spfc.grid import Grid  # noqa: E402
from spfc.model import ModelParams  # noqa: E402
from spfc.spectral import Field  # noqa: E402

NAMES = ("pattern2d", "pattern3d", "conv_space")

# pattern problems: the acceptance criterion-5 constants
EPSILON = 0.5
REG_A = EPSILON**2 / 16.0
DT = 0.05
AMPLITUDE = 0.05
SITE = (50.0, 50.0, 10.0)
PATTERN2D_STEPS = 50  # one episode: t = 0 -> 2.5, one default snapshot time inside
PATTERN3D_STEPS = 10  # one episode: the 8-iteration start of the 3D march

# conv_space: acceptance criterion 2 (``spfc conv-space``)
CONV_N = tuple(range(6, 22, 2))
CONV_DT = 1e-4
CONV_T = 0.16
CONV_T_TRACED = 0.04  # traced runs march a quarter of the horizon
CONV_EPSILON = 0.025
CONV_REG_A = 0.25

# the CLI cross-check schedule: five steps of the pattern2d problem
CLI_STEPS = 5


def pattern_params() -> ModelParams:
    return ModelParams(epsilon=EPSILON, reg_a=REG_A)


def conv_params() -> ModelParams:
    return ModelParams(epsilon=CONV_EPSILON, reg_a=CONV_REG_A)


def pattern2d_config(seed: int, steps: int) -> harness.PatternConfig:
    """The ``spfc simulate`` problem; ``harness.random_init`` draws its field
    from ``seed``, as it does for the CLI."""
    return harness.PatternConfig(
        length=100.0,
        n=256,
        epsilon=EPSILON,
        reg_a=REG_A,
        seed=seed,
        amplitude=AMPLITUDE,
        sites=(SITE,),
        dt_schedule=((DT, steps * DT),),
    )


def pattern3d_grid() -> Grid:
    return Grid(dim=3, n=64, length=25.0)  # h ~ 0.39, as in pattern2d


def pattern3d_field(grid: Grid, seed: int) -> Field:
    """Seeded uniform noise of amplitude 0.05, no nucleation site."""
    rng = np.random.default_rng(seed)
    return Field(grid, AMPLITUDE * (2.0 * rng.random(grid.shape) - 1.0))


def setup(name: str, seed: int) -> object:
    """Everything a workload does before its marching call, as a fresh process
    would do it; returns what the marching call consumes."""
    if name == "pattern2d":
        # the set-up half of harness.pattern_experiment
        cfg = pattern2d_config(seed, PATTERN2D_STEPS)
        return stepper.initial_state(harness.random_init(cfg, cfg.grid()), history="copy")
    if name == "pattern3d":
        return stepper.initial_state(pattern3d_field(pattern3d_grid(), seed))
    if name == "conv_space":
        return conv_params()
    raise ValueError(f"unknown workload {name!r}")
