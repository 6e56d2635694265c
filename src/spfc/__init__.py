"""Fourier pseudo-spectral solver for the square phase field crystal
equation on periodic boxes: energy-stable BDF2 time stepping driven by a
preconditioned steepest descent solver, plus the verification harness and a
command-line front end.
"""

from .grid import Grid
from .spectral import Field, norm_l2
from .model import Scheme, ModelParams, StepOperator, energy
from .psd import PsdConfig, SolveStats, psd_solve, solve_cubic_monotone
from .stepper import SimState, EnergyRecord, initial_state, step, run
from .harness import (
    PatternConfig,
    ConvergenceRow,
    random_init,
    order_fit,
    spatial_convergence_study,
    temporal_convergence_study,
    pattern_experiment,
    verify_suite,
)

__version__ = "0.1.0"
