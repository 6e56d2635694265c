"""Grid functions and the Fourier collocation calculus on them.

Normalization (fixed here, used everywhere)
-------------------------------------------
Every transform is numpy's unnormalized real FFT through
:meth:`Grid.rfft` / :meth:`Grid.irfft`, so the coefficients of a real grid
function ``f`` are

    ``F[m] = sum_i f_i * exp(-2 pi i m . x_i / L)``

on the rfft layout (last axis halved, see :mod:`spfc.grid`).  A stored
coefficient whose last-axis mode lies strictly between 0 and ``n/2`` also
stands for its omitted conjugate partner: :attr:`Grid.parseval_weight` is 2
there and 1 elsewhere.
With the ``h^dim``-weighted discrete L2 norm, Parseval reads

    ``||f||_2^2 = spectral_norm_factor * sum_m parseval_weight[m] * |F[m]|^2``,

``spectral_norm_factor = L^dim / n^(2 dim)``.  ``h^dim * F[m]`` is the
quadrature value of the continuum coefficient
``int f(x) exp(-2 pi i m . x / L) dx``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid

__all__ = [
    "Field",
    "sample",
    "grad",
    "laplacian",
    "inner",
    "norm_l2",
    "norm_lp",
    "norm_h2",
]


@dataclass
class Field:
    """Real grid function: values on the nodes of a periodic grid.

    ``values`` is stored as a C-ordered float64 array of shape
    ``grid.shape`` (row-major over the grid indices).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        self.values = np.ascontiguousarray(v)

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def mean(self) -> float:
        """Plain nodal average; the discrete integral is ``mean * volume``."""
        return float(self.values.mean())


# ----------------------------------------------------------------------
# sampling and differential operators
# ----------------------------------------------------------------------
def sample(fn: Callable[..., np.ndarray], grid: Grid) -> Field:
    """Pointwise evaluation of ``fn(x, y[, z])`` at the grid nodes."""
    return Field(grid, np.asarray(fn(*grid.coords()), dtype=np.float64))


def grad(f: Field) -> tuple[Field, ...]:
    """Spectral gradient; one component Field per axis."""
    spec = f.grid.rfft(f.values)
    return tuple(Field(f.grid, f.grid.irfft(ik * spec)) for ik in f.grid.ik)


def laplacian(f: Field) -> Field:
    """Spectral Laplacian (symbol ``-4 pi^2 |m|^2 / L^2``)."""
    grid = f.grid
    return Field(grid, grid.irfft(-grid.lam * grid.rfft(f.values)))


# ----------------------------------------------------------------------
# inner products and norms
# ----------------------------------------------------------------------
def inner(f: Field, g: Field) -> float:
    """Discrete L2 inner product ``h^dim * sum f_i g_i``."""
    if f.grid != g.grid:
        raise ValueError("inner product of fields on different grids")
    return f.grid.cell_volume * float(np.vdot(f.values, g.values).real)


def norm_l2(f: Field) -> float:
    return float(np.sqrt(f.grid.cell_volume) * np.linalg.norm(f.values.ravel()))


def norm_lp(f: Field, p: float) -> float:
    """Discrete Lp norm (``h^dim`` weights); ``p = inf`` gives the max norm."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(
        (f.grid.cell_volume * np.sum(np.abs(f.values) ** p)) ** (1.0 / p)
    )


def norm_h2(f: Field) -> float:
    grid = f.grid
    spec = grid.rfft(f.values)
    power = grid.parseval_weight * np.abs(spec) ** 2
    sym = 1.0 + grid.lam + grid.lam**2
    return float(np.sqrt(grid.spectral_norm_factor * np.sum(sym * power)))
