"""Grid functions, the Fourier normalization they share, and their L2 norms.

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

Derivatives act on rfft arrays only, through the symbols of :class:`Grid`
(``ik``, ``lam``, ``lam_inv``) and the kernels of :mod:`spfc.model`
(``gradient``, ``grad_sq``, ``p_laplacian_hat``): the calculus the solver
runs is the only one.  This module holds the grid function itself and its
nodal L2 inner product and norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, sum_product

__all__ = [
    "Field",
    "inner",
    "norm_l2",
    "norm_h2_hat",
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

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def mean(self) -> float:
        """Plain nodal average; the discrete integral is ``mean * volume``."""
        return float(self.values.mean())


# ----------------------------------------------------------------------
# inner products and norms
# ----------------------------------------------------------------------
def inner(f: Field, g: Field) -> float:
    """Discrete L2 inner product ``h^dim * sum f_i g_i``."""
    if f.grid != g.grid:
        raise ValueError("inner product of fields on different grids")
    return f.grid.cell_volume * sum_product(f.values, g.values)


def norm_l2(f: Field) -> float:
    return math.sqrt(inner(f, f))


def norm_h2_hat(grid: Grid, spec: np.ndarray) -> float:
    """H^2 norm, symbol ``1 + lam + lam^2``, from raw rfft coefficients."""
    return math.sqrt(grid.spectral_norm2_sq(spec, 1.0 + grid.lam + grid.lam**2))
