"""Periodic grid descriptors with cached Fourier-space machinery.

A :class:`Grid` describes a uniform lattice on the periodic box ``(0, L)^dim``
with the same number of points ``n`` on every axis.  Spectral data live in
numpy's real-FFT (rfft) layout: the last axis keeps the modes
``0 .. floor(n/2)``, the others the full signed range.  The symbol arrays of
the operators in :mod:`spfc.model` are precomputed here in that layout,
computed once per ``(dim, n, length)`` and shared, read-only, by every equal
grid.

Wavenumber convention
---------------------
Physical wavenumbers are ``2*pi*m / L`` for integer modes ``m``.  On grids
with even ``n`` the unmatched Nyquist mode ``m = -n/2`` is folded to zero in
every derivative symbol (odd and even order alike).  This keeps the discrete
calculus self-adjoint: the divergence of a gradient is the Laplacian and
the summation-by-parts identities hold to round-off on any grid, at the price of
differential operators annihilating pure-Nyquist content.  On odd ``n`` the
mode set is the balanced ``{-K, ..., K}`` and the folding is a no-op.

On the self-conjugate planes (last-axis index 0, and ``n/2`` for even ``n``)
the rfft of a real field is Hermitian, ``X[m] = conj(X[-m])`` over the other
axes; ``irfft`` ignores the rest.  A spectrum carried between steps instead
of re-transformed must be put back on that condition (:meth:`Grid.project_real`):
the field and the quartic term cannot see the anti-Hermitian part, and the
scheme's linearly unstable band near ``|k| = 1`` grows it without bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = ["Grid", "sum_product"]


def sum_product(*arrays: np.ndarray) -> float:
    """``sum(a * b * ...)`` over one to three same-shape float arrays: every
    sum over grid points or modes is this one single-threaded ``np.einsum``
    pass, with no temporaries.  (BLAS dots such as ``np.vdot`` spin a second
    CPU unless the thread count is pinned.)"""
    idx = "abc"[: arrays[0].ndim]
    return float(np.einsum(",".join([idx] * len(arrays)) + "->", *arrays))


def _shared(compute):
    """Property whose read-only array is computed once per ``(dim, n, length)``
    and shared by every equal grid."""

    @lru_cache(maxsize=64)
    def cached(key: tuple) -> np.ndarray:
        arr = compute(Grid(*key))
        arr.setflags(write=False)
        return arr

    return property(lambda self: cached((self.dim, self.n, self.length)), doc=compute.__doc__)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on ``(0, L)^dim``.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    n : int
        Points per axis (identical on all axes), at least 3.
    length : float
        Edge length ``L`` of the box ``(0, L)^dim``.
    """

    dim: int
    n: int
    length: float = 1.0

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 3:
            raise ValueError(f"n must be at least 3, got {self.n}")
        if not 0 < self.length < float("inf"):
            raise ValueError(f"length must be positive and finite, got {self.length}")

    # ------------------------------------------------------------------
    # basic geometry
    # ------------------------------------------------------------------
    @property
    def spacing(self) -> float:
        """Mesh width ``h = L / n``."""
        return self.length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def size(self) -> int:
        return self.n**self.dim

    @property
    def volume(self) -> float:
        """Box measure ``L^dim``."""
        return self.length**self.dim

    @property
    def cell_volume(self) -> float:
        """Quadrature weight ``h^dim`` of one grid cell."""
        return self.spacing**self.dim

    def coords(self) -> tuple[np.ndarray, ...]:
        """Full ``ij``-indexed arrays of the node coordinates ``0, h, ...,
        (n-1) h``, one per axis."""
        x = np.arange(self.n) * self.spacing
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij"))

    # ------------------------------------------------------------------
    # rfft-layout symbols (last axis halved)
    # ------------------------------------------------------------------
    @property
    def rshape(self) -> tuple[int, ...]:
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

    @cached_property
    def _rmodes(self) -> tuple[np.ndarray, ...]:
        """Signed integer modes per axis, broadcastable over the rfft layout,
        with the unmatched Nyquist mode folded to zero."""
        full = np.rint(np.fft.fftfreq(self.n) * self.n)
        half = np.rint(np.fft.rfftfreq(self.n) * self.n)
        if self.n % 2 == 0:
            full[self.n // 2] = 0.0
            half[-1] = 0.0
        axes = [full] * (self.dim - 1) + [half]
        return tuple(
            ax.reshape((1,) * a + (-1,) + (1,) * (self.dim - 1 - a))
            for a, ax in enumerate(axes)
        )

    @cached_property
    def ik(self) -> tuple[np.ndarray, ...]:
        """First-derivative symbols ``2*pi*i*m / L`` per axis (rfft layout)."""
        return tuple(2j * np.pi / self.length * m for m in self._rmodes)

    @_shared
    def lam(self) -> np.ndarray:
        """Symbol of ``-laplacian``: ``4 pi^2 |m|^2 / L^2 >= 0`` (rfft layout)."""
        out = np.zeros(self.rshape)
        for m in self._rmodes:
            out = out + m**2
        return (2.0 * np.pi / self.length) ** 2 * out

    @_shared
    def kernel_mask(self) -> np.ndarray:
        """Modes annihilated by the derivative calculus (zero mode; Nyquist)."""
        return self.lam == 0.0

    @_shared
    def lam_inv(self) -> np.ndarray:
        """Symbol of ``(-laplacian)^(-1)`` with kernel modes mapped to zero."""
        with np.errstate(divide="ignore"):
            inv = np.where(self.kernel_mask, 0.0, 1.0 / np.where(self.kernel_mask, 1.0, self.lam))
        return inv

    @cached_property
    def parseval_weight(self) -> np.ndarray:
        """Multiplicity of each rfft-layout mode in the full spectrum (1 or 2)."""
        w_last = np.full(self.n // 2 + 1, 2.0)
        w_last[0] = 1.0
        if self.n % 2 == 0:
            w_last[-1] = 1.0
        return np.broadcast_to(
            w_last.reshape((1,) * (self.dim - 1) + (-1,)), self.rshape
        )

    @property
    def spectral_norm_factor(self) -> float:
        """``||f||_2^2 = factor * sum(weight * |rfftn(f)|^2)``."""
        return self.volume / self.size**2

    @cached_property
    def _pair_weight(self) -> np.ndarray:
        """``parseval_weight`` on the float view of an rfft array (real and
        imaginary parts interleaved), as a broadcast view of one row."""
        row = np.repeat(self.parseval_weight[(0,) * (self.dim - 1)], 2)
        return np.broadcast_to(row, self.rshape[:-1] + (row.size,))

    # ------------------------------------------------------------------
    # transforms and Parseval on raw rfft coefficients
    # ------------------------------------------------------------------
    def rfft(self, values: np.ndarray) -> np.ndarray:
        # one output array for all stages (rfftn otherwise allocates one per
        # stage; a fresh array costs page faults)
        return np.fft.rfftn(values, out=np.empty(self.rshape, dtype=np.complex128))

    def irfft(self, spec: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(spec, s=self.shape, axes=tuple(range(self.dim)))

    def project_real(self, spec: np.ndarray) -> np.ndarray:
        """Make the self-conjugate planes of ``spec`` Hermitian, in place
        (``X[m] <- (X[m] + conj X[-m]) / 2``); returns ``spec``."""
        axes = tuple(range(self.dim - 1))
        for j in (0, self.n // 2) if self.n % 2 == 0 else (0,):
            plane = spec[..., j]
            spec[..., j] = 0.5 * (plane + np.roll(np.flip(plane, axes), 1, axes).conj())
        return spec

    def spectral_norm2_sq(self, spec: np.ndarray, symbol=None) -> float:
        """Squared L2 norm from raw rfft coefficients (Parseval), weighted by
        a real ``symbol`` when given."""
        return self.spectral_dot(spec, spec, symbol)

    def spectral_dot(self, spec_a: np.ndarray, spec_b: np.ndarray, symbol=None) -> float:
        """L2 inner product of two real fields from their raw rfft
        coefficients, ``spectral_norm_factor * sum(parseval_weight * symbol *
        Re(a conj b))`` (``symbol`` 1 when omitted)."""
        if symbol is not None:
            spec_b = symbol * spec_b
        # the float view needs C-contiguous complex128 (a no-op when it is)
        a = np.asarray(spec_a, dtype=np.complex128, order="C").view(np.float64)
        b = np.asarray(spec_b, dtype=np.complex128, order="C").view(np.float64)
        return self.spectral_norm_factor * sum_product(self._pair_weight, a, b)
