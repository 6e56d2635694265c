"""Square phase field crystal model: energy, chemical potentials and the
per-step nonlinear operator / convex objective for both BDF2 variants and
their BDF1 start step.

The free energy density combines a quartic gradient term with linear
diffusion,

    E(phi) = 1/4 ||grad phi||_4^4 + a/2 ||phi||_2^2
             - ||grad phi||_2^2 + 1/2 ||lap phi||_2^2,      a = 1 - epsilon,

and the dynamics is the H^-1 gradient flow ``d phi/dt = lap mu``.  One
implicit BDF2 (or BDF1) step with time step ``dt`` is equivalent to the
nonlinear equation ``N[phi] = f`` off the kernel of ``-lap``, whose modes
(the mass, and the pure-Nyquist modes of even grids) keep their values in
``phi^k``; that equation in turn is the Euler-Lagrange equation of the
strictly convex objective :meth:`StepOperator.objective_value`.
:class:`StepOperator` is one step: its
data and the spectral-space form of all of this, used by the iterative
solver in :mod:`spfc.psd` and by the checks of :mod:`spfc.harness`.  The two
schemes differ only in
:meth:`ModelParams.concave_symbol`, the part of the quadratic energy they
extrapolate.  The gradient, ``|grad phi|^2`` and the 4-Laplacian flux come
from :func:`gradient`, :func:`grad_sq` and :func:`p_laplacian_hat` alone; the
energies from :func:`energy_hat` and :func:`modified_energy_hat` alone
(:func:`energy` transforms a field first).  The module holds the scheme
only; the manufactured solution lives in :mod:`spfc.harness`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .grid import Grid, sum_product
from .spectral import Field

__all__ = [
    "Scheme",
    "ModelParams",
    "StepOperator",
    "MeanMismatchError",
    "gradient",
    "grad_sq",
    "p_laplacian_hat",
    "energy_hat",
    "modified_energy_hat",
    "energy",
]

MEAN_COMPAT_TOL = 1e-11


class MeanMismatchError(ValueError):
    """Raised when an operation on the mass hyperplane gets off-plane input."""


class Scheme(enum.Enum):
    """The two BDF2 energy-stable splittings (which term is extrapolated)."""

    BDF2_ES_1 = "bdf2_es_1"  # -|grad phi|^2 treated as destabilizing
    BDF2_ES_2 = "bdf2_es_2"  # -eps/2 phi^2 treated as destabilizing


@dataclass(frozen=True)
class ModelParams:
    """Physical and scheme constants.

    ``reg_a`` is the Douglas-Dupont regularization coefficient ``A``; the
    schemes are provably energy stable when ``A >= epsilon^2 / 16``
    (:attr:`stable_guarantee`).
    """

    epsilon: float
    reg_a: float
    scheme: Scheme = Scheme.BDF2_ES_1

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not self.reg_a >= 0.0:
            raise ValueError(f"reg_a must be nonnegative, got {self.reg_a}")

    @property
    def a(self) -> float:
        """Convex quadratic coefficient ``a = 1 - epsilon``."""
        return 1.0 - self.epsilon

    @property
    def stable_guarantee(self) -> bool:
        """True when the energy-dissipation condition ``A >= eps^2/16`` holds."""
        return self.reg_a >= self.epsilon**2 / 16.0

    def energy_symbol(self, lam):
        """Symbol of the quadratic energy's chemical potential,
        ``a - 2 lam + lam^2``, at eigenvalue ``lam`` of ``-lap``."""
        return self.a - 2.0 * lam + lam**2

    def concave_symbol(self, lam):
        """Symbol of the concave part the scheme extrapolates, negated:
        ``2 lam`` for ``-||grad phi||^2`` (scheme 1), ``eps`` for
        ``-eps/2 ||phi||^2`` (scheme 2).  ``energy_symbol + concave_symbol``
        is the convex part the scheme treats implicitly."""
        if self.scheme is Scheme.BDF2_ES_1:
            return 2.0 * lam
        return self.epsilon


def _require_same_mass(phi: Field, ref: Field, what: str) -> None:
    """Raise :class:`MeanMismatchError` unless ``phi`` lies on the mass
    hyperplane of ``ref``, to ``MEAN_COMPAT_TOL`` relative."""
    m1, m2 = phi.mean(), ref.mean()
    if abs(m1 - m2) > MEAN_COMPAT_TOL * (1.0 + max(abs(m1), abs(m2))):
        raise MeanMismatchError(f"{what}: mean {m1:.15e} vs {m2:.15e}")


# ----------------------------------------------------------------------
# spectral step kernel (``out``/``work``: optional caller-owned buffers,
# overwritten and never read, so a PSD solve allocates its arrays once)
# ----------------------------------------------------------------------
def gradient(grid: Grid, spec: np.ndarray, work: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """Physical gradient components of the field with coefficients ``spec``."""
    return [grid.irfft(np.multiply(ik, spec, out=work)) for ik in grid.ik]


def _pointwise_dot(a: list[np.ndarray], b: list[np.ndarray], out=None, work=None) -> np.ndarray:
    out = np.multiply(a[0], b[0], out=out)
    for x, y in zip(a[1:], b[1:]):
        out += np.multiply(x, y, out=work)
    return out


def grad_sq(grad_comps: list[np.ndarray], out=None, work=None) -> np.ndarray:
    """Pointwise ``|grad phi|^2`` from the physical gradient components."""
    return _pointwise_dot(grad_comps, grad_comps, out, work)


def p_laplacian_hat(grid: Grid, grad_comps, gsq=None, out=None, work=None) -> np.ndarray:
    """Coefficients of ``p = -div(|grad phi|^2 grad phi)`` from the gradient
    (and ``|grad phi|^2``, formed when not given); zero on the kernel of ``-lap``.

    Gradient and divergence are spectral; the cubic flux is formed pointwise
    on the grid (plain collocation: its aliased modes are kept).
    """
    if gsq is None:
        gsq = grad_sq(grad_comps)
    for i, (comp, ik) in enumerate(zip(grad_comps, grid.ik)):
        spec = grid.rfft(np.multiply(gsq, comp, out=work))
        if i == 0:
            out = np.multiply(-ik, spec, out=out)
        else:
            spec *= ik
            out -= spec
    return out


def _lin_sym(grid: Grid, params: ModelParams, dt: float) -> np.ndarray:
    """The implicit convex part ``dt (energy + concave) + A dt^2 lam``."""
    lin_sym = dt * (params.energy_symbol(grid.lam) + params.concave_symbol(grid.lam))
    lin_sym += params.reg_a * dt**2 * grid.lam
    return lin_sym


def _step_symbols(
    grid: Grid, params: ModelParams, dt: float, lead: float
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (implicit_sym, pre_inv) on the rfft layout of a step whose
    time difference leads with ``lead phi`` (1 for BDF1, 3/2 for BDF2):
    ``lead lam_inv`` plus :func:`_lin_sym`, and the inverse preconditioner."""
    lin_sym = _lin_sym(grid, params, dt)
    pre_sym = lead * grid.lam_inv + dt * grid.lam + lin_sym
    pre_inv = np.where(grid.kernel_mask, 0.0, 1.0 / pre_sym)
    implicit_sym = lead * grid.lam_inv + lin_sym
    for arr in (implicit_sym, pre_inv):
        arr.setflags(write=False)
    return implicit_sym, pre_inv


@lru_cache(maxsize=16)
def _scheme_symbols(grid: Grid, params: ModelParams, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The BDF2 step's :func:`_step_symbols`, shared by every step of a march
    (a BDF1 step is one step, so its symbols are not kept)."""
    return _step_symbols(grid, params, dt, 1.5)


class StepOperator:
    """One implicit step ``N[phi] = f``: the history levels, the step size,
    the model constants and an optional source at the new time level, with
    the spectral-space machinery of the step.

    With ``phi_km1`` the step is BDF2, time difference
    ``3/2 phi - 2 phi^k + 1/2 phi^{k-1}`` and concave part extrapolated to
    ``2 phi^k - phi^{k-1}``.  With ``phi_km1=None`` it is BDF1 with the same
    convex split: time difference ``phi - phi^k``, concave part at ``phi^k``.
    Both carry the Douglas-Dupont term ``A dt lam (phi - phi^k)``, and both
    dissipate the modified energy when ``A >= eps^2/16``.

    Works on raw arrays: fields as rfft coefficient arrays (``*_hat``) plus,
    where the quartic term is involved, the gradient components from
    :func:`gradient` or the flux from :func:`p_laplacian_hat`; the scheme
    algebra exists here exactly once.  ``spectra``
    holds the rfft coefficients of the levels, ``(phi_k, phi_km1)`` or
    ``(phi_k,)``, when they are already known (real-field projected, see
    :meth:`Grid.project_real`); otherwise they are transformed on first use.
    ``fluxes`` holds the 4-Laplacian coefficients
    ``p = -div(|grad phi|^2 grad phi)`` of the levels, ``(p^k, p^{k-1})`` or
    ``(p^k,)``, when a march carries them; a BDF1 step built without them
    forms ``p^k`` on first use, as it does its spectrum.  With fluxes,
    :func:`spfc.psd.psd_solve` takes the residual of a copy of ``phi_k``
    from ``p^k`` and starts from the linearly implicit predictor when that
    beats the copy.

    ``N[phi] = implicit_sym phi + explicit_hat + dt p``, ``p`` the 4-Laplacian
    of ``phi``, is formed in :meth:`nonlinear_hat` alone.
    """

    def __init__(
        self, phi_k: Field, phi_km1: Optional[Field], dt: float, params: ModelParams,
        source: Optional[Field] = None, spectra: Optional[tuple[np.ndarray, ...]] = None,
        fluxes: Optional[tuple[np.ndarray, ...]] = None,
    ):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if source is not None and source.grid != phi_k.grid:
            raise ValueError("source lives on a different grid")
        self.grid, self.params, self.dt = phi_k.grid, params, dt
        levels = 1 if phi_km1 is None else 2
        if fluxes is not None and len(fluxes) != levels:
            raise ValueError(f"a BDF{levels} step carries {levels} flux(es), got {len(fluxes)}")
        if phi_km1 is None:
            self.lead = 1.0
            self.implicit_sym, self.pre_inv = _step_symbols(self.grid, params, dt, self.lead)
        else:
            if phi_k.grid != phi_km1.grid:
                raise ValueError("history levels live on different grids")
            _require_same_mass(phi_k, phi_km1, "history levels carry different mass")
            self.lead = 1.5
            self.implicit_sym, self.pre_inv = _scheme_symbols(self.grid, params, dt)
        self.phi_k, self.phi_km1, self.source = phi_k, phi_km1, source
        if fluxes is not None or phi_km1 is not None:
            self.fluxes = fluxes
        if spectra is not None:
            self.spectra = spectra

    @cached_property
    def spectra(self) -> tuple[np.ndarray, ...]:
        levels = (self.phi_k,) if self.phi_km1 is None else (self.phi_k, self.phi_km1)
        return tuple(self.grid.rfft(phi.values) for phi in levels)

    @cached_property
    def fluxes(self) -> tuple[np.ndarray, ...]:
        """``(p^k,)`` of a BDF1 step built without it, formed on first use."""
        return (p_laplacian_hat(self.grid, gradient(self.grid, self.spectra[0])),)

    @property
    def bdf_tail_hat(self) -> np.ndarray:
        """The explicit part of the time difference: ``-phi^k`` (BDF1) or
        ``-2 phi^k + 1/2 phi^{k-1}`` (BDF2), as a fresh array."""
        if self.phi_km1 is None:
            return -self.spectra[0]
        phi_k_hat, phi_km1_hat = self.spectra
        tail = -2.0 * phi_k_hat
        tail += 0.5 * phi_km1_hat
        return tail

    @cached_property
    def explicit_hat(self) -> np.ndarray:
        """The constant term of ``N``: ``lam_inv * bdf_tail_hat``."""
        tail = self.bdf_tail_hat
        tail *= self.grid.lam_inv
        return tail

    @cached_property
    def rhs_hat(self) -> np.ndarray:
        """Coefficients of the step's right-hand side ``f``: the concave part
        at ``phi^k`` (BDF1) or extrapolated (BDF2), and the regularization
        (and the source, if any)."""
        g, p, dt = self.grid, self.params, self.dt
        phi_k_hat = self.spectra[0]
        concave_at = phi_k_hat if self.phi_km1 is None else 2.0 * phi_k_hat - self.spectra[1]
        out = dt * p.concave_symbol(g.lam) * concave_at
        out += p.reg_a * dt**2 * g.lam * phi_k_hat
        if self.source is not None:
            # fold the source through (-lap)^{-1}; kernel modes (and with
            # them the source mean) drop out, preserving mass
            out += dt * g.lam_inv * g.rfft(self.source.values)
        return out

    def nonlinear_hat(
        self, phi_hat: np.ndarray, p_hat: np.ndarray,
        out: Optional[np.ndarray] = None, work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Coefficients of ``N[phi]`` from the iterate's transform and its
        4-Laplacian coefficients (:func:`p_laplacian_hat`)."""
        out = np.multiply(self.implicit_sym, phi_hat, out=out)
        out += self.explicit_hat
        out += np.multiply(self.dt, p_hat, out=work)
        return out

    # -- scalar functionals --------------------------------------------
    def objective_value(
        self,
        phi_hat: np.ndarray,
        grad_comps: list[np.ndarray],
        f_hat: np.ndarray,
    ) -> float:
        """Convex objective whose critical point solves ``N[phi] = f``."""
        g = self.grid
        gsq = grad_sq(grad_comps)
        bdf_hat = self.bdf_tail_hat
        bdf_hat += self.lead * phi_hat
        val = g.spectral_norm2_sq(bdf_hat, g.lam_inv) / (2.0 * self.lead)
        val += 0.25 * self.dt * g.cell_volume * sum_product(gsq, gsq)
        val += 0.5 * g.spectral_norm2_sq(phi_hat, _lin_sym(g, self.params, self.dt))
        return val - g.spectral_dot(f_hat, phi_hat)

    def line_coefficients(
        self,
        grad_comps: list[np.ndarray],
        gg: np.ndarray,
        dir_grad_comps: list[np.ndarray],
        d_hat: np.ndarray,
        c0: float,
        work: Optional[tuple[np.ndarray, ...]] = None,
    ) -> tuple[float, float, float, float]:
        """Cubic expansion of the directional derivative along ``d``.

        ``dF[phi + alpha d](d) = c3 a^3 + c2 a^2 + c1 a + c0`` where ``c0``
        (the residual pairing ``<N(phi) - f, d>``) and ``gg = |grad phi|^2``
        are supplied by the caller; ``work``: three grid-shape buffers and
        one rfft-layout buffer.
        """
        ge_buf, ee_buf, tmp, spec = (None,) * 4 if work is None else work
        ge = _pointwise_dot(grad_comps, dir_grad_comps, ge_buf, tmp)
        ee = grad_sq(dir_grad_comps, ee_buf, tmp)
        scale = self.dt * self.grid.cell_volume
        c3 = scale * sum_product(ee, ee)
        c2 = 3.0 * scale * sum_product(ge, ee)
        c1 = scale * (2.0 * sum_product(ge, ge) + sum_product(gg, ee))
        c1 += self.grid.spectral_dot(d_hat, np.multiply(self.implicit_sym, d_hat, out=spec))
        return c0, c1, c2, c3


# ----------------------------------------------------------------------
# energies
# ----------------------------------------------------------------------
def energy_hat(grid: Grid, params: ModelParams, spec: np.ndarray, gsq: np.ndarray) -> float:
    """Discrete free energy of the field with rfft coefficients ``spec`` and
    pointwise ``|grad phi|^2`` ``gsq``."""
    quartic = grid.cell_volume * sum_product(gsq, gsq)
    l2_sq = grid.spectral_norm2_sq(spec)
    grad_l2_sq = grid.cell_volume * sum_product(gsq)
    lap_sq = grid.spectral_norm2_sq(spec, grid.lam**2)
    return 0.25 * quartic + 0.5 * params.a * l2_sq - grad_l2_sq + 0.5 * lap_sq


def modified_energy_hat(
    grid: Grid, params: ModelParams, dt: float, energy_value: float, delta_hat: np.ndarray
) -> float:
    """Scheme-appropriate modified energy from the free energy of the new
    state and the coefficients of the (mean-zero) step difference ``delta``.

    It augments the free energy with ``1/(4 dt) ||delta||_{-1}^2`` and half
    the ``delta`` norm of the scheme's concave symbol: ``||grad delta||_2^2``
    for scheme 1, ``eps/2 ||delta||_2^2`` for scheme 2.
    """
    symbol = grid.lam_inv / (4.0 * dt) + 0.5 * params.concave_symbol(grid.lam)
    return energy_value + grid.spectral_norm2_sq(delta_hat, symbol)


def energy(phi: Field, params: ModelParams) -> float:
    """Discrete free energy of a state."""
    g = phi.grid
    spec = g.rfft(phi.values)
    return energy_hat(g, params, spec, grad_sq(gradient(g, spec)))
