"""Square phase field crystal model: energy, chemical potentials and the
per-step nonlinear operator / convex objective for both BDF2 variants.

The free energy density combines a quartic gradient term with linear
diffusion,

    E(phi) = 1/4 ||grad phi||_4^4 + a/2 ||phi||_2^2
             - ||grad phi||_2^2 + 1/2 ||lap phi||_2^2,      a = 1 - epsilon,

and the dynamics is the H^-1 gradient flow ``d phi/dt = lap mu``.  One
implicit BDF2 step with time step ``dt`` is equivalent to the nonlinear
equation ``N[phi] = f`` on the mass hyperplane, which in turn is the
Euler-Lagrange equation of the strictly convex objective implemented in
:func:`objective`.  :class:`StepOperator` holds the spectral-space form of
all of this for one step and is shared by the public functions here and the
iterative solver in :mod:`spfc.psd`.  The gradient, ``|grad phi|^2`` and the
4-Laplacian flux come from :func:`gradient`, :func:`grad_sq` and
:func:`p_laplacian_hat` alone, in the step operator, in :func:`energy` and in
the initial chemical potential of :func:`spfc.stepper.ghost_init`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .grid import Grid
from .spectral import Field

__all__ = [
    "Scheme",
    "ModelParams",
    "StepContext",
    "StepOperator",
    "MeanMismatchError",
    "gradient",
    "grad_sq",
    "p_laplacian_hat",
    "energy",
    "nonlinear_operator",
    "rhs",
    "objective",
    "ManufacturedSolution",
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
        if self.reg_a < 0.0:
            raise ValueError(f"reg_a must be nonnegative, got {self.reg_a}")

    @property
    def a(self) -> float:
        """Convex quadratic coefficient ``a = 1 - epsilon``."""
        return 1.0 - self.epsilon

    @property
    def stable_guarantee(self) -> bool:
        """True when the energy-dissipation condition ``A >= eps^2/16`` holds."""
        return self.reg_a >= self.epsilon**2 / 16.0


def _mean_compatible(m1: float, m2: float) -> bool:
    return abs(m1 - m2) <= MEAN_COMPAT_TOL * (1.0 + max(abs(m1), abs(m2)))


@dataclass
class StepContext:
    """Frozen data of one implicit step: the two history levels, the step
    size, the model constants and an optional source at the new time level.
    """

    phi_k: Field
    phi_km1: Field
    dt: float
    params: ModelParams
    source: Optional[Field] = None

    def __post_init__(self) -> None:
        if self.phi_k.grid != self.phi_km1.grid:
            raise ValueError("history levels live on different grids")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.source is not None and self.source.grid != self.phi_k.grid:
            raise ValueError("source lives on a different grid")
        if not _mean_compatible(self.phi_k.mean(), self.phi_km1.mean()):
            raise MeanMismatchError(
                "history levels carry different mass: "
                f"{self.phi_k.mean():.15e} vs {self.phi_km1.mean():.15e}"
            )

    @property
    def grid(self) -> Grid:
        return self.phi_k.grid


# ----------------------------------------------------------------------
# spectral step kernel
# ----------------------------------------------------------------------
def gradient(grid: Grid, spec: np.ndarray) -> list[np.ndarray]:
    """Physical gradient components of the field with coefficients ``spec``."""
    return [grid.irfft(ik * spec) for ik in grid.ik]


def grad_sq(grad_comps: list[np.ndarray]) -> np.ndarray:
    """Pointwise ``|grad phi|^2`` from the physical gradient components."""
    gsq = grad_comps[0] ** 2
    for comp in grad_comps[1:]:
        gsq += comp**2
    return gsq


def p_laplacian_hat(grid: Grid, grad_comps: list[np.ndarray]) -> np.ndarray:
    """Coefficients of ``-div(|grad phi|^2 grad phi)`` from the gradient.

    Gradient and divergence are spectral; the cubic flux is formed pointwise
    on the grid (plain collocation: its aliased modes are kept).
    """
    gsq = grad_sq(grad_comps)
    acc = np.zeros(grid.rshape, dtype=np.complex128)
    for comp, ik in zip(grad_comps, grid.ik):
        acc += ik * grid.rfft(gsq * comp)
    return -acc


@lru_cache(maxsize=16)
def _scheme_symbols(
    grid: Grid, scheme: Scheme, epsilon: float, reg_a: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """(lin_sym, pre_inv) on the rfft layout for one (grid, params, dt)."""
    lam = grid.lam
    a = 1.0 - epsilon
    if scheme is Scheme.BDF2_ES_1:
        lin_sym = a * dt + reg_a * dt**2 * lam + dt * lam**2
    else:
        lin_sym = dt * (1.0 - lam) ** 2 + reg_a * dt**2 * lam
    pre_sym = 1.5 * grid.lam_inv + dt * lam + lin_sym
    pre_inv = np.where(grid.kernel_mask, 0.0, 1.0 / pre_sym)
    return lin_sym, pre_inv


class StepOperator:
    """Spectral-space machinery of one implicit step ``N[phi] = f``.

    Works on raw arrays: fields as rfft coefficient arrays (``*_hat``) plus,
    where the quartic term is involved, the physical gradient components from
    :func:`gradient`.  The Field-level functions below and the PSD solver both
    delegate here, so the scheme algebra exists exactly once.
    """

    def __init__(self, ctx: StepContext):
        self.ctx = ctx
        self.grid = ctx.grid
        self.params = ctx.params
        self.dt = ctx.dt
        g = self.grid
        self.lin_sym, self.pre_inv = _scheme_symbols(
            g, ctx.params.scheme, ctx.params.epsilon, ctx.params.reg_a, ctx.dt
        )
        self.phi_k_hat = g.rfft(ctx.phi_k.values)
        self.phi_km1_hat = g.rfft(ctx.phi_km1.values)
        # BDF tail: the explicit part of (3/2 phi - 2 phi^k + 1/2 phi^{k-1})
        self.bdf_tail_hat = -2.0 * self.phi_k_hat + 0.5 * self.phi_km1_hat
        self._rhs_hat: Optional[np.ndarray] = None

    def nonlinear_hat(
        self, phi_hat: np.ndarray, grad_comps: list[np.ndarray]
    ) -> np.ndarray:
        """Coefficients of ``N[phi]`` given the iterate's transform and gradient."""
        g = self.grid
        out = g.lam_inv * (1.5 * phi_hat + self.bdf_tail_hat)
        out += self.lin_sym * phi_hat
        out += self.dt * p_laplacian_hat(g, grad_comps)
        return out

    def rhs_hat(self) -> np.ndarray:
        """Coefficients of the step's right-hand side ``f`` (cached)."""
        if self._rhs_hat is None:
            g = self.grid
            lam = g.lam
            extrap = 2.0 * self.phi_k_hat - self.phi_km1_hat
            if self.params.scheme is Scheme.BDF2_ES_1:
                out = 2.0 * self.dt * lam * extrap
            else:
                out = self.dt * self.params.epsilon * extrap
            out = out + self.params.reg_a * self.dt**2 * lam * self.phi_k_hat
            if self.ctx.source is not None:
                # fold the source through (-lap)^{-1}; kernel modes (and with
                # them the source mean) drop out, preserving mass
                out = out + self.dt * g.lam_inv * g.rfft(self.ctx.source.values)
            self._rhs_hat = out
        return self._rhs_hat

    # -- scalar functionals --------------------------------------------
    def objective_value(
        self,
        phi_hat: np.ndarray,
        grad_comps: list[np.ndarray],
        f_hat: np.ndarray,
    ) -> float:
        """Convex objective whose critical point solves ``N[phi] = f``."""
        g = self.grid
        w = g.parseval_weight
        nf = g.spectral_norm_factor
        bdf_hat = 1.5 * phi_hat + self.bdf_tail_hat
        quartic = g.cell_volume * float(np.sum(grad_sq(grad_comps) ** 2))
        val = nf / 3.0 * float(np.sum(w * g.lam_inv * np.abs(bdf_hat) ** 2))
        val += 0.25 * self.dt * quartic
        val += 0.5 * nf * float(np.sum(w * self.lin_sym * np.abs(phi_hat) ** 2))
        val -= g.spectral_dot(f_hat, phi_hat)
        return val

    def line_coefficients(
        self,
        grad_comps: list[np.ndarray],
        dir_grad_comps: list[np.ndarray],
        d_hat: np.ndarray,
        c0: float,
    ) -> tuple[float, float, float, float]:
        """Cubic expansion of the directional derivative along ``d``.

        ``dF[phi + alpha d](d) = c3 a^3 + c2 a^2 + c1 a + c0`` where ``c0``
        (the residual pairing ``<N(phi) - f, d>``) is supplied by the caller.
        """
        g = self.grid
        hvol = g.cell_volume
        ge = grad_comps[0] * dir_grad_comps[0]
        for gc, ec in zip(grad_comps[1:], dir_grad_comps[1:]):
            ge += gc * ec
        ee = grad_sq(dir_grad_comps)
        gg = grad_sq(grad_comps)
        dt = self.dt
        c3 = dt * hvol * float(np.sum(ee**2))
        c2 = 3.0 * dt * hvol * float(np.sum(ge * ee))
        c1 = dt * hvol * float(np.sum(2.0 * ge**2 + gg * ee))
        dsq = g.parseval_weight * (d_hat.real**2 + d_hat.imag**2)
        c1 += g.spectral_norm_factor * float(
            np.sum((1.5 * g.lam_inv + self.lin_sym) * dsq)
        )
        return c0, c1, c2, c3

    def residual_norm(self, r_hat: np.ndarray, which: str = "l2") -> float:
        g = self.grid
        power = g.parseval_weight * (r_hat.real**2 + r_hat.imag**2)
        if which == "hm1":
            power = power * g.lam_inv
        return float(np.sqrt(g.spectral_norm_factor * np.sum(power)))


# ----------------------------------------------------------------------
# public field-level operations
# ----------------------------------------------------------------------
def energy(phi: Field, params: ModelParams) -> float:
    """Discrete free energy of a state."""
    g = phi.grid
    spec = g.rfft(phi.values)
    gsq = grad_sq(gradient(g, spec))
    quartic = g.cell_volume * float(np.sum(gsq**2))
    power = g.parseval_weight * (spec.real**2 + spec.imag**2)
    l2_sq = g.spectral_norm_factor * float(np.sum(power))
    grad_l2_sq = g.cell_volume * float(np.sum(gsq))
    lap_sq = g.spectral_norm_factor * float(np.sum(g.lam**2 * power))
    return 0.25 * quartic + 0.5 * params.a * l2_sq - grad_l2_sq + 0.5 * lap_sq


def _require_on_hyperplane(phi: Field, ctx: StepContext, what: str) -> None:
    if not _mean_compatible(phi.mean(), ctx.phi_k.mean()):
        raise MeanMismatchError(
            f"{what} is defined on the mass hyperplane: mean(phi) = "
            f"{phi.mean():.15e} but mean(phi_k) = {ctx.phi_k.mean():.15e}"
        )


def nonlinear_operator(phi: Field, ctx: StepContext) -> Field:
    """The step operator ``N[phi]`` (inverse Laplacian acts on the mean-zero
    part of the BDF combination)."""
    _require_on_hyperplane(phi, ctx, "nonlinear_operator")
    g = ctx.grid
    phi_hat = g.rfft(phi.values)
    return Field(g, g.irfft(StepOperator(ctx).nonlinear_hat(phi_hat, gradient(g, phi_hat))))


def rhs(ctx: StepContext) -> Field:
    """Right-hand side ``f`` of ``N[phi] = f`` (source folded in if present)."""
    return Field(ctx.grid, ctx.grid.irfft(StepOperator(ctx).rhs_hat()))


def objective(phi: Field, ctx: StepContext, f: Field) -> float:
    """Strictly convex objective minimized by the step solution."""
    _require_on_hyperplane(phi, ctx, "objective")
    g = ctx.grid
    phi_hat = g.rfft(phi.values)
    return StepOperator(ctx).objective_value(phi_hat, gradient(g, phi_hat), g.rfft(f.values))


# ----------------------------------------------------------------------
# manufactured solution for the verification harness
# ----------------------------------------------------------------------
_LAM1 = -8.0 * np.pi**2  # Laplacian eigenvalue of the base profile


@lru_cache(maxsize=32)
def _mms_basis(grid: Grid) -> tuple[np.ndarray, ...]:
    x, y = grid.coords()
    X, Y = 2.0 * np.pi * x, 2.0 * np.pi * y
    s11 = np.sin(X) * np.cos(Y)
    s33 = np.sin(3.0 * X) * np.cos(3.0 * Y)
    s31 = np.sin(3.0 * X) * np.cos(Y)
    s13 = np.sin(X) * np.cos(3.0 * Y)
    profile = s11 / (2.0 * np.pi)
    # -div(|grad profile|^2 grad profile), worked out with product formulas
    p_nl = np.pi * (2.5 * s11 + 1.5 * s33 + 0.5 * s31 - 0.5 * s13)
    lap_p_nl = -4.0 * np.pi**3 * (5.0 * s11 + 27.0 * s33 + 5.0 * s31 - 5.0 * s13)
    return profile, p_nl, lap_p_nl


@dataclass(frozen=True)
class ManufacturedSolution:
    """Separable exact solution ``profile(x, y) * c(t)`` on the unit box with
    ``profile = sin(2 pi x) cos(2 pi y) / (2 pi)``.

    ``envelope`` selects the time factor: ``"cos"`` gives ``c(t) = cos t``;
    ``"one"`` freezes the state (useful for stationarity checks).  The two
    source constructors compensate the dynamics so that the sampled exact
    solution solves, respectively, the semi-discrete-in-time system (pure
    spatial error remains) or the continuum system (pure temporal error
    remains).
    """

    envelope: str = "cos"

    def __post_init__(self) -> None:
        if self.envelope not in ("cos", "one"):
            raise ValueError(f"unknown envelope {self.envelope!r}")

    def _c(self, t: float) -> float:
        return float(np.cos(t)) if self.envelope == "cos" else 1.0

    def _cdot(self, t: float) -> float:
        return float(-np.sin(t)) if self.envelope == "cos" else 0.0

    @staticmethod
    def _check_grid(grid: Grid) -> None:
        if grid.dim != 2 or abs(grid.length - 1.0) > 1e-14:
            raise ValueError("manufactured solution is defined on the unit square")

    def field(self, grid: Grid, t: float) -> Field:
        """Exact solution sampled at the grid nodes."""
        self._check_grid(grid)
        profile, _, _ = _mms_basis(grid)
        return Field(grid, self._c(t) * profile)

    def temporal_source(self, grid: Grid, t: float, params: ModelParams) -> Field:
        """Continuum residual ``d/dt phi_e - lap mu(phi_e)``, analytically."""
        self._check_grid(grid)
        profile, _, lap_p_nl = _mms_basis(grid)
        c = self._c(t)
        mu_lin = -params.epsilon + (1.0 + _LAM1) ** 2
        values = (
            self._cdot(t) * profile
            - c**3 * lap_p_nl
            - _LAM1 * mu_lin * c * profile
        )
        return Field(grid, values)

    def spatial_source(
        self, grid: Grid, t_new: float, dt: float, params: ModelParams
    ) -> Field:
        """Source that makes the sampled exact solution satisfy the BDF2
        time discretization exactly (spatial operators stay continuum)."""
        self._check_grid(grid)
        profile, _, lap_p_nl = _mms_basis(grid)
        c1 = self._c(t_new)
        c0 = self._c(t_new - dt)
        cm = self._c(t_new - 2.0 * dt)
        stencil = (1.5 * c1 - 2.0 * c0 + 0.5 * cm) / dt
        reg = -params.reg_a * dt * _LAM1 * (c1 - c0)
        if params.scheme is Scheme.BDF2_ES_1:
            lin = params.a * c1 + 2.0 * _LAM1 * (2.0 * c0 - cm) + reg + _LAM1**2 * c1
        else:
            lin = -params.epsilon * (2.0 * c0 - cm) + reg + (1.0 + _LAM1) ** 2 * c1
        values = stencil * profile - c1**3 * lap_p_nl - _LAM1 * lin * profile
        return Field(grid, values)

