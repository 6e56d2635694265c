"""Preconditioned steepest descent solver for the implicit step equation.

Each iteration solves the constant-coefficient search-direction problem
``L[d] = r - mean(r)`` exactly per Fourier mode (``L`` is the linearization
of the step operator, with the quartic term linearized at unit gradient
magnitude), then minimizes the strictly convex objective along ``d`` by
finding the unique root of a monotone cubic.  Iterate means are invariant:
search directions carry no mass.

With ``StepOperator.fluxes`` a solve from ``op.phi_k`` starts, at no
transform, from the linearly implicit BDF2 step (flux extrapolated as
``2 p^k - p^{k-1}``, linear part solved per mode), unless the copy already
passes the stopping test: a state at equilibrium stays frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .model import StepOperator, _require_same_mass, grad_sq, gradient
from .spectral import Field

__all__ = [
    "PsdConfig",
    "SolveStats",
    "PsdDivergenceError",
    "NonMonotoneCubicError",
    "solve_cubic_monotone",
    "psd_solve",
]


STALL_WINDOW = 22  # twice the most iterations a tested solve takes per 10x residual drop (11)


class PsdDivergenceError(RuntimeError):
    """Residual grew by more than 10x over five consecutive iterations, fell
    by less than 10x over ``STALL_WINDOW`` iterations, or stopped being
    finite."""


class NonMonotoneCubicError(RuntimeError):
    """Line-search cubic is not strictly increasing; upstream operator bug."""


@dataclass(frozen=True)
class PsdConfig:
    """Solver knobs.

    ``residual_norm`` selects the norm of the mean-projected nonlinear
    residual used in the stopping test (``"l2"`` or ``"hm1"``).
    ``track_objective`` records the objective at every iterate in
    :attr:`SolveStats.objective_history`, an independent evaluation that
    costs about a third of a solve at N=256.
    """

    tol: float = 1e-9
    max_iter: int = 200
    residual_norm: str = "l2"
    track_objective: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.residual_norm not in ("l2", "hm1"):
            raise ValueError(f"residual_norm must be l2 or hm1, got {self.residual_norm!r}")


@dataclass
class SolveStats:
    """Per-solve diagnostics.

    ``contraction_ratios`` holds ``r_{n+1} / r_n`` starting from the second
    residual pair (the first ratio reflects the initial guess, not the
    iteration).  ``objective_history`` is populated when tracking is on.
    """

    iterations: int = 0
    residual_history: list = field(default_factory=list)
    contraction_ratios: list = field(default_factory=list)
    converged: bool = False
    objective_history: list = field(default_factory=list)

    def finalize(self) -> None:
        res = self.residual_history
        self.contraction_ratios = [
            res[i] / res[i - 1] for i in range(2, len(res)) if res[i - 1] > 0.0
        ]


def solve_cubic_monotone(c0: float, c1: float, c2: float, c3: float) -> float:
    """Unique real root of the strictly increasing cubic
    ``c3 a^3 + c2 a^2 + c1 a + c0``.

    Safeguarded Newton on a bracket grown geometrically from ``[-1, 1]``,
    with bisection fallback; avoids the closed-form cubic's cancellation in
    the near-linear regime.  All-zero coefficients return 0.
    """
    if c0 == 0.0 and c1 == 0.0 and c2 == 0.0 and c3 == 0.0:
        return 0.0
    if c3 < 0.0 or c1 <= 0.0:
        raise NonMonotoneCubicError(
            f"cubic is not strictly increasing: c1 = {c1:.6e}, c3 = {c3:.6e}"
        )

    def p(x: float) -> float:
        return ((c3 * x + c2) * x + c1) * x + c0

    def dp(x: float) -> float:
        return (3.0 * c3 * x + 2.0 * c2) * x + c1

    tol = 1e-13 * max(abs(c0), c1)
    # bracket the root; p is increasing with p(+-inf) = +-inf
    scale = max(1.0, abs(c0) / c1)
    lo, hi = -scale, scale
    for _ in range(200):
        if p(lo) <= 0.0:
            break
        lo *= 2.0
    for _ in range(200):
        if p(hi) >= 0.0:
            break
        hi *= 2.0

    x = min(max(-c0 / c1, lo), hi)
    for _ in range(200):
        px = p(x)
        if abs(px) <= tol:
            return x
        if px > 0.0:
            hi = x
        else:
            lo = x
        slope = dp(x)
        if slope > 0.0:
            x_new = x - px / slope
        else:
            x_new = 0.5 * (lo + hi)
        if not lo <= x_new <= hi:
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            break
        x = x_new
    return x


def _diverged(history: list) -> Optional[str]:
    """How the residual history fails to converge, or ``None``."""
    if len(history) >= 6 and history[-1] > 10.0 * history[-6]:
        return "grew >10x over 5 iterations"
    if len(history) > STALL_WINDOW and history[-1] > 0.1 * history[-1 - STALL_WINDOW]:
        return f"fell less than 10x over {STALL_WINDOW} iterations"
    return None


def psd_solve(
    phi_guess: Field,
    op: StepOperator,
    f: Optional[Field] = None,
    cfg: Optional[PsdConfig] = None,
    final_sink: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = None,
) -> tuple[Field, SolveStats]:
    """Solve ``N[phi] = f`` of the step ``op`` on the mass hyperplane of ``op.phi_k``.

    ``f`` defaults to the step's own right-hand side.  Returns the solution
    and the iteration diagnostics; raises :class:`PsdDivergenceError` when
    the residual is not finite, grows by more than 10x over five
    consecutive iterations, or falls by less than 10x over ``STALL_WINDOW``.
    ``final_sink``, if given, receives the solution's rfft coefficients
    (projected onto real fields), its ``|grad phi|^2`` and its 4-Laplacian
    coefficients (zero on the kernel modes), so the caller needs no
    transform of its own.
    """
    cfg = cfg or PsdConfig()
    _require_same_mass(phi_guess, op.phi_k, "initial guess is off the mass hyperplane")
    grid = op.grid
    if phi_guess is op.phi_k:
        phi_hat = op.spectra[0].copy()
    else:
        phi_hat = grid.rfft(phi_guess.values)
    # drop derivative-kernel content (Nyquist on even grids) except the mass
    # mode: the minimization determines those modes as zero and the
    # preconditioner cannot move them
    zero_idx = (0,) * grid.dim
    mass_coeff = phi_hat[zero_idx]
    kernel = np.nonzero(grid.kernel_mask)
    phi_hat[kernel] = 0.0
    phi_hat[zero_idx] = mass_coeff

    f_hat = op.rhs_hat if f is None else grid.rfft(f.values)
    f_norm = op.residual_norm(np.where(grid.kernel_mask, 0.0, f_hat), cfg.residual_norm)
    target = cfg.tol * (1.0 + f_norm)

    # work arrays of the whole solve, updated in place
    r_hat, d_hat = np.empty_like(phi_hat), np.empty_like(phi_hat)
    if phi_guess is op.phi_k and op.fluxes is not None:
        # the copy's residual from the carried flux, with no transform
        p_k, p_km1 = op.fluxes
        np.multiply(op.implicit_sym, phi_hat, out=r_hat)
        r_hat += op.explicit_hat
        r_hat += np.multiply(op.dt, p_k, out=d_hat)
        np.subtract(f_hat, r_hat, out=r_hat)
        r_hat[kernel] = 0.0
        if op.residual_norm(r_hat, cfg.residual_norm, d_hat) > target:
            # not a fixed point: the linearly implicit BDF2 step is the copy
            # plus (r - dt (p^k - p^{k-1})) / implicit_sym, 0 on kernel modes
            r_hat += np.multiply(op.dt, np.subtract(p_km1, p_k, out=d_hat), out=d_hat)
            phi_hat += np.divide(r_hat, op.implicit_sym, out=r_hat)
    gsq, ge, ee, tmp = (np.empty(grid.shape) for _ in range(4))
    g = gradient(grid, phi_hat, d_hat)
    stats = SolveStats()
    for it in range(cfg.max_iter + 1):
        grad_sq(g, gsq, tmp)
        op.nonlinear_hat(phi_hat, g, gsq, r_hat, tmp)
        np.subtract(f_hat, r_hat, out=r_hat)
        r_hat[kernel] = 0.0
        res = op.residual_norm(r_hat, cfg.residual_norm, d_hat)
        stats.residual_history.append(res)
        if cfg.track_objective:
            stats.objective_history.append(op.objective_value(phi_hat, g, f_hat))
        stats.iterations = it
        if res <= target:
            stats.converged = True
            break
        if not math.isfinite(res):
            stats.finalize()
            raise PsdDivergenceError(f"residual is {res} at iteration {it}")
        if failure := _diverged(stats.residual_history):
            stats.finalize()
            raise PsdDivergenceError(
                f"residual {failure} at iteration {it}: "
                f"history tail {stats.residual_history[-6:]}"
            )
        if it == cfg.max_iter:
            break
        np.multiply(op.pre_inv, r_hat, out=d_hat)
        c0 = -grid.spectral_dot(r_hat, d_hat)
        e = gradient(grid, d_hat, r_hat)  # r_hat is free until the next residual
        coeffs = op.line_coefficients(g, gsq, e, d_hat, c0, (ge, ee, tmp, r_hat))
        alpha = solve_cubic_monotone(*coeffs)
        d_hat *= alpha
        phi_hat += d_hat
        for comp, e_comp in zip(g, e):
            e_comp *= alpha
            comp += e_comp
        del e, e_comp  # free the direction's gradient before the next one
    stats.finalize()
    phi = Field(grid, grid.irfft(phi_hat))
    if final_sink is not None:
        # the solution's flux from its last residual: N[phi] = f - r
        np.subtract(f_hat, r_hat, out=r_hat)
        r_hat -= np.multiply(op.implicit_sym, phi_hat, out=d_hat)
        r_hat -= op.explicit_hat
        r_hat /= op.dt
        r_hat[kernel] = 0.0
        final_sink(grid.project_real(phi_hat), gsq, grid.project_real(r_hat))
    return phi, stats
