"""Preconditioned steepest descent solver for the implicit step equation.

Each iteration solves the constant-coefficient search-direction problem
``L[d] = r - mean(r)`` exactly per Fourier mode (``L`` is the linearization
of the step operator, with the quartic term linearized at unit gradient
magnitude), then minimizes the strictly convex objective along ``d`` by
finding the unique root of a monotone cubic, its directional derivative (the
objective itself is never evaluated).  The kernel modes of ``-lap``
(the mean, and on even grids the pure-Nyquist modes) are those of ``phi^k``
in every iterate: search directions have no kernel content.  Every residual
``f - N[phi]`` is formed by :meth:`StepOperator.nonlinear_hat` from the
iterate's flux, and the flux of the last one is the solution's.

The start is the caller's.  ``psd_solve(None, op)`` is the step's own: the
copy ``phi^k`` of ``op.spectra[0]``.  With ``StepOperator.fluxes`` (every
BDF1 step, whose ``p^k`` costs ``2 dim`` transforms when not carried, and a
BDF2 step of a march) it first takes the copy's residual ``r`` from ``p^k``.
A copy that passes the floor ``res <= tol (1 + ||f||)`` is returned, at the
cost of its gradient alone: a state at equilibrium stays frozen.  Otherwise
the solve moves to the linearly implicit step ``phi_pred``, the copy plus
``(r - dt (p^k - p^{k-1})) / implicit_sym``, the linear part solved per
mode and the flux extrapolated as ``2 p^k - p^{k-1}``; on a BDF1 step
``p^{k-1}`` is ``p^k``, the flux frozen.  The solve keeps the predictor
only when its residual, which iteration 0 computes anyway, is below the
copy's.  Otherwise it goes back to the copy and its ``p^k``, forms the
copy's gradient alone, as a fixed point does, and stops at the floor only,
bitwise as a copy-started solve of the same ``p^k`` does.  The fall-back is
needed where a frozen flux is far off, on a stiff start: on the acceptance
problem's one-node site of magnitude 10 (N = 256, dt = 0.05) the BDF1
predictor's residual is 4.3e7 against the copy's 4.5e3, and a march that
kept such a predictor moved its t = 2.5 field from a march solved to the
floor by 9.2% of its dt-vs-dt/2 gap, against 0.25% with the fall-back.
A given start, any ``Field`` on the mass hyperplane of ``phi^k``, is
transformed and solved to the floor with no predictor; the step problem is
strictly convex, so PSD reaches its one solution from any start.

Stopping.  Every solve stops at the floor ``res <= tol (1 + ||f||)``, ``res``
the l2 norm of the residual off the kernel of ``-lap`` and ``tol`` the
solver's one setting (:func:`check_tol`).  A solve that keeps its predictor
also stops, from iteration 1 on, at the step's own truncation error, when both

* ``||pre_inv r|| <= KAPPA ||phi - phi_pred||`` (truncation test): the
  preconditioned residual estimates the iterate's distance to the exact step
  solution, and the predictor gap is a Milne-type estimate of the step's
  local truncation error (Hairer & Wanner, *Solving ODEs II*, IV.8); and
* ``|<r, delta>| <= THETA ||delta||_{-1}^2`` with ``delta = phi - phi^k``
  (energy test), which keeps the modified energy non-increasing for the
  returned iterate.

There is no iteration cap.  Every other ending raises
:class:`PsdDivergenceError`: a residual that is not finite, grows 10x over
5 iterations, or falls less than 10x over a window of ``STALL_WINDOW``
iterations.  The last is the geometric convergence the method assures, and
it ends a solve from ``r_0`` above the floor's ``target = tol (1 + ||f||)``
within ``STALL_WINDOW * ceil(log10(r_0 / target))`` iterations.

The energy test's constant, for BDF2 steps.  Pair ``N[phi] - f = -r`` with
``delta`` and ``delta^k = phi^k - phi^{k-1}``.  The BDF2 term, the
convex-concave split and the regularization give, with ``E~`` the modified
energy of :func:`spfc.model.modified_energy_hat`, exactly

    E~(phi, phi^k) - E~(phi^k, phi^{k-1}) + sum_m D(lam) |delta_m|^2 + R
        = -<r, delta> / dt,

where ``R >= 0`` collects ``||delta - delta^k||^2`` terms and the convexity
remainder of the quartic term, and on each mode with ``lam > 0``

    dt lam D(lam) = 1 + (dt/2) lam ((1 - lam)^2 - eps) + A dt^2 lam^2
                  = (1 - eps dt lam / 4)^2 + (dt/2) lam (1 - lam)^2
                    + (A - eps^2/16) dt^2 lam^2.

All three terms are non-negative when ``A >= eps^2/16``: that is the paper's
energy stability of the exact step.  With ``s = eps dt <= 1`` (and ``dt > s``)
the sum is at least ``(1 - s lam/4)^2 + (s/2) lam (1 - lam)^2``, whose
minimum over ``lam > 0`` and ``s <= 1`` is ``131/256``, at ``s = 1`` and
``lam = 5/4``.  So ``dt D(lam) >= THETA / lam`` with ``THETA = 1/2``, and a
solve that passes the energy test has ``-<r, delta> / dt`` no larger than
the dissipation: ``E~`` does not rise.  As ``eps dt -> 4`` the minimum falls
to 0 (at ``lam = 1``), so beyond ``eps dt = 1``, or below the stability
threshold, a BDF2 solve stops at the floor only.

For BDF1 steps.  The same pairing, with ``delta = phi - phi^k`` and the
concave part at ``phi^k``, gives exactly

    E~(phi, phi^k) - E(phi^k) + sum_m D1(lam) |delta_m|^2 + R
        = -<r, delta> / dt,
    dt lam D1(lam) = 3/4 + A dt^2 lam^2 + (dt/2) lam C(lam),

with ``R >= 0`` the quartic term's convexity remainder and ``C`` the convex
symbol, ``a + lam^2`` (scheme 1) or ``(1 - lam)^2`` (scheme 2), which is
non-negative.  The previous row's ``E~`` is at least ``E(phi^k)`` (equal at
``t = 0``), so ``dt D1(lam) >= (3/4) / lam > THETA / lam`` for any
``A >= 0`` and any ``eps dt``: every BDF1 solve that keeps its predictor may
stop at its truncation error.

``KAPPA = 0.05``: on the N=256 acceptance pattern problem (200 steps of
0.05) the fields stay within 0.2% of the 0.05-vs-0.025 time error of a
1e-11 solve; 0.1 moves them by 3.6% of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .model import StepOperator, _require_same_mass, grad_sq, gradient, p_laplacian_hat
from .spectral import Field

__all__ = [
    "TOL",
    "check_tol",
    "SolveStats",
    "PsdDivergenceError",
    "NonMonotoneCubicError",
    "solve_cubic_monotone",
    "psd_solve",
]


# each window must cut the residual 10x: twice the most (11) a solve of the
# tests or the benchmark needs, all near the paper's point.  Off it, scheme 2
# at eps 0.1, dt 100, N 64 with a node site needs about 21 per 10x: its worst
# window cut the residual to 0.0886 of its start, against the test's 0.1.
STALL_WINDOW = 22
KAPPA = 0.05  # the iteration error's largest share of the truncation-error estimate
THETA = 0.5  # the residual work's largest share of ||delta||_{-1}^2 (see the module docstring)
TOL = 1e-9  # the default floor of every solve (check_tol)


class PsdDivergenceError(RuntimeError):
    """The residual stopped being finite, grew or stalled (module docstring)."""


class NonMonotoneCubicError(RuntimeError):
    """Line-search cubic is not strictly increasing; upstream operator bug."""


def check_tol(tol: float) -> float:
    """``tol`` if it lies in ``(0, 1)``, else raises ``ValueError``: the
    rule of the floor that ends every solve (module docstring), applied by
    :func:`psd_solve`, :func:`spfc.stepper.run` and the ``solver.tol`` parser."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    return tol


@dataclass
class SolveStats:
    """Per-solve diagnostics.

    ``contraction_ratios`` holds ``r_{n+1} / r_n`` starting from the second
    residual pair (the first ratio reflects the start, not the
    iteration).  ``stopped_by``, set on every return, names the test that
    ended the solve: ``"floor"`` or ``"truncation"``.  ``converged`` is
    True on every return; it stays only for ``benchmarks/run.py``.
    """

    iterations: int = 0
    residual_history: list = field(default_factory=list)
    converged: bool = False
    stopped_by: Optional[str] = None

    @property
    def contraction_ratios(self) -> list:
        res = self.residual_history
        return [res[i] / res[i - 1] for i in range(2, len(res)) if res[i - 1] > 0.0]


def solve_cubic_monotone(c0: float, c1: float, c2: float, c3: float) -> float:
    """Unique real root of the strictly increasing cubic
    ``c3 a^3 + c2 a^2 + c1 a + c0``.

    Safeguarded Newton on a bracket grown geometrically from ``[-1, 1]``,
    with bisection fallback; avoids the closed-form cubic's cancellation in
    the near-linear regime.  All-zero coefficients return 0; any cubic but
    one with ``c1 > 0``, ``c3 >= 0`` and ``c2^2 <= 3 c1 c3`` raises."""
    if c0 == 0.0 and c1 == 0.0 and c2 == 0.0 and c3 == 0.0:
        return 0.0
    if c3 < 0.0 or c1 <= 0.0 or c2 * c2 > 3.0 * c1 * c3:
        raise NonMonotoneCubicError(
            f"cubic is not strictly increasing: c1 = {c1:.6e}, c2 = {c2:.6e}, c3 = {c3:.6e}"
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


def _truncated(op: StepOperator, phi_hat, r_hat, d_hat, update) -> bool:
    """Whether the iterate ``phi_hat``, ``update`` away from the predictor,
    with residual ``r_hat`` and ``d_hat = pre_inv r_hat``, passes the
    truncation and energy tests."""
    grid = op.grid
    if grid.spectral_dot(d_hat, d_hat) > KAPPA**2 * grid.spectral_dot(update, update):
        return False
    delta = phi_hat - op.spectra[0]
    delta_hm1_sq = grid.spectral_norm2_sq(delta, grid.lam_inv)
    return abs(grid.spectral_dot(r_hat, delta)) <= THETA * delta_hm1_sq


def psd_solve(
    start: Optional[Field],
    op: StepOperator,
    tol: float = TOL,
    final_sink: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = None,
) -> tuple[Field, SolveStats]:
    """Solve the step ``op``, ``N[phi] = f``, with every kernel mode of
    ``-lap`` taken from ``op.phi_k``, from ``start``: ``None`` for the
    step's own start, or a given ``Field`` on the mass hyperplane of
    ``op.phi_k``, solved to the floor ``tol`` (:func:`check_tol`; module
    docstring).

    Returns the solution and the iteration diagnostics at one of the stops
    of the module docstring, and raises :class:`PsdDivergenceError` on any
    other ending.
    ``final_sink``, if given, receives the solution's rfft coefficients
    (projected onto real fields), its ``|grad phi|^2`` and its 4-Laplacian
    coefficients (zero on the kernel modes), so the caller needs no
    transform of its own.
    """
    check_tol(tol)  # before any transform
    grid = op.grid
    if start is None:  # the step's own start; p^k before the work arrays
        fluxes, phi_hat = op.fluxes, op.spectra[0].copy()
    else:
        _require_same_mass(start, op.phi_k, "the start is off the mass hyperplane")
        fluxes, phi_hat = None, grid.rfft(start.values)
    # the step's rows on the kernel of -lap (the mass, and the pure-Nyquist
    # modes of even grids) keep those modes at phi^k; no direction moves them
    kernel = np.nonzero(grid.kernel_mask)
    phi_hat[kernel] = op.spectra[0][kernel]

    f_hat = op.rhs_hat
    f_norm = math.sqrt(grid.spectral_norm2_sq(np.where(grid.kernel_mask, 0.0, f_hat)))
    target = tol * (1.0 + f_norm)

    # work arrays of the whole solve, updated in place
    r_hat, d_hat, p_hat = (np.empty_like(phi_hat) for _ in range(3))
    gsq, ge, ee, tmp = (np.empty(grid.shape) for _ in range(4))

    def residual(g: Optional[list[np.ndarray]] = None) -> float:
        """``r = f - N[phi]`` of ``phi_hat`` into ``r_hat`` from the flux in
        ``p_hat``, formed first (with ``gsq``) from the gradient ``g`` if given."""
        if g is not None:
            grad_sq(g, gsq, tmp)
            p_laplacian_hat(grid, g, gsq, p_hat, tmp)
        op.nonlinear_hat(phi_hat, p_hat, r_hat, d_hat)
        np.subtract(f_hat, r_hat, out=r_hat)
        r_hat[kernel] = 0.0
        return math.sqrt(grid.spectral_norm2_sq(r_hat))

    update = g = None  # update: set when the solve may stop at its truncation error
    if fluxes is not None:
        # the copy's residual from p^k (carried, or formed by op.fluxes)
        np.copyto(p_hat, fluxes[0])
        res = residual()
        if res > target:
            # not a fixed point: the linearly implicit step is the copy plus
            # (r - dt (p^k - p^{k-1})) / implicit_sym, 0 on kernel modes;
            # p^{k-1} is p^k on a BDF1 step (the flux frozen)
            np.multiply(op.dt, np.subtract(fluxes[-1], fluxes[0], out=d_hat), out=d_hat)
            d_hat += r_hat
            d_hat /= op.implicit_sym
            phi_hat += d_hat
            if op.phi_km1 is None or (
                op.params.stable_guarantee and op.params.epsilon * op.dt <= 1.0
            ):  # THETA holds
                update = np.zeros_like(phi_hat)  # phi - phi_pred
            g = gradient(grid, phi_hat, d_hat)
            res_pred = residual(g)
            if res_pred < res:
                res = res_pred
            else:
                # the predictor's flux is far off (a stiff start): back to the
                # copy and its p^k (r_hat formed again, no FFT), solved to the floor
                np.copyto(phi_hat, op.spectra[0])
                np.copyto(p_hat, fluxes[0])
                res, update, g = residual(), None, None
    if g is None:  # the start itself
        g = gradient(grid, phi_hat, d_hat)
        if fluxes is None:
            res = residual(g)
        else:
            grad_sq(g, gsq, tmp)  # the copy's residual is known: only its |grad phi|^2 is missing
    stats = SolveStats()
    for it in itertools.count():
        stats.residual_history.append(res)
        stats.iterations = it
        if res <= target:
            stats.converged, stats.stopped_by = True, "floor"
            break
        if not math.isfinite(res):
            raise PsdDivergenceError(f"residual is {res} at iteration {it}")
        if failure := _diverged(stats.residual_history):
            raise PsdDivergenceError(
                f"residual {failure} at iteration {it}: "
                f"history tail {stats.residual_history[-6:]}"
            )
        np.multiply(op.pre_inv, r_hat, out=d_hat)
        if update is not None and it > 0 and _truncated(op, phi_hat, r_hat, d_hat, update):
            stats.converged, stats.stopped_by = True, "truncation"
            break
        c0 = -grid.spectral_dot(r_hat, d_hat)
        e = gradient(grid, d_hat, r_hat)  # r_hat is free until the next residual
        coeffs = op.line_coefficients(g, gsq, e, d_hat, c0, (ge, ee, tmp, r_hat))
        alpha = solve_cubic_monotone(*coeffs)
        d_hat *= alpha
        phi_hat += d_hat
        if update is not None:
            update += d_hat
        for comp, e_comp in zip(g, e):
            e_comp *= alpha
            comp += e_comp
        del e, e_comp  # free the direction's gradient before the next one
        res = residual(g)
    phi = Field(grid, grid.irfft(phi_hat))
    if final_sink is not None:
        final_sink(grid.project_real(phi_hat), gsq, grid.project_real(p_hat))
    return phi, stats
