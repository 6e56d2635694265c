"""Time integration driver: BDF2 stepping through the PSD solver, the
per-step diagnostics row (energies, mass, H2 norm) and time-step schedules.
A step may carry a source at its new time level, for forced problems.

One start rule, applied by :func:`step`: a step is BDF1
(:class:`spfc.model.StepOperator` with no ``phi_km1``) when the state carries
no history level at its ``dt`` (``SimState.history_dt``), and BDF2
otherwise.  That makes the first step of every march BDF1, and the first
step after a change of ``dt``, at a segment boundary or between calls; an
unchanged ``dt`` carries the history on.  The BDF1 step dissipates the
modified energy at any step ratio, and its local error is second order, so
the march stays second order in time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    ModelParams,
    StepOperator,
    energy_hat,
    grad_sq,
    gradient,
    modified_energy_hat,
)
from .psd import TOL, SolveStats, check_tol, psd_solve
from .spectral import Field, norm_h2_hat

__all__ = [
    "SimState",
    "EnergyRecord",
    "StepFailureError",
    "initial_state",
    "step",
    "run",
    "segment_steps",
]


class StepFailureError(RuntimeError):
    """A time step failed; carries the (segment, step) location."""


@dataclass
class SimState:
    """State of the march.

    ``phi_prev`` is the history level, one step of ``history_dt`` before
    ``phi_curr``, or ``None``; the next step is BDF2 only when its ``dt``
    equals ``history_dt`` (see :func:`step`).  ``spectra``: the rfft
    coefficients of ``(phi_curr, phi_prev)``, or ``(phi_curr,)`` without a
    history level, never modified in place: :func:`initial_state` transforms
    ``phi_curr``, each step carries the solver's, and a state built by hand
    passes its own.
    ``fluxes``: the 4-Laplacian coefficients ``(p^k, p^{k-1})``, from which
    the next solve takes the residual of its copy start with no transform
    (see :mod:`spfc.psd`); ``None`` where there is no history.  ``p^{k-1}``
    is that of ``phi_prev`` only after a BDF2 step that carried both fluxes,
    else ``p^k`` itself (the next predictor freezes the flux)."""

    phi_curr: Field
    phi_prev: Optional[Field]
    time: float
    step_index: int
    spectra: tuple[np.ndarray, ...]
    history_dt: Optional[float] = None
    fluxes: Optional[tuple[np.ndarray, np.ndarray]] = None


@dataclass
class EnergyRecord:
    """Per-step diagnostics row (one line of the energy log)."""

    step: int
    time: float
    E: float
    E_mod: float
    mass: float
    h2_norm: float
    psd_iters: int
    final_residual: float


def initial_state(phi0: Field, history: str = "copy") -> SimState:
    """The start state of a march: ``phi0`` at ``t = 0`` with its spectrum
    and no history level, so the first step is BDF1.  ``history`` accepts
    only ``"copy"``, the name of the old default rule, and is kept for
    callers that pass it."""
    if history != "copy":
        raise ValueError(f"unknown history rule {history!r}")
    return SimState(phi0, None, time=0.0, step_index=0, spectra=(phi0.grid.rfft(phi0.values),))


def _history_level(state: SimState, dt: float) -> Optional[Field]:
    """The history level a step of ``dt`` from ``state`` uses: ``phi_prev``
    when it lies one step of ``dt`` back, else ``None`` (the step is BDF1)."""
    return state.phi_prev if state.history_dt == dt else None


def _record(
    state: SimState, dt: float, params: ModelParams, spec: np.ndarray, gsq: np.ndarray,
    delta_hat: np.ndarray, iters: int, residual: float,
) -> EnergyRecord:
    """Diagnostics row of a state from the spectrum and ``|grad phi|^2`` of
    ``phi_curr`` and the spectrum of the step difference."""
    g = state.phi_curr.grid
    e = energy_hat(g, params, spec, gsq)
    e_mod = modified_energy_hat(g, params, dt, e, delta_hat)
    mass, h2 = state.phi_curr.mean(), norm_h2_hat(g, spec)
    return EnergyRecord(state.step_index, state.time, e, e_mod, mass, h2, iters, residual)


def step(
    state: SimState,
    dt: float,
    params: ModelParams,
    tol: float = TOL,
    source: Optional[Field] = None,
    stats_sink: Optional[Callable[[SolveStats], None]] = None,
) -> tuple[SimState, EnergyRecord]:
    """Advance one step, the :class:`StepOperator` of ``state`` (BDF1 when it
    has no history level at ``dt``) solved by :func:`psd_solve` to the floor
    ``tol``; returns the new state and its diagnostics row, which comes from
    the solver's final spectrum with no transform of its own.  Raises
    :class:`StepFailureError`, naming the step, when the solve raises."""
    phi_km1 = _history_level(state, dt)
    levels = 1 if phi_km1 is None else 2
    fluxes = None if state.fluxes is None else state.fluxes[:levels]
    op = StepOperator(state.phi_curr, phi_km1, dt, params, source, state.spectra[:levels], fluxes)
    final: list = []
    try:
        phi_new, stats = psd_solve(None, op, tol, lambda *solution: final.extend(solution))
    except RuntimeError as exc:
        raise StepFailureError(f"step {state.step_index + 1} (t -> {state.time + dt:g}): {exc}") from exc
    if stats_sink is not None:
        stats_sink(stats)
    phi_hat, gsq, flux = final
    new_state = SimState(
        phi_curr=phi_new,
        phi_prev=state.phi_curr,
        time=state.time + dt,
        step_index=state.step_index + 1,
        history_dt=dt,
        spectra=(phi_hat, op.spectra[0]),
        fluxes=(flux, flux if op.phi_km1 is None or op.fluxes is None else op.fluxes[0]),
    )
    record = _record(new_state, dt, params, phi_hat, gsq, phi_hat - op.spectra[0],
                     stats.iterations, stats.residual_history[-1])
    return new_state, record


def segment_steps(schedule: Sequence[tuple[float, float]], t0: float = 0.0) -> list[int]:
    """Step counts of the ``(dt, t_end)`` segments of a schedule that starts
    at ``t0``; raises ``ValueError`` unless the end times increase and each
    segment is a whole number of steps of a positive ``dt`` whose square is
    finite."""
    if not schedule:
        raise ValueError("empty schedule")
    steps = []
    for seg_index, (dt, t_end) in enumerate(schedule):
        span = t_end - t0
        if span <= 0:
            raise ValueError(f"schedule t_end values must increase, got {[s[1] for s in schedule]}")
        if dt <= 0:
            raise ValueError(f"segment {seg_index}: dt must be positive, got {dt}")
        if not np.isfinite(float(dt) * float(dt)):
            raise ValueError(f"segment {seg_index}: dt = {dt:g} overflows dt^2")
        count = span / dt
        if not np.isfinite(count):
            raise ValueError(f"segment {seg_index}: {span:g} / {dt:g} steps overflows")
        steps.append(int(round(count)))
        if steps[-1] < 1 or abs(steps[-1] * dt - span) > 1e-9 * max(1.0, abs(t_end)):
            raise ValueError(
                f"segment {seg_index}: span {span:g} is not a whole number of steps of {dt:g}"
            )
        t0 = t_end
    return steps


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state fails in psd_solve
def run(
    schedule: Sequence[tuple[float, float]],
    state0: SimState,
    params: ModelParams,
    tol: float = TOL,
    energy_sink: Optional[Callable[[EnergyRecord], None]] = None,
    snapshot_sink: Optional[Callable[[SimState], None]] = None,
    snapshot_times: Sequence[float] = (),
    stats_sink: Optional[Callable[[SolveStats], None]] = None,
) -> SimState:
    """March through a schedule of ``(dt, t_end)`` segments.

    Each step applies the start rule of :func:`step`, so a segment whose
    ``dt`` differs from the step before it starts with a BDF1 step.  Energy
    records are emitted every step (the ``t = 0`` row, from ``state0``'s
    spectra, has E_mod = E where ``state0`` has no history at the first
    ``dt``), snapshots at the first state reaching each requested time.
    Every solve stops at the floor ``tol``.  Raises ``ValueError`` before
    the first step for a ``tol`` outside ``(0, 1)``, or a snapshot time
    before ``state0.time`` or after the last ``t_end`` (1e-9 slack).
    """
    check_tol(tol)
    steps = segment_steps(schedule, state0.time)
    for t in snapshot_times:
        if not state0.time - 1e-9 <= t <= schedule[-1][1] + 1e-9:
            raise ValueError(f"snapshot time {t!r} is outside the schedule "
                             f"[{state0.time!r}, {schedule[-1][1]!r}]")
    if not params.stable_guarantee:
        warnings.warn(
            f"A = {params.reg_a:g} < eps^2/16 = {params.epsilon ** 2 / 16:g}: "
            "energy-dissipation guarantee is off",
            stacklevel=2,
        )

    pending = sorted(snapshot_times)
    state = state0

    def emit_snapshots(st: SimState, dt_scale: float) -> None:
        nonlocal pending
        crossed = False
        while pending and st.time >= pending[0] - 1e-9 * max(1.0, dt_scale):
            crossed = True
            pending = pending[1:]
        if crossed and snapshot_sink is not None:
            snapshot_sink(st)

    first_dt = schedule[0][0]
    if energy_sink is not None:
        spec = state.spectra[0]
        gsq = grad_sq(gradient(state.phi_curr.grid, spec))
        history = _history_level(state, first_dt) is not None
        delta_hat = spec - state.spectra[1] if history else np.zeros_like(spec)
        energy_sink(_record(state, first_dt, params, spec, gsq, delta_hat, 0, 0.0))
    emit_snapshots(state, first_dt)

    for seg_index, ((dt, _), n_steps) in enumerate(zip(schedule, steps)):
        t_start = state.time
        for j in range(n_steps):
            try:
                state, record = step(state, dt, params, tol, stats_sink=stats_sink)
            except StepFailureError as exc:
                raise StepFailureError(f"segment {seg_index}, {exc}") from exc
            state.time = t_start + (j + 1) * dt  # avoid additive drift
            record.time = state.time
            if energy_sink is not None:
                energy_sink(record)
            emit_snapshots(state, dt)
    return state
