"""Time integration driver: history initialization, BDF2 stepping through
the PSD solver, modified-energy accounting, mass tracking and time-step
schedules with history restarts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    ModelParams,
    StepOperator,
    energy_hat,
    grad_sq,
    gradient,
    modified_energy_hat,
    p_laplacian_hat,
)
from .psd import PsdConfig, SolveStats, psd_solve
from .spectral import Field, norm_h2_hat

__all__ = [
    "SimState",
    "EnergyRecord",
    "StepFailureError",
    "ghost_init",
    "initial_state",
    "step",
    "run",
    "segment_steps",
]


class StepFailureError(RuntimeError):
    """A time step failed; carries the (segment, step) location."""


@dataclass
class SimState:
    """Two-level state of the march plus conserved-mass bookkeeping.

    ``spectra``: the rfft coefficients of ``(phi_curr, phi_prev)``, carried
    from the solver and never modified in place; ``None`` on a state built by
    hand, whose next step transforms the fields.  ``fluxes``: their 4-Laplacian
    coefficients, for the next solve's start (see :mod:`spfc.psd`); ``None``
    before the first step, which starts from the copy of ``phi_curr``."""

    phi_curr: Field
    phi_prev: Field
    time: float
    step_index: int
    mass0: float
    spectra: Optional[tuple[np.ndarray, np.ndarray]] = None
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


def ghost_init(
    phi0: Field,
    dt: float,
    params: ModelParams,
    source: Optional[Field] = None,
) -> Field:
    """Second-order history extrapolation ``phi^{-1} = phi^0 - dt * lap(mu^0)``.

    ``source`` (the forcing at t = 0, if the problem has one) enters on the
    time-derivative side like everywhere else; the mean of ``phi^{-1}``
    equals the mean of ``phi^0`` to round-off.
    """
    g = phi0.grid
    spec = g.rfft(phi0.values)
    # chemical potential of the initial state
    mu_hat = params.energy_symbol(g.lam) * spec
    mu_hat += p_laplacian_hat(g, gradient(g, spec))
    rate_hat = -g.lam * mu_hat
    if source is not None:
        src_hat = g.rfft(source.values)
        src_hat[(0,) * g.dim] = 0.0  # forcing carries no mass
        rate_hat = rate_hat + src_hat
    rate = g.irfft(rate_hat)
    rate -= rate.mean()  # exact in exact arithmetic; pins the mass mode
    return Field(g, phi0.values - dt * rate)


def initial_state(
    phi0: Field,
    params: Optional[ModelParams] = None,
    dt: Optional[float] = None,
    history: str = "copy",
    source: Optional[Field] = None,
) -> SimState:
    """Build the two-level start state.

    ``history="copy"`` starts from ``phi^{-1} = phi^0``, the rule :func:`run`
    also uses at every segment boundary.  It is first order in time: on a
    smooth 2D state (n = 32, eps = 0.5, A = eps^2/16, T = 1, scheme 1) the
    error at T goes 1.71e-2 -> 8.82e-4 for 25 -> 400 steps, against
    1.04e-3 -> 4.35e-6 from the ghost start.  ``history="ghost"`` uses
    :func:`ghost_init` and requires ``params`` and ``dt``; it is second
    order, but on rough data its explicit step of a sixth-order operator
    gives a ghost level of size 1e3, whose first solve can stall.  ROADMAP.md
    item 2 replaces both rules with a variable-step BDF2 start.
    """
    if history == "copy":
        phi_prev = phi0.copy()
    elif history == "ghost":
        if params is None or dt is None:
            raise ValueError("ghost history needs params and dt")
        phi_prev = ghost_init(phi0, dt, params, source)
    else:
        raise ValueError(f"unknown history rule {history!r}")
    return SimState(phi0, phi_prev, time=0.0, step_index=0, mass0=phi0.mean())


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
    psd_cfg: Optional[PsdConfig] = None,
    source: Optional[Field] = None,
    stats_sink: Optional[Callable[[SolveStats], None]] = None,
) -> tuple[SimState, EnergyRecord]:
    """Advance one BDF2 step, the :class:`StepOperator` of ``state`` solved by
    :func:`psd_solve`; returns the new state and its diagnostics row, which
    comes from the solver's final spectrum with no transform of its own."""
    op = StepOperator(state.phi_curr, state.phi_prev, dt, params, source, state.spectra,
                      state.fluxes)
    final: list = []
    try:
        phi_new, stats = psd_solve(
            state.phi_curr, op, None, psd_cfg, lambda *solution: final.extend(solution)
        )
    except RuntimeError as exc:
        raise StepFailureError(f"step {state.step_index + 1} (t -> {state.time + dt:g}): {exc}") from exc
    if not stats.converged:
        raise StepFailureError(
            f"step {state.step_index + 1} (t -> {state.time + dt:g}): PSD did not "
            f"converge in {stats.iterations} iterations "
            f"(residual {stats.residual_history[-1]:.3e})"
        )
    if stats_sink is not None:
        stats_sink(stats)
    phi_hat, gsq, flux = final
    new_state = SimState(
        phi_curr=phi_new,
        phi_prev=state.phi_curr,
        time=state.time + dt,
        step_index=state.step_index + 1,
        mass0=state.mass0,
        spectra=(phi_hat, op.spectra[0]),
        fluxes=(flux, flux if op.fluxes is None else op.fluxes[0]),
    )
    record = _record(new_state, dt, params, phi_hat, gsq, phi_hat - op.spectra[0],
                     stats.iterations, stats.residual_history[-1])
    return new_state, record


def segment_steps(schedule: Sequence[tuple[float, float]], t0: float = 0.0) -> list[int]:
    """Step counts of the ``(dt, t_end)`` segments of a schedule that starts
    at ``t0``; raises ``ValueError`` unless the end times increase and each
    segment is a whole number of steps of a positive ``dt``."""
    if not schedule:
        raise ValueError("empty schedule")
    steps = []
    for seg_index, (dt, t_end) in enumerate(schedule):
        span = t_end - t0
        if span <= 0:
            raise ValueError(f"schedule t_end values must increase, got {[s[1] for s in schedule]}")
        if dt <= 0:
            raise ValueError(f"segment {seg_index}: dt must be positive, got {dt}")
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
    psd_cfg: Optional[PsdConfig] = None,
    energy_sink: Optional[Callable[[EnergyRecord], None]] = None,
    snapshot_sink: Optional[Callable[[SimState], None]] = None,
    snapshot_times: Sequence[float] = (),
    stats_sink: Optional[Callable[[SolveStats], None]] = None,
) -> SimState:
    """March through a schedule of ``(dt, t_end)`` segments.

    At every segment boundary the two-level history is re-seeded with
    ``phi^{-1} = phi^0`` (current field), even when ``dt`` does not change.
    Like the copy start of :func:`initial_state`, this is first order in
    time: from a ghost start, the schedule ``[(dt, 0.5), (dt, 1)]`` errs
    7.73e-3 -> 8.82e-4 for 50 -> 400 steps on the problem measured there,
    against 2.71e-4 -> 4.35e-6 for one segment (ROADMAP.md item 2).  Energy
    records are emitted every step, snapshots at the first state reaching
    each requested time.
    """
    steps = segment_steps(schedule, state0.time)
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
        g, phi = state.phi_curr.grid, state.phi_curr.values
        spec = g.rfft(phi)
        gsq = grad_sq(gradient(g, spec))
        delta_hat = g.rfft(phi - state.phi_prev.values)
        energy_sink(_record(state, first_dt, params, spec, gsq, delta_hat, 0, 0.0))
    emit_snapshots(state, first_dt)

    for seg_index, ((dt, _), n_steps) in enumerate(zip(schedule, steps)):
        if seg_index > 0:
            spec, flux = state.spectra[0], state.fluxes[0]
            state = replace(state, phi_prev=state.phi_curr.copy(), spectra=(spec, spec.copy()),
                            fluxes=(flux, flux.copy()))
        t_start = state.time
        for j in range(n_steps):
            try:
                state, record = step(state, dt, params, psd_cfg, stats_sink=stats_sink)
            except StepFailureError as exc:
                raise StepFailureError(f"segment {seg_index}, {exc}") from exc
            state.time = t_start + (j + 1) * dt  # avoid additive drift
            record.time = state.time
            if energy_sink is not None:
                energy_sink(record)
            emit_snapshots(state, dt)
    return state
