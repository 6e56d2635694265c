"""Time integration driver: history initialization, BDF2 stepping through
the PSD solver, modified-energy accounting, mass tracking and time-step
schedules with history restarts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    MeanMismatchError,
    ModelParams,
    Scheme,
    StepContext,
    energy,
    gradient,
    p_laplacian_hat,
)
from .psd import PsdConfig, SolveStats, psd_solve
from .spectral import Field, norm_h2

__all__ = [
    "SimState",
    "EnergyRecord",
    "StepFailureError",
    "ghost_init",
    "initial_state",
    "modified_energy",
    "step",
    "run",
    "segment_steps",
]


class StepFailureError(RuntimeError):
    """A time step failed; carries the (segment, step) location."""


@dataclass
class SimState:
    """Two-level state of the march plus conserved-mass bookkeeping."""

    phi_curr: Field
    phi_prev: Field
    time: float
    step_index: int
    mass0: float


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
    mu_hat = (params.a - 2.0 * g.lam + g.lam**2) * spec
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

    ``history="copy"`` starts from ``phi^{-1} = phi^0`` (the same rule used
    at time-step changes; robust for rough data).  ``history="ghost"`` uses
    :func:`ghost_init` and requires ``params`` and ``dt``.
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


def modified_energy(
    phi_new: Field, phi_old: Field, dt: float, params: ModelParams
) -> float:
    """Scheme-appropriate modified energy of a consecutive state pair.

    Scheme 1 augments the free energy with
    ``1/(4 dt) ||delta||_{-1}^2 + ||grad delta||_2^2``; scheme 2 with
    ``1/(4 dt) ||delta||_{-1}^2 + eps/2 ||delta||_2^2`` (``delta`` the step
    difference, which must be mean-zero).
    """
    if not np.isclose(phi_new.mean(), phi_old.mean(), rtol=0.0, atol=1e-11 * (1.0 + abs(phi_old.mean()))):
        raise MeanMismatchError(
            f"modified energy needs a mean-zero step difference: means "
            f"{phi_new.mean():.15e} vs {phi_old.mean():.15e}"
        )
    g = phi_new.grid
    delta = phi_new.values - phi_old.values
    delta_hat = g.rfft(delta)
    power = g.parseval_weight * (delta_hat.real**2 + delta_hat.imag**2)
    hm1_sq = g.spectral_norm_factor * float(np.sum(g.lam_inv * power))
    val = energy(phi_new, params) + hm1_sq / (4.0 * dt)
    if params.scheme is Scheme.BDF2_ES_1:
        val += g.spectral_norm_factor * float(np.sum(g.lam * power))
    else:
        val += 0.5 * params.epsilon * g.spectral_norm_factor * float(np.sum(power))
    return val


def _make_record(
    state: SimState, dt: float, params: ModelParams, iters: int, residual: float
) -> EnergyRecord:
    return EnergyRecord(
        step=state.step_index,
        time=state.time,
        E=energy(state.phi_curr, params),
        E_mod=modified_energy(state.phi_curr, state.phi_prev, dt, params),
        mass=state.phi_curr.mean(),
        h2_norm=norm_h2(state.phi_curr),
        psd_iters=iters,
        final_residual=residual,
    )


def step(
    state: SimState,
    dt: float,
    params: ModelParams,
    psd_cfg: Optional[PsdConfig] = None,
    source: Optional[Field] = None,
    stats_sink: Optional[Callable[[SolveStats], None]] = None,
) -> tuple[SimState, EnergyRecord]:
    """Advance one BDF2 step; returns the new state and its diagnostics row."""
    ctx = StepContext(state.phi_curr, state.phi_prev, dt, params, source)
    try:
        phi_new, stats = psd_solve(state.phi_curr, ctx, None, psd_cfg)
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
    new_state = SimState(
        phi_curr=phi_new,
        phi_prev=state.phi_curr,
        time=state.time + dt,
        step_index=state.step_index + 1,
        mass0=state.mass0,
    )
    record = _make_record(new_state, dt, params, stats.iterations, stats.residual_history[-1])
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
        steps.append(int(round(span / dt)))
        if steps[-1] < 1 or abs(steps[-1] * dt - span) > 1e-9 * max(1.0, abs(t_end)):
            raise ValueError(
                f"segment {seg_index}: span {span:g} is not a whole number of steps of {dt:g}"
            )
        t0 = t_end
    return steps


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
    ``phi^{-1} = phi^0`` (current field).  Energy records are emitted every
    step, snapshots at the first state reaching each requested time.
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
        energy_sink(_make_record(state, first_dt, params, 0, 0.0))
    emit_snapshots(state, first_dt)

    for seg_index, ((dt, _), n_steps) in enumerate(zip(schedule, steps)):
        if seg_index > 0:
            state = SimState(state.phi_curr, state.phi_curr.copy(), state.time, state.step_index, state.mass0)
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
