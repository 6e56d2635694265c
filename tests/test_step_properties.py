"""Hypothesis properties of the BDF2 step and its BDF1 start over the
parameter space, not only at the paper's points: mass is conserved, the
modified energy does not increase when ``A >= eps^2/16`` (across a change
of ``dt`` too, and for iterates returned at the truncation stop of
:mod:`spfc.psd`), and constant states are fixed points.

Each example marches from a state with no history (so its first step is
BDF1) on a small grid (dim 2 or 3, odd or even ``n``) with either scheme;
the examples are drawn by the ``spfc`` profile registered in
``conftest.py``.
"""

import numpy as np
from hypothesis import given, strategies as st

from spfc import Field, Grid, ModelParams, Scheme, initial_state, run
from spfc.harness import CLAIMS
from spfc.stepper import step

STEPS = 10
MASS_TOL = 1e-11  # per step, times (1 + |m|)
EMOD_TOL = 1e-9  # relative per-step uptick

open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def stable_params(draw) -> ModelParams:
    eps = draw(open_unit)
    reg_a = eps**2 / 16.0 + draw(st.floats(0.0, 1.0))
    return ModelParams(epsilon=eps, reg_a=reg_a, scheme=draw(st.sampled_from(Scheme)))


@st.composite
def grids(draw) -> Grid:
    dim = draw(st.sampled_from((2, 3)))
    n = draw(st.sampled_from((6, 7, 8, 9) if dim == 3 else (7, 8, 15, 16)))
    return Grid(dim=dim, n=n, length=draw(st.floats(2.0 * np.pi, 16.0 * np.pi)))


dts = st.floats(1e-3, 1.0)
means = st.floats(-1.0, 1.0)


def assert_mass_conserved_and_modified_energy_non_increasing(records):
    for prev, curr in zip(records, records[1:]):
        assert abs(curr.mass - prev.mass) <= MASS_TOL * (1.0 + abs(prev.mass))
        assert curr.E_mod - prev.E_mod <= EMOD_TOL * abs(prev.E_mod)


@given(
    grid=grids(),
    params=stable_params(),
    dt=dts,
    mean=means,
    amplitude=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mass_conserved_and_modified_energy_non_increasing(grid, params, dt, mean, amplitude, seed):
    rng = np.random.default_rng(seed)
    phi0 = Field(grid, mean + amplitude * (2.0 * rng.random(grid.shape) - 1.0))
    records = []
    run([(dt, STEPS * dt)], initial_state(phi0), params,
        energy_sink=records.append)
    assert len(records) == STEPS + 1
    assert_mass_conserved_and_modified_energy_non_increasing(records)


@given(
    grid=grids(),
    params=stable_params(),
    dt=dts,
    ratio=st.floats(0.25, 10.0),
    mean=means,
    amplitude=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_modified_energy_non_increasing_across_a_change_of_dt(
    grid, params, dt, ratio, mean, amplitude, seed
):
    # STEPS steps of dt, then STEPS of ratio * dt; the second segment starts
    # with a BDF1 step, which dissipates E_mod at any step ratio
    rng = np.random.default_rng(seed)
    phi0 = Field(grid, mean + amplitude * (2.0 * rng.random(grid.shape) - 1.0))
    records, t1 = [], STEPS * dt
    run([(dt, t1), (ratio * dt, t1 + STEPS * ratio * dt)], initial_state(phi0), params,
        energy_sink=records.append)
    assert len(records) == 2 * STEPS + 1
    assert_mass_conserved_and_modified_energy_non_increasing(records)


def test_truncation_stop_fires_and_keeps_modified_energy_non_increasing():
    # a solve that keeps its predictor, BDF1 (step 1) or BDF2, may stop at its
    # truncation error; the module docstring of spfc.psd derives the energy
    # test that keeps E_mod from rising for the iterate it returns
    tol, stops = CLAIMS["modified_energy_dissipation"].tol, []

    @given(grid=grids(), params=stable_params(), dt=dts, mean=means,
           amplitude=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def march(grid, params, dt, mean, amplitude, seed):
        rng = np.random.default_rng(seed)
        phi0 = Field(grid, mean + amplitude * (2.0 * rng.random(grid.shape) - 1.0))
        records, stats = [], []
        run([(dt, 5 * dt)], initial_state(phi0), params,
            energy_sink=records.append, stats_sink=stats.append)
        for s in stats:
            assert s.stopped_by == "floor" or (s.stopped_by == "truncation" and s.iterations > 0)
            stops.append(s.stopped_by)
        emods = [r.E_mod for r in records[1:]]
        for prev, curr in zip(emods, emods[1:]):
            assert curr - prev <= tol * abs(prev)

    march()
    # the stop is no dead branch: it ends a quarter of the solves or more
    assert stops.count("truncation") >= len(stops) / 4


@given(grid=grids(), params=stable_params(), dt=dts, value=means)
def test_constant_state_is_a_fixed_point(grid, params, dt, value):
    state = initial_state(Field(grid, np.full(grid.shape, value)))
    for _ in range(STEPS):
        stats = []
        state, _ = step(state, dt, params, stats_sink=stats.append)
        assert np.max(np.abs(state.phi_curr.values - value)) <= 1e-12 * (1.0 + abs(value))
        assert stats[0].stopped_by == "floor" and stats[0].iterations == 0  # frozen
