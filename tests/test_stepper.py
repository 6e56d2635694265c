"""Tests for time integration: the start rule, single steps,
modified-energy accounting and schedule runs with restarts."""

import numpy as np
import pytest

import oracles
from conftest import random_field
from test_readme import step_cost
from spfc import (
    Field,
    Grid,
    ModelParams,
    Scheme,
    energy,
    initial_state,
    norm_l2,
    psd_solve,
    run,
    step,
)
from spfc.model import (
    StepOperator,
    gradient,
    modified_energy_hat,
    p_laplacian_hat,
)
from spfc.spectral import norm_h2_hat
from spfc import harness, psd, stepper
from spfc.stepper import StepFailureError


def smooth_field(grid, rng, amplitude=0.1, cutoff=3):
    """Band-limited random data (modes up to ``cutoff``)."""
    spec = np.zeros(grid.rshape, dtype=complex)
    spec[: cutoff + 1, : cutoff + 1] = rng.standard_normal((cutoff + 1, cutoff + 1))
    spec[-cutoff:, : cutoff + 1] = rng.standard_normal((cutoff, cutoff + 1))
    spec = spec + 1j * np.roll(spec, 1, axis=0)
    spec[0, 0] = 0.0
    values = grid.irfft(spec)
    return Field(grid, amplitude * values / np.max(np.abs(values)))


class TestModifiedEnergy:
    """``modified_energy_hat`` from the free energy of the new state and the
    spectrum of the step difference."""

    def test_equal_states_reduce_to_plain_energy(self, grid16, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        e = energy(random_field(grid16, rng), params)
        zero = np.zeros(grid16.rshape, dtype=complex)
        assert modified_energy_hat(grid16, params, 0.05, e, zero) == e

    def test_scheme2_dominates_plain_energy(self, grid16, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=Scheme.BDF2_ES_2)
        delta_hat = grid16.rfft(rng.standard_normal(grid16.shape))
        assert modified_energy_hat(grid16, params, 0.05, 0.0, delta_hat) >= 0.0

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_matches_term_oracle(self, grid16, rng, scheme):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=scheme)
        dt = 0.07
        phi_old = random_field(grid16, rng, scale=0.3)
        delta = 0.1 * rng.standard_normal(grid16.shape)
        delta -= delta.mean()
        phi_new = Field(grid16, phi_old.values + delta)
        hm1_sq = oracles.l2_inner(delta, oracles.inv_neg_laplacian(delta, 1.0), 1.0)
        expected = energy(phi_new, params) + hm1_sq / (4.0 * dt)
        if scheme is Scheme.BDF2_ES_1:
            expected += sum(
                oracles.l2_inner(
                    oracles.derivative(delta, 1.0, a), oracles.derivative(delta, 1.0, a), 1.0
                )
                for a in range(2)
            )
        else:
            expected += 0.5 * params.epsilon * oracles.l2_inner(delta, delta, 1.0)
        e = energy(phi_new, params)
        result = modified_energy_hat(grid16, params, dt, e, grid16.rfft(delta))
        assert result == pytest.approx(expected, rel=1e-10)


class TestStep:
    def test_constant_state_is_steady(self, grid16):
        params = ModelParams(epsilon=0.5, reg_a=0.015625)
        state = initial_state(Field(grid16, np.full(grid16.shape, 0.3)))
        new_state, rec = step(state, 0.1, params)
        assert np.max(np.abs(new_state.phi_curr.values - 0.3)) < 1e-12
        assert rec.E == pytest.approx(energy(state.phi_curr, params), rel=1e-12)
        assert rec.step == 1 and rec.time == pytest.approx(0.1)

    def test_spatial_mode_manufactured_step_is_exact(self):
        g = Grid(dim=2, n=16, length=1.0)
        params = ModelParams(epsilon=0.025, reg_a=0.25)
        dt = 1e-3
        phi_curr, phi_prev = harness.exact_field(g, 0.0), harness.exact_field(g, -dt)
        state = stepper.SimState(
            phi_curr=phi_curr,
            phi_prev=phi_prev,
            time=0.0,
            step_index=0,
            spectra=(g.rfft(phi_curr.values), g.rfft(phi_prev.values)),
            history_dt=dt,
        )
        src = harness.spatial_source(g, dt, dt, params)
        new_state, _ = step(state, dt, params, 1e-13, source=src)
        exact = harness.exact_field(g, dt)
        assert np.max(np.abs(new_state.phi_curr.values - exact.values)) < 1e-10

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_modified_energy_dissipates_from_smooth_data(self, grid16, rng, scheme):
        params = ModelParams(epsilon=0.5, reg_a=0.5**2 / 16.0, scheme=scheme)
        state = initial_state(smooth_field(grid16, rng))
        dt = 0.05
        prev_emod = energy(state.phi_curr, params)  # no history: E_mod is E
        for _ in range(3):
            state, rec = step(state, dt, params)
            assert rec.E_mod <= prev_emod + 1e-9 * abs(prev_emod)
            prev_emod = rec.E_mod

    def test_failure_carries_step_index(self, grid16, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        state = initial_state(random_field(grid16, rng, scale=1e6))  # a stalling solve
        with pytest.raises(StepFailureError, match=r"^step 1 .*fell less than 10x"):
            step(state, 0.05, params)


class TestRun:
    def test_constant_data_records_identical(self, grid16):
        params = ModelParams(epsilon=0.5, reg_a=0.015625)
        state0 = initial_state(Field(grid16, np.full(grid16.shape, 0.2)))
        records = []
        run([(0.1, 1.0)], state0, params, energy_sink=records.append)
        assert len(records) == 11
        assert len({f"{r.E:.15e}" for r in records}) == 1
        assert len({f"{r.mass:.15e}" for r in records}) == 1

    def test_two_segment_schedule_restarts_history(self, grid16, rng):
        params = ModelParams(epsilon=0.5, reg_a=0.015625)
        state0 = initial_state(smooth_field(grid16, rng))
        records = []
        final = run([(0.05, 0.5), (0.1, 1.5)], state0, params, energy_sink=records.append)
        assert final.time == pytest.approx(1.5)
        assert final.step_index == 10 + 10
        energies = [r.E for r in records]
        assert all(b <= a + 1e-9 * abs(a) for a, b in zip(energies, energies[1:]))

    def test_snapshot_times(self, grid16):
        params = ModelParams(epsilon=0.5, reg_a=0.015625)
        state0 = initial_state(Field(grid16, np.full(grid16.shape, 0.1)))
        seen = []
        run(
            [(0.1, 1.0)],
            state0,
            params,
            snapshot_sink=lambda st: seen.append(st.time),
            snapshot_times=[0.0, 0.3, 0.65, 1.0],
        )
        assert seen == pytest.approx([0.0, 0.3, 0.7, 1.0])

    @pytest.mark.parametrize("t0, times, bad", [(0.0, [-1.0, 0.0, 0.2], -1.0),
                                                (0.0, [0.1, 5.0], 5.0), (0.1, [0.0, 0.2], 0.0)])
    def test_snapshot_time_outside_the_schedule_raises(self, grid16, t0, times, bad):
        # before the start state or after the last t_end, before any step
        state0 = initial_state(Field(grid16, np.full(grid16.shape, 0.1)))
        state0.time, calls = t0, []
        with pytest.raises(ValueError, match=f"snapshot time {bad!r} is outside"):
            run([(0.1, 0.2)], state0, ModelParams(epsilon=0.5, reg_a=0.015625),
                energy_sink=calls.append, snapshot_sink=calls.append, snapshot_times=times)
        assert calls == []

    def test_mass_conservation_short_run(self, grid16, rng):
        params = ModelParams(epsilon=0.5, reg_a=0.015625)
        state0 = initial_state(smooth_field(grid16, rng))
        records = []
        run([(0.05, 2.0)], state0, params, energy_sink=records.append)
        mass0 = state0.phi_curr.mean()
        drift = max(abs(r.mass - mass0) for r in records)
        assert drift <= 1e-11 * (1 + abs(mass0))

    def test_warns_when_stability_condition_off(self, grid16):
        params = ModelParams(epsilon=0.5, reg_a=0.0)
        state0 = initial_state(Field(grid16, np.full(grid16.shape, 0.1)))
        with pytest.warns(UserWarning, match="guarantee"):
            run([(0.1, 0.2)], state0, params)

    def test_rejects_bad_schedules(self, grid16):
        params = ModelParams(epsilon=0.5, reg_a=0.015625)
        state0 = initial_state(Field(grid16, np.full(grid16.shape, 0.1)))
        with pytest.raises(ValueError, match="increase"):
            run([(0.1, 1.0), (0.1, 0.5)], state0, params)
        with pytest.raises(ValueError):
            run([], state0, params)
        with pytest.raises(ValueError, match="whole number"):
            run([(0.3, 1.0)], state0, params)
        with pytest.raises(ValueError, match="overflows"):
            run([(0.05, 1e308)], state0, params)

    def test_failure_names_segment_and_step(self, grid16, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        state0 = initial_state(random_field(grid16, rng, scale=1e6))  # a stalling solve
        with pytest.raises(StepFailureError, match=r"^segment 0, step 1 .*fell less than 10x"):
            run([(0.05, 0.5)], state0, params)

    def test_initial_state_has_no_history(self, grid16, rng, monkeypatch):
        phi0 = smooth_field(grid16, rng, amplitude=0.01)
        spec = grid16.rfft(phi0.values)
        ffts = count_ffts(monkeypatch)
        state = initial_state(phi0, history="copy")
        assert ffts[0] == step_cost("`initial_state`", grid16.dim)
        assert state.phi_prev is None and state.fluxes is None
        assert len(state.spectra) == 1 and state.spectra[0].tobytes() == spec.tobytes()
        for rule in ("ghost", "bogus"):
            with pytest.raises(ValueError, match="history rule"):
                initial_state(phi0, history=rule)


class TestStartRule:
    """A step is BDF1 where the march has no history at its dt and BDF2
    otherwise, so the march is second order in time from its start and
    across every segment boundary."""

    L = 4.0 * np.sqrt(2.0) * np.pi

    def smooth_start(self):
        g = Grid(dim=2, n=32, length=self.L)
        tau = 2.0 * np.pi / self.L
        x, y = g.coords()
        modes = (np.cos(tau * x) * np.cos(tau * y) + 0.5 * np.sin(2 * tau * y)
                 + 0.2 * np.cos(3 * tau * x))
        return Field(g, 0.3 * modes)

    def final_field(self, schedule, phi0=None, stats_sink=None):
        phi0 = self.smooth_start() if phi0 is None else phi0
        params = ModelParams(epsilon=0.5, reg_a=0.5**2 / 16.0)
        state = run(schedule, initial_state(phi0), params,
                    tol=1e-12, stats_sink=stats_sink)
        return state.phi_curr.values

    @pytest.mark.parametrize(
        "ratio", [None, 1.0, 0.5, 2.0], ids=["one", "split", "halve", "double"])
    def test_second_order_in_time(self, ratio):
        # Richardson: the RMS gap between N and 2N steps to T = 1, with the
        # second half stepped at ratio * dt; a first-order start or restart
        # (a copied history level) gives orders 1.1-1.2 here
        def schedule(n):
            return [(1.0 / n, 1.0)] if ratio is None else [(1.0 / n, 0.5), (ratio / n, 1.0)]

        ns = (32, 64, 128, 256)
        finals = [self.final_field(schedule(n)) for n in ns]
        gaps = [np.sqrt(np.mean((a - b) ** 2)) for a, b in zip(finals, finals[1:])]
        assert harness.order_fit(gaps, [1.0 / n for n in ns[:-1]]) >= 1.9

    def test_second_order_on_smooth_pattern_data(self):
        # the production march (default tol: predictor start and
        # truncation stop) on the pattern problem with a Gaussian site, the
        # RMS gap at T = 2 over dt = 0.1 ... 0.00625; with the acceptance
        # problem's one-node site, an impulse no practical dt resolves, the
        # same probe fits 1.22 (README, "Accuracy in time")
        dts = [0.1 / 2**k for k in range(5)]
        finals = []
        for dt in dts:
            cfg = harness.PatternConfig(n=64, seed=7, sites=((50.0, 50.0, 10.0),),
                                        site_profile="gaussian", dt_schedule=((dt, 2.0),))
            harness.pattern_experiment(
                cfg, snapshot_sink=lambda st: finals.append(st.phi_curr.values),
                snapshot_times=(2.0,))
        gaps = [np.sqrt(np.mean((a - b) ** 2)) for a, b in zip(finals, finals[1:])]
        assert harness.order_fit(gaps, dts[:-1]) >= 1.9

    @pytest.mark.parametrize("start, dt, t_end", [("smooth", 1.0 / 32, 1.0), ("noise", 0.05, 0.5)])
    def test_truncation_stops_keep_the_field_within_its_time_error(
        self, monkeypatch, start, dt, t_end
    ):
        # the production march, whose BDF1 and BDF2 solves may stop at their
        # truncation error, against solves to the floor alone (KAPPA = 0):
        # 0.14% (smooth) and 0.23% (noise) of the dt-vs-dt/2 gap, and 9.2% on
        # the noise with a BDF1 stop 10x looser; 0.25% on the N=256
        # acceptance problem and 0.23% on the 64^3 benchmark start
        phi0 = self.smooth_start() if start == "smooth" else noise_start_3d()

        def final(step_dt, kappa, stats_sink=None):
            with monkeypatch.context() as m:
                m.setattr(psd, "KAPPA", kappa)
                return self.final_field([(step_dt, t_end)], phi0, stats_sink)

        stats = []
        production = final(dt, psd.KAPPA, stats.append)
        assert stats[0].stopped_by == "truncation"  # the BDF1 step 1
        floor, half = final(dt, 0.0), final(dt / 2, 0.0)
        gap = np.sqrt(np.mean((floor - half) ** 2))
        assert np.sqrt(np.mean((production - floor) ** 2)) <= 0.01 * gap

    def test_boundary_at_unchanged_dt_carries_the_history(self):
        one = self.final_field([(0.02, 1.0)])
        split = self.final_field([(0.02, 0.5), (0.02, 1.0)])
        assert one.tobytes() == split.tobytes()

    @pytest.mark.parametrize("ratio", [1.0, 2.0])
    def test_chained_runs_take_the_steps_of_one_run(self, grid16, rng, ratio):
        # the state records its history's dt, so a second run at a new dt
        # starts with BDF1 and one at the same dt carries the history on,
        # as a segment boundary does
        params = ModelParams(epsilon=0.5, reg_a=0.015625)
        state0 = initial_state(smooth_field(grid16, rng))
        joined = run([(0.05, 0.5), (0.05 * ratio, 1.0)], state0, params)
        chained = run([(0.05 * ratio, 1.0)], run([(0.05, 0.5)], state0, params), params)
        assert chained.history_dt == 0.05 * ratio
        assert chained.phi_curr.values.tobytes() == joined.phi_curr.values.tobytes()

    def test_step_at_a_new_dt_is_bdf1(self, grid16, rng):
        params = ModelParams(epsilon=0.5, reg_a=0.015625)
        state = initial_state(smooth_field(grid16, rng))
        for _ in range(2):
            state, _ = step(state, 0.05, params)
        assert state.history_dt == 0.05 and state.fluxes is not None
        for dt, phi_km1, levels in ((0.1, None, 1), (0.05, state.phi_prev, 2)):
            op = StepOperator(state.phi_curr, phi_km1, dt, params, None,
                              state.spectra[:levels], state.fluxes[:levels])
            expected, _ = psd_solve(None, op)
            new, _ = step(state, dt, params)
            assert new.phi_curr.values.tobytes() == expected.values.tobytes()


def noise_start_3d():
    """The 3D benchmark start, uniform noise of amplitude 0.05 at h ~ 0.39,
    on 16^3."""
    g = Grid(dim=3, n=16, length=6.25)
    return Field(g, 0.05 * (2.0 * np.random.default_rng(7).random(g.shape) - 1.0))


def band_field(grid, rng, mean=0.1, amplitude=0.05):
    """Noise around a mean on a box of edge 8 pi, where the scheme's
    unstable band |k| ~ 1 sits at mode 4."""
    values = amplitude * rng.standard_normal(grid.shape)
    return Field(grid, mean + values - values.mean())


def relative_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def count_ffts(monkeypatch) -> list:
    """Count every ``Grid.rfft``/``Grid.irfft`` from here on in the returned
    one-element list."""
    ffts = [0]
    for name in ("rfft", "irfft"):
        transform = getattr(Grid, name)

        def counted(grid, arr, transform=transform):
            ffts[0] += 1
            return transform(grid, arr)

        monkeypatch.setattr(Grid, name, counted)
    return ffts


class TestKernelModes:
    """A step keeps every kernel mode of ``-lap`` at its value in ``phi^k``:
    the mass and, on even grids, the pure-Nyquist modes that the folded
    derivative symbols annihilate (the H^-1 step's rows there say they do
    not move)."""

    @pytest.mark.parametrize("grid", [Grid(2, 8, 10.0), Grid(3, 6, 10.0)], ids=["2d", "3d"])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_checkerboard_start_keeps_its_kernel_modes(self, grid, scheme, rng):
        # a checkerboard is pure Nyquist content; a first solve that zeroes
        # it raises E_mod about tenfold here (scheme 2, eps > 1/2)
        params = ModelParams(epsilon=0.9, reg_a=0.9**2 / 16.0, scheme=scheme)
        checkerboard = (-1.0) ** np.indices(grid.shape).sum(axis=0)
        phi0 = Field(grid, 0.2 + 0.5 * checkerboard + 0.01 * rng.standard_normal(grid.shape))
        kernel = grid.kernel_mask
        start = grid.rfft(phi0.values)[kernel]
        state, e_mod = initial_state(phi0), energy(phi0, params)  # no history: E_mod is E
        for _ in range(10):
            state, rec = step(state, 0.1, params)
            assert rec.E_mod - e_mod <= 1e-9 * abs(e_mod)
            assert relative_gap(state.spectra[0][kernel], start) <= 1e-13
            e_mod = rec.E_mod


class TestCarriedSpectra:
    """Steps reuse the solver's spectra: the states they carry, the rows they
    emit and the transforms they spend."""

    L = 8.0 * np.pi
    PARAMS = ModelParams(epsilon=0.5, reg_a=0.5**2 / 16.0)

    def test_carried_spectra_match_the_fields(self, rng):
        # unprojected, round-off anti-Hermitian content on the self-conjugate
        # planes grows about 60x every 20 steps here and passes 1e-13 near step 70
        g = Grid(dim=2, n=32, length=self.L)
        state = initial_state(band_field(g, rng))
        (spec0,) = state.spectra  # the start's, from initial_state
        assert spec0.tobytes() == g.rfft(state.phi_curr.values).tobytes()
        for _ in range(80):
            state, _ = step(state, 0.5, self.PARAMS)
            spec_curr, spec_prev = state.spectra
            assert relative_gap(spec_curr, g.rfft(state.phi_curr.values)) <= 1e-13
            assert relative_gap(spec_prev, g.rfft(state.phi_prev.values)) <= 1e-13

    @pytest.mark.parametrize("dim, n", [(2, 15), (2, 16), (3, 9), (3, 10)])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_row_equals_field_diagnostics(self, rng, dim, n, scheme):
        g = Grid(dim=dim, n=n, length=self.L)
        params = ModelParams(epsilon=0.5, reg_a=0.5**2 / 16.0, scheme=scheme)
        schedule = [(0.05, 0.15), (0.1, 0.45)]  # a BDF1 restart at t = 0.15
        state0 = initial_state(band_field(g, rng))
        records, states = [], []
        times = [0.05 * k for k in range(4)] + [0.15 + 0.1 * k for k in range(1, 4)]
        run(schedule, state0, params, energy_sink=records.append,
            snapshot_sink=states.append, snapshot_times=times)
        assert len(records) == len(states) == 7
        for rec, st in zip(records, states):
            dt = 0.05 if st.time < 0.15 + 1e-9 else 0.1
            e = energy(st.phi_curr, params)
            prev = st.phi_curr if st.phi_prev is None else st.phi_prev
            delta_hat = g.rfft(st.phi_curr.values - prev.values)
            assert rec.E == pytest.approx(e, rel=1e-12)
            assert rec.E_mod == pytest.approx(
                modified_energy_hat(g, params, dt, e, delta_hat), rel=1e-12)
            assert rec.h2_norm == pytest.approx(
                norm_h2_hat(g, g.rfft(st.phi_curr.values)), rel=1e-12)

    @pytest.mark.parametrize("dim, n", [(2, 15), (3, 10)])
    @pytest.mark.parametrize("history", [False, True])
    def test_t0_row_costs_the_gradient_of_phi_curr(self, rng, monkeypatch, dim, n, history):
        # the row reads state0's spectra, and with a history level at the
        # first dt (a state built by hand) its delta is their difference
        g = Grid(dim=dim, n=n, length=self.L)
        phi_curr, phi_prev = band_field(g, rng), band_field(g, rng)
        spectra = (g.rfft(phi_curr.values), g.rfft(phi_prev.values))
        state0 = stepper.SimState(phi_curr, phi_prev if history else None, 0.0, 0,
                                  spectra if history else spectra[:1], 0.05)
        ffts, at_row, records = count_ffts(monkeypatch), [], []

        def sink(rec):
            at_row.append(ffts[0])
            records.append(rec)

        run([(0.05, 0.05)], state0, self.PARAMS, energy_sink=sink)
        assert at_row[0] == step_cost("the `t = 0` row", dim)
        monkeypatch.undo()
        e = energy(phi_curr, self.PARAMS)
        delta_hat = spectra[0] - spectra[1] if history else np.zeros_like(spectra[0])
        assert records[0].E == pytest.approx(e, rel=1e-12)
        assert records[0].E_mod == pytest.approx(
            modified_energy_hat(g, self.PARAMS, 0.05, e, delta_hat), rel=1e-12)
        assert (records[0].E_mod > records[0].E) == history

    @pytest.mark.parametrize("start", ["band", "constant"])
    @pytest.mark.parametrize("taken, dt", [(1, 0.05), (1, 0.1), (0, 0.05)],
                             ids=["bdf2", "bdf1", "first"])
    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 10)])
    def test_step_costs_only_its_solve(self, rng, monkeypatch, dim, n, taken, dt, start):
        # a step at the history's dt is BDF2, one at a new dt BDF1; both take
        # the copy's residual from the carried flux and keep their predictor,
        # or the copy, at a fixed point.  A march's first step (BDF1) also
        # transforms phi^k and forms its flux.  The counts are README's
        g = Grid(dim=dim, n=n, length=self.L)
        phi0 = band_field(g, rng) if start == "band" else Field(g, np.full(g.shape, 0.3))
        state = initial_state(phi0)
        for _ in range(taken):
            state, _ = step(state, 0.05, self.PARAMS)
        ffts = count_ffts(monkeypatch)
        in_solve = []

        def solve(*args, **kwargs):
            before = ffts[0]
            out = psd_solve(*args, **kwargs)
            in_solve.append(ffts[0] - before)
            return out

        monkeypatch.setattr(stepper, "psd_solve", solve)
        _, rec = step(state, dt, self.PARAMS)
        assert (rec.psd_iters > 0) == (start == "band")
        row = "a step of a march (" if rec.psd_iters else "a step of a march whose copy"
        expected = step_cost(row, dim, rec.psd_iters)
        assert ffts[0] == expected + (0 if taken else step_cost("the first step", dim))
        assert in_solve == ffts  # the diagnostics row transforms nothing

    def test_stepping_a_state_twice_is_bitwise(self, rng):
        g = Grid(dim=2, n=16, length=self.L)
        state, _ = step(initial_state(band_field(g, rng)), 0.05, self.PARAMS)
        (a, rec_a), (b, rec_b) = (step(state, 0.05, self.PARAMS) for _ in range(2))
        assert rec_a == rec_b
        assert a.phi_curr.values.tobytes() == b.phi_curr.values.tobytes()
        for spec_a, spec_b in zip(a.spectra, b.spectra):
            assert spec_a.tobytes() == spec_b.tobytes()


class TestPredictorStart:
    """A step whose state carries the 4-Laplacian of both levels starts its
    solve from the linearly implicit BDF2 step, unless the copy of the
    current field already passes the stopping test."""

    L = 8.0 * np.pi

    @pytest.mark.parametrize("dim, n", [(2, 15), (2, 16), (3, 9), (3, 10)])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_carried_flux_is_the_states_4_laplacian(self, rng, dim, n, scheme):
        g = Grid(dim=dim, n=n, length=self.L)
        params = ModelParams(epsilon=0.5, reg_a=0.5**2 / 16.0, scheme=scheme)
        states = []
        run([(0.05, 0.15), (0.1, 0.45)], initial_state(band_field(g, rng)), params,
            snapshot_sink=states.append,
            snapshot_times=[0.05 * k for k in range(1, 4)] + [0.15 + 0.1 * k for k in range(1, 4)])
        assert len(states) == 6
        for st in states:
            spec = g.rfft(st.phi_curr.values)
            expected = p_laplacian_hat(g, gradient(g, spec))
            assert relative_gap(st.fluxes[0], expected) <= 1e-13  # 2.3e-15 measured

    @pytest.mark.parametrize("dt", [0.05, 1e-3, 1e-4])
    def test_carried_flux_is_the_flux_of_the_carried_spectrum(self, dt):
        # the solve hands on the flux its last residual formed from the
        # iterate's gradient: the solution's own flux, to round-off
        cfg = harness.PatternConfig(n=64, seed=7, sites=((50.0, 50.0, 10.0),))
        g = cfg.grid()
        state, params = initial_state(harness.random_init(cfg, g)), cfg.params()
        for _ in range(10):
            state, _ = step(state, dt, params)
            formed = p_laplacian_hat(g, gradient(g, state.spectra[0]))
            assert relative_gap(state.fluxes[0], formed) <= 1e-14

    def test_flux_history_is_frozen_after_every_bdf1_step(self, rng):
        # p^{k-1} is the step's p^k only after a BDF2 step that carried both
        # fluxes; after a BDF1 step the next predictor freezes the flux
        g = Grid(dim=2, n=16, length=self.L)
        params = ModelParams(epsilon=0.5, reg_a=0.5**2 / 16.0)
        first, _ = step(initial_state(band_field(g, rng)), 0.05, params)
        carried, _ = step(first, 0.05, params)
        restarted, _ = step(carried, 0.1, params)
        for new in (first, restarted):
            assert new.fluxes[1] is new.fluxes[0]
        assert carried.fluxes[1] is first.fluxes[0]

    def test_near_equilibrium_step_keeps_the_copy(self, grid16, rng):
        # TestRun's two-segment run, which decays to E ~ 1e-21: where the
        # copy passes the stopping test, the step returns it
        params = ModelParams(epsilon=0.5, reg_a=0.015625)
        states = []
        run([(0.05, 0.5), (0.1, 1.5)], initial_state(smooth_field(grid16, rng)), params,
            snapshot_sink=states.append, snapshot_times=[0.5 + 0.1 * k for k in range(1, 10)])
        frozen = 0
        for st in states:
            op = StepOperator(st.phi_curr, st.phi_prev, 0.1, params, None, st.spectra)
            copy, stats = psd_solve(None, op)
            if stats.iterations == 0:
                frozen += 1
                new, rec = step(st, 0.1, params)
                assert st.fluxes is not None and rec.psd_iters == 0
                assert new.phi_curr.values.tobytes() == copy.values.tobytes()
        assert frozen > 0

    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 12)])
    def test_predictor_start_stops_within_its_truncation_error(self, rng, monkeypatch, dim, n):
        g = Grid(dim=dim, n=n, length=self.L)
        params = ModelParams(epsilon=0.5, reg_a=0.5**2 / 16.0)
        state = initial_state(band_field(g, rng))
        for _ in range(3):
            state, _ = step(state, 0.5, params)
        op = StepOperator(state.phi_curr, state.phi_prev, 0.5, params, None, state.spectra,
                          state.fluxes)
        exact, copy_stats = psd_solve(state.phi_curr, op, 1e-10)
        ffts = count_ffts(monkeypatch)
        predicted, stats = psd_solve(None, op)
        assert stats.converged and stats.stopped_by == "truncation"
        assert 0 < stats.iterations < copy_stats.iterations
        assert stats.residual_history[0] < 1e-2 * copy_stats.residual_history[0]
        assert ffts[0] == step_cost("a step of a march (", dim, stats.iterations)  # start: free
        # the linearly implicit BDF2 step, formed here from the operator's data
        (p_k, p_km1), phi_k_hat = op.fluxes, op.spectra[0]
        r = op.rhs_hat - op.implicit_sym * phi_k_hat - op.explicit_hat - op.dt * (2 * p_k - p_km1)
        r[g.kernel_mask] = 0.0
        phi_pred = Field(g, g.irfft(phi_k_hat + r / op.implicit_sym))
        # the truncation test's promise: the iterate lies within a small
        # multiple of KAPPA times its distance from the predictor
        lte = norm_l2(Field(g, predicted.values - phi_pred.values))
        gap = norm_l2(Field(g, predicted.values - exact.values))
        assert 0.0 < gap <= 2.0 * psd.KAPPA * lte


class TestBdf1Start:
    """A BDF1 step starts from its linearly implicit predictor, the flux
    frozen at ``p^k``, when that beats the copy, and from the copy, solved
    to the floor as before, when it does not."""

    PARAMS = ModelParams(epsilon=0.5, reg_a=0.5**2 / 16.0)

    def test_noise_start_stops_at_its_truncation_error(self):
        phi0 = noise_start_3d()
        stats = []
        step(initial_state(phi0), 0.05, self.PARAMS, stats_sink=stats.append)
        _, copy_stats = psd_solve(phi0, StepOperator(phi0, None, 0.05, self.PARAMS))
        assert stats[0].stopped_by == "truncation"
        assert 0 < stats[0].iterations < copy_stats.iterations

    def test_stiff_start_is_the_copy_started_floor_solve(self, monkeypatch):
        # a one-node site of magnitude 10: the frozen-flux predictor's
        # residual is 56x the copy's, so step 1 is solved from the copy
        cfg = harness.PatternConfig(n=64, seed=7, sites=((50.0, 50.0, 10.0),),
                                    dt_schedule=((0.05, 0.05),))
        phi0, params = harness.random_init(cfg, cfg.grid()), cfg.params()
        state0, stats = initial_state(phi0), []
        with monkeypatch.context() as m:
            ffts = count_ffts(m)
            new, _ = step(state0, 0.05, params, stats_sink=stats.append)
        # phi^k's flux, the predictor's gradient and residual, the copy's
        # gradient (its residual from the same p^k), the iterations and the solution
        dim, iters = phi0.grid.dim, stats[0].iterations
        assert ffts[0] == (step_cost("a step of a march (", dim, iters)
                           + step_cost("a step whose predictor", dim)
                           + step_cost("the first step", dim))
        copy, copy_stats = psd_solve(phi0, StepOperator(phi0, None, 0.05, params))
        assert stats[0].stopped_by == copy_stats.stopped_by == "floor"
        assert stats[0].iterations == copy_stats.iterations
        assert stats[0].residual_history == copy_stats.residual_history
        assert new.phi_curr.values.tobytes() == copy.values.tobytes()


    def test_the_caller_names_the_start(self, rng, monkeypatch):
        # a given field is transformed and solved to the floor, whatever
        # object it is (op.phi_k once kept a predictor that stops at its
        # truncation error, 2 iterations here against the floor's 10), and
        # None is the start a step of a march takes
        g = Grid(dim=2, n=32, length=8.0 * np.pi)
        state = initial_state(band_field(g, rng))
        op = StepOperator(state.phi_curr, None, 0.5, self.PARAMS, None, state.spectra)
        with monkeypatch.context() as m:
            ffts = count_ffts(m)
            a, stats_a = psd_solve(op.phi_k, op)
        b, stats_b = psd_solve(op.phi_k.copy(), op)
        assert a.values.tobytes() == b.values.tobytes()
        assert stats_a.stopped_by == stats_b.stopped_by == "floor"
        assert stats_a.iterations == stats_b.iterations
        assert stats_a.residual_history == stats_b.residual_history
        assert ffts[0] == step_cost("a `psd_solve` from a given", 2, stats_a.iterations)
        seen = []
        for _ in range(3):  # a BDF1 first step, then BDF2 steps with carried fluxes
            op = StepOperator(state.phi_curr, state.phi_prev, 0.5, self.PARAMS, None,
                              state.spectra, state.fluxes)
            sol, stats = psd_solve(None, op)
            state, _ = step(state, 0.5, self.PARAMS, stats_sink=seen.append)
            assert sol.values.tobytes() == state.phi_curr.values.tobytes()
            assert stats.residual_history == seen[-1].residual_history
            assert stats.stopped_by == seen[-1].stopped_by
        assert seen[0].stopped_by == "truncation"


class TestSingleThreadedReductions:
    """No reduction goes through BLAS, whose idle threads spin a second CPU
    when the thread count is not pinned (as under ``spfc simulate``)."""

    @pytest.mark.parametrize("dim,n", [(2, 12), (3, 8)])
    def test_march_and_norms_call_no_blas(self, dim, n, rng, monkeypatch):
        def blas(*args, **kwargs):
            raise AssertionError("reduction through BLAS")

        for name in ("dot", "vdot", "inner"):
            monkeypatch.setattr(np, name, blas)
        monkeypatch.setattr(np.linalg, "norm", blas)
        grid = Grid(dim=dim, n=n, length=10.0)
        params = ModelParams(epsilon=0.5, reg_a=0.5**2 / 16)
        phi0 = random_field(grid, rng, scale=0.1)
        records = []
        run([(0.1, 0.3)], initial_state(phi0), params, energy_sink=records.append)
        assert len(records) == 4 and all(np.isfinite(r.E_mod) for r in records)
        assert norm_l2(phi0) ** 2 == pytest.approx(
            grid.cell_volume * np.sum(phi0.values**2), rel=1e-13)
        assert np.isfinite(norm_h2_hat(grid, grid.rfft(phi0.values)))
        if dim == 2:
            defect = harness.gradient_consistency_defect(grid, params, rng, 1)
            assert defect < 1e-4
