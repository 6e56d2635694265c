"""Tests for the experiment harness: seeded initial data, order fitting,
the manufactured solution, desk-scale convergence studies, pattern runs and
the verification battery."""

import numpy as np
import pytest

from spfc import Grid, ModelParams, Scheme, StepOperator, harness, psd_solve
from spfc.harness import (
    PatternConfig,
    exact_field,
    order_fit,
    pattern_experiment,
    random_init,
    spatial_convergence_study,
    spatial_source,
    temporal_convergence_study,
    temporal_source,
    verify_suite,
)
from spfc.model import gradient, p_laplacian_hat
from spfc.psd import PsdConfig


class TestRandomInit:
    def test_deterministic_for_fixed_seed(self):
        cfg = PatternConfig(n=32, seed=99)
        grid = cfg.grid()
        a = random_init(cfg, grid)
        b = random_init(cfg, grid)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_field(self):
        grid = PatternConfig(n=32).grid()
        a = random_init(PatternConfig(n=32, seed=1), grid)
        b = random_init(PatternConfig(n=32, seed=2), grid)
        assert not np.array_equal(a.values, b.values)

    def test_amplitude_bounds_and_mean(self):
        cfg = PatternConfig(n=64, seed=5, amplitude=0.05)
        f = random_init(cfg, cfg.grid())
        assert f.values.min() >= -0.05 and f.values.max() <= 0.05
        sigma_mean = 0.05 / np.sqrt(3.0) / 64.0
        assert abs(f.mean()) <= 3.0 * sigma_mean

    def test_pure_site_impulse(self):
        cfg = PatternConfig(n=64, seed=0, amplitude=0.0, sites=((50.0, 50.0, 10.0),))
        grid = cfg.grid()
        f = random_init(cfg, grid)
        i = int(round(50.0 / grid.spacing)) % grid.n
        assert f.values[i, i] == 10.0
        assert np.count_nonzero(f.values) == 1

    def test_gaussian_site_profile(self):
        cfg = PatternConfig(
            n=64, seed=0, amplitude=0.0, sites=((50.0, 50.0, 10.0),), site_profile="gaussian"
        )
        grid = cfg.grid()
        f = random_init(cfg, grid)
        i = int(round(50.0 / grid.spacing)) % grid.n
        assert f.values[i, i] == pytest.approx(10.0, rel=1e-12)
        assert np.count_nonzero(np.abs(f.values) > 1e-12) > 1

    def test_rejects_site_outside_box(self):
        with pytest.raises(ValueError, match="outside"):
            PatternConfig(sites=((150.0, 50.0, 10.0),))


class TestPatternConfig:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"n": 2}, "n"),
            ({"length": 0.0}, "length"),
            ({"epsilon": 1.0}, "epsilon"),
            ({"reg_a": -1.0}, "reg_a"),
            ({"seed": -1}, "seed"),
            ({"amplitude": -0.1}, "amplitude"),
            ({"sites": ((150.0, 50.0, 1.0),)}, "sites"),
            ({"dt_schedule": ()}, "dt_schedule"),
            ({"dt_schedule": ((0.3, 1.0),)}, "dt_schedule"),
            ({"dt_schedule": ((0.1, 1.0), (0.1, 0.5))}, "dt_schedule"),
            ({"site_profile": "box"}, "site_profile"),
        ],
    )
    def test_invalid_setup_names_its_field_first(self, kwargs, field):
        # spfc.config relies on this to point at the key that set the field
        with pytest.raises(ValueError, match=rf"^{field}\b"):
            PatternConfig(**kwargs)


class TestOrderFit:
    def test_exact_second_order(self):
        assert order_fit([1.0, 0.25], [1.0, 0.5]) == pytest.approx(2.0, abs=1e-13)

    def test_exact_first_order(self):
        assert order_fit([1.0, 0.5], [1.0, 0.5]) == pytest.approx(1.0, abs=1e-13)

    def test_synthetic_quadratic_model(self):
        dts = [0.1 / 2**k for k in range(5)]
        errors = [3.0 * dt**2 + 0.001 * dt**3 for dt in dts]
        assert 1.95 <= order_fit(errors, dts) <= 2.05

    def test_synthetic_pure_quadratic_is_exact(self):
        dts = [0.16 / nk for nk in (100, 200, 400, 800)]
        errors = [7.3 * dt**2 for dt in dts]
        assert order_fit(errors, dts) == pytest.approx(2.0, abs=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            order_fit([1.0], [1.0])
        with pytest.raises(ValueError):
            order_fit([1.0, 0.0], [1.0, 0.5])
        with pytest.raises(ValueError):
            order_fit([1.0, 0.5, 0.2], [1.0, 0.5])


class TestManufacturedSolution:
    def test_field_amplitude_and_mean(self):
        f = exact_field(Grid(dim=2, n=32, length=1.0), 0.0)
        assert np.max(np.abs(f.values)) <= 1.0 / (2 * np.pi) + 1e-15
        assert abs(f.mean()) < 1e-16

    def test_temporal_source_matches_discrete_residual(self):
        # all fields involved are band-limited, so the spectral evaluation
        # of d(phi_e)/dt - lap(mu(phi_e)) is exact and independent
        g = Grid(dim=2, n=16, length=1.0)
        params = ModelParams(epsilon=0.025, reg_a=0.25)
        t = 0.37
        phi_hat = g.rfft(exact_field(g, t).values)
        lam = g.lam
        mu_hat = p_laplacian_hat(g, gradient(g, phi_hat))
        mu_hat += (1.0 - params.epsilon - 2 * lam + lam**2) * phi_hat
        d_dt = -np.sin(t) * exact_field(g, 0.0).values
        expected = d_dt - g.irfft(-lam * mu_hat)
        result = temporal_source(g, t, params)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(result.values - expected)) < 1e-11 * scale

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_spatial_source_matches_discrete_stencil(self, scheme):
        # the step's chemical potential at phi_e(t1), read off the step
        # equation N[phi] - f = (-lap)^(-1) (BDF2 difference) + dt mu
        g = Grid(dim=2, n=16, length=1.0)
        params = ModelParams(epsilon=0.025, reg_a=0.25, scheme=scheme)
        dt, t1 = 1e-3, 0.4
        levels = [exact_field(g, t) for t in (t1, t1 - dt, t1 - 2 * dt)]
        op = StepOperator(levels[1], levels[2], dt, params)
        phi_hat = g.rfft(levels[0].values)
        bdf_hat = op.bdf_tail_hat + 1.5 * phi_hat
        resid_hat = op.nonlinear_hat(phi_hat, p_laplacian_hat(g, gradient(g, phi_hat))) - op.rhs_hat
        mu_hat = (resid_hat - g.lam_inv * bdf_hat) / dt
        stencil = (1.5 * levels[0].values - 2 * levels[1].values + 0.5 * levels[2].values) / dt
        expected = stencil - g.irfft(-g.lam * mu_hat)
        result = spatial_source(g, t1, dt, params)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(result.values - expected)) < 1e-9 * scale

    def test_spatial_mode_step_is_exact_by_construction(self):
        g = Grid(dim=2, n=16, length=1.0)
        params = ModelParams(epsilon=0.025, reg_a=0.25)
        dt = 1e-3
        src = spatial_source(g, dt, dt, params)
        op = StepOperator(exact_field(g, 0.0), exact_field(g, -dt), dt, params, src)
        sol, stats = psd_solve(op.phi_k, op, PsdConfig(tol=1e-13))
        assert stats.converged
        assert np.max(np.abs(sol.values - exact_field(g, dt).values)) < 1e-10

    @pytest.mark.parametrize(
        "grid", [Grid(dim=2, n=16, length=2.0), Grid(dim=3, n=8, length=1.0)], ids=["L2", "3d"])
    def test_rejects_wrong_domain(self, grid):
        with pytest.raises(ValueError, match="unit square"):
            exact_field(grid, 0.0)


class TestStudiesDeskScale:
    """Reduced-size runs; the paper-scale studies live in the acceptance suite."""

    def test_spatial_error_collapses_once_resolved(self):
        params = ModelParams(epsilon=0.025, reg_a=0.25)
        rows = spatial_convergence_study([6, 8], dt_fixed=1e-4, params=params, t_final=0.005)
        assert rows[0].error_l2 > 1e4 * rows[1].error_l2

    def test_wrapped_solver_binding_gets_the_config(self, monkeypatch):
        # the benchmark wraps harness.psd_solve with this signature and
        # forwarding; the study's PsdConfig must reach the solver through it
        args = ([6], 1e-4, ModelParams(0.025, 0.25), 4e-4)
        expected = spatial_convergence_study(*args)
        solve, calls = harness.psd_solve, []

        def checked_solve(phi_guess, ctx, f=None, cfg=None):
            calls.append(ctx)
            return solve(phi_guess, ctx, f, cfg)

        monkeypatch.setattr(harness, "psd_solve", checked_solve)
        rows = spatial_convergence_study(*args)
        assert len(calls) == 4
        assert [r.error_l2 for r in rows] == [r.error_l2 for r in expected]

    def test_temporal_second_order_small(self):
        params = ModelParams(epsilon=0.025, reg_a=0.25)
        rows, order = temporal_convergence_study(
            [25, 50, 100], n_fixed=16, params=params, t_final=0.16
        )
        assert 1.7 <= order <= 2.3
        assert rows[0].error_l2 > rows[-1].error_l2
        assert all(r.error_h3_seminorm >= 0 for r in rows)


class TestPatternExperiment:
    def test_small_run_summary_and_snapshots(self):
        cfg = PatternConfig(
            n=32,
            seed=42,
            sites=((50.0, 50.0, 10.0),),
            dt_schedule=((0.05, 1.0),),
        )
        records = []
        snaps = []
        final = pattern_experiment(
            cfg,
            energy_sink=records.append,
            snapshot_sink=snaps.append,
            snapshot_times=(0.5, 1.0),
        )
        assert final.step_index == 20 == records[-1].step
        assert final.time == pytest.approx(1.0)
        assert [st.time for st in snaps] == pytest.approx([0.5, 1.0])
        assert snaps[-1] is final  # the state the last step returned
        assert max(abs(r.mass - records[0].mass) for r in records) <= 1e-11
        energies = [r.E for r in records]
        assert energies[-1] < energies[0]
        emods = [r.E_mod for r in records]
        assert all(b <= a + 1e-9 * abs(a) for a, b in zip(emods, emods[1:]))

    def test_schedule_with_dt_change(self):
        cfg = PatternConfig(n=32, seed=3, dt_schedule=((0.05, 0.5), (0.1, 1.0)))
        final = pattern_experiment(cfg)
        assert final.step_index == 15 and final.time == pytest.approx(1.0)
        assert final.history_dt == 0.1


class TestVerifySuite:
    def test_battery_passes_at_the_claimed_sizes(self):
        report = verify_suite()
        assert report.all_passed
        text = report.format()
        assert "ALL CHECKS PASSED" in text
        assert "sbp_identities_2d_n16" in text and "sbp_identities_3d_n32" in text

    @pytest.mark.parametrize("symbol", ["lam", "ik"])
    def test_mutated_symbol_turns_sbp_red(self, monkeypatch, small_claims, symbol):
        # a symbol scaled by 1 + 1e-6 breaks identities 1 and 3 (2 scales both
        # sides with lam and has no gradient); only the SBP check sees it, so
        # no symbol cache of a later check is built from the scaled one
        original, sbp_defects = vars(Grid)[symbol], harness.sbp_defects

        def scaled(grid):
            value = original.__get__(grid)
            return tuple(1.000001 * ik for ik in value) if symbol == "ik" else 1.000001 * value

        def perturbed(*args):
            with monkeypatch.context() as m:
                m.setattr(Grid, symbol, property(scaled))
                return sbp_defects(*args)

        monkeypatch.setattr(harness, "sbp_defects", perturbed)
        report = verify_suite()
        sbp = [e for e in report.entries if e.name.startswith("sbp")]
        assert sbp and all(not e.passed for e in sbp)
        assert not report.all_passed
