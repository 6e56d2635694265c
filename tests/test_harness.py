"""Tests for the experiment harness: seeded initial data, order fitting,
desk-scale convergence studies, pattern runs and the verification battery."""

import numpy as np
import pytest

from spfc import Grid, ModelParams, harness
from spfc.harness import (
    ConvergenceRow,
    PatternConfig,
    order_fit,
    pattern_experiment,
    random_init,
    spatial_convergence_study,
    temporal_convergence_study,
    verify_suite,
)


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


class TestConvergenceRow:
    def test_rejects_negative_errors(self):
        with pytest.raises(ValueError):
            ConvergenceRow(resolution=8, dt=0.1, error_l2=-1.0)


class TestStudiesDeskScale:
    """Reduced-size runs; the paper-scale studies live in the acceptance suite."""

    def test_spatial_error_collapses_once_resolved(self):
        params = ModelParams(epsilon=0.025, reg_a=0.25)
        rows = spatial_convergence_study([6, 8], dt_fixed=1e-4, params=params, t_final=0.005)
        assert rows[0].error_l2 > 1e4 * rows[1].error_l2

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
        summary = pattern_experiment(
            cfg,
            energy_sink=records.append,
            snapshot_sink=lambda st: snaps.append(st.time),
            snapshot_times=(0.5, 1.0),
        )
        assert summary.total_steps == 20
        assert summary.final_time == pytest.approx(1.0)
        assert summary.mass_drift <= 1e-11
        assert snaps == pytest.approx([0.5, 1.0])
        energies = [r.E for r in records]
        assert energies[-1] < energies[0]
        emods = [r.E_mod for r in records]
        assert all(b <= a + 1e-9 * abs(a) for a, b in zip(emods, emods[1:]))

    def test_schedule_with_dt_change(self):
        cfg = PatternConfig(n=32, seed=3, dt_schedule=((0.05, 0.5), (0.1, 1.0)))
        summary = pattern_experiment(cfg)
        assert summary.total_steps == 15


class TestVerifySuite:
    def test_ci_profile_passes(self):
        report = verify_suite(profile="ci")
        assert report.all_passed
        text = report.format()
        assert "ALL CHECKS PASSED" in text
        assert "sbp_identities_2d_n16" in text

    @pytest.mark.parametrize("symbol", ["lam", "ik"])
    def test_mutated_symbol_turns_sbp_red(self, monkeypatch, symbol):
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
        report = verify_suite(profile="ci")
        sbp = [e for e in report.entries if e.name.startswith("sbp")]
        assert sbp and all(not e.passed for e in sbp)
        assert not report.all_passed

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError):
            verify_suite(profile="huge")
