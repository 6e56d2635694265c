"""Tests for the preconditioned steepest descent solver: the step
operator's search-direction solve against a term-by-term oracle, its
line-search coefficients against finite differences, the monotone-cubic root
finder, and solver behavior."""

import numpy as np
import pytest

import oracles
from conftest import assert_kernel_modes_kept, random_field, recording_objective
from test_stepper import count_ffts
from spfc import Field, Grid, ModelParams, Scheme, norm_l2, psd_solve, solve_cubic_monotone
from spfc import initial_state, psd, run, step
from spfc.model import (
    MeanMismatchError,
    StepOperator,
    energy_hat,
    grad_sq,
    gradient,
    modified_energy_hat,
    p_laplacian_hat,
)
from spfc.psd import (
    NonMonotoneCubicError,
    STALL_WINDOW,
    PsdDivergenceError,
    _diverged,
)


def make_step(grid, rng, params, dt=0.05, scale=0.2):
    phi_k = random_field(grid, rng, scale=scale)
    shift = rng.standard_normal(grid.shape) * scale
    shift -= shift.mean()
    phi_km1 = Field(grid, phi_k.values + shift)
    return StepOperator(phi_k, phi_km1, dt, params)


def precondition_solve(r, op):
    """Search direction ``d`` with ``L[d] = r - mean(r)``: the per-mode
    solve ``psd_solve`` applies to its residual."""
    g = op.grid
    return Field(g, g.irfft(op.pre_inv * g.rfft(r.values)))


def line_search_coefficients(phi, d, op):
    """``(c0, c1, c2, c3)`` of the objective's directional derivative along
    ``d``, assembled from the step operator as ``psd_solve`` does."""
    g = op.grid
    phi_hat, d_hat = g.rfft(phi.values), g.rfft(d.values)
    grad_phi = gradient(g, phi_hat)
    gsq = grad_sq(grad_phi)
    c0 = g.spectral_dot(op.nonlinear_hat(phi_hat, p_laplacian_hat(g, grad_phi)) - op.rhs_hat, d_hat)
    return op.line_coefficients(grad_phi, gsq, gradient(g, d_hat), d_hat, c0)


class TestTol:
    @pytest.mark.parametrize("tol", [0.0, 1.0, 1.5, -1e-9])
    def test_tol_outside_the_unit_interval_raises_before_any_fft(
        self, grid16, rng, monkeypatch, tol
    ):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        phi = random_field(grid16, rng, scale=0.2)
        op = StepOperator(phi, None, 0.05, params)  # forms its spectrum and p^k on first use
        state0, calls = initial_state(phi), []
        ffts = count_ffts(monkeypatch)
        for solve in (
            lambda: psd_solve(None, op, tol),
            lambda: psd_solve(phi, op, tol),
            lambda: run([(0.05, 0.1)], state0, params, tol, energy_sink=calls.append),
        ):
            with pytest.raises(ValueError, match=f"tol must lie in \\(0, 1\\), got {tol}"):
                solve()
        assert ffts[0] == 0 and calls == []


class TestPreconditionSolve:
    def test_single_mode_eigen_solve(self):
        g = Grid(dim=2, n=16, length=2.0)
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        c = Field(g, np.zeros(g.shape))
        dt = 0.05
        op = StepOperator(c, c.copy(), dt, params)
        x, y = g.coords()
        r = Field(g, np.sin(2 * np.pi * x / 2.0))
        lam = (2 * np.pi / 2.0) ** 2
        symbol = 1.5 / lam + dt * lam + params.a * dt + params.reg_a * dt**2 * lam + dt * lam**2
        d = precondition_solve(r, op)
        assert np.max(np.abs(d.values - r.values / symbol)) < 1e-13

    def test_scheme2_symbol(self):
        g = Grid(dim=2, n=16, length=2.0)
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=Scheme.BDF2_ES_2)
        c = Field(g, np.zeros(g.shape))
        dt = 0.05
        op = StepOperator(c, c.copy(), dt, params)
        x, y = g.coords()
        r = Field(g, np.sin(2 * np.pi * x / 2.0))
        lam = (2 * np.pi / 2.0) ** 2
        symbol = 1.5 / lam + dt * lam + dt * (1 - lam) ** 2 + params.reg_a * dt**2 * lam
        d = precondition_solve(r, op)
        assert np.max(np.abs(d.values - r.values / symbol)) < 1e-13

    def test_constant_residual_gives_zero_direction(self, grid8):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        c = Field(grid8, np.full(grid8.shape, 0.1))
        op = StepOperator(c, c.copy(), 0.05, params)
        d = precondition_solve(Field(grid8, np.full(grid8.shape, 3.0)), op)
        assert np.max(np.abs(d.values)) < 1e-14

    @pytest.mark.parametrize("n", [8, 9])
    def test_apply_operator_oracle(self, n, rng):
        # reconstruct L[d] term by term with the dense oracle and compare
        # against r - mean(r); on the even grid the residual is first built
        # without derivative-kernel (Nyquist) content, which the
        # inverse-Laplacian part of L cannot represent
        grid = Grid(dim=2, n=n, length=1.0)
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        dt = 0.05
        c = Field(grid, np.zeros(grid.shape))
        op = StepOperator(c, c.copy(), dt, params)
        raw = rng.standard_normal(grid.shape)
        if n % 2 == 0:
            coeffs = oracles.dft(raw, 1.0)
            kept = {
                mode: c_val
                for mode, c_val in coeffs.items()
                if all(oracles.balanced(m, n) == m for m in mode)
            }
            raw = oracles.idft(kept, n, 2, 1.0)
        r = Field(grid, raw)
        d = precondition_solve(r, op).values
        applied = (
            1.5 * oracles.inv_neg_laplacian(d, 1.0)
            - dt * oracles.laplacian(d, 1.0)
            + params.a * dt * d
            - params.reg_a * dt**2 * oracles.laplacian(d, 1.0)
            + dt * oracles.laplacian(oracles.laplacian(d, 1.0), 1.0)
        )
        target = r.values - r.values.mean()
        assert np.max(np.abs(applied - target)) < 1e-10 * np.max(np.abs(target))

    def test_direction_is_mean_free(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        c = Field(grid8, np.zeros(grid8.shape))
        op = StepOperator(c, c.copy(), 0.05, params)
        d = precondition_solve(random_field(grid8, rng), op)
        assert abs(d.mean()) < 1e-15


class TestLineSearchCoefficients:
    def test_zero_direction_gives_zero_polynomial(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        op = make_step(grid8, rng, params)
        coeffs = line_search_coefficients(op.phi_k, Field(grid8, np.zeros(grid8.shape)), op)
        assert coeffs == (0.0, 0.0, 0.0, 0.0)
        assert solve_cubic_monotone(*coeffs) == 0.0

    def test_solution_has_zero_c0(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        op = make_step(grid8, rng, params)
        sol, _ = psd_solve(op.phi_k, op, 1e-13)
        assert_kernel_modes_kept(op, sol)
        # a direction the solver can take: no content on the kernel of -lap
        d_hat = grid8.rfft(random_field(grid8, rng).values)
        d_hat[grid8.kernel_mask] = 0.0
        d = Field(grid8, grid8.irfft(d_hat))
        c0, c1, _, _ = line_search_coefficients(sol, d, op)
        assert abs(c0) < 1e-10 * max(c1, 1.0)
        assert abs(solve_cubic_monotone(*line_search_coefficients(sol, d, op))) < 1e-9

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_polynomial_matches_objective_derivative(self, grid8, rng, scheme):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=scheme)
        op = make_step(grid8, rng, params)
        phi = op.phi_k
        d = random_field(grid8, rng, mean_zero=True)
        c0, c1, c2, c3 = line_search_coefficients(phi, d, op)
        phi_hat, d_hat = grid8.rfft(phi.values), grid8.rfft(d.values)

        def along(s):
            p_hat = phi_hat + s * d_hat
            return op.objective_value(p_hat, gradient(grid8, p_hat), op.rhs_hat)

        h = 1e-5
        for alpha in (-1.0, 0.0, 1.0):
            poly = ((c3 * alpha + c2) * alpha + c1) * alpha + c0
            fd = (along(alpha + h) - along(alpha - h)) / (2 * h)
            assert poly == pytest.approx(fd, rel=1e-6, abs=1e-9 * max(abs(c0), c1))

class TestCubicRoot:
    def test_linear_case(self):
        assert solve_cubic_monotone(-2.0, 1.0, 0.0, 0.0) == pytest.approx(2.0, abs=1e-13)

    def test_zero_at_origin(self):
        assert solve_cubic_monotone(0.0, 1.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_cubic_root_frozen_from_bisection(self):
        # root of a^3 + a - 1, bisected independently to 1e-12
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid**3 + mid - 1.0 < 0.0:
                lo = mid
            else:
                hi = mid
        oracle_root = 0.5 * (lo + hi)
        assert oracle_root == pytest.approx(0.6823278038280193, abs=1e-12)
        assert solve_cubic_monotone(-1.0, 1.0, 0.0, 1.0) == pytest.approx(oracle_root, abs=1e-12)

    def test_all_zero_returns_zero(self):
        assert solve_cubic_monotone(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_rejects_nonmonotone_input(self):
        with pytest.raises(NonMonotoneCubicError):
            solve_cubic_monotone(1.0, -1.0, 0.0, 1.0)
        with pytest.raises(NonMonotoneCubicError):
            solve_cubic_monotone(1.0, 1.0, 0.0, -1.0)
        # c1 > 0 and c3 >= 0, but p' has real roots (c2^2 > 3 c1 c3): the
        # first has three real roots (9.898, 0.164, -0.0617), the second is
        # the quadratic a + 5 a^2, which falls on (-1/10, 0)
        for coeffs in [(0.1, 1.0, -10.0, 1.0), (0.0, 1.0, 5.0, 0.0)]:
            with pytest.raises(NonMonotoneCubicError, match="c2"):
                solve_cubic_monotone(*coeffs)

    def test_accepts_a_double_root_of_the_derivative(self):
        # (a + 1)^3 - 2: c2^2 = 3 c1 c3, still strictly increasing
        root = solve_cubic_monotone(-1.0, 3.0, 3.0, 1.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0) - 1.0, abs=1e-13)

    def test_residual_bound_on_random_cubics(self, rng):
        for _ in range(100):
            c0 = rng.uniform(-10, 10)
            c1 = rng.uniform(1e-3, 10)
            c3 = rng.uniform(0, 10)
            c2 = rng.uniform(-1, 1) * np.sqrt(3 * c3 * c1)  # keeps p' > 0
            alpha = solve_cubic_monotone(c0, c1, c2, c3)
            residual = ((c3 * alpha + c2) * alpha + c1) * alpha + c0
            assert abs(residual) <= 1e-13 * max(abs(c0), c1) + 1e-300


class TestPsdSolve:
    def test_exact_guess_converges_immediately(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        op = make_step(grid8, rng, params)
        sol, _ = psd_solve(op.phi_k, op, 1e-12)
        _, stats = psd_solve(sol, op, 1e-9)
        assert stats.iterations <= 1

    def test_constant_steady_state(self, grid8):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        c = Field(grid8, np.full(grid8.shape, 0.4))
        op = StepOperator(c, c.copy(), 0.1, params)
        sol, stats = psd_solve(c, op, 1e-9)
        assert stats.converged and stats.iterations == 0
        assert np.max(np.abs(sol.values - 0.4)) < 1e-13

    def test_multistart_uniqueness(self, grid16, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        op = make_step(grid16, rng, params)
        tol = 1e-11
        sol_a, _ = psd_solve(op.phi_k, op, tol)
        other = Field(
            grid16,
            op.phi_k.mean() + (lambda v: v - v.mean())(rng.standard_normal(grid16.shape)),
        )
        sol_b, _ = psd_solve(other, op, tol)
        assert norm_l2(Field(grid16, sol_a.values - sol_b.values)) < 1e-8

    def test_objective_monotone_and_mean_preserved(self, grid16, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        op = make_step(grid16, rng, params, scale=0.5)
        hist = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(StepOperator, "nonlinear_hat", recording_objective(hist))
            sol, stats = psd_solve(op.phi_k, op, 1e-11)
        assert len(hist) == stats.iterations + 1 > 1  # one residual per iterate
        assert all(b <= a + 1e-12 * abs(a) for a, b in zip(hist, hist[1:]))
        assert abs(sol.mean() - op.phi_k.mean()) <= 1e-12

    def test_rejects_guess_off_hyperplane(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        op = make_step(grid8, rng, params)
        with pytest.raises(MeanMismatchError):
            psd_solve(Field(grid8, op.phi_k.values + 1.0), op)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_nonfinite_residual_stops_at_once(self, grid16, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        op = make_step(grid16, rng, params, scale=1e150)
        with pytest.raises(PsdDivergenceError, match="iteration 0"):
            psd_solve(op.phi_k, op)

    def test_contraction_ratios_on_standard_problem(self, rng):
        g = Grid(dim=2, n=32, length=100.0)
        params = ModelParams(epsilon=0.5, reg_a=0.015625)
        phi_k = Field(g, 0.05 * (2 * rng.random(g.shape) - 1.0))
        op = StepOperator(phi_k, phi_k.copy(), 0.05, params)
        _, stats = psd_solve(phi_k, op, 1e-12)
        assert stats.converged
        assert all(r <= 0.95 for r in stats.contraction_ratios[1:])

    def test_mesh_independent_iteration_count(self):
        from spfc.harness import mesh_iteration_counts

        counts = mesh_iteration_counts((32, 64, 128))
        assert max(counts.values()) - min(counts.values()) <= 3

    def test_divergence_detector(self):
        assert not _diverged([1.0, 2.0, 3.0])
        assert not _diverged([1.0, 1.0, 1.0, 1.0, 1.0, 9.9])
        assert _diverged([1.0, 1.0, 1.0, 1.0, 1.0, 10.1])

    def test_stagnation_detector(self):
        # a residual that takes more than STALL_WINDOW iterations per 10x drop stops
        assert "fell less than 10x" in _diverged([0.95**i for i in range(STALL_WINDOW + 1)])
        assert not _diverged([0.95**i for i in range(STALL_WINDOW)])
        assert not _diverged([0.89**i for i in range(3 * STALL_WINDOW)])

    def test_stagnating_solve_stops_early(self, grid16, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        op = make_step(grid16, rng, params, scale=1e6)
        # the stall test ends it within a few windows of STALL_WINDOW
        with pytest.raises(PsdDivergenceError, match=r"fell less than 10x .* iteration \d\d:"):
            psd_solve(op.phi_k, op)


class TestTruncationStop:
    """The stop of a predictor-started solve at its truncation error, and the
    energy estimate behind its energy test (module docstring of spfc.psd)."""

    @pytest.mark.parametrize("dim, n", [(2, 9), (3, 5)])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_energy_identity_of_any_iterate(self, rng, dim, n, scheme):
        # E~(phi, phi^k) - E~(phi^k, phi^{k-1}) + sum D |delta|^2 + R = -<r, delta>/dt
        # for any phi on the mass hyperplane, R its non-negative remainder
        g = Grid(dim=dim, n=n, length=6.0)
        eps, dt = 0.7, 0.3
        params = ModelParams(epsilon=eps, reg_a=eps**2 / 16.0 + 0.01, scheme=scheme)
        op = make_step(g, rng, params, dt=dt)
        phi = Field(g, op.phi_k.values + 0.2 * random_field(g, rng, mean_zero=True).values)
        phi_hat, (phi_k_hat, phi_km1_hat) = g.rfft(phi.values), op.spectra
        grad_phi = gradient(g, phi_hat)
        r_hat = op.rhs_hat - op.nonlinear_hat(phi_hat, p_laplacian_hat(g, grad_phi))
        delta_hat, step_k = phi_hat - phi_k_hat, phi_k_hat - phi_km1_hat
        lam = g.lam
        dissipation = g.spectral_norm2_sq(
            delta_hat, g.lam_inv / dt + 0.5 * params.energy_symbol(lam) + params.reg_a * dt * lam)
        remainder = g.spectral_norm2_sq(
            delta_hat - step_k, g.lam_inv / (4.0 * dt) + 0.5 * params.concave_symbol(lam))

        def quartic(spec):
            gsq = grad_sq(gradient(g, spec))
            return 0.25 * g.cell_volume * float(np.sum(gsq * gsq))

        def modified_energy(spec, step):
            e = energy_hat(g, params, spec, grad_sq(gradient(g, spec)))
            return modified_energy_hat(g, params, dt, e, step)

        convexity = quartic(phi_k_hat) - quartic(phi_hat) + g.spectral_dot(
            p_laplacian_hat(g, grad_phi), delta_hat)
        assert convexity >= 0.0
        rise = modified_energy(phi_hat, delta_hat) - modified_energy(phi_k_hat, step_k)
        lhs = rise + dissipation + remainder + convexity
        rhs_value = -g.spectral_dot(r_hat, delta_hat) / dt
        assert lhs == pytest.approx(rhs_value, rel=1e-10, abs=1e-12 * dissipation)

    @pytest.mark.parametrize("dim, n", [(2, 9), (3, 5)])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_bdf1_energy_identity_of_any_iterate(self, rng, dim, n, scheme):
        # E~(phi, phi^k) - E(phi^k) + sum D1 |delta|^2 + R = -<r, delta>/dt with
        # dt lam D1 = 3/4 + A dt^2 lam^2 + (dt/2) lam C(lam) and C, the convex
        # symbol, non-negative: THETA < 3/4 holds at A = 0 and eps dt = 6
        g = Grid(dim=dim, n=n, length=6.0)
        eps, dt = 0.6, 10.0
        params = ModelParams(epsilon=eps, reg_a=0.0, scheme=scheme)
        op = StepOperator(random_field(g, rng, scale=0.3), None, dt, params)
        phi = Field(g, op.phi_k.values + 0.2 * random_field(g, rng, mean_zero=True).values)
        phi_hat, phi_k_hat = g.rfft(phi.values), op.spectra[0]
        grad_phi = gradient(g, phi_hat)
        r_hat = op.rhs_hat - op.nonlinear_hat(phi_hat, p_laplacian_hat(g, grad_phi))
        delta_hat, lam = phi_hat - phi_k_hat, g.lam
        convex = params.energy_symbol(lam) + params.concave_symbol(lam)
        assert convex.min() >= 0.0
        dissipation = g.spectral_norm2_sq(
            delta_hat, 0.75 * g.lam_inv / dt + params.reg_a * dt * lam + 0.5 * convex)
        assert dissipation >= 0.75 / dt * g.spectral_norm2_sq(delta_hat, g.lam_inv) > 0.0

        def quartic(spec):
            gsq = grad_sq(gradient(g, spec))
            return 0.25 * g.cell_volume * float(np.sum(gsq * gsq))

        convexity = quartic(phi_k_hat) - quartic(phi_hat) + g.spectral_dot(
            p_laplacian_hat(g, grad_phi), delta_hat)
        assert convexity >= 0.0
        e_k = energy_hat(g, params, phi_k_hat, grad_sq(gradient(g, phi_k_hat)))
        e = energy_hat(g, params, phi_hat, grad_sq(grad_phi))
        lhs = modified_energy_hat(g, params, dt, e, delta_hat) - e_k + dissipation + convexity
        rhs_value = -g.spectral_dot(r_hat, delta_hat) / dt
        assert lhs == pytest.approx(rhs_value, rel=1e-10, abs=1e-12 * dissipation)

    def test_theta_bounds_the_dissipation_where_the_stop_applies(self):
        # dt lam D(lam) >= THETA for A = eps^2/16 and eps dt <= 1 (the worst
        # A); the infimum, 131/256, is approached at eps dt = 1, eps -> 1 and
        # lam = 5/4
        lam = np.linspace(1e-3, 40.0, 40001)
        worst = np.inf
        for eps in (0.01, 0.3, 0.7, 0.999):
            for dt in np.linspace(1e-3, 1.0 / eps, 60):
                p = ModelParams(epsilon=eps, reg_a=eps**2 / 16.0)
                scaled = 1.0 + 0.5 * dt * lam * p.energy_symbol(lam) + p.reg_a * dt**2 * lam**2
                worst = min(worst, scaled.min())
        assert psd.THETA <= 131.0 / 256.0 <= worst <= 131.0 / 256.0 + 1e-3
        # at eps dt = 4 the dissipation of mode lam = 1 vanishes: no THETA > 0 holds
        p = ModelParams(epsilon=0.5, reg_a=0.5**2 / 16.0)
        assert 1.0 + 0.5 * 8.0 * p.energy_symbol(1.0) + p.reg_a * 64.0 == pytest.approx(0.0)

    def test_failed_energy_test_changes_no_iterate(self, rng, monkeypatch):
        # with THETA = 0 every truncation test that passes is followed by a
        # failing energy test; the solve must then go on exactly as a solve
        # whose truncation test never passes (KAPPA = 0)
        g = Grid(dim=2, n=16, length=8.0 * np.pi)
        params = ModelParams(epsilon=0.5, reg_a=0.5**2 / 16.0)
        dt = 0.5
        state = initial_state(Field(g, 0.1 + 0.05 * rng.standard_normal(g.shape)))
        for _ in range(3):
            state, _ = step(state, dt, params)
        op = StepOperator(state.phi_curr, state.phi_prev, dt, params, None, state.spectra,
                          state.fluxes)
        _, stats = psd_solve(None, op)
        assert stats.stopped_by == "truncation"
        results = []
        for name in ("THETA", "KAPPA"):
            with monkeypatch.context() as m:
                m.setattr(psd, name, 0.0)
                results.append(psd_solve(None, op))
        (a, stats_a), (b, stats_b) = results
        assert stats_a.stopped_by == stats_b.stopped_by == "floor"
        assert stats_a.residual_history == stats_b.residual_history
        assert a.values.tobytes() == b.values.tobytes()
        assert stats.iterations < stats_a.iterations

    def test_energy_test_decides_a_stop(self, monkeypatch):
        # KAPPA = 1e6 passes every truncation test, so from iteration 1 on
        # the energy test alone decides; at eps dt = 1 and A = eps^2/16 (the
        # edge of its range) it rejects step 1's stop at iterations 1 to 4,
        # and E_mod still falls at every step
        g = Grid(dim=2, n=32, length=8.0 * np.pi)
        params = ModelParams(epsilon=0.1, reg_a=0.1**2 / 16.0)
        state0 = initial_state(Field(g, 0.5 * np.random.default_rng(3).standard_normal(g.shape)))
        monkeypatch.setattr(psd, "KAPPA", 1e6)
        runs = []
        for theta in (psd.THETA, np.inf):
            monkeypatch.setattr(psd, "THETA", theta)
            stats, records = [], []
            run([(10.0, 30.0)], state0, params, 1e-13,
                energy_sink=records.append, stats_sink=stats.append)
            assert stats[0].stopped_by == "truncation"
            runs.append((stats, records))
        (stats, records), (unchecked, _) = runs
        assert stats[0].iterations > unchecked[0].iterations == 1
        assert all(b.E_mod < a.E_mod for a, b in zip(records, records[1:]))

    def test_no_truncation_stop_beyond_the_theta_range(self, rng):
        # eps dt = 1.5 > 1: THETA is not proven there for BDF2, so only the
        # floor stops steps 2 on; it holds for the BDF1 step 1 at any eps dt
        g = Grid(dim=2, n=16, length=8.0 * np.pi)
        params = ModelParams(epsilon=0.5, reg_a=0.5**2 / 16.0)
        stats = []
        run([(3.0, 15.0)], initial_state(Field(g, 0.1 + 0.05 * rng.standard_normal(g.shape))),
            params, stats_sink=stats.append)
        assert {s.stopped_by for s in stats[1:]} == {"floor"}
        assert any(s.iterations > 1 for s in stats[1:])
