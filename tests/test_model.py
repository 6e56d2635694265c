"""Tests for the model layer: energy values, operator terms against dense
DFT oracles, scheme algebra and objective/gradient consistency."""

import numpy as np
import pytest

import oracles
from conftest import assert_kernel_modes_kept, random_field
from spfc import Field, Grid, ModelParams, Scheme, energy, norm_l2
from spfc.model import (
    MeanMismatchError,
    StepOperator,
    grad_sq,
    gradient,
    p_laplacian_hat,
)
from spfc.psd import PsdConfig, psd_solve


def make_step(grid, rng, params, dt=0.05, scale=0.2, bdf1=False):
    phi_k = random_field(grid, rng, scale=scale)
    shift = rng.standard_normal(grid.shape) * scale
    shift -= shift.mean()
    phi_km1 = Field(grid, phi_k.values + shift)
    return StepOperator(phi_k, None if bdf1 else phi_km1, dt, params)


def on_hyperplane(op, rng, scale=0.1):
    shift = scale * rng.standard_normal(op.grid.shape)
    return Field(op.grid, op.phi_k.values + shift - shift.mean())


def p_laplacian(phi):
    """``-div(|grad phi|^2 grad phi)`` on the grid, as the step operator forms it."""
    g = phi.grid
    return g.irfft(p_laplacian_hat(g, gradient(g, g.rfft(phi.values))))


def n_hat(op, phi_hat):
    """``StepOperator.nonlinear_hat`` at ``phi_hat``, with the 4-Laplacian
    flux formed from its gradient as ``psd_solve`` forms it."""
    return op.nonlinear_hat(phi_hat, p_laplacian_hat(op.grid, gradient(op.grid, phi_hat)))


def step_residual(op, phi):
    """Nodal ``N[phi] - f`` off the kernel of ``-lap``, the rows the solver
    solves (on the kernel the step keeps the modes of ``phi^k``)."""
    g = op.grid
    r_hat = n_hat(op, g.rfft(phi.values)) - op.rhs_hat
    r_hat[g.kernel_mask] = 0.0
    return g.irfft(r_hat)


def objective_along(op, phi, d):
    """``s -> StepOperator.objective_value(phi + s d)`` for the step's own ``f``."""
    g = op.grid
    phi_hat, d_hat = g.rfft(phi.values), g.rfft(np.asarray(d))

    def value(s):
        p_hat = phi_hat + s * d_hat
        return op.objective_value(p_hat, gradient(g, p_hat), op.rhs_hat)

    return value


def chemical_potential(phi, op):
    """The step's chemical potential at ``phi``, read off the step equation
    ``N[phi] - f = (-lap)^(-1) (3/2 phi - 2 phi^k + 1/2 phi^(k-1)) + dt mu``."""
    g = op.grid
    bdf = 1.5 * phi.values - 2.0 * op.phi_k.values + 0.5 * op.phi_km1.values
    resid = g.irfft(n_hat(op, g.rfft(phi.values)) - op.rhs_hat)
    return (resid - g.irfft(g.lam_inv * g.rfft(bdf))) / op.dt


def lap_mu_zero(phi0, params):
    """Laplacian of the chemical potential, ``-lam (energy_symbol phi + p)``
    in the rfft layout."""
    g = phi0.grid
    spec = g.rfft(phi0.values)
    mu_hat = params.energy_symbol(g.lam) * spec + p_laplacian_hat(g, gradient(g, spec))
    return g.irfft(-g.lam * mu_hat)


class TestModelParams:
    def test_a_is_one_minus_epsilon(self):
        p = ModelParams(epsilon=0.3, reg_a=0.1)
        assert p.a == 1.0 - 0.3

    def test_stability_flag(self):
        assert ModelParams(epsilon=0.025, reg_a=0.25).stable_guarantee
        assert ModelParams(epsilon=0.5, reg_a=0.015625).stable_guarantee
        assert not ModelParams(epsilon=0.5, reg_a=0.015).stable_guarantee

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_epsilon(self, eps):
        with pytest.raises(ValueError):
            ModelParams(epsilon=eps, reg_a=0.1)


class TestStepOperator:
    def test_rejects_mass_mismatch(self, grid8):
        params = ModelParams(epsilon=0.5, reg_a=0.1)
        with pytest.raises(MeanMismatchError):
            StepOperator(Field(grid8, np.full(grid8.shape, 1.0)),
                         Field(grid8, np.full(grid8.shape, 1.1)), 0.1, params)

    def test_rejects_nonpositive_dt(self, grid8):
        params = ModelParams(epsilon=0.5, reg_a=0.1)
        c = Field(grid8, np.full(grid8.shape, 1.0))
        with pytest.raises(ValueError):
            StepOperator(c, c.copy(), 0.0, params)


class TestEnergy:
    def test_constant_field(self):
        g = Grid(dim=2, n=16, length=1.0)
        params = ModelParams(epsilon=0.025, reg_a=0.25)  # a = 0.975
        assert energy(Field(g, np.full(g.shape, 1.0)), params) == pytest.approx(0.4875, rel=1e-13)

    def test_zero_field(self, grid16):
        zero = Field(grid16, np.zeros(grid16.shape))
        assert energy(zero, ModelParams(epsilon=0.5, reg_a=0.1)) == 0.0

    def test_sampled_mode_against_quadrature_oracle(self, grid16):
        params = ModelParams(epsilon=0.025, reg_a=0.25)
        x, y = grid16.coords()
        phi = Field(grid16, np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) / (2 * np.pi))
        # term-by-term quadrature via the dense DFT oracle
        v = phi.values
        gx = oracles.derivative(v, 1.0, 0)
        gy = oracles.derivative(v, 1.0, 1)
        gsq = gx**2 + gy**2
        lap = oracles.laplacian(v, 1.0)
        h2 = grid16.cell_volume
        expected = (
            0.25 * h2 * np.sum(gsq**2)
            + 0.5 * params.a * h2 * np.sum(v**2)
            - h2 * np.sum(gsq)
            + 0.5 * h2 * np.sum(lap**2)
        )
        result = energy(phi, params)
        assert result == pytest.approx(expected, rel=1e-10)
        # closed form of the same quantity (quadrature exact at this N)
        analytic = 5.0 / 64.0 + params.a / (32 * np.pi**2) - 0.5 + 2 * np.pi**2
        assert result == pytest.approx(analytic, rel=1e-12)

    def test_lower_bound(self, grid16, rng):
        params = ModelParams(epsilon=0.5, reg_a=0.1)
        for _ in range(20):
            phi = random_field(grid16, rng, scale=2.0)
            bound = -4.0 * grid16.volume + 0.5 * params.a * norm_l2(phi) ** 2
            assert energy(phi, params) >= bound - 1e-10 * abs(bound)


class TestPLaplacian:
    def test_constant_gives_zero(self, grid8):
        assert np.max(np.abs(p_laplacian(Field(grid8, np.full(grid8.shape, 2.0))))) < 1e-13

    def test_single_mode_closed_form(self):
        g = Grid(dim=2, n=16, length=1.0)
        x, y = g.coords()
        phi = Field(g, np.sin(2 * np.pi * x))
        expected = 12 * np.pi**4 * (np.sin(2 * np.pi * x) + np.sin(6 * np.pi * x))
        result = p_laplacian(phi)
        assert np.max(np.abs(result - expected)) < 1e-10 * np.max(np.abs(expected))

    def test_matches_dense_oracle_n8(self, grid8, rng):
        phi = random_field(grid8, rng)
        expected = oracles.p_laplacian(phi.values, 1.0)
        result = p_laplacian(phi)
        assert np.max(np.abs(result - expected)) < 1e-11 * np.max(np.abs(expected))


class TestThreeDimensional:
    def test_step_operator_and_energy_in_3d(self, rng):
        g = Grid(dim=3, n=8, length=1.0)
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        phi_k = Field(g, 0.1 * rng.standard_normal(g.shape))
        op = StepOperator(phi_k, phi_k.copy(), 0.05, params)
        sol, stats = psd_solve(phi_k, op, PsdConfig(tol=1e-11))
        assert stats.converged
        residual = step_residual(op, sol)
        f = g.irfft(op.rhs_hat)
        assert np.max(np.abs(residual)) < 1e-10 * (1.0 + np.max(np.abs(f)))
        assert_kernel_modes_kept(op, sol)
        assert np.isfinite(energy(sol, params))

    def test_p_laplacian_3d_oracle(self, rng):
        g = Grid(dim=3, n=5, length=1.0)
        phi = Field(g, rng.standard_normal(g.shape))
        expected = oracles.p_laplacian(phi.values, 1.0)
        result = p_laplacian(phi)
        assert np.max(np.abs(result - expected)) < 1e-11 * np.max(np.abs(expected))


class TestWorkBuffers:
    """The kernels overwrite the ``out`` and ``work`` buffers a PSD solve
    reuses across iterations and never read them: a dirty buffer gives the
    fresh result bit for bit."""

    @pytest.mark.parametrize("dim,n", [(2, 8), (2, 9), (3, 6), (3, 7)])
    def test_dirty_buffers_give_the_fresh_result(self, dim, n, rng):
        g = Grid(dim=dim, n=n, length=7.0)
        op = make_step(g, rng, ModelParams(epsilon=0.3, reg_a=0.2))
        phi_hat = g.rfft(on_hyperplane(op, rng).values)
        d_hat = g.rfft(rng.standard_normal(g.shape))

        def dirty(shape, dtype=float):
            return (1e3 * rng.standard_normal(shape)).astype(dtype)

        grads = gradient(g, phi_hat)
        assert all(np.array_equal(x, y)
                   for x, y in zip(grads, gradient(g, phi_hat, dirty(g.rshape, complex))))
        gsq = grad_sq(grads)
        assert np.array_equal(gsq, grad_sq(grads, dirty(g.shape), dirty(g.shape)))
        p_hat = p_laplacian_hat(g, grads)
        assert np.array_equal(
            p_hat, p_laplacian_hat(g, grads, gsq, dirty(g.rshape, complex), dirty(g.shape)))
        assert np.array_equal(
            op.nonlinear_hat(phi_hat, p_hat),
            op.nonlinear_hat(phi_hat, p_hat, dirty(g.rshape, complex), dirty(g.rshape, complex)),
        )
        e = gradient(g, d_hat)
        work = (dirty(g.shape), dirty(g.shape), dirty(g.shape), dirty(g.rshape, complex))
        assert (op.line_coefficients(grads, gsq, e, d_hat, -1.0)
                == op.line_coefficients(grads, gsq, e, d_hat, -1.0, work))


class TestChemicalPotential:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_constants_give_a_times_c(self, grid8, scheme):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=scheme)
        c = Field(grid8, np.full(grid8.shape, 0.7))
        op = StepOperator(c, c.copy(), 0.1, params)
        mu = chemical_potential(c, op)
        assert np.max(np.abs(mu - params.a * 0.7)) < 1e-13

    def test_scheme1_matches_term_oracle(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=Scheme.BDF2_ES_1)
        op = make_step(grid8, rng, params, dt=0.07)
        phi = on_hyperplane(op, rng)
        v, vk, vkm1 = phi.values, op.phi_k.values, op.phi_km1.values
        expected = (
            oracles.p_laplacian(v, 1.0)
            + params.a * v
            + 2.0 * oracles.laplacian(2 * vk - vkm1, 1.0)
            - params.reg_a * op.dt * oracles.laplacian(v - vk, 1.0)
            + oracles.laplacian(oracles.laplacian(v, 1.0), 1.0)
        )
        result = chemical_potential(phi, op)
        assert np.max(np.abs(result - expected)) < 1e-10 * np.max(np.abs(expected))

    def test_scheme2_matches_term_oracle(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=Scheme.BDF2_ES_2)
        op = make_step(grid8, rng, params, dt=0.07)
        phi = on_hyperplane(op, rng)
        v, vk, vkm1 = phi.values, op.phi_k.values, op.phi_km1.values
        lap_v = oracles.laplacian(v, 1.0)
        expected = (
            oracles.p_laplacian(v, 1.0)
            - params.epsilon * (2 * vk - vkm1)
            - params.reg_a * op.dt * oracles.laplacian(v - vk, 1.0)
            + v
            + 2 * lap_v
            + oracles.laplacian(lap_v, 1.0)
        )
        result = chemical_potential(phi, op)
        assert np.max(np.abs(result - expected)) < 1e-10 * np.max(np.abs(expected))


class TestMuZero:
    def test_constant(self, grid8):
        # mu^0 = a c is constant, so its Laplacian vanishes
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        assert np.max(np.abs(lap_mu_zero(Field(grid8, np.full(grid8.shape, 0.4)), params))) < 1e-13

    def test_single_mode_closed_form(self):
        g = Grid(dim=2, n=16, length=1.0)
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        x, y = g.coords()
        phi = Field(g, np.sin(2 * np.pi * x))
        s, s3 = np.sin(2 * np.pi * x), np.sin(6 * np.pi * x)
        k1, k3 = (2 * np.pi) ** 2, (6 * np.pi) ** 2
        # mu^0 = 12 pi^4 (s + s3) + (a - 2 k1 + k1^2) s
        expected = -12 * np.pi**4 * (k1 * s + k3 * s3) - k1 * (params.a - 2 * k1 + k1**2) * s
        result = lap_mu_zero(phi, params)
        assert np.max(np.abs(result - expected)) < 1e-10 * np.max(np.abs(expected))

    def test_matches_dense_oracle(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        phi = random_field(grid8, rng)
        v = phi.values
        mu = (
            oracles.p_laplacian(v, 1.0)
            + params.a * v
            + 2 * oracles.laplacian(v, 1.0)
            + oracles.laplacian(oracles.laplacian(v, 1.0), 1.0)
        )
        expected = oracles.laplacian(mu, 1.0)
        result = lap_mu_zero(phi, params)
        assert np.max(np.abs(result - expected)) < 1e-10 * np.max(np.abs(expected))


class TestNonlinearOperatorAndRhs:
    def test_constants_scheme1(self, grid8):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=Scheme.BDF2_ES_1)
        c = Field(grid8, np.full(grid8.shape, 0.6))
        op = StepOperator(c, c.copy(), 0.1, params)
        result = grid8.irfft(n_hat(op, grid8.rfft(c.values)))
        assert np.max(np.abs(result - params.a * 0.1 * 0.6)) < 1e-14
        assert np.max(np.abs(grid8.irfft(op.rhs_hat))) < 1e-14

    def test_constants_scheme2(self, grid8):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=Scheme.BDF2_ES_2)
        c = Field(grid8, np.full(grid8.shape, 0.6))
        op = StepOperator(c, c.copy(), 0.1, params)
        result = grid8.irfft(n_hat(op, grid8.rfft(c.values)))
        assert np.max(np.abs(result - 0.1 * 0.6)) < 1e-14
        assert np.max(np.abs(grid8.irfft(op.rhs_hat) - 0.1 * 0.3 * 0.6)) < 1e-14

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_operator_matches_term_oracle(self, grid8, rng, scheme):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=scheme)
        op = make_step(grid8, rng, params, dt=0.07)
        shift = 0.1 * rng.standard_normal(grid8.shape)
        phi = Field(grid8, op.phi_k.values + shift - shift.mean())
        v, vk, vkm1, dt = phi.values, op.phi_k.values, op.phi_km1.values, op.dt
        bdf = 1.5 * v - 2 * vk + 0.5 * vkm1
        expected = oracles.inv_neg_laplacian(bdf - bdf.mean(), 1.0)
        expected += dt * oracles.p_laplacian(v, 1.0)
        expected += -params.reg_a * dt**2 * oracles.laplacian(v, 1.0)
        if scheme is Scheme.BDF2_ES_1:
            expected += params.a * dt * v
            expected += dt * oracles.laplacian(oracles.laplacian(v, 1.0), 1.0)
        else:
            lap_v = oracles.laplacian(v, 1.0)
            expected += dt * (v + 2 * lap_v + oracles.laplacian(lap_v, 1.0))
        result = grid8.irfft(n_hat(op, grid8.rfft(phi.values)))
        assert np.max(np.abs(result - expected)) < 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rhs_matches_term_oracle(self, grid8, rng, scheme):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=scheme)
        op = make_step(grid8, rng, params, dt=0.07)
        vk, vkm1, dt = op.phi_k.values, op.phi_km1.values, op.dt
        if scheme is Scheme.BDF2_ES_1:
            expected = -2 * dt * oracles.laplacian(2 * vk - vkm1, 1.0)
        else:
            expected = dt * params.epsilon * (2 * vk - vkm1)
        expected += -params.reg_a * dt**2 * oracles.laplacian(vk, 1.0)
        result = grid8.irfft(op.rhs_hat)
        assert np.max(np.abs(result - expected)) < 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_bdf1_operator_and_rhs_match_term_oracle(self, grid8, rng, scheme):
        # time difference phi - phi^k, concave part at phi^k, the same
        # Douglas-Dupont term
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=scheme)
        op = make_step(grid8, rng, params, dt=0.07, bdf1=True)
        assert op.phi_km1 is None and len(op.spectra) == 1
        shift = 0.1 * rng.standard_normal(grid8.shape)
        phi = Field(grid8, op.phi_k.values + shift - shift.mean())
        v, vk, dt = phi.values, op.phi_k.values, op.dt
        expected = oracles.inv_neg_laplacian(v - vk, 1.0)
        expected += dt * oracles.p_laplacian(v, 1.0)
        expected += -params.reg_a * dt**2 * oracles.laplacian(v, 1.0)
        lap_v = oracles.laplacian(v, 1.0)
        if scheme is Scheme.BDF2_ES_1:
            expected += dt * (params.a * v + oracles.laplacian(lap_v, 1.0))
            rhs = -2 * dt * oracles.laplacian(vk, 1.0)
        else:
            expected += dt * (v + 2 * lap_v + oracles.laplacian(lap_v, 1.0))
            rhs = dt * params.epsilon * vk
        rhs += -params.reg_a * dt**2 * oracles.laplacian(vk, 1.0)
        result = grid8.irfft(n_hat(op, grid8.rfft(phi.values)))
        assert np.max(np.abs(result - expected)) < 1e-10 * np.max(np.abs(expected))
        assert np.max(np.abs(grid8.irfft(op.rhs_hat) - rhs)) < 1e-10 * np.max(np.abs(rhs))

    def test_step_takes_one_flux_per_level(self, grid8):
        c = Field(grid8, np.full(grid8.shape, 0.6))
        zero = np.zeros(grid8.rshape, dtype=complex)
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        for key, what in (("fluxes", "flux"), ("spectra", "spectra")):
            with pytest.raises(ValueError, match=f"BDF1 step carries 1 {what}"):
                StepOperator(c, None, 0.1, params, **{key: (zero, zero)})
            with pytest.raises(ValueError, match=f"BDF2 step carries 2 {what}"):
                StepOperator(c, c.copy(), 0.1, params, **{key: (zero,)})
        assert StepOperator(c, None, 0.1, params, fluxes=(zero,)).fluxes == (zero,)

    def test_bdf1_step_forms_its_flux_and_bdf2_does_not(self, grid8, rng):
        # a BDF1 step forms p^k from its spectrum on first use; a BDF2 step
        # built without fluxes has none
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        op = make_step(grid8, rng, params, bdf1=True)
        (p_k,) = op.fluxes
        expected = p_laplacian_hat(grid8, gradient(grid8, op.spectra[0]))
        assert p_k.tobytes() == expected.tobytes()
        assert make_step(grid8, rng, params).fluxes is None

    def test_solved_step_satisfies_operator_equation(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        op = make_step(grid8, rng, params)
        sol, stats = psd_solve(op.phi_k, op, PsdConfig(tol=1e-12))
        assert stats.converged
        residual = step_residual(op, sol)
        f = grid8.irfft(op.rhs_hat)
        assert np.max(np.abs(residual)) < 1e-11 * (1.0 + np.max(np.abs(f)))
        assert_kernel_modes_kept(op, sol)


class TestObjective:
    @staticmethod
    def check_directional_derivative(op, rng):
        g = op.grid
        phi = on_hyperplane(op, rng)
        d = rng.standard_normal(g.shape)
        d -= d.mean()
        d /= norm_l2(Field(g, d))
        h = 1e-5
        along = objective_along(op, phi, d)
        fd = (along(h) - along(-h)) / (2 * h)
        residual = g.irfft(n_hat(op, g.rfft(phi.values)) - op.rhs_hat)
        pairing = g.cell_volume * float(np.sum(residual * d))
        assert fd == pytest.approx(pairing, rel=1e-5)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_directional_derivative_identity(self, grid8, rng, scheme):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=scheme)
        self.check_directional_derivative(make_step(grid8, rng, params), rng)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_bdf1_directional_derivative_identity(self, grid8, rng, scheme):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=scheme)
        self.check_directional_derivative(make_step(grid8, rng, params, bdf1=True), rng)

    def test_zero_states_zero_objective(self, grid8):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        z = Field(grid8, np.zeros(grid8.shape))
        op = StepOperator(z, z.copy(), 0.1, params)
        assert objective_along(op, z, z.values)(0.0) == 0.0

    def test_minimizer_satisfies_first_order_optimality(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        op = make_step(grid8, rng, params)
        sol, _ = psd_solve(op.phi_k, op, PsdConfig(tol=1e-12))
        for _ in range(5):
            d = rng.standard_normal(grid8.shape)
            d -= d.mean()
            d *= 1e-4 / np.max(np.abs(d))
            along = objective_along(op, sol, d)
            base = along(0.0)
            assert along(1.0) >= base - 1e-12 * abs(base)

    def test_convexity_along_random_lines(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        op = make_step(grid8, rng, params)
        d = rng.standard_normal(grid8.shape)
        d -= d.mean()
        along = objective_along(op, op.phi_k, d)
        h = 0.05
        for _ in range(20):
            s = rng.uniform(-1.0, 1.0)
            f0, fp, fm = along(s), along(s + h), along(s - h)
            assert fp - 2 * f0 + fm >= -1e-10 * max(abs(f0), 1.0)


class TestSplittingConsistency:
    def test_schemes_agree_on_constants(self, grid8):
        c = Field(grid8, np.full(grid8.shape, 0.9))
        values = []
        for scheme in Scheme:
            params = ModelParams(epsilon=0.4, reg_a=0.2, scheme=scheme)
            op = StepOperator(c, c.copy(), 0.1, params)
            values.append(chemical_potential(c, op).flat[0])
        assert values[0] == pytest.approx(values[1], rel=1e-14)
        assert values[0] == pytest.approx(0.6 * 0.9, rel=1e-13)
