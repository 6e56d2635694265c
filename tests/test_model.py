"""Tests for the model layer: energy values, operator terms against dense
DFT oracles, scheme algebra, objective/gradient consistency and the
manufactured solution."""

import numpy as np
import pytest

import oracles
from conftest import random_field
from spfc import (
    Field,
    Grid,
    ModelParams,
    Scheme,
    energy,
    ghost_init,
    nonlinear_operator,
    norm_l2,
    objective,
    rhs,
    sample,
)
from spfc.model import (
    ManufacturedSolution,
    MeanMismatchError,
    StepContext,
    gradient,
    p_laplacian_hat,
)
from spfc.psd import PsdConfig, psd_solve
from spfc.spectral import laplacian


def make_context(grid, rng, params, dt=0.05, scale=0.2):
    phi_k = random_field(grid, rng, scale=scale)
    shift = rng.standard_normal(grid.shape) * scale
    shift -= shift.mean()
    phi_km1 = Field(grid, phi_k.values + shift)
    return StepContext(phi_k, phi_km1, dt, params)


def on_hyperplane(ctx, rng, scale=0.1):
    shift = scale * rng.standard_normal(ctx.grid.shape)
    return Field(ctx.grid, ctx.phi_k.values + shift - shift.mean())


def p_laplacian(phi):
    """``-div(|grad phi|^2 grad phi)`` on the grid, as the step operator forms it."""
    g = phi.grid
    return g.irfft(p_laplacian_hat(g, gradient(g, g.rfft(phi.values))))


def chemical_potential(phi, ctx):
    """The step's chemical potential at ``phi``, read off the step equation
    ``N[phi] - f = (-lap)^(-1) (3/2 phi - 2 phi^k + 1/2 phi^(k-1)) + dt mu``."""
    g = ctx.grid
    bdf = 1.5 * phi.values - 2.0 * ctx.phi_k.values + 0.5 * ctx.phi_km1.values
    resid = nonlinear_operator(phi, ctx).values - rhs(ctx).values
    return (resid - g.irfft(g.lam_inv * g.rfft(bdf))) / ctx.dt


def lap_mu_zero(phi0, params):
    """Laplacian of the initial chemical potential, read off ``ghost_init``:
    with dt = 1 the ghost level is ``phi0 - lap(mu^0)``."""
    return phi0.values - ghost_init(phi0, 1.0, params).values


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


class TestStepContext:
    def test_rejects_mass_mismatch(self, grid8):
        params = ModelParams(epsilon=0.5, reg_a=0.1)
        with pytest.raises(MeanMismatchError):
            StepContext(Field.constant(grid8, 1.0), Field.constant(grid8, 1.1), 0.1, params)

    def test_rejects_nonpositive_dt(self, grid8):
        params = ModelParams(epsilon=0.5, reg_a=0.1)
        c = Field.constant(grid8, 1.0)
        with pytest.raises(ValueError):
            StepContext(c, c.copy(), 0.0, params)


class TestEnergy:
    def test_constant_field(self):
        g = Grid(dim=2, n=16, length=1.0)
        params = ModelParams(epsilon=0.025, reg_a=0.25)  # a = 0.975
        assert energy(Field.constant(g, 1.0), params) == pytest.approx(0.4875, rel=1e-13)

    def test_zero_field(self, grid16):
        assert energy(Field.zeros(grid16), ModelParams(epsilon=0.5, reg_a=0.1)) == 0.0

    def test_sampled_mode_against_quadrature_oracle(self, grid16):
        params = ModelParams(epsilon=0.025, reg_a=0.25)
        phi = sample(
            lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) / (2 * np.pi), grid16
        )
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
        assert np.max(np.abs(p_laplacian(Field.constant(grid8, 2.0)))) < 1e-13

    def test_single_mode_closed_form(self):
        g = Grid(dim=2, n=16, length=1.0)
        phi = sample(lambda x, y: np.sin(2 * np.pi * x), g)
        x = g.coords()[0]
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
        ctx = StepContext(phi_k, phi_k.copy(), 0.05, params)
        f = rhs(ctx)
        sol, stats = psd_solve(phi_k, ctx, f, PsdConfig(tol=1e-11))
        assert stats.converged
        residual = nonlinear_operator(sol, ctx).values - f.values
        residual -= residual.mean()
        assert np.max(np.abs(residual)) < 1e-10 * (1.0 + np.max(np.abs(f.values)))
        assert np.isfinite(energy(sol, params))

    def test_p_laplacian_3d_oracle(self, rng):
        g = Grid(dim=3, n=5, length=1.0)
        phi = Field(g, rng.standard_normal(g.shape))
        expected = oracles.p_laplacian(phi.values, 1.0)
        result = p_laplacian(phi)
        assert np.max(np.abs(result - expected)) < 1e-11 * np.max(np.abs(expected))


class TestChemicalPotential:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_constants_give_a_times_c(self, grid8, scheme):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=scheme)
        c = Field.constant(grid8, 0.7)
        ctx = StepContext(c, c.copy(), 0.1, params)
        mu = chemical_potential(c, ctx)
        assert np.max(np.abs(mu - params.a * 0.7)) < 1e-13

    def test_scheme1_matches_term_oracle(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=Scheme.BDF2_ES_1)
        ctx = make_context(grid8, rng, params, dt=0.07)
        phi = on_hyperplane(ctx, rng)
        v, vk, vkm1 = phi.values, ctx.phi_k.values, ctx.phi_km1.values
        expected = (
            oracles.p_laplacian(v, 1.0)
            + params.a * v
            + 2.0 * oracles.laplacian(2 * vk - vkm1, 1.0)
            - params.reg_a * ctx.dt * oracles.laplacian(v - vk, 1.0)
            + oracles.laplacian(oracles.laplacian(v, 1.0), 1.0)
        )
        result = chemical_potential(phi, ctx)
        assert np.max(np.abs(result - expected)) < 1e-10 * np.max(np.abs(expected))

    def test_scheme2_matches_term_oracle(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=Scheme.BDF2_ES_2)
        ctx = make_context(grid8, rng, params, dt=0.07)
        phi = on_hyperplane(ctx, rng)
        v, vk, vkm1 = phi.values, ctx.phi_k.values, ctx.phi_km1.values
        lap_v = oracles.laplacian(v, 1.0)
        expected = (
            oracles.p_laplacian(v, 1.0)
            - params.epsilon * (2 * vk - vkm1)
            - params.reg_a * ctx.dt * oracles.laplacian(v - vk, 1.0)
            + v
            + 2 * lap_v
            + oracles.laplacian(lap_v, 1.0)
        )
        result = chemical_potential(phi, ctx)
        assert np.max(np.abs(result - expected)) < 1e-10 * np.max(np.abs(expected))


class TestMuZero:
    def test_constant(self, grid8):
        # mu^0 = a c is constant, so the ghost level moves nowhere
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        assert np.max(np.abs(lap_mu_zero(Field.constant(grid8, 0.4), params))) < 1e-13

    def test_single_mode_closed_form(self):
        g = Grid(dim=2, n=16, length=1.0)
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        phi = sample(lambda x, y: np.sin(2 * np.pi * x), g)
        x = g.coords()[0]
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
        c = Field.constant(grid8, 0.6)
        ctx = StepContext(c, c.copy(), 0.1, params)
        result = nonlinear_operator(c, ctx)
        assert np.max(np.abs(result.values - params.a * 0.1 * 0.6)) < 1e-14
        assert np.max(np.abs(rhs(ctx).values)) < 1e-14

    def test_constants_scheme2(self, grid8):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=Scheme.BDF2_ES_2)
        c = Field.constant(grid8, 0.6)
        ctx = StepContext(c, c.copy(), 0.1, params)
        result = nonlinear_operator(c, ctx)
        assert np.max(np.abs(result.values - 0.1 * 0.6)) < 1e-14
        assert np.max(np.abs(rhs(ctx).values - 0.1 * 0.3 * 0.6)) < 1e-14

    def test_rejects_off_hyperplane_iterate(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        ctx = make_context(grid8, rng, params)
        off = Field(grid8, ctx.phi_k.values + 0.5)
        with pytest.raises(MeanMismatchError):
            nonlinear_operator(off, ctx)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_operator_matches_term_oracle(self, grid8, rng, scheme):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=scheme)
        ctx = make_context(grid8, rng, params, dt=0.07)
        shift = 0.1 * rng.standard_normal(grid8.shape)
        phi = Field(grid8, ctx.phi_k.values + shift - shift.mean())
        v, vk, vkm1, dt = phi.values, ctx.phi_k.values, ctx.phi_km1.values, ctx.dt
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
        result = nonlinear_operator(phi, ctx)
        assert np.max(np.abs(result.values - expected)) < 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rhs_matches_term_oracle(self, grid8, rng, scheme):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=scheme)
        ctx = make_context(grid8, rng, params, dt=0.07)
        vk, vkm1, dt = ctx.phi_k.values, ctx.phi_km1.values, ctx.dt
        if scheme is Scheme.BDF2_ES_1:
            expected = -2 * dt * oracles.laplacian(2 * vk - vkm1, 1.0)
        else:
            expected = dt * params.epsilon * (2 * vk - vkm1)
        expected += -params.reg_a * dt**2 * oracles.laplacian(vk, 1.0)
        result = rhs(ctx)
        assert np.max(np.abs(result.values - expected)) < 1e-10 * np.max(np.abs(expected))

    def test_solved_step_satisfies_operator_equation(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        ctx = make_context(grid8, rng, params)
        f = rhs(ctx)
        sol, stats = psd_solve(ctx.phi_k, ctx, f, PsdConfig(tol=1e-12))
        assert stats.converged
        residual = nonlinear_operator(sol, ctx).values - f.values
        residual -= residual.mean()
        assert np.max(np.abs(residual)) < 1e-11 * (1.0 + np.max(np.abs(f.values)))


class TestObjective:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_directional_derivative_identity(self, grid8, rng, scheme):
        params = ModelParams(epsilon=0.3, reg_a=0.2, scheme=scheme)
        ctx = make_context(grid8, rng, params)
        f = rhs(ctx)
        shift = 0.1 * rng.standard_normal(grid8.shape)
        phi = Field(grid8, ctx.phi_k.values + shift - shift.mean())
        d = rng.standard_normal(grid8.shape)
        d -= d.mean()
        d /= norm_l2(Field(grid8, d))
        h = 1e-5
        fd = (
            objective(Field(grid8, phi.values + h * d), ctx, f)
            - objective(Field(grid8, phi.values - h * d), ctx, f)
        ) / (2 * h)
        pairing = grid8.cell_volume * float(
            np.sum((nonlinear_operator(phi, ctx).values - f.values) * d)
        )
        assert fd == pytest.approx(pairing, rel=1e-5)

    def test_zero_states_zero_objective(self, grid8):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        z = Field.zeros(grid8)
        ctx = StepContext(z, z.copy(), 0.1, params)
        assert objective(z, ctx, z) == 0.0

    def test_minimizer_satisfies_first_order_optimality(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        ctx = make_context(grid8, rng, params)
        f = rhs(ctx)
        sol, _ = psd_solve(ctx.phi_k, ctx, f, PsdConfig(tol=1e-12))
        base = objective(sol, ctx, f)
        for _ in range(5):
            d = rng.standard_normal(grid8.shape)
            d -= d.mean()
            d *= 1e-4 / np.max(np.abs(d))
            assert objective(Field(grid8, sol.values + d), ctx, f) >= base - 1e-12 * abs(base)

    def test_convexity_along_random_lines(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        ctx = make_context(grid8, rng, params)
        f = rhs(ctx)
        phi = ctx.phi_k
        d = rng.standard_normal(grid8.shape)
        d -= d.mean()
        h = 0.05
        for _ in range(20):
            s = rng.uniform(-1.0, 1.0)
            f0 = objective(Field(grid8, phi.values + s * d), ctx, f)
            fp = objective(Field(grid8, phi.values + (s + h) * d), ctx, f)
            fm = objective(Field(grid8, phi.values + (s - h) * d), ctx, f)
            assert fp - 2 * f0 + fm >= -1e-10 * max(abs(f0), 1.0)

    def test_rejects_off_hyperplane(self, grid8, rng):
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        ctx = make_context(grid8, rng, params)
        f = rhs(ctx)
        with pytest.raises(MeanMismatchError):
            objective(Field(grid8, ctx.phi_k.values + 1.0), ctx, f)


class TestSplittingConsistency:
    def test_schemes_agree_on_constants(self, grid8):
        c = Field.constant(grid8, 0.9)
        values = []
        for scheme in Scheme:
            params = ModelParams(epsilon=0.4, reg_a=0.2, scheme=scheme)
            ctx = StepContext(c, c.copy(), 0.1, params)
            values.append(chemical_potential(c, ctx).flat[0])
        assert values[0] == pytest.approx(values[1], rel=1e-14)
        assert values[0] == pytest.approx(0.6 * 0.9, rel=1e-13)


class TestManufacturedSolution:
    def test_field_amplitude_and_mean(self):
        g = Grid(dim=2, n=32, length=1.0)
        mms = ManufacturedSolution()
        f = mms.field(g, 0.0)
        assert np.max(np.abs(f.values)) <= 1.0 / (2 * np.pi) + 1e-15
        assert abs(f.mean()) < 1e-16

    def test_temporal_source_matches_discrete_residual(self):
        # all fields involved are band-limited, so the spectral evaluation
        # of d(phi_e)/dt - lap(mu(phi_e)) is exact and independent
        g = Grid(dim=2, n=16, length=1.0)
        params = ModelParams(epsilon=0.025, reg_a=0.25)
        mms = ManufacturedSolution()
        t = 0.37
        phi = mms.field(g, t)
        mu = (
            p_laplacian(phi)
            - params.epsilon * phi.values
            + phi.values
            + 2 * laplacian(phi).values
            + laplacian(laplacian(phi)).values
        )
        d_dt = -np.sin(t) * mms.field(g, 0.0).values / np.cos(0.0)
        expected = d_dt - laplacian(Field(g, mu)).values
        result = mms.temporal_source(g, t, params)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(result.values - expected)) < 1e-11 * scale

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_spatial_source_matches_discrete_stencil(self, scheme):
        g = Grid(dim=2, n=16, length=1.0)
        params = ModelParams(epsilon=0.025, reg_a=0.25, scheme=scheme)
        mms = ManufacturedSolution()
        dt, t1 = 1e-3, 0.4
        levels = [mms.field(g, t) for t in (t1, t1 - dt, t1 - 2 * dt)]
        ctx = StepContext(levels[1], levels[2], dt, params)
        stencil = (1.5 * levels[0].values - 2 * levels[1].values + 0.5 * levels[2].values) / dt
        expected = stencil - laplacian(Field(g, chemical_potential(levels[0], ctx))).values
        result = mms.spatial_source(g, t1, dt, params)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(result.values - expected)) < 1e-9 * scale

    def test_spatial_mode_step_is_exact_by_construction(self):
        g = Grid(dim=2, n=16, length=1.0)
        params = ModelParams(epsilon=0.025, reg_a=0.25)
        mms = ManufacturedSolution()
        dt = 1e-3
        src = mms.spatial_source(g, dt, dt, params)
        ctx = StepContext(mms.field(g, 0.0), mms.field(g, -dt), dt, params, src)
        sol, stats = psd_solve(ctx.phi_k, ctx, None, PsdConfig(tol=1e-13))
        assert stats.converged
        target = mms.field(g, dt)
        assert np.max(np.abs(sol.values - target.values)) < 1e-10

    def test_stationary_envelope_source_is_time_independent(self):
        g = Grid(dim=2, n=16, length=1.0)
        params = ModelParams(epsilon=0.025, reg_a=0.25)
        mms = ManufacturedSolution(envelope="one")
        s1 = mms.temporal_source(g, 0.1, params)
        s2 = mms.temporal_source(g, 2.9, params)
        assert np.array_equal(s1.values, s2.values)

    def test_rejects_wrong_domain(self):
        g = Grid(dim=2, n=16, length=2.0)
        with pytest.raises(ValueError, match="unit square"):
            ManufacturedSolution().field(g, 0.0)
