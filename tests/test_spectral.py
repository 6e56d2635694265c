"""Tests for the rfft layout and the collocation operators: transforms and
symbols against a direct DFT oracle, operator identities, the inverse
Laplacian, inner products and norms."""

import itertools

import numpy as np
import pytest

import oracles
from conftest import random_field
from spfc import (
    Field,
    Grid,
    ModelParams,
    grad,
    inner,
    laplacian,
    norm_h2,
    norm_l2,
    norm_lp,
    sample,
)
from spfc.model import StepContext, StepOperator, p_laplacian_hat


def signed_mode(grid, idx):
    """Signed mode tuple of an rfft-layout index (Nyquist as ``-n/2``)."""
    modes = oracles.signed_modes(grid.n)
    return tuple(modes[i] for i in idx)


class TestGrid:
    def test_basic_geometry(self):
        g = Grid(dim=2, n=16, length=100.0)
        assert g.spacing * g.n == pytest.approx(100.0, rel=1e-15)
        assert g.shape == (16, 16)
        assert g.volume == pytest.approx(1e4)

    def test_odd_grid_mode_set(self):
        g = Grid(dim=2, n=9, length=1.0)
        modes = np.rint(g.ik[0].imag.ravel() * g.length / (2 * np.pi))
        assert sorted(modes) == list(range(-4, 5))

    @pytest.mark.parametrize("dim,n,length", [(1, 8, 1.0), (2, 2, 1.0), (2, 8, -1.0), (4, 8, 1.0)])
    def test_rejects_bad_parameters(self, dim, n, length):
        with pytest.raises(ValueError):
            Grid(dim=dim, n=n, length=length)

    def test_even_grid_nyquist_folded(self):
        g = Grid(dim=2, n=8, length=1.0)
        assert g.ik[0][4, 0] == 0.0 and g.ik[1][0, 4] == 0.0
        assert g.ik[0][3, 0] == 3 * 2j * np.pi and g.ik[0][5, 0] == -3 * 2j * np.pi


class TestRfftLayout:
    """The rfft-layout invariants every spectral computation rests on,
    checked mode by mode against the direct DFT."""

    @pytest.mark.parametrize("dim,n", [(2, 6), (2, 7), (3, 4), (3, 5)])
    def test_invariants_against_dense_dft(self, dim, n, rng):
        g = Grid(dim=dim, n=n, length=1.7)
        f = Field(g, rng.standard_normal(g.shape))
        spec = g.rfft(f.values)
        coeffs = oracles.dft(f.values, g.length)
        scale = max(abs(c) for c in coeffs.values())

        # Parseval: full-spectrum sum of the oracle, nodal quadrature, rfft sum
        full_sq = sum(abs(c) ** 2 for c in coeffs.values()) / g.volume
        assert g.spectral_norm2_sq(spec) == pytest.approx(full_sq, rel=1e-12)
        assert g.spectral_norm2_sq(spec) == pytest.approx(norm_l2(f) ** 2, rel=1e-12)

        # normalisation: h^dim F[m] is the oracle coefficient, and the weight
        # counts the full-spectrum modes each stored coefficient stands for
        stored = {signed_mode(g, idx): idx for idx in np.ndindex(g.rshape)}
        count = dict.fromkeys(stored.values(), 0)
        for mode in itertools.product(oracles.signed_modes(n), repeat=dim):
            partner = tuple(oracles.signed_modes(n)[-m % n] for m in mode)
            count[stored[mode] if mode in stored else stored[partner]] += 1
        for mode, idx in stored.items():
            assert g.cell_volume * spec[idx] == pytest.approx(coeffs[mode], abs=1e-12 * scale)
            assert g.parseval_weight[idx] == count[idx]
            assert g.spectral_norm_factor * abs(spec[idx]) ** 2 == pytest.approx(
                abs(coeffs[mode]) ** 2 / g.volume, rel=1e-10, abs=1e-24 * scale**2
            )

        # Nyquist folding: the symbols use the balanced modes, and the
        # kernel is exactly the modes made of zero and Nyquist components
        k = 2.0 * np.pi / g.length
        for mode, idx in stored.items():
            folded = [oracles.balanced(m, n) for m in mode]
            for a in range(dim):
                assert np.broadcast_to(g.ik[a], g.rshape)[idx] == pytest.approx(1j * k * folded[a])
            assert g.lam[idx] == pytest.approx(k**2 * sum(m * m for m in folded))
            assert g.kernel_mask[idx] == all(m in (0, -n // 2) if n % 2 == 0 else m == 0 for m in mode)


class TestField:
    def test_rejects_nonfinite(self, grid8):
        values = np.zeros(grid8.shape)
        values[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Field(grid8, values)

    def test_rejects_wrong_shape(self, grid8):
        with pytest.raises(ValueError, match="shape"):
            Field(grid8, np.zeros((4, 4)))


class TestTransforms:
    def test_constant_has_only_zero_mode(self):
        g = Grid(dim=2, n=10, length=2.5)
        spec = g.rfft(Field.constant(g, 1.0).values)
        assert g.cell_volume * spec[0, 0] == pytest.approx(g.volume, rel=1e-14)
        others = spec.copy()
        others[0, 0] = 0.0
        assert np.max(np.abs(others)) < 1e-13 * g.size

    def test_single_mode_two_coefficients(self):
        g = Grid(dim=2, n=16, length=3.0)
        f = sample(lambda x, y: np.sin(2 * np.pi * x / g.length), g)
        spec = g.cell_volume * g.rfft(f.values)
        c_plus, c_minus = spec[1, 0], spec[-1, 0]
        assert abs(c_plus) == pytest.approx(abs(c_minus), rel=1e-12)
        assert abs(c_plus) == pytest.approx(g.volume / 2.0, rel=1e-12)
        rest = spec.copy()
        rest[1, 0] = rest[-1, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-12 * g.volume

    def test_forward_matches_direct_dft_n8(self, grid8, rng):
        f = random_field(grid8, rng)
        spec = grid8.cell_volume * grid8.rfft(f.values)
        expected = oracles.dft(f.values, grid8.length)
        scale = np.abs(list(expected.values())).max()
        for idx in np.ndindex(grid8.rshape):
            assert spec[idx] == pytest.approx(expected[signed_mode(grid8, idx)], abs=1e-12 * scale)

    def test_round_trip_identity_n16(self, grid16, rng):
        f = random_field(grid16, rng)
        back = grid16.irfft(grid16.rfft(f.values))
        assert np.max(np.abs(back - f.values)) < 1e-12 * np.max(np.abs(f.values))

    def test_coefficient_delta_gives_cosine(self):
        g = Grid(dim=2, n=12, length=1.0)
        spec = np.zeros(g.rshape, dtype=complex)
        spec[1, 0] = spec[-1, 0] = 0.5 * g.size
        x = g.coords()[0]
        assert np.max(np.abs(g.irfft(spec) - np.cos(2 * np.pi * x))) < 1e-12

    def test_zero_coefficients_give_zero_field(self, grid8):
        assert np.all(grid8.irfft(np.zeros(grid8.rshape, dtype=complex)) == 0.0)

    def test_transform_of_real_field_is_conjugate_symmetric(self, grid16, rng):
        # the zero and Nyquist columns hold their own conjugate partners,
        # which is why the Parseval weight counts them once
        spec = grid16.rfft(random_field(grid16, rng).values)
        for col in (0, grid16.n // 2):
            c = spec[:, col]
            partner = np.conj(np.roll(c[::-1], 1))
            assert np.max(np.abs(c - partner)) < 1e-12 * np.max(np.abs(spec))

    def test_three_dimensional_round_trip(self, rng):
        g = Grid(dim=3, n=8, length=2.0)
        f = rng.standard_normal(g.shape)
        assert np.max(np.abs(g.irfft(g.rfft(f)) - f)) < 1e-12


class TestSample:
    def test_constant_function(self, grid8):
        f = sample(lambda x, y: 3.0 + 0.0 * x, grid8)
        assert np.all(f.values == 3.0)

    def test_exact_solution_amplitude_bound(self):
        g = Grid(dim=2, n=32, length=1.0)
        f = sample(lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) / (2 * np.pi), g)
        assert np.max(np.abs(f.values)) <= 1.0 / (2.0 * np.pi) + 1e-15

    def test_sampled_sine_is_single_mode(self):
        g = Grid(dim=2, n=8, length=1.0)
        f = sample(lambda x, y: np.sin(2 * np.pi * x), g)
        spec = g.cell_volume * g.rfft(f.values)
        expected = oracles.dft(f.values, 1.0)
        nonzero = {m for m, c in expected.items() if abs(c) > 1e-12}
        assert nonzero == {(1, 0), (-1, 0)}
        for idx in [(1, 0), (-1, 0)]:
            assert spec[idx] == pytest.approx(expected[idx], abs=1e-12)


class TestDerivatives:
    def test_gradient_of_single_mode_exact(self):
        g = Grid(dim=2, n=16, length=5.0)
        f = sample(lambda x, y: np.sin(2 * np.pi * x / 5.0), g)
        gx, gy = grad(f)
        x = g.coords()[0]
        expected = (2 * np.pi / 5.0) * np.cos(2 * np.pi * x / 5.0)
        assert np.max(np.abs(gx.values - expected)) < 1e-13
        assert np.max(np.abs(gy.values)) < 1e-13

    def test_gradient_of_constant_is_zero(self, grid8):
        for comp in grad(Field.constant(grid8, 4.2)):
            assert np.max(np.abs(comp.values)) < 1e-14

    def test_gradient_matches_dense_oracle_n8(self, grid8, rng):
        f = random_field(grid8, rng)
        gx, gy = grad(f)
        ox = oracles.derivative(f.values, 1.0, 0)
        oy = oracles.derivative(f.values, 1.0, 1)
        scale = max(np.max(np.abs(ox)), np.max(np.abs(oy)))
        assert np.max(np.abs(gx.values - ox)) < 1e-12 * scale
        assert np.max(np.abs(gy.values - oy)) < 1e-12 * scale

    def test_divergence_of_gradient_is_laplacian(self, rng):
        for n in (8, 9):  # even grid exercises the Nyquist folding
            g = Grid(dim=2, n=n, length=1.0)
            f = random_field(g, rng)
            composed = g.irfft(sum(ik * g.rfft(c.values) for ik, c in zip(g.ik, grad(f))))
            direct = laplacian(f)
            scale = np.max(np.abs(direct.values))
            assert np.max(np.abs(composed - direct.values)) < 1e-12 * scale

    # the flux divergence of the 4-Laplacian, -div(|v|^2 v), applied to a
    # given vector field v
    def test_divergence_of_constant_vector_is_zero(self, grid8):
        v = [np.full(grid8.shape, 1.0), np.full(grid8.shape, -2.0)]
        assert np.max(np.abs(grid8.irfft(p_laplacian_hat(grid8, v)))) < 1e-13

    def test_divergence_matches_componentwise_oracle(self, grid8, rng):
        v = [rng.standard_normal(grid8.shape) for _ in range(2)]
        vsq = v[0] ** 2 + v[1] ** 2
        expected = -(
            oracles.derivative(vsq * v[0], 1.0, 0) + oracles.derivative(vsq * v[1], 1.0, 1)
        )
        result = grid8.irfft(p_laplacian_hat(grid8, v))
        assert np.max(np.abs(result - expected)) < 1e-12 * np.max(np.abs(expected))

    def test_laplacian_eigenfunction(self):
        g = Grid(dim=2, n=16, length=1.0)
        f = sample(lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y), g)
        expected = -2.0 * (2 * np.pi) ** 2 * f.values
        assert np.max(np.abs(laplacian(f).values - expected)) < 1e-11

    def test_laplacian_of_constant_is_zero(self, grid8):
        assert np.max(np.abs(laplacian(Field.constant(grid8, 7.0)).values)) < 1e-14


class TestFractionalOperators:
    """``Grid.lam_inv``: the power ``(-laplacian)^(-1)`` the step operator uses."""

    @staticmethod
    def apply(f):
        g = f.grid
        return g.irfft(g.lam_inv * g.rfft(f.values))

    def test_inverse_on_single_mode(self):
        g = Grid(dim=2, n=16, length=2.0)
        f = sample(lambda x, y: np.sin(2 * np.pi * x / 2.0), g)
        expected = (2.0 / (2 * np.pi)) ** 2 * f.values
        assert np.max(np.abs(self.apply(f) - expected)) < 1e-13

    def test_inverse_matches_dense_oracle(self, grid8, rng):
        f = random_field(grid8, rng, mean_zero=True)
        expected = oracles.inv_neg_laplacian(f.values, 1.0)
        assert np.max(np.abs(self.apply(f) - expected)) < 1e-12

    def test_result_is_mean_zero(self, grid16, rng):
        f = random_field(grid16, rng)
        assert abs(self.apply(f).mean()) < 1e-13


class TestNormsAndInner:
    def test_constant_on_unit_box(self):
        g = Grid(dim=2, n=12, length=1.0)
        f = Field.constant(g, 1.0)
        assert norm_l2(f) == pytest.approx(1.0, rel=1e-14)
        for p in (1, 2, 4, np.inf):
            assert norm_lp(f, p) == pytest.approx(1.0, rel=1e-14)

    def test_sine_l2_norm(self):
        g = Grid(dim=2, n=16, length=1.0)
        f = sample(lambda x, y: np.sin(2 * np.pi * x), g)
        assert norm_l2(f) ** 2 == pytest.approx(0.5, rel=1e-13)

    def test_inner_symmetric_bilinear(self, grid8, rng):
        f, g1, g2 = (random_field(grid8, rng) for _ in range(3))
        assert inner(f, g1) == pytest.approx(inner(g1, f), rel=1e-13)
        combined = Field(grid8, 2.0 * g1.values + 3.0 * g2.values)
        assert inner(f, combined) == pytest.approx(
            2.0 * inner(f, g1) + 3.0 * inner(f, g2), rel=1e-12
        )

    def test_hm1_single_mode(self):
        # the solver's H^-1 residual norm
        g = Grid(dim=2, n=16, length=1.0)
        f = sample(lambda x, y: np.sin(2 * np.pi * x), g)
        zero = Field.zeros(g)
        op = StepOperator(StepContext(zero, zero.copy(), 0.1, ModelParams(epsilon=0.3, reg_a=0.2)))
        hm1 = op.residual_norm(g.rfft(f.values), "hm1")
        assert hm1 == pytest.approx(norm_l2(f) / (2 * np.pi), rel=1e-12)

    def test_h_norms_on_single_mode(self):
        g = Grid(dim=2, n=16, length=1.0)
        f = sample(lambda x, y: np.sin(2 * np.pi * x), g)
        lam = (2 * np.pi) ** 2
        assert norm_h2(f) == pytest.approx(np.sqrt(1 + lam + lam**2) * norm_l2(f), rel=1e-12)

    def test_parseval(self, grid16, rng):
        f = random_field(grid16, rng)
        spec = grid16.rfft(f.values)
        assert grid16.spectral_norm2_sq(spec) == pytest.approx(norm_l2(f) ** 2, rel=1e-12)

    def test_norm_lp_rejects_bad_exponent(self, grid8):
        with pytest.raises(ValueError):
            norm_lp(Field.zeros(grid8), 0.5)


class TestSummationByParts:
    """Module-level spot checks; the full battery runs in the acceptance suite."""

    @pytest.mark.parametrize("dim,n", [(2, 16), (2, 9), (3, 8)])
    def test_identities_on_random_pairs(self, dim, n, rng):
        from spfc.harness import sbp_identity_defects

        g = Grid(dim=dim, n=n, length=1.0)
        defects = sbp_identity_defects(g, 10, rng)
        assert max(defects) < 1e-10

    def test_first_identity_against_oracle_quadrature(self, grid8, rng):
        f = random_field(grid8, rng)
        h = random_field(grid8, rng)
        lhs = oracles.l2_inner(f.values, oracles.laplacian(h.values, 1.0), 1.0)
        rhs_val = -sum(
            oracles.l2_inner(
                oracles.derivative(f.values, 1.0, a), oracles.derivative(h.values, 1.0, a), 1.0
            )
            for a in range(2)
        )
        assert lhs == pytest.approx(rhs_val, abs=1e-10 * max(1.0, abs(lhs)))


class TestInterpolationInequalities:
    def test_battery_small(self, grid16, rng):
        from spfc.harness import lemma_inequality_defects

        excess = lemma_inequality_defects(grid16, 100, rng)
        assert max(excess) <= 1e-12
