"""Tests for the rfft layout and the collocation calculus the solver runs:
transforms and symbols against a direct DFT oracle, the gradient kernel and
the Laplacian symbol, operator identities, the inverse Laplacian, inner
products and norms."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import random_field
from spfc import Field, Grid, ModelParams, norm_l2
from spfc.grid import sum_product
from spfc.harness import CLAIMS, lemma_inequality_defects, sbp_identity_defects
from spfc.model import _scheme_symbols, grad_sq, gradient, p_laplacian_hat
from spfc.spectral import norm_h2_hat


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

    def test_equal_grids_share_read_only_symbols(self):
        a, b = Grid(3, 8, 2.0), Grid(3, 8, 2.0)
        assert a is not b
        for name in ("lam", "lam_inv", "kernel_mask"):
            assert getattr(a, name) is getattr(b, name)
            assert not getattr(a, name).flags.writeable
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        for x, y in zip(_scheme_symbols(a, params, 0.1), _scheme_symbols(b, params, 0.1)):
            assert x is y and not x.flags.writeable


@st.composite
def grid_and_symbol(draw):
    dim = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(3, 24 if dim == 2 else 10))
    grid = Grid(dim, n, draw(st.floats(0.5, 50.0)))
    kind = draw(st.sampled_from(("one", "lam", "lam_inv", "h2", "random")))
    symbol = {
        "one": lambda: 1.0,
        "lam": lambda: grid.lam,
        "lam_inv": lambda: grid.lam_inv,
        "h2": lambda: 1.0 + grid.lam + grid.lam**2,
        "random": lambda: np.random.default_rng(n).random(grid.rshape),
    }[kind]()
    return grid, symbol, draw(st.integers(0, 2**32 - 1))


class TestReductionKernel:
    """``Grid.spectral_dot`` and ``sum_product`` (one single-threaded pass)
    against the ``parseval_weight`` definition written out with ``np.sum``."""

    @given(case=grid_and_symbol())
    def test_spectral_dot_matches_parseval_definition(self, case):
        grid, symbol, seed = case
        rng = np.random.default_rng(seed)
        a, b = (grid.rfft(rng.standard_normal(grid.shape)) for _ in range(2))

        def reference(x, y):
            prod = x.real * y.real + x.imag * y.imag
            return grid.spectral_norm_factor * np.sum(grid.parseval_weight * symbol * prod)

        aa, bb = reference(a, a), reference(b, b)
        assert abs(grid.spectral_norm2_sq(a, symbol) - aa) <= 1e-13 * aa
        assert abs(grid.spectral_dot(a, b, symbol) - reference(a, b)) <= 1e-13 * np.sqrt(aa * bb)
        if np.ndim(symbol) == 0:
            assert abs(grid.spectral_norm2_sq(a) - aa) <= 1e-13 * aa

    def test_spectral_dot_accepts_strided_and_real_spectra(self, rng):
        grid = Grid(2, 8, 3.0)
        a, b = (grid.rfft(rng.standard_normal(grid.shape)) for _ in range(2))
        wide = np.zeros(grid.rshape[:-1] + (2 * grid.rshape[-1],), dtype=complex)
        wide[:, ::2] = a
        assert grid.spectral_dot(wide[:, ::2], b) == grid.spectral_dot(a, b)
        t = np.ascontiguousarray(b.T).T  # Fortran-ordered copy of b
        assert grid.spectral_dot(a, t, grid.lam) == grid.spectral_dot(a, b, grid.lam)
        assert grid.spectral_dot(a.real, b) == grid.spectral_dot(a.real.astype(complex), b)

    @given(case=grid_and_symbol())
    def test_sum_product_matches_np_sum(self, case):
        grid, _, seed = case
        rng = np.random.default_rng(seed)
        x, y, z = (rng.standard_normal(grid.shape) for _ in range(3))
        scale = np.sqrt(np.sum(x**2) * np.sum(y**2))
        assert abs(sum_product(x, x) - np.sum(x**2)) <= 1e-13 * np.sum(x**2)
        assert abs(sum_product(x, y) - np.sum(x * y)) <= 1e-13 * scale
        assert abs(sum_product(x) - np.sum(x)) <= 1e-13 * np.sum(np.abs(x))
        assert abs(sum_product(x, y, z) - np.sum(x * y * z)) <= 1e-13 * np.sum(np.abs(x * y * z))


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

    @pytest.mark.parametrize("dim,n", [(2, 6), (2, 7), (3, 4), (3, 5)])
    def test_project_real_gives_the_spectrum_of_a_real_field(self, dim, n, rng):
        g = Grid(dim=dim, n=n, length=1.7)
        spec = rng.standard_normal(g.rshape) + 1j * rng.standard_normal(g.rshape)
        # an arbitrary array breaks the Hermitian condition irfft assumes ...
        assert np.max(np.abs(g.rfft(g.irfft(spec)) - spec)) > 0.1
        # ... and its projection is the rfft of a real field; a real field's
        # rfft is left as it is
        g.project_real(spec)
        assert np.max(np.abs(g.rfft(g.irfft(spec)) - spec)) < 1e-13 * np.max(np.abs(spec))
        real = g.rfft(rng.standard_normal(g.shape))
        assert np.max(np.abs(g.project_real(real.copy()) - real)) < 1e-13 * np.max(np.abs(real))


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
        spec = g.rfft(Field(g, np.full(g.shape, 1.0)).values)
        assert g.cell_volume * spec[0, 0] == pytest.approx(g.volume, rel=1e-14)
        others = spec.copy()
        others[0, 0] = 0.0
        assert np.max(np.abs(others)) < 1e-13 * g.size

    def test_single_mode_two_coefficients(self):
        g = Grid(dim=2, n=16, length=3.0)
        x, y = g.coords()
        f = Field(g, np.sin(2 * np.pi * x / g.length))
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

    def test_sampled_sine_is_single_mode(self):
        g = Grid(dim=2, n=8, length=1.0)
        x, y = g.coords()
        f = Field(g, np.sin(2 * np.pi * x))
        spec = g.cell_volume * g.rfft(f.values)
        expected = oracles.dft(f.values, 1.0)
        nonzero = {m for m, c in expected.items() if abs(c) > 1e-12}
        assert nonzero == {(1, 0), (-1, 0)}
        for idx in [(1, 0), (-1, 0)]:
            assert spec[idx] == pytest.approx(expected[idx], abs=1e-12)


class TestDerivatives:
    """``model.gradient`` (the symbols ``Grid.ik``) and the Laplacian symbol
    ``-Grid.lam``, applied in the rfft layout as the solver applies them."""

    def test_gradient_of_single_mode_exact(self):
        g = Grid(dim=2, n=16, length=5.0)
        x, y = g.coords()
        gx, gy = gradient(g, g.rfft(np.sin(2 * np.pi * x / 5.0)))
        expected = (2 * np.pi / 5.0) * np.cos(2 * np.pi * x / 5.0)
        assert np.max(np.abs(gx - expected)) < 1e-13
        assert np.max(np.abs(gy)) < 1e-13

    def test_gradient_of_constant_is_zero(self, grid8):
        for comp in gradient(grid8, grid8.rfft(np.full(grid8.shape, 4.2))):
            assert np.max(np.abs(comp)) < 1e-14

    def test_gradient_matches_dense_oracle_n8(self, grid8, rng):
        f = random_field(grid8, rng)
        gx, gy = gradient(grid8, grid8.rfft(f.values))
        ox = oracles.derivative(f.values, 1.0, 0)
        oy = oracles.derivative(f.values, 1.0, 1)
        scale = max(np.max(np.abs(ox)), np.max(np.abs(oy)))
        assert np.max(np.abs(gx - ox)) < 1e-12 * scale
        assert np.max(np.abs(gy - oy)) < 1e-12 * scale

    def test_divergence_of_gradient_is_laplacian(self, rng):
        for n in (8, 9):  # even grid exercises the Nyquist folding
            g = Grid(dim=2, n=n, length=1.0)
            spec = g.rfft(random_field(g, rng).values)
            composed = g.irfft(sum(ik * g.rfft(c) for ik, c in zip(g.ik, gradient(g, spec))))
            direct = g.irfft(-g.lam * spec)
            scale = np.max(np.abs(direct))
            assert np.max(np.abs(composed - direct)) < 1e-12 * scale

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
        x, y = g.coords()
        f = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        expected = -2.0 * (2 * np.pi) ** 2 * f
        assert np.max(np.abs(g.irfft(-g.lam * g.rfft(f)) - expected)) < 1e-11

    def test_laplacian_of_constant_is_zero(self, grid8):
        lap = grid8.irfft(-grid8.lam * grid8.rfft(np.full(grid8.shape, 7.0)))
        assert np.max(np.abs(lap)) < 1e-14


class TestFractionalOperators:
    """``Grid.lam_inv``: the power ``(-laplacian)^(-1)`` the step operator uses."""

    @staticmethod
    def apply(f):
        g = f.grid
        return g.irfft(g.lam_inv * g.rfft(f.values))

    def test_inverse_on_single_mode(self):
        g = Grid(dim=2, n=16, length=2.0)
        x, y = g.coords()
        f = Field(g, np.sin(2 * np.pi * x / 2.0))
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
        f = Field(g, np.full(g.shape, 1.0))
        assert norm_l2(f) == pytest.approx(1.0, rel=1e-14)

    def test_sine_l2_norm(self):
        g = Grid(dim=2, n=16, length=1.0)
        x, y = g.coords()
        f = Field(g, np.sin(2 * np.pi * x))
        assert norm_l2(f) ** 2 == pytest.approx(0.5, rel=1e-13)

    def test_hm1_single_mode(self):
        # the H^-1 norm of E_mod and of the truncation stop's energy test
        g = Grid(dim=2, n=16, length=1.0)
        x, y = g.coords()
        f = Field(g, np.sin(2 * np.pi * x))
        hm1_sq = g.spectral_norm2_sq(g.rfft(f.values), g.lam_inv)
        assert np.sqrt(hm1_sq) == pytest.approx(norm_l2(f) / (2 * np.pi), rel=1e-12)

    def test_h_norms_on_single_mode(self):
        g = Grid(dim=2, n=16, length=1.0)
        x, y = g.coords()
        f = Field(g, np.sin(2 * np.pi * x))
        lam = (2 * np.pi) ** 2
        h2 = norm_h2_hat(g, g.rfft(f.values))
        assert h2 == pytest.approx(np.sqrt(1 + lam + lam**2) * norm_l2(f), rel=1e-12)

    def test_parseval(self, grid16, rng):
        f = random_field(grid16, rng)
        spec = grid16.rfft(f.values)
        assert grid16.spectral_norm2_sq(spec) == pytest.approx(norm_l2(f) ** 2, rel=1e-12)


@st.composite
def sbp_case(draw):
    dim = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(3, 32 if dim == 2 else 15))
    grid = Grid(dim, n, draw(st.floats(2.0 * np.pi, 16.0 * np.pi)))
    return grid, draw(st.integers(0, 2**32 - 1))


class TestSummationByParts:
    """The identities on the kernels the solver runs; the full battery runs
    in the acceptance suite."""

    @pytest.mark.parametrize("dim,n", [(2, 16), (2, 9), (3, 8)])
    def test_identities_on_random_pairs(self, dim, n, rng):
        g = Grid(dim=dim, n=n, length=1.0)
        defects = sbp_identity_defects(g, 10, rng)
        assert max(defects) < 1e-10

    @given(case=sbp_case())
    def test_identities_on_random_grids(self, case):
        # the three identities of criterion 1, and the 4-Laplacian's
        # <p_laplacian_hat(phi), psi> = <|grad phi|^2 grad phi, grad psi>,
        # relative to the Cauchy-Schwarz bound of its right side
        grid, seed = case
        rng = np.random.default_rng(seed)
        tol = CLAIMS["sbp_identities"].tol
        assert max(sbp_identity_defects(grid, 3, rng)) <= tol
        phi_hat, psi_hat = (grid.rfft(rng.standard_normal(grid.shape)) for _ in range(2))
        grad_phi, grad_psi = gradient(grid, phi_hat), gradient(grid, psi_hat)
        gsq = grad_sq(grad_phi)
        flux = [gsq * c for c in grad_phi]
        lhs = grid.spectral_dot(p_laplacian_hat(grid, grad_phi, gsq), psi_hat)
        rhs = grid.cell_volume * sum(sum_product(a, b) for a, b in zip(flux, grad_psi))
        bound = grid.cell_volume * np.sqrt(
            sum_product(grad_sq(flux)) * sum_product(grad_sq(grad_psi)))
        assert abs(lhs - rhs) <= tol * bound

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
        excess = lemma_inequality_defects(grid16, 100, rng)
        assert max(excess) <= 1e-12
