import math

import numpy as np
import pytest

from nlcavity import (
    FockOperator,
    displaced_generator,
    displacement,
    expm_antihermitian,
    generator_residual,
    number_op,
    quadrature,
    residual_scaling,
    series_generator,
    sqrt_number_phase,
    unitary_consistency,
)
from nlcavity.phasespace import poisson_weights
from nlcavity.universality import (
    TruncationGuardError,
    required_cutoff,
    rotation_covariance_error,
)


class TestDisplacedGenerator:
    def test_alpha_zero_is_sqrt_diagonal(self):
        g = displaced_generator(0.0, 40).matrix
        assert np.max(np.abs(g - np.diag(np.sqrt(np.arange(41))))) < 1e-10

    def test_vacuum_expectation_is_poisson_mean_of_sqrt(self):
        # <0|G|0> = coherent-state mean of sqrt(n)
        alpha = 4.0
        cutoff = required_cutoff(alpha)
        g = displaced_generator(alpha, cutoff).matrix
        n = np.arange(cutoff + 1)
        oracle = float(np.sum(poisson_weights(alpha, cutoff) * np.sqrt(n)))
        assert abs(g[0, 0].real - oracle) < 1e-8
        assert abs(g[0, 0].imag) < 1e-10

    def test_hermitian_on_interior(self):
        g = displaced_generator(4.0, required_cutoff(4.0)).matrix
        k = 21
        assert np.max(np.abs((g - g.conj().T)[:k, :k])) < 1e-10

    def test_guard(self):
        with pytest.raises(TruncationGuardError):
            displaced_generator(8.0, 50)

    @pytest.mark.parametrize("alpha", [4.0, 3.0 + 2.0j])
    def test_equals_dense_conjugation(self, alpha):
        cutoff = required_cutoff(alpha)
        d = displacement(alpha, cutoff).matrix
        sqrt_n = np.diag(np.sqrt(np.arange(cutoff + 1))).astype(complex)
        g = displaced_generator(alpha, cutoff).matrix
        assert np.array_equal(g, d.conj().T @ sqrt_n @ d)


class TestSeriesGenerator:
    def test_vacuum_constant_term(self):
        # <0|x^2|0> = 1, so <0|G|0> at phi=0 carries |a| - 1/(8|a|)
        alpha = 6.0
        g = series_generator(alpha, 0.0, 40, include_cubic=False).matrix
        assert abs(g[0, 0].real - (alpha - 1.0 / (8.0 * alpha))) < 1e-12

    def test_quadrature_matrix_element(self):
        x = quadrature(0.0, 10).matrix
        assert np.max(np.abs(x - x.conj().T)) < 1e-14
        assert np.max(np.abs(x.imag)) < 1e-14
        assert abs(x[0, 1] - 1.0) < 1e-14

    def test_cubic_correction_terms(self):
        # quadratic-only = |a| + x/2 + n/(2a) - x^2/(8a); full minus
        # quadratic-only = -(n x + x n)/(8 a^2) + x^3/(16 a^2)
        alpha, cutoff = 5.0, 30
        nm = number_op(cutoff).matrix
        for phi in (0.0, 0.7):
            full = series_generator(alpha, phi, cutoff, include_cubic=True).matrix
            quad = series_generator(alpha, phi, cutoff, include_cubic=False).matrix
            x = quadrature(phi, cutoff).matrix
            quad_expected = (
                alpha * np.eye(cutoff + 1) + x / 2 + nm / (2 * alpha) - x @ x / (8 * alpha)
            )
            expected = -(nm @ x + x @ nm) / (8 * alpha**2) + x @ x @ x / (16 * alpha**2)
            assert np.max(np.abs(quad - quad_expected)) < 1e-13
            assert np.max(np.abs((full - quad) - expected)) < 1e-13

    def test_hermitian(self):
        g = series_generator(4.0, 0.7, 50).matrix
        assert np.max(np.abs((g - g.conj().T)[:21, :21])) < 1e-10


class TestResidualScaling:
    ALPHAS = [4.0, 6.0, 8.0, 12.0, 16.0]

    def test_exponent_near_minus_three(self):
        comps, exponent = residual_scaling(self.ALPHAS, subspace_dim=3)
        assert -3.5 <= exponent <= -2.5
        residuals = [c.residual_norm for c in comps]
        assert all(a > b for a, b in zip(residuals, residuals[1:]))

    def test_dropping_cubic_degrades_to_second_order(self):
        _, exponent = residual_scaling(self.ALPHAS, subspace_dim=3, include_cubic=False)
        assert exponent > -2.5
        assert abs(exponent - (-2.0)) < 0.3

    def test_single_alpha_gives_no_exponent(self):
        comps, exponent = residual_scaling([4.0])
        assert exponent is None
        assert len(comps) == 1 and comps[0].residual_norm > 0

    def test_residual_recomputable(self):
        comp = generator_residual(6.0, subspace_dim=3)
        redo = generator_residual(6.0, subspace_dim=3)
        assert comp.residual_norm == redo.residual_norm

    def test_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            residual_scaling([2.0, 4.0])


class TestUnitaryConsistency:
    def test_theta_zero(self):
        assert unitary_consistency(4.0, 0.0, required_cutoff(4.0)) < 1e-12

    def test_moderate_displacement(self):
        assert unitary_consistency(4.0, 1.0, 120) <= 1e-8

    def test_large_displacement(self):
        assert unitary_consistency(8.0, math.pi, 250) <= 1e-6

    def test_matches_dense_phase_operator(self):
        alpha, theta, cutoff, k = 4.0, 1.0, 120, 21
        d = displacement(alpha, cutoff).matrix
        g = displaced_generator(alpha, cutoff).matrix
        u1 = expm_antihermitian(FockOperator(1j * theta * g, cutoff)).matrix
        u2 = d.conj().T @ sqrt_number_phase(theta, cutoff).matrix @ d
        dense = float(np.max(np.abs((u1 - u2)[:k, :k])))
        assert abs(unitary_consistency(alpha, theta, cutoff) - dense) < 1e-15

    def test_guard(self):
        with pytest.raises(TruncationGuardError):
            unitary_consistency(8.0, 1.0, 50)

    def test_exponentiated_generator_is_unitary(self):
        g = displaced_generator(4.0, 120)
        u = expm_antihermitian(FockOperator(1j * 0.8 * g.matrix, 120)).matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(121))) < 1e-10


class TestPhaseCovariance:
    def test_complex_alpha_reduces_to_rotated_real_case(self):
        assert rotation_covariance_error(4.0, 0.9, required_cutoff(4.0)) < 1e-8
