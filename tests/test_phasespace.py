import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcavity import (
    FockVector,
    apply_upsilon,
    cat_diagnostics,
    coherent_state,
    default_cutoff,
    exact_circle_amplitude,
    fock_state,
    gaussian_amplitude,
    q_function,
)
from nlcavity.phasespace import circle_q_values, coherent_overlap, poisson_weights


def conditional_state(alpha, theta, cutoff=None, raw=True):
    cutoff = cutoff or default_cutoff(alpha)
    base = coherent_state(alpha, cutoff)
    n = np.arange(cutoff + 1)
    amps = base.amps * np.cos(theta * np.sqrt(n))
    vec = FockVector(amps, cutoff)
    return vec if raw else vec.normalized()


class TestQFunction:
    def test_vacuum_at_origin(self):
        grid = q_function(fock_state(0, 10), (-1, 1), (-1, 1), 3)
        assert abs(grid.values[1, 1] - 1.0) < 1e-14

    def test_coherent_peak(self):
        grid = q_function(coherent_state(2.0, 40), (-4, 4), (-4, 4), 81)
        i = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        x, p = grid.axes()
        assert abs(x[i[1]] - 2.0) < 0.11 and abs(p[i[0]]) < 0.11
        assert abs(grid.values.max() - 1.0) < 1e-6

    def test_closed_form_coherent_overlap(self):
        # |<beta|alpha>|^2 = e^{-|beta-alpha|^2}
        grid = q_function(coherent_state(2.0, 40), (-3, 3), (-3, 3), 25)
        x, p = grid.axes()
        for i in (0, 12, 24):
            for j in (0, 12, 24):
                beta = x[j] + 1j * p[i]
                assert abs(grid.values[i, j] - math.exp(-abs(beta - 2.0) ** 2)) < 1e-10

    def test_normalized_convention_integrates_to_one(self):
        alpha = 2.0
        span = abs(alpha) + 5.0
        grid = q_function(
            coherent_state(alpha, 60),
            (-span, span),
            (-span, span),
            141,
            convention="normalized",
        )
        x, p = grid.axes()
        cell = (x[1] - x[0]) * (p[1] - p[0])
        assert abs(grid.values.sum() * cell - 1.0) < 0.02

    def test_global_phase_invariance(self):
        state = conditional_state(3.0, 4.0)
        g1 = q_function(state, (-6, 6), (-6, 6), 41)
        rotated = FockVector(state.amps * np.exp(1j * 0.83), state.cutoff)
        g2 = q_function(rotated, (-6, 6), (-6, 6), 41)
        assert np.max(np.abs(g1.values - g2.values)) < 1e-14

    def test_agrees_with_circle_amplitude(self):
        # single-branch conditional state, checked on the circle |beta|=|alpha|
        alpha, theta, cutoff = 3.0, 4.0, default_cutoff(3.0)
        base = coherent_state(alpha, cutoff)
        n = np.arange(cutoff + 1)
        state = FockVector(base.amps * np.exp(1j * theta * np.sqrt(n)), cutoff)
        phis = np.array([0.3, 1.2, 2.9])
        q_circle = circle_q_values(state, alpha, phis)
        amp = exact_circle_amplitude(alpha, theta, phis, cutoff)
        assert np.max(np.abs(q_circle - np.abs(amp) ** 2)) < 1e-10

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            q_function(fock_state(0, 5), (-1, 1), (-1, 1), 1)


# Points of the disc |z| <= 6, with the origin drawn on its own.
DISC = st.one_of(
    st.just(0j),
    st.complex_numbers(max_magnitude=6.0, allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(alpha=DISC, beta=DISC)
def test_coherent_overlap_closed_form(alpha, beta):
    # |<beta|alpha>|^2 = e^{-|beta - alpha|^2}, on a 2-D beta array.
    state = coherent_state(alpha, default_cutoff(6.0))
    betas = np.array([[beta, 0.0], [-beta, alpha]])
    q = np.abs(coherent_overlap(betas, state)) ** 2
    assert q.shape == betas.shape
    assert np.max(np.abs(q - np.exp(-np.abs(betas - alpha) ** 2))) < 1e-12


class TestCircleAmplitude:
    def test_poisson_normalization(self):
        assert abs(exact_circle_amplitude(3.0, 0.0, 0.0) - 1.0) < 1e-12
        assert abs(poisson_weights(3.0, default_cutoff(3.0)).sum() - 1.0) < 1e-12

    def test_peak_angle_by_dense_scan(self):
        alpha, theta = 10.0, 10.0 * math.pi
        phis = np.linspace(0.0, math.pi, 8001)
        mags = np.abs(exact_circle_amplitude(alpha, theta, phis))
        assert abs(phis[np.argmax(mags)] - math.pi / 2.0) < 0.05

    def test_gaussian_peak_is_unity(self):
        # The peak was 1 only while the closed form dropped the phase curvature.
        phi_peak = 10.0 * math.pi / (2.0 * 10.0)
        predicted = (1.0 + (math.pi / 4.0) ** 2) ** -0.25
        assert abs(abs(gaussian_amplitude(10.0, 10.0 * math.pi, phi_peak)) - predicted) < 1e-14

    def test_gaussian_peak_positions(self):
        assert abs(10.0 * math.pi / (2.0 * 10.0) - math.pi / 2.0) < 1e-12
        assert abs(5.0 * math.pi / (2.0 * 10.0) - math.pi / 4.0) < 1e-12

    def test_gaussian_tracks_exact_argmax(self):
        for alpha in (8.0, 10.0, 12.0):
            theta = alpha * math.pi
            phis = np.linspace(0.0, math.pi, 8001)
            mags = np.abs(exact_circle_amplitude(alpha, theta, phis))
            assert abs(phis[np.argmax(mags)] - theta / (2.0 * alpha)) < 0.5 / alpha

    def test_gaussian_matches_exact_across_lobe(self):
        phis = np.linspace(0.0, math.pi, 2001)
        for alpha in (8.0, 20.0, 40.0):
            for theta in (alpha * math.pi, alpha * math.pi / 2.0):
                exact = exact_circle_amplitude(alpha, theta, phis)
                err = np.abs(exact - gaussian_amplitude(alpha, theta, phis)).max()
                assert err <= 0.5 / alpha

    def test_peak_magnitude_discrepancy_value(self):
        # The quadratic phase of the sum lowers the exact peak by the factor
        # (1 + (pi/4)^2)^(-1/4) ~ 0.887 at theta = alpha*pi, independent of
        # alpha. Pin the measured value so regressions show.
        phis = np.linspace(1.4, 1.8, 4001)
        exact_peak = np.abs(exact_circle_amplitude(10.0, 10.0 * math.pi, phis)).max()
        predicted = (1.0 + (math.pi / 4.0) ** 2) ** -0.25
        assert abs(exact_peak - predicted) < 5e-3


class TestCatDiagnostics:
    def test_two_lobes_on_imaginary_axis(self):
        state = conditional_state(10.0, 10.0 * math.pi, cutoff=220)
        diag = cat_diagnostics(state, 10.0)
        assert not diag["degenerate"]
        assert len(diag["lobe_angles"]) == 2
        assert abs(diag["lobe_angles"][0] + math.pi / 2.0) < 0.05
        assert abs(diag["lobe_angles"][1] - math.pi / 2.0) < 0.05
        assert abs(diag["lobe_separation"] - 20.0) < 0.5
        assert 0.0 < diag["best_cat_fidelity"] <= 1.0

    def test_theta_zero_single_lobe(self):
        state = conditional_state(6.0, 0.0)
        diag = cat_diagnostics(state, 6.0)
        assert diag["degenerate"]
        assert len(diag["lobe_angles"]) == 1
        assert abs(diag["lobe_angles"][0]) < 0.01

    def test_lobes_come_in_conjugate_pairs(self):
        for theta in (5.0 * math.pi, 10.0 * math.pi):
            state = conditional_state(10.0, theta, cutoff=220)
            diag = cat_diagnostics(state, 10.0)
            angles = diag["lobe_angles"]
            assert len(angles) == 2
            assert abs(angles[0] + angles[1]) < 0.02

    def test_number_distribution_is_reweighted_poisson(self):
        # conditioning reweights by cos^2 but never reorders the distribution
        alpha, theta = 4.0, 2.7
        cutoff = default_cutoff(alpha)
        base = coherent_state(alpha, cutoff)
        out = apply_upsilon(base, theta, "g")
        n = np.arange(cutoff + 1)
        weights = np.abs(base.amps) ** 2 * np.cos(theta * np.sqrt(n)) ** 2
        expected = weights / weights.sum()
        assert np.max(np.abs(out.state.number_distribution() - expected)) < 1e-12
