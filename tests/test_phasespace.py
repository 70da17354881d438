import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

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


def q_at(state, beta):
    return float(np.abs(coherent_overlap(beta, state)[0]) ** 2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(r=st.floats(0.0, 70.0), spread=st.floats(-8.0, 8.0), phase=st.floats(-math.pi, math.pi))
@example(r=math.sqrt(2000.0), spread=0.0, phase=0.4)
@example(r=39.0, spread=-2.0, phase=-2.0)
def test_fock_state_q_closed_form(r, spread, phase):
    # Q(beta) = e^{-|beta|^2} |beta|^{2n} / n! for |n>. n is drawn near
    # |beta|^2, up to 2000, so that Q is mostly a normal float, also past
    # |beta|^2 ~ 1490 where e^{-|beta|^2/2} alone underflows; farther out Q
    # must underflow cleanly.
    n = min(2000, max(0, round(r * r + spread * r)))
    beta = r * complex(math.cos(phase), math.sin(phase))
    q = q_at(fock_state(n, n), beta)
    if r == 0.0:
        assert q == (1.0 if n == 0 else 0.0)
        return
    log_q = -r * r + 2 * n * math.log(r) - math.lgamma(n + 1)
    if log_q < -700.0:
        assert 0.0 <= q < 1e-300
    else:
        assert abs(q - math.exp(log_q)) <= 1e-10 * math.exp(log_q)


def test_overlap_without_vacuum_is_zero_at_origin():
    amps = np.zeros(41, dtype=complex)
    amps[[1, 7, 40]] = (0.6, 0.8j, 1e-3)
    with np.errstate(all="raise"):
        assert coherent_overlap(0.0, FockVector(amps, 40))[0] == 0.0
        grid = q_function(FockVector(amps, 40), (-1, 1), (-1, 1), 3)
    assert grid.values[1, 1] == 0.0


def log_space_q(state, beta):
    """(|<beta|psi>|^2, (sum_n |term_n|)^2) by a direct sum whose terms are
    formed in log form, the benchmark oracle's reference."""
    n = np.arange(state.cutoff + 1)
    with np.errstate(divide="ignore"):
        log_mag = (
            np.log(np.abs(state.amps)) - abs(beta) ** 2 / 2
            + n * np.log(abs(beta)) - gammaln(n + 1) / 2
        )
    terms = np.exp(log_mag + 1j * (np.angle(state.amps) - n * np.angle(beta)))
    return abs(terms.sum()) ** 2, np.abs(terms).sum() ** 2


def test_large_field_far_from_the_lobes():
    # |alpha| = 40 at the default cutoff (1940), on the large-field grid
    # reach (|alpha| + 8) and near the origin, where Q is far below its peak.
    state = conditional_state(40.0 * np.exp(0.3j), 40.0 * math.pi)
    betas = np.array([48 + 48j, -48j, 60.0, 20 - 5j, -12 + 30j, 0.5, 45j, -44.0])
    got = np.abs(coherent_overlap(betas, state)) ** 2
    for beta, q in zip(betas, got):
        want, scale = log_space_q(state, beta)
        assert abs(q - want) <= 1e-8 * want + 1e-12 * scale + 1e-300, beta


def test_q_function_memory_does_not_grow_with_cutoff():
    # The per-row kernel formed a (grid row) x (cutoff + 1) matrix.
    state = coherent_state(1.0, 100_000)
    tracemalloc.start()
    try:
        grid = q_function(state, (-1.0, 1.0), (-1.0, 1.0), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * state.amps.nbytes
    x, p = grid.axes()
    want = np.exp(-np.abs(x + 1j * p[:, None] - 1.0) ** 2)
    assert np.max(np.abs(grid.values - want)) < 1e-12


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

    def test_mirror_lobes_rank_by_angle(self):
        # For real alpha the two lobes are mirror images whose Q agrees up to
        # rounding: the lower angle ranks first, so the fit starts from the
        # lobe below the real axis whatever the last bits of Q are.
        state = conditional_state(10.0, 10.0 * math.pi, cutoff=220)
        for seed in range(4):
            ulps = np.random.default_rng(seed).integers(-4, 5, state.cutoff + 1)
            amps = state.amps * (1.0 + ulps * np.finfo(float).eps)
            diag = cat_diagnostics(FockVector(amps, state.cutoff), 10.0)
            assert diag["cat_gamma"].imag < 0.0

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
