import math

import pytest

from nlcavity import RamanParams, interaction_time, kappa

TWO_PI = 2.0 * math.pi


def quoted_params():
    return RamanParams(g=TWO_PI * 4.5e6, omega=TWO_PI * 30e6, delta=TWO_PI * 6e6)


class TestKappa:
    def test_quoted_experiment_values(self):
        with pytest.warns(UserWarning):  # Omega > Delta in that experiment
            k = kappa(quoted_params())
        assert abs(k - TWO_PI * 11.25e6) / (TWO_PI * 11.25e6) < 1e-12
        assert abs(k - 7.07e7) / 7.07e7 < 1e-3

    def test_linear_in_omega(self):
        with pytest.warns(UserWarning):
            p1 = quoted_params()
            p2 = RamanParams(g=p1.g, omega=2 * p1.omega, delta=p1.delta)
        assert abs(kappa(p2) - 2 * kappa(p1)) < 1e-6

    def test_inverse_in_delta(self):
        p1 = RamanParams(g=1e6, omega=2e6, delta=8e6)
        p2 = RamanParams(g=1e6, omega=2e6, delta=16e6)
        assert abs(kappa(p1) - 2 * kappa(p2)) < 1e-12

    def test_regime_warning_names_the_caller(self):
        with pytest.warns(UserWarning) as record:
            RamanParams(g=1.0, omega=2.0, delta=1.0)
        assert record[0].filename == __file__

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RamanParams(g=1.0, omega=1.0, delta=0.0)
        with pytest.raises(ValueError):
            RamanParams(g=-1.0, omega=1.0, delta=1.0)


class TestInteractionTime:
    def test_first_gate_time(self):
        with pytest.warns(UserWarning):
            k = kappa(quoted_params())
        t = interaction_time(6.5064, k)
        assert 0.08e-6 < t < 0.12e-6

    def test_longest_gate_time(self):
        with pytest.warns(UserWarning):
            k = kappa(quoted_params())
        t = interaction_time(219.918, k)
        assert 2.8e-6 < t < 3.4e-6

    def test_zero_tau(self):
        assert interaction_time(0.0, 1e7) == 0.0

    def test_round_trip(self):
        p = RamanParams(g=3e6, omega=2e6, delta=9e6)
        k = kappa(p)
        for t0 in (1e-8, 3.3e-6, 0.5):
            assert abs(interaction_time(k * t0, k) - t0) / t0 < 1e-12

    def test_rejects_zero_kappa(self):
        with pytest.raises(ValueError):
            interaction_time(1.0, 0.0)
