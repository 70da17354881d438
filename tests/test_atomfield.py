import math

import numpy as np
import pytest

from nlcavity import (
    FockVector,
    ImpossibleOutcomeError,
    apply_sequence,
    apply_upsilon,
    conditional_block,
    fock_state,
    joint_evolution,
    ns_amplitudes,
    ns_gate_check,
)
from nlcavity.atomfield import EXCITED, GROUND, upsilon_factors
from nlcavity.search import two_atom_amplitudes
from conftest import random_state

SQRT2 = math.sqrt(2.0)


def equal_superposition(cutoff=5):
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[:3] = 1.0 / math.sqrt(3.0)
    return FockVector(amps, cutoff)


class TestJointEvolution:
    def test_tau_zero_identity(self):
        u = joint_evolution(0.0, 8)
        assert np.max(np.abs(u.matrix - np.eye(18))) < 1e-12

    def test_unitary(self):
        u = joint_evolution(3.7, 20).matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(42))) < 1e-10

    def test_two_level_rabi(self):
        u = joint_evolution(math.pi, 10)
        gg = conditional_block(u, "g", "g").matrix
        assert abs(gg[1, 1] - math.cos(math.pi)) < 1e-10

    def test_gg_block_is_cosine_diagonal(self):
        tau = 6.5064
        u = joint_evolution(tau, 30)
        gg = conditional_block(u, "g", "g").matrix
        n = np.arange(31)
        expected = np.diag(np.cos(tau * np.sqrt(n)))
        # exact on every excitation sector the truncation leaves intact
        assert np.max(np.abs(gg - expected)) < 1e-9

    def test_ee_block_entry_against_printed_value(self):
        u = joint_evolution(6.5064, 30)
        ee = conditional_block(u, "e", "e").matrix
        assert abs(ee[1, 1] - (-0.97516)) < 1e-5

    def test_block_oracle_over_tau_grid(self):
        cutoff = 30
        n = np.arange(cutoff + 1)
        for tau in np.arange(0.0, 250.0, 0.37 * 13):  # coarser spacing, same span
            u = joint_evolution(float(tau), cutoff)
            gg = conditional_block(u, "g", "g").matrix
            ee = conditional_block(u, "e", "e").matrix
            assert np.max(np.abs(gg[:16, :16] - np.diag(np.cos(tau * np.sqrt(n[:16]))))) < 1e-9
            assert np.max(np.abs(ee[:16, :16] - np.diag(np.cos(tau * np.sqrt(n[:16] + 1))))) < 1e-9

    def test_probability_completeness(self, rng):
        cutoff = 20
        state = random_state(rng, cutoff)
        u = joint_evolution(2.9, cutoff)
        gg = conditional_block(u, "g", "g").matrix @ state.amps
        eg = conditional_block(u, "g", "e").matrix @ state.amps
        total = np.sum(np.abs(gg) ** 2) + np.sum(np.abs(eg) ** 2)
        assert abs(total - 1.0) < 1e-10


class TestUpsilonFactors:
    @pytest.mark.parametrize("variant", [GROUND, EXCITED])
    def test_array_rows_equal_scalar_calls(self, variant):
        taus = np.linspace(0.3, 250.0, 7)
        table = upsilon_factors(taus, 12, variant)
        for tau, row in zip(taus, table):
            assert np.array_equal(row, upsilon_factors(float(tau), 12, variant))

    @pytest.mark.parametrize("variant", [GROUND, EXCITED])
    def test_array_shape(self, variant):
        taus = np.arange(6.0).reshape(2, 3)
        assert upsilon_factors(taus, 4, variant).shape == (2, 3, 5)
        assert upsilon_factors(1.5, 4, variant).shape == (5,)

    def test_two_atom_amplitudes_is_product_of_factors(self):
        t1, t2 = 37.79300921, 197.78109842
        expected = upsilon_factors(t1, 2, GROUND) * upsilon_factors(t2, 2, EXCITED)
        assert np.array_equal(two_atom_amplitudes(t1, t2), expected)


class TestApplyUpsilon:
    def test_tau_zero_identity(self, rng):
        state = random_state(rng, 10)
        out = apply_upsilon(state, 0.0, "g")
        assert abs(out.probability - 1.0) < 1e-12
        assert np.max(np.abs(out.state.amps - state.amps)) < 1e-12

    def test_printed_amplitudes_and_probability(self):
        out = apply_upsilon(equal_superposition(), 6.5064, "g")
        raw = out.raw.amps * math.sqrt(3.0)
        assert abs(raw[0] - 1.0) < 1e-12
        assert abs(raw[1] - 0.97519) < 1e-5
        assert abs(raw[2] - (-0.97516)) < 1e-5
        direct = (1.0 + 0.97519**2 + 0.97516**2) / 3.0
        assert abs(out.probability - direct) < 1e-4
        assert abs(out.probability - 0.9673) < 1e-4

    def test_impossible_outcome(self):
        with pytest.raises(ImpossibleOutcomeError):
            apply_upsilon(fock_state(1, 5), math.pi / 2.0, "g")

    def test_matches_conditional_block(self, rng):
        cutoff = 18
        tau = 4.21
        u = joint_evolution(tau, cutoff)
        for variant, inout in (("g", ("g", "g")), ("e", ("e", "e"))):
            block = conditional_block(u, *inout).matrix
            for _ in range(5):
                state = random_state(rng, cutoff)
                out = apply_upsilon(state, tau, variant)
                # top edge of the e-variant block is truncation-corrupted
                keep = cutoff if variant == "e" else cutoff + 1
                assert np.max(np.abs((block @ state.amps)[:keep] - out.raw.amps[:keep])) < 1e-10

    def test_invariants_probability_and_norm(self, rng):
        state = random_state(rng, 25)
        out = apply_upsilon(state, 1.3, "g")
        assert abs(out.probability - out.raw.norm_sq()) < 1e-12
        assert out.state.is_normalized(1e-12)


class TestApplySequence:
    def test_single_step_equals_apply_upsilon(self, rng):
        state = random_state(rng, 12)
        a = apply_upsilon(state, 2.2, "e")
        b = apply_sequence(state, [(2.2, "e")])
        assert np.max(np.abs(a.raw.amps - b.raw.amps)) < 1e-14
        assert abs(a.probability - b.probability) < 1e-14

    def test_two_atom_printed_magnitudes(self):
        steps = [(37.79300921, "g"), (197.78109842, "e")]
        out = apply_sequence(equal_superposition(), steps)
        mags = np.abs(out.raw.amps[:3]) * math.sqrt(3.0)
        assert np.max(np.abs(mags - 0.990321935)) < 1e-8

    def test_two_atom_sign_pattern(self):
        steps = [(37.79300921, "g"), (197.78109842, "e")]
        out = apply_sequence(equal_superposition(), steps)
        signs = np.sign(out.raw.amps[:3].real)
        assert list(signs) == [-1.0, -1.0, 1.0]

    def test_probability_is_product_of_stepwise(self, rng):
        state = random_state(rng, 15)
        steps = [(1.7, "g"), (0.9, "e"), (2.4, "g")]
        total = apply_sequence(state, steps).probability
        prod = 1.0
        cur = state
        for tau, variant in steps:
            out = apply_upsilon(cur, tau, variant)
            prod *= out.probability
            cur = out.state
        assert abs(total - prod) < 1e-12

    def test_empty_steps_rejected(self, rng):
        with pytest.raises(ValueError):
            apply_sequence(random_state(rng, 5), [])


class TestNsGate:
    def test_ns_amplitudes_printed_rows(self):
        rows = [
            (6.5064, 0.97519, -0.97516, 1e-5),
            (37.73742, 0.9992663, -0.9992665, 1e-7),
            (219.918, 0.999979, -0.999978, 1e-6),
        ]
        for tau, a1, a2, tol in rows:
            amp = ns_amplitudes(tau)
            assert amp[0] == 1.0
            assert abs(amp[1] - a1) < tol
            assert abs(amp[2] - a2) < tol

    def test_vacuum_invariant(self):
        rep = ns_gate_check(0.0, [fock_state(0, 4)])
        assert abs(rep["worst_fidelity"] - 1.0) < 1e-12

    def test_single_atom_high_quality(self):
        # from the printed row-3 amplitudes: |1 + A1 - A2|^2 / (3 (1 + A1^2 + A2^2))
        a1, a2 = ns_amplitudes(219.918)[1:]
        expected = (1.0 + a1 - a2) ** 2 / (3.0 * (1.0 + a1**2 + a2**2))
        rep = ns_gate_check(219.918, [equal_superposition()])
        assert abs(rep["worst_fidelity"] - expected) < 1e-12
        assert rep["worst_fidelity"] >= 0.9999

    def test_two_atom_up_to_global_phase(self):
        steps = [(37.79300921, "g"), (197.78109842, "e")]
        rep = ns_gate_check(steps, [equal_superposition()])
        assert rep["worst_fidelity"] >= 0.9999

    def test_ideal_ns_is_involution(self, rng):
        amps = np.zeros(6, dtype=complex)
        amps[:3] = rng.normal(size=3) + 1j * rng.normal(size=3)
        amps /= np.linalg.norm(amps)
        ns = np.ones(6)
        ns[2] = -1.0
        twice = ns * (ns * amps)
        assert np.max(np.abs(twice - amps)) < 1e-15

    def test_rejects_support_above_two(self):
        with pytest.raises(ValueError):
            ns_gate_check(1.0, [fock_state(3, 5)])
