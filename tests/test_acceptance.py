"""End-to-end acceptance checks, one per headline capability.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
all) and then asserts. Tolerances are fixed reference values. Criterion 6
compares the exact circle amplitude with the Gaussian closed form, which
keeps the phase-curvature factor (1 + i theta / 4|alpha|)^(-1/2); see the
README.
"""

import math
import warnings
from pathlib import Path

import numpy as np

from nlcavity import (
    FockOperator,
    FockVector,
    RamanParams,
    apply_upsilon,
    cat_diagnostics,
    coherent_state,
    conditional_block,
    exact_circle_amplitude,
    expm_antihermitian,
    fidelity,
    gaussian_amplitude,
    interaction_time,
    joint_evolution,
    kappa,
    ns_amplitudes,
    ns_merit,
    ns_tau_candidates,
    pattern_error,
    qudit_theta_search,
    residual_scaling,
    sign_pattern,
    two_atom_amplitudes,
)
from nlcavity.cli import main as cli_main

from conftest import SEED

TABLE_ROWS = [
    (6.5064, 0.97519, -0.97516, 1e-5),
    (37.73742, 0.9992663, -0.9992665, 1e-7),
    (219.918, 0.999979, -0.999978, 1e-6),
]
TWO_ATOM_POINT = (37.79300921, 197.78109842)
TWO_ATOM_MAGNITUDE = 0.990321935


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d}: {status} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_single_atom_amplitudes():
    worst = 0.0
    ok = True
    for tau, a1_ref, a2_ref, tol in TABLE_ROWS:
        _, a1, a2 = ns_amplitudes(tau)
        err = max(abs(a1 - a1_ref), abs(a2 - a2_ref))
        worst = max(worst, err)
        ok = ok and err <= tol
    report(1, ok, f"three reference interaction times, worst amplitude error {worst:.2e}")


def test_criterion_02_search_recovers_all_rows():
    sols = ns_tau_candidates(250.0)
    ok = True
    for tau_ref, _, _, _ in TABLE_ROWS:
        hits = [s for s in sols if abs(s.taus[0] - tau_ref) < 1e-2]
        ok = ok and bool(hits) and hits[0].merit <= ns_merit(tau_ref) + 1e-6
    report(2, ok, f"search below tau=250 returned {len(sols)} solutions covering all 3 rows")


def test_criterion_03_two_atom_point():
    b = two_atom_amplitudes(*TWO_ATOM_POINT)
    mags = np.abs(b)
    mag_err = float(np.max(np.abs(mags - TWO_ATOM_MAGNITUDE)))
    s = np.sign(np.real(b * np.conj(b[0])))  # signs relative to B0
    ok = mag_err <= 1e-4 and s[1] == 1.0 and s[2] == -1.0
    report(3, ok, f"equal magnitudes to {mag_err:.2e}, relative signs (+,+,-)")


def test_criterion_04_conditional_operator_oracle():
    cutoff, keep = 30, 15
    n = np.arange(keep + 1)
    worst = 0.0
    for tau in np.linspace(0.0, 250.0, 20):
        u = joint_evolution(tau, cutoff)
        gg = np.diag(conditional_block(u, "g", "g").matrix)[: keep + 1]
        ee = np.diag(conditional_block(u, "e", "e").matrix)[: keep + 1]
        worst = max(worst, float(np.max(np.abs(gg - np.cos(tau * np.sqrt(n))))))
        worst = max(worst, float(np.max(np.abs(ee - np.cos(tau * np.sqrt(n + 1))))))
    report(4, worst <= 1e-9, f"measured blocks vs cos(tau sqrt(n)) oracle, max dev {worst:.2e}")


def test_criterion_05_cat_lobes():
    cutoff = 220
    base = coherent_state(10.0, cutoff)
    ok = True
    details = []
    for theta, expected in ((10.0 * math.pi, math.pi / 2), (5.0 * math.pi, math.pi / 4)):
        amps = base.amps * np.cos(theta * np.sqrt(np.arange(cutoff + 1)))
        diag = cat_diagnostics(FockVector(amps, cutoff), 10.0)
        angles = diag["lobe_angles"]
        two = len(angles) == 2
        close = two and abs(angles[0] + expected) < 0.05 and abs(angles[1] - expected) < 0.05
        ok = ok and two and close
        details.append(f"theta={theta / math.pi:g}pi -> {len(angles)} lobes")
    report(5, ok, "; ".join(details) + " at the expected +/- angles")


def test_criterion_06_gaussian_approximation():
    worst_angle = 0.0
    worst_peak = 0.0
    ok = True
    for r in (8.0, 10.0, 12.0):
        theta = r * math.pi
        phis = np.linspace(0.0, math.pi, 40001)
        mags = np.abs(exact_circle_amplitude(r, theta, phis))
        ref = np.abs(gaussian_amplitude(r, theta, phis))
        k = int(np.argmax(mags))
        k_ref = int(np.argmax(ref))
        angle_err = abs(phis[k] - phis[k_ref])
        peak_rel = abs(mags[k] / ref[k_ref] - 1.0)
        worst_angle = max(worst_angle, angle_err * r / 0.5)
        worst_peak = max(worst_peak, peak_rel)
        ok = ok and angle_err <= 0.5 / r and peak_rel <= 0.05
    report(
        6,
        ok,
        f"argmax within bound (worst {worst_angle:.2f}x), "
        f"peak-magnitude discrepancy {worst_peak:.1%} (limit 5%)",
    )


def test_criterion_07_generator_residual_scaling():
    alphas = [4.0, 6.0, 8.0, 12.0, 16.0]
    _, exponent = residual_scaling(alphas, subspace_dim=3, include_cubic=True)
    _, exponent_nc = residual_scaling(alphas, subspace_dim=3, include_cubic=False)
    ok = -3.5 <= exponent <= -2.5 and exponent_nc > -2.5
    report(
        7,
        ok,
        f"fitted exponent {exponent:.2f} in [-3.5, -2.5]; "
        f"without the cubic term it rises to {exponent_nc:.2f}",
    )


def test_criterion_08_qudit_angle_and_flip_levels():
    theta, err = qudit_theta_search(sign_pattern(2), 0.01)
    verified = pattern_error(theta, sign_pattern(2))
    flips = [int(n) for n in np.nonzero(sign_pattern(200).signs == -1.0)[0]]
    ok = err <= 0.01 and verified <= 0.01 and flips == [2, 18, 50, 98, 162]
    report(8, ok, f"qutrit theta={theta:.4f} with error {err:.2e}; flip levels {flips}")


def test_criterion_09_lab_parameters():
    twopi = 2.0 * math.pi
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = RamanParams(g=twopi * 4.5e6, omega=twopi * 30e6, delta=twopi * 6e6)
    kap = kappa(params)
    rel = abs(kap - twopi * 11.25e6) / (twopi * 11.25e6)
    t_short = interaction_time(6.5064, kap)
    t_long = interaction_time(219.918, kap)
    ok = rel <= 1e-9 and 0.08e-6 <= t_short <= 0.12e-6 and 2.8e-6 <= t_long <= 3.4e-6
    report(
        9,
        ok,
        f"kappa = 2pi x {kap / twopi / 1e6:.4f} MHz; "
        f"t = {t_short * 1e6:.3f} us and {t_long * 1e6:.2f} us",
    )


def test_criterion_10_property_bundle(tmp_path):
    rng = np.random.default_rng(SEED)
    checks = []

    # Unitarity of the anti-Hermitian exponential on random generators.
    for _ in range(3):
        a = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
        k = a - a.conj().T
        u = expm_antihermitian(FockOperator(k, 24)).matrix
        checks.append(float(np.max(np.abs(u.conj().T @ u - np.eye(25)))) <= 1e-12)

    # Coherent-state normalization and self-fidelity.
    c = coherent_state(4.0 + 1.0j, 120)
    checks.append(c.is_normalized())
    checks.append(abs(fidelity(c, c) - 1.0) <= 1e-12)

    # Outcome probabilities of one conditional step sum to one.
    for _ in range(3):
        amps = np.zeros(30, dtype=complex)
        amps[:20] = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        state = FockVector(amps, 29).normalized()
        tau = float(rng.uniform(0.0, 50.0))
        u = joint_evolution(tau, 29)
        total = sum(
            conditional_block(u, "g", out).apply(state).norm_sq() for out in ("g", "e")
        )
        checks.append(abs(total - 1.0) <= 1e-12)

        # Conditional map agrees with the measured block of the joint unitary.
        block = conditional_block(u, "g", "g")
        direct = apply_upsilon(state, tau, "g").raw.amps
        checks.append(float(np.max(np.abs(block.apply(state).amps - direct))) <= 1e-12)

    # Byte-identical reruns of the search command.
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["ns-search", "--max-tau", "250", "--out", str(out)]) == 0
        outs.append((out / "table1.csv").read_bytes())
    checks.append(outs[0] == outs[1])

    report(10, all(checks), f"{len(checks)} randomized/property checks (seed {SEED})")
