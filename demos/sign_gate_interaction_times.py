"""Single-atom interaction times for the nonlinear sign map.

A two-level atom prepared and detected in its ground state applies
cos(tau sqrt(n)) to each Fock amplitude of the cavity field. On the qubit
subspace {|0>, |1>, |2>} the map is (1, cos tau, cos sqrt(2) tau), so a
good sign gate needs cos(tau) ~ +1 and cos(sqrt(2) tau) ~ -1 at the same
tau. Rational approximations to sqrt(2) tell us where to look.

Run:  python3 demos/sign_gate_interaction_times.py
"""

import math

from nlcavity import (
    RamanParams,
    interaction_time,
    kappa,
    ns_amplitudes,
    ns_tau_candidates,
    sqrt2_convergents,
)

print("convergents p/q of sqrt(2) (odd p / even q rows give a time near pi q):")
for p, q in sqrt2_convergents(500):
    tag = "  <- sign gate" if p % 2 == 1 and q % 2 == 0 else ""
    print(f"  {p:5d}/{q:<5d}  pi*q = {math.pi * q:10.4f}{tag}")

print()
print("closed-form interaction times pi (p + q) / (1 + sqrt(2)) below tau = 250:")
print(f"  {'tau':>12s} {'A1':>12s} {'A2':>12s} {'merit':>12s}")
for sol in ns_tau_candidates(250.0):
    a0, a1, a2 = sol.amplitudes
    print(f"  {sol.taus[0]:12.5f} {a1:12.7f} {a2:12.7f} {sol.merit:12.3e}")

# Translate the dimensionless times into seconds for a concrete Raman setup.
twopi = 2.0 * math.pi
params = RamanParams(g=twopi * 4.5e6, omega=twopi * 30e6, delta=twopi * 40e6)
kap = kappa(params)
print()
print(f"effective coupling kappa = 2pi x {kap / twopi / 1e6:.2f} MHz")
for sol in ns_tau_candidates(250.0):
    tau = sol.taus[0]
    print(f"  tau = {tau:10.4f}  ->  t = {interaction_time(tau, kap) * 1e6:.3f} us")

# Sanity check against a direct evaluation.
_, a1, a2 = ns_amplitudes(6.5064)
print()
print(f"direct check at tau = 6.5064: A1 = {a1:.5f}, A2 = {a2:.5f}")
