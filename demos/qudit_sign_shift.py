"""Sign-shift angles for qudits encoded in the Fock ladder.

The conditional map cos(theta sqrt(n)) can approximate a diagonal
sign-shift gate on levels 0..N. The target pattern flips exactly the
levels n = 2(2m+1)^2 (2, 18, 50, ...), because angles of the form
theta = (2l+1) pi / sqrt(2) act as exactly (-1)^j on n = 2 j^2. The search
returns an angle in the lowest interval that meets the tolerance on every
level. For a qutrit (N = 2) a very accurate angle exists; the required angle
grows quickly with N as more levels must line up simultaneously, and past
the search bound it reports the best angle it can certify instead.

Run:  python3 demos/qudit_sign_shift.py
"""

import math

import numpy as np

from nlcavity import NoThetaFoundError, pattern_error, qudit_theta_search, sign_pattern

# Which levels does the target pattern flip?
flips = np.nonzero(sign_pattern(200).signs == -1.0)[0]
print(f"flipped levels up to n = 200: {list(map(int, flips))}")

# Qutrit: pattern (+, +, -) on n = 0, 1, 2.
pattern = sign_pattern(2)
qutrit_theta, err = qudit_theta_search(pattern, tolerance=0.01)
print()
print(f"qutrit angle theta = {qutrit_theta:.6f} "
      f"= {qutrit_theta * math.sqrt(2) / math.pi:.3f} pi/sqrt(2)")
print(f"worst per-level error {err:.2e}")
for n in range(3):
    print(f"  n={n}: cos(theta sqrt(n)) = {math.cos(qutrit_theta * math.sqrt(n)):+.5f} "
          f"(target {int(pattern.signs[n]):+d})")

# The same tolerance becomes unreachable fast as N grows.
print()
print("lowest angle vs. qudit size (tolerance 0.05):")
for n_max in (2, 3, 5, 8, 12):
    try:
        theta, err = qudit_theta_search(sign_pattern(n_max), tolerance=0.05)
        print(f"  N = {n_max:2d}: theta = {theta:12.3f}  error = {err:.3e}")
    except NoThetaFoundError as exc:
        print(f"  N = {n_max:2d}: none below the bound "
              f"(best error {exc.best_error:.2f} at theta = {exc.best_theta:.1f})")

# Verification helper: worst error is recomputable for any angle.
print()
print(f"recheck qutrit: pattern_error({qutrit_theta:.4f}) = "
      f"{pattern_error(qutrit_theta, sign_pattern(2)):.4f}")
