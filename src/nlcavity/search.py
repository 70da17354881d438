"""Interaction-time searches for the conditional nonlinear sign map and the
qudit sign-shift angle.

The single-atom solutions want cos(tau) ~ +1 and cos(sqrt(2) tau) ~ -1
simultaneously, i.e. sqrt(2) ~ odd/even as a rational. Each continued-fraction
convergent of sqrt(2) with odd numerator and even denominator (3/2, 17/12,
99/70, ...) gives one time in closed form, where the two errors are equal.
The two-atom search is a coarse grid plus Nelder-Mead polish.

The qudit sign-shift angle needs no optimizer: an exact sieve over the arcs
where each level meets the tolerance gives the lowest feasible interval
below the angle bound, or certifies there is none.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import atomfield

# Ideal single-mode nonlinear-sign amplitudes on n = 0, 1, 2.
NS_TARGET = np.array([1.0, 1.0, -1.0])

# Two-atom search: number of grid seeds polished, and the smallest |B_n|
# accepted (equal-but-tiny amplitude triples occur densely and give useless
# success probability).
MAX_SEEDS = 8
MIN_MAGNITUDE = 0.5

# Halvings of the tolerance when the qudit angle search reports its best
# angle on exhaustion.
BISECTIONS = 30


class NoThetaFoundError(RuntimeError):
    """Sign-shift angle search exhausted its bound."""

    def __init__(self, message, best_theta, best_error):
        super().__init__(message)
        self.best_theta = best_theta
        self.best_error = best_error


@dataclass
class TauSolution:
    """One search result: interaction time(s), the amplitudes they produce,
    and the Chebyshev merit against the target pattern."""

    taus: list
    amplitudes: tuple
    merit: float
    target: tuple


@dataclass
class SignPattern:
    """Per-level signs s_n in {+1, -1} for n = 0..cutoff."""

    cutoff: int
    signs: np.ndarray = field(default=None)

    def __post_init__(self):
        self.signs = np.asarray(self.signs, dtype=float)
        if self.signs.shape != (self.cutoff + 1,):
            raise ValueError("signs length must be cutoff + 1")
        if not np.all(np.abs(self.signs) == 1.0):
            raise ValueError("signs must be +1 or -1")


def sign_pattern(cutoff: int) -> SignPattern:
    """Flip exactly the levels n = 2(2m+1)^2: 2, 18, 50, 98, ..."""
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    signs = np.ones(cutoff + 1)
    m = 0
    while True:
        n = 2 * (2 * m + 1) ** 2
        if n > cutoff:
            break
        signs[n] = -1.0
        m += 1
    return SignPattern(cutoff, signs)


def sqrt2_convergents(q_max: int):
    """Continued-fraction convergents p/q of sqrt(2) with q <= q_max."""
    p_prev, q_prev = 1, 1
    p_cur, q_cur = 3, 2
    out = [(p_prev, q_prev)]
    while q_cur <= q_max:
        out.append((p_cur, q_cur))
        p_cur, p_prev = 2 * p_cur + p_prev, p_cur
        q_cur, q_prev = 2 * q_cur + q_prev, q_cur
    return out


def ns_merit(tau: float) -> float:
    """Chebyshev distance of (A1, A2) from the ideal (1, -1)."""
    _, a1, a2 = atomfield.ns_amplitudes(tau)
    return max(abs(1.0 - a1), abs(1.0 + a2))


def ns_tau_candidates(max_tau: float):
    """Single-atom interaction times realizing the nonlinear sign map.

    At every convergent p/q of sqrt(2) with odd p and even q, cos(tau) ~ +1
    near pi q and cos(sqrt(2) tau) ~ -1 near pi p / sqrt(2). Between the two
    lies tau = pi (p + q) / (1 + sqrt(2)), where cos(tau) + cos(sqrt(2) tau)
    = 0, so |1 - A1| = |1 + A2|: the exact minimum of the Chebyshev merit.
    Solutions with tau <= max_tau are returned sorted by merit.
    """
    sols = []
    for p, q in sqrt2_convergents(int(max_tau / math.pi) + 2):
        if p % 2 == 0 or q % 2 == 1:
            continue
        tau = math.pi * (p + q) / (1.0 + math.sqrt(2.0))
        if tau > max_tau:
            continue
        sols.append(
            TauSolution(
                taus=[tau],
                amplitudes=atomfield.ns_amplitudes(tau),
                merit=ns_merit(tau),
                target=tuple(NS_TARGET),
            )
        )
    sols.sort(key=lambda s: (s.merit, s.taus))
    return sols


def two_atom_amplitudes(tau1: float, tau2: float) -> np.ndarray:
    """B_n = cos(tau1 sqrt(n)) cos(tau2 sqrt(n+1)) for n = 0, 1, 2."""
    ground = atomfield.upsilon_factors(tau1, 2, atomfield.GROUND)
    return ground * atomfield.upsilon_factors(tau2, 2, atomfield.EXCITED)


def _two_atom_polish_objective(taus) -> float:
    """Spread max|B_n| - min|B_n|, plus 1 for each broken requirement: the
    sign pattern and min|B_n| >= MIN_MAGNITUDE."""
    b = two_atom_amplitudes(taus[0], taus[1])
    mags = np.abs(b)
    penalty = 0.0
    s = np.sign(b)
    if not (s[0] == s[1] and s[2] == -s[0]):  # NS pattern up to global phase
        penalty += 1.0
    if mags.min() < MIN_MAGNITUDE:
        penalty += 1.0
    return float(mags.max() - mags.min()) + penalty


def two_atom_search(
    tau1_range=(1.0, 60.0),
    tau2_range=(1.0, 250.0),
    target_merit=1e-6,
    step=0.05,
):
    """Find (tau1, tau2) whose combined amplitudes have equal magnitudes and
    the nonlinear-sign pattern up to a global sign.

    A vectorized coarse grid ranks points by Chebyshev distance to the ideal
    +-(1, 1, -1); the best well-separated grid points are polished with
    Nelder-Mead on the equal-magnitude spread. Solutions with spread <=
    target_merit and every |B_n| >= MIN_MAGNITUDE are returned sorted by
    merit, the Chebyshev distance to the signed target.
    """
    if tau1_range[0] <= 0 or tau2_range[0] <= 0:
        raise ValueError("tau ranges must be positive")
    if not 0.0 < target_merit < 1.0:
        raise ValueError("target_merit must be in (0, 1)")
    t1 = np.arange(tau1_range[0], tau1_range[1] + step / 2.0, step)
    t2 = np.arange(tau2_range[0], tau2_range[1] + step / 2.0, step)
    c1 = atomfield.upsilon_factors(t1, 2, atomfield.GROUND).T  # (3, n1)
    c2 = atomfield.upsilon_factors(t2, 2, atomfield.EXCITED).T  # (3, n2)

    d_plus = np.zeros((t1.size, t2.size))
    d_minus = np.zeros((t1.size, t2.size))
    for k in range(3):
        bk = np.multiply.outer(c1[k], c2[k])
        np.maximum(d_plus, np.abs(bk - NS_TARGET[k]), out=d_plus)
        np.maximum(d_minus, np.abs(bk + NS_TARGET[k]), out=d_minus)
    dist = np.minimum(d_plus, d_minus)

    order = np.argsort(dist, axis=None, kind="stable")
    seeds = []
    for flat in order[:4000]:
        i, j = np.unravel_index(flat, dist.shape)
        cand = (float(t1[i]), float(t2[j]))
        if any(abs(cand[0] - s[0]) < 1.0 and abs(cand[1] - s[1]) < 1.0 for s in seeds):
            continue
        seeds.append(cand)
        if len(seeds) >= MAX_SEEDS:
            break

    sols = []
    for seed in seeds:
        res = minimize(
            _two_atom_polish_objective,
            x0=np.array(seed),
            method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-14, "maxiter": 4000},
        )
        taus = [float(res.x[0]), float(res.x[1])]
        if _two_atom_polish_objective(taus) > _two_atom_polish_objective(seed):
            taus = list(seed)
        # target_merit < 1, so this also rejects every penalized point.
        if _two_atom_polish_objective(taus) > target_merit:
            continue
        # Polishing is unconstrained; keep only optima inside the window.
        if not (tau1_range[0] <= taus[0] <= tau1_range[1]):
            continue
        if not (tau2_range[0] <= taus[1] <= tau2_range[1]):
            continue
        b = two_atom_amplitudes(taus[0], taus[1])
        target = np.sign(b[0]) * NS_TARGET
        sols.append(
            TauSolution(
                taus=taus,
                amplitudes=tuple(float(v) for v in b),
                merit=float(np.max(np.abs(b - target))),
                target=tuple(target),
            )
        )

    # Deterministic order and dedup of coincident optima.
    sols.sort(key=lambda sol: (sol.merit, sol.taus))
    unique = []
    for sol in sols:
        if any(
            abs(sol.taus[0] - u.taus[0]) < 1e-6 and abs(sol.taus[1] - u.taus[1]) < 1e-6
            for u in unique
        ):
            continue
        unique.append(sol)
    return unique


def pattern_error(theta: float, pattern: SignPattern) -> float:
    """max_n |cos(theta sqrt(n)) - s_n| over the pattern's levels."""
    factors = atomfield.upsilon_factors(theta, pattern.cutoff, atomfield.GROUND)
    return float(np.max(np.abs(factors - pattern.signs)))


def _lowest_midpoint(pattern: SignPattern, tolerance: float, theta_bound: float):
    """Midpoint of the lowest interval of angles in (0, theta_bound] on which
    every level meets |cos(theta sqrt(n)) - s_n| <= tolerance; None if there
    is none.

    At level n that set is the union of arcs theta sqrt(n) in
    [c_n + 2 pi k - a, c_n + 2 pi k + a], a = acos(1 - tolerance), c_n = 0
    for s_n = +1 and pi for s_n = -1. The sieve intersects the surviving
    intervals with the arcs of one level after another; intervals stay
    sorted, so the first survivor is the lowest."""
    half = math.acos(1.0 - tolerance)
    lo, hi = np.array([0.0]), np.array([float(theta_bound)])
    for n in range(1, pattern.cutoff + 1):
        root = math.sqrt(n)
        centre = 0.0 if pattern.signs[n] > 0 else math.pi
        # Arcs k_first .. k_first + count - 1 overlap each interval.
        k_first = np.ceil((lo * root - centre - half) / (2.0 * math.pi))
        k_last = np.floor((hi * root - centre + half) / (2.0 * math.pi))
        count = np.maximum(k_last - k_first + 1.0, 0.0).astype(np.int64)
        parent = np.repeat(np.arange(lo.size), count)
        offset = np.arange(parent.size) - np.repeat(np.cumsum(count) - count, count)
        arc = centre + 2.0 * math.pi * (k_first[parent] + offset)
        lo = np.maximum(lo[parent], (arc - half) / root)
        hi = np.minimum(hi[parent], (arc + half) / root)
        keep = lo <= hi
        lo, hi = lo[keep], hi[keep]
        if not lo.size:
            return None
    return 0.5 * float(lo[0] + hi[0])


def qudit_theta_search(pattern: SignPattern, tolerance: float, theta_bound: float = 2.0e5):
    """An angle theta with cos(theta sqrt(n)) matching the sign pattern to
    within `tolerance` for every n up to the pattern cutoff, and its error.

    theta is the midpoint of the lowest interval of (0, theta_bound] on
    which every level meets the tolerance (see _lowest_midpoint), so no lower
    interval of angles meets it. If no angle below theta_bound does, raises
    NoThetaFoundError, a certificate of that: its best_theta is the
    midpoint of the lowest interval at the smallest tolerance the pattern
    can meet below theta_bound, bisected on (tolerance, 2], and best_error
    is the error there.
    """
    if not 0.0 < tolerance < 0.5:
        raise ValueError("tolerance must be in (0, 0.5)")
    if np.all(pattern.signs == 1.0):
        return 0.0, 0.0

    theta = _lowest_midpoint(pattern, tolerance, theta_bound)
    if theta is not None:
        return theta, pattern_error(theta, pattern)

    # Every angle meets tolerance 2; bisect down to the smallest one met.
    low, high = tolerance, 2.0
    for _ in range(BISECTIONS):
        mid = 0.5 * (low + high)
        if _lowest_midpoint(pattern, mid, theta_bound) is None:
            low = mid
        else:
            high = mid
    best_theta = _lowest_midpoint(pattern, high, theta_bound)
    best_err = pattern_error(best_theta, pattern)
    raise NoThetaFoundError(
        f"no theta within bound {theta_bound} meets tolerance {tolerance}; "
        f"best was theta={best_theta} with error {best_err:.3e}",
        best_theta=best_theta,
        best_error=best_err,
    )
