"""Interaction-time searches for the conditional nonlinear sign map and the
qudit sign-shift angle.

The single-atom solutions want cos(tau) ~ +1 and cos(sqrt(2) tau) ~ -1
simultaneously, i.e. sqrt(2) ~ odd/even as a rational. Continued-fraction
convergents of sqrt(2) with odd numerator and even denominator (3/2, 17/12,
99/70, ...) therefore seed the search directly; a bounded 1D polish finishes
the job. The two-atom search is a coarse grid plus Nelder-Mead polish.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from . import atomfield

SQRT2 = math.sqrt(2.0)

# Ideal single-mode nonlinear-sign amplitudes on n = 0, 1, 2.
NS_TARGET = np.array([1.0, 1.0, -1.0])

# Two-atom search: number of grid seeds polished, and the smallest |B_n|
# accepted (equal-but-tiny amplitude triples occur densely and give useless
# success probability).
MAX_SEEDS = 8
MIN_MAGNITUDE = 0.5

# Step of the qudit angle search's dense fallback scan.
FALLBACK_STEP = 1e-3


class NoThetaFoundError(RuntimeError):
    """Sign-shift angle search exhausted its bound."""

    def __init__(self, message, best_theta=None, best_error=None):
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

    Seeds tau = pi * q at every convergent p/q of sqrt(2) with odd p and
    even q (there cos(tau) ~ +1 and cos(sqrt(2) tau) ~ -1), then refines
    each seed with a bounded scalar minimization of the merit. Solutions
    with tau <= max_tau are returned sorted by merit.
    """
    sols = []
    for p, q in sqrt2_convergents(int(max_tau / math.pi) + 2):
        if p % 2 == 0 or q % 2 == 1:
            continue
        seed = math.pi * q
        if seed > max_tau + 1.5:
            continue
        res = minimize_scalar(
            ns_merit,
            bounds=(seed - 1.5, seed + 1.5),
            method="bounded",
            options={"xatol": 1e-12},
        )
        tau = float(res.x)
        if ns_merit(tau) > ns_merit(seed):  # refinement must never lose
            tau = seed
        if tau <= 0 or tau > max_tau:
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


def qudit_theta_search(
    pattern: SignPattern,
    tolerance: float,
    theta_bound: float = 2.0e5,
    fallback_bound: float = 2000.0,
):
    """An angle theta with cos(theta sqrt(n)) matching the sign pattern to
    within `tolerance` for every n up to the pattern cutoff.

    Returns the first member of the family theta_l = (2l+1) pi / sqrt(2),
    l = 0, 1, ..., under theta_bound that meets the tolerance: the family
    pins cos(theta sqrt(2 j^2)) to exactly (-1)^j for all j, matching the
    flip set n = 2(2m+1)^2. If none does, it returns the first hit of a
    dense scan below min(theta_bound, fallback_bound), locally refined.
    Neither is guaranteed to be the smallest such angle: at n_max = 2 and
    tolerance 0.05 it returns 37.7645, while theta ~ 6.4398 already meets
    the tolerance. Raises NoThetaFoundError when both searches fail.
    """
    if not 0.0 < tolerance < 0.5:
        raise ValueError("tolerance must be in (0, 0.5)")
    if np.all(pattern.signs == 1.0):
        return 0.0, 0.0

    best_theta, best_err = None, np.inf
    l = 0
    while True:
        theta = (2 * l + 1) * math.pi / SQRT2
        if theta > theta_bound:
            break
        err = pattern_error(theta, pattern)
        if err < best_err:
            best_theta, best_err = theta, err
        if err <= tolerance:
            return theta, err
        l += 1

    # Dense fallback scan, then polish the best bracket found.
    thetas = np.arange(FALLBACK_STEP, min(theta_bound, fallback_bound), FALLBACK_STEP)
    for chunk in np.array_split(thetas, max(1, thetas.size // 20000)):
        factors = atomfield.upsilon_factors(chunk, pattern.cutoff, atomfield.GROUND)
        errs = np.max(np.abs(factors - pattern.signs), axis=1)
        k = int(np.argmin(errs))
        if errs[k] < best_err:
            best_theta, best_err = float(chunk[k]), float(errs[k])
        hits = np.nonzero(errs <= tolerance)[0]
        if hits.size:
            theta0 = float(chunk[hits[0]])
            res = minimize_scalar(
                lambda t: pattern_error(t, pattern),
                bounds=(theta0 - FALLBACK_STEP, theta0 + FALLBACK_STEP),
                method="bounded",
                options={"xatol": 1e-12},
            )
            theta = float(res.x)
            err = pattern_error(theta, pattern)
            if err > errs[hits[0]]:
                theta, err = theta0, float(errs[hits[0]])
            return theta, err

    raise NoThetaFoundError(
        f"no theta within bound {theta_bound} meets tolerance {tolerance}; "
        f"best was theta={best_theta} with error {best_err:.3e}",
        best_theta=best_theta,
        best_error=best_err,
    )
