"""Q-function computation and cat-state diagnostics for conditionally
prepared field states.

Conventions: "paper-unnormalized" evaluates |<beta|psi>|^2 with the state's
amplitudes taken as given (no 1/pi, no renormalization), so peak heights
reflect the success probability of the conditioning. "normalized"
renormalizes the state and includes the 1/pi so the grid integrates to one.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .fock import FockVector, _log_coherent_amps, default_cutoff, fidelity, poisson_weights

CONVENTIONS = ("paper-unnormalized", "normalized")

# cat_diagnostics: spacing of the angles sampled on the circle, and the
# fraction of the circle's maximum Q a local maximum needs to count as a lobe.
ANGULAR_RESOLUTION = 0.005
LOBE_THRESHOLD = 0.05

# coherent_overlap: grid points summed together, and recurrence steps between
# two rescalings of their running terms.
OVERLAP_BLOCK = 2**14
RESCALE_STEPS = 16


@dataclass
class QGrid:
    """Rectangular phase-space grid of Q values; beta = x + i p."""

    x_range: tuple
    p_range: tuple
    resolution: int
    values: np.ndarray
    convention: str

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.resolution, self.resolution):
            raise ValueError("values shape must be (resolution, resolution)")
        if np.any(self.values < 0):
            raise ValueError("Q values must be non-negative")

    def axes(self):
        x = np.linspace(self.x_range[0], self.x_range[1], self.resolution)
        p = np.linspace(self.p_range[0], self.p_range[1], self.resolution)
        return x, p


def coherent_overlap(beta, state: FockVector) -> np.ndarray:
    """<beta|psi> = e^{-|beta|^2/2} sum_n c_n t_n for an array of beta values,
    with t_0 = 1 and t_n = t_{n-1} conj(beta) / sqrt(n).

    The terms are summed as the recurrence makes them, OVERLAP_BLOCK points at
    a time, so memory does not grow with the cutoff. Every RESCALE_STEPS steps,
    and after the last, t and the running sum of each point are divided by the
    power of two of max(|t|, |sum|) (by 1 where both are 0), an exact scaling
    whose exponent the point keeps; e^{-|beta|^2/2} and that exponent are
    applied once at the end. So neither overflows nor underflows for |beta| up
    to about 1e19, far past the |beta|^2 ~ 1490 where e^{-|beta|^2/2} alone
    underflows.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=complex))
    flat = np.conj(beta).ravel()
    out = np.empty_like(flat)
    amps, cutoff = state.amps, state.cutoff
    for start in range(0, flat.size, OVERLAP_BLOCK):
        b = flat[start : start + OVERLAP_BLOCK]
        term = np.ones_like(b)
        total = np.full_like(b, amps[0])
        scratch = np.empty_like(b)
        exponent = np.zeros(b.shape, dtype=int)
        for n in range(1, cutoff + 1):
            term *= b
            term *= 1.0 / math.sqrt(n)
            total += np.multiply(term, amps[n], out=scratch)
            if n % RESCALE_STEPS == 0 or n == cutoff:
                _, e = np.frexp(np.maximum(np.abs(term), np.abs(total)))
                scale = np.ldexp(1.0, -e)
                term *= scale
                total *= scale
                exponent += e
        log_factor = exponent * math.log(2.0) - 0.5 * (b.real**2 + b.imag**2)
        out[start : start + OVERLAP_BLOCK] = total * np.exp(log_factor)
    return out.reshape(beta.shape)


def q_function(
    state_raw: FockVector,
    x_range=(-15.0, 15.0),
    p_range=(-15.0, 15.0),
    resolution=301,
    convention="paper-unnormalized",
) -> QGrid:
    """Q(beta) = |<beta|psi>|^2 over a rectangular grid, row index = p."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    x = np.linspace(x_range[0], x_range[1], resolution)
    p = np.linspace(p_range[0], p_range[1], resolution)
    amps = state_raw.amps
    if convention == "normalized":
        amps = amps / np.linalg.norm(amps)
    betas = x + 1j * p[:, None]
    values = np.abs(coherent_overlap(betas, FockVector(amps, state_raw.cutoff))) ** 2
    if convention == "normalized":
        values /= math.pi
    return QGrid(tuple(x_range), tuple(p_range), resolution, values, convention)


def exact_circle_amplitude(alpha, theta, phi, cutoff=None):
    """A(phi) = sum_n p_n(alpha) e^{i(theta sqrt(n) - phi n)} on |beta|=|alpha|.

    Partial sum up to the cutoff (default: mean + 8 sigma of the photon
    distribution). phi may be an array.
    """
    if cutoff is None:
        cutoff = default_cutoff(alpha)
    n = np.arange(cutoff + 1)
    w = poisson_weights(alpha, cutoff) * np.exp(1j * theta * np.sqrt(n))
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    vals = np.exp(-1j * np.outer(phi_arr, n)) @ w
    return vals if np.ndim(phi) else complex(vals[0])


def gaussian_amplitude(alpha, theta, phi):
    """Stationary-phase closed form of the circle amplitude for one branch
    e^{+i theta sqrt(n)}.

    With n = |alpha|^2 + x, the Poisson envelope -x^2 / (2|alpha|^2) and the
    phase curvature -theta x^2 / (8|alpha|^3) of theta sqrt(n) are both kept
    to second order, and the Gaussian integral over x gives

        A_G(phi) = e^{i(theta |alpha| - phi |alpha|^2)} c^{-1/2}
                   exp[-(theta - 2|alpha| phi)^2 / (8c)],
        c = 1 + i theta / (4|alpha|).

    |A_G| peaks at phi = theta / (2|alpha|) with height
    (1 + (theta / 4|alpha|)^2)^{-1/4}. At fixed theta / |alpha| the error
    against the exact sum falls like 1/|alpha|; the caller owns the regime
    |alpha| >> 1."""
    r = abs(alpha)
    c = 1.0 + 1j * theta / (4.0 * r)
    phi = np.asarray(phi, dtype=float)
    val = (
        np.exp(1j * (theta * r - phi * r * r))
        / np.sqrt(c)
        * np.exp(-((theta - 2.0 * r * phi) ** 2) / (8.0 * c))
    )
    return val if val.ndim else complex(val)


def circle_q_values(state: FockVector, radius: float, phis: np.ndarray) -> np.ndarray:
    """Q restricted to the circle |beta| = radius (unnormalized convention)."""
    betas = radius * np.exp(1j * phis)
    return np.abs(coherent_overlap(betas, state)) ** 2


def cat_vector(gamma: complex, xi: float, cutoff: int) -> FockVector:
    """Normalized (|gamma> + e^{i xi} |-gamma>) on the truncated space."""
    plus, minus = np.exp(_log_coherent_amps([gamma, -gamma], cutoff))
    amps = plus + np.exp(1j * xi) * minus
    return FockVector(amps / np.linalg.norm(amps), cutoff)


def _best_cat_fit(state: FockVector, gamma0: complex):
    """Scan xi, then polish (Re gamma, Im gamma, xi) with Nelder-Mead."""
    target = state.normalized()

    def fid(params):
        gamma = complex(params[0], params[1])
        if abs(gamma) < 1e-6:
            return 0.0
        return fidelity(target, cat_vector(gamma, params[2], state.cutoff))

    best = None
    for xi in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        f = fid([gamma0.real, gamma0.imag, xi])
        if best is None or f > best[1]:
            best = ([gamma0.real, gamma0.imag, xi], f)
    res = minimize(
        lambda p: -fid(p),
        x0=np.array(best[0]),
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 2000},
    )
    # Nelder-Mead keeps x0 as a vertex and returns its best vertex, so the
    # fit is never worse than the scan.
    return complex(res.x[0], res.x[1]), float(res.x[2] % (2 * math.pi)), float(-res.fun)


def cat_diagnostics(state: FockVector, alpha: complex):
    """Locate the lobes of the conditional state on the circle |beta| = |alpha|
    and fit the best coherent-superposition (cat) approximation.

    Lobes are local maxima of the circle-restricted Q above LOBE_THRESHOLD
    of the global maximum. Returns a dict with lobe_angles (sorted),
    lobe_separation (phase-space distance between the two dominant lobes),
    best_cat_fidelity, and a degenerate flag when fewer than two lobes exist.
    """
    radius = abs(alpha)
    n_phi = max(16, int(math.ceil(2.0 * math.pi / ANGULAR_RESOLUTION)))
    phis = -math.pi + 2.0 * math.pi * np.arange(n_phi) / n_phi
    q = circle_q_values(state, radius, phis)
    qmax = float(q.max())
    if qmax == 0.0:
        raise ValueError("state has no support on the circle |beta| = |alpha|")
    is_max = (q > np.roll(q, 1)) & (q >= np.roll(q, -1)) & (q >= LOBE_THRESHOLD * qmax)
    lobe_idx = np.nonzero(is_max)[0]
    # Rank by Q relative to the maximum, to 12 decimals: lobes equal up to
    # rounding (mirror images, for a real state) keep their angle order
    # instead of an order set by the last bits of the overlap sum.
    lobes = sorted(
        ((float(phis[i]), float(q[i])) for i in lobe_idx),
        key=lambda t: -round(t[1] / qmax, 12),
    )

    result = {
        "lobe_angles": sorted(ang for ang, _ in lobes),
        "lobe_q_values": [qv for _, qv in sorted(lobes)],
        "degenerate": len(lobes) < 2,
        "lobe_separation": None,
        "best_cat_fidelity": None,
    }
    if len(lobes) >= 2:
        b1 = radius * np.exp(1j * lobes[0][0])
        b2 = radius * np.exp(1j * lobes[1][0])
        result["lobe_separation"] = float(abs(b1 - b2))
        gamma, xi, fid = _best_cat_fit(state, b1)
        result["best_cat_fidelity"] = fid
        result["cat_gamma"] = gamma
        result["cat_xi"] = xi
    elif lobes:
        result["single_lobe_angle"] = lobes[0][0]
    return result
