"""Numerical check that the displaced square-root-number generator expands
into displacement, rotation, squeezing and cubic pieces with a remainder
falling off as the inverse cube of the displacement.

G_exact = D^dag(alpha) sqrt(n) D(alpha). Expanding
sqrt(n + |a| x(phi) + |a|^2) binomially and collecting orders of 1/|alpha|:

    G = |a| + x/2 + n/(2|a|) - x^2/(8|a|)
        - (n x + x n)/(8|a|^2) + x^3/(16|a|^2) + O(|a|^-3)

Note the x^3/(16|a|^2) piece: it enters at the same order as the symmetrized
cross term (from the cube of the binomial variable) and must be kept for the
remainder to actually be third order. Both second-order-in-1/alpha terms are
cubic in the canonical variables.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    FockOperator,
    displacement,
    expm_antihermitian,
    number_op,
    quadrature,
    sqrt_number_phase,
)


class TruncationGuardError(ValueError):
    """Cutoff too small for the displaced-frame photon occupation."""


@dataclass
class GeneratorComparison:
    """Residual between exact and series generators on a low-photon block."""

    alpha: complex
    cutoff: int
    subspace_dim: int
    residual_norm: float


def required_cutoff(alpha: complex) -> int:
    """Displaced low-Fock states occupy up to roughly (|alpha| + few)^2."""
    return math.ceil((abs(alpha) + 6.0) ** 2)


def _check_guard(alpha, cutoff):
    need = required_cutoff(alpha)
    if cutoff < need:
        raise TruncationGuardError(
            f"cutoff {cutoff} below guard {need} for alpha={alpha}"
        )


def displaced_generator(alpha: complex, cutoff: int) -> FockOperator:
    """G_exact = D^dag(alpha) sqrt(n) D(alpha)."""
    _check_guard(alpha, cutoff)
    d = displacement(alpha, cutoff).matrix
    sqrt_n = np.diag(np.sqrt(np.arange(cutoff + 1, dtype=float))).astype(complex)
    return FockOperator(d.conj().T @ sqrt_n @ d, cutoff)


def series_generator(
    alpha: complex, phi: float, cutoff: int, include_cubic: bool = True
) -> FockOperator:
    """Binomial-series generator through second order in 1/|alpha|.

    include_cubic=False drops both 1/|alpha|^2 pieces, leaving the purely
    quadratic (displacement + rotation + squeezing) approximation.
    """
    r = abs(alpha)
    if r <= 0:
        raise ValueError("alpha must be nonzero")
    x = quadrature(phi, cutoff).matrix
    nm = number_op(cutoff).matrix
    g = (
        r * np.eye(cutoff + 1, dtype=complex)
        + x / 2.0
        + nm / (2.0 * r)
        - x @ x / (8.0 * r)
    )
    if include_cubic:
        g = g - (nm @ x + x @ nm) / (8.0 * r * r) + x @ x @ x / (16.0 * r * r)
    return FockOperator(g, cutoff)


def generator_residual(
    alpha: complex,
    subspace_dim: int = 3,
    cutoff: int = None,
    include_cubic: bool = True,
) -> GeneratorComparison:
    """Max-norm of the projected difference between exact and series
    generators on photon numbers n <= subspace_dim."""
    if cutoff is None:
        cutoff = required_cutoff(alpha)
    phi = math.atan2(complex(alpha).imag, complex(alpha).real)
    g_exact = displaced_generator(alpha, cutoff).matrix
    g_series = series_generator(alpha, phi, cutoff, include_cubic).matrix
    k = subspace_dim + 1
    res = float(np.max(np.abs((g_exact - g_series)[:k, :k])))
    return GeneratorComparison(alpha, cutoff, subspace_dim, res)


def residual_scaling(alphas, subspace_dim: int = 3, include_cubic: bool = True):
    """Residuals over an increasing alpha list plus a log-log fitted exponent.

    Returns (comparisons, exponent); exponent is None with fewer than two
    alpha values.
    """
    alphas = list(alphas)
    if any(abs(a) < 4 for a in alphas):
        raise ValueError("alphas must have magnitude >= 4 for the expansion")
    if subspace_dim > 6:
        raise ValueError("subspace_dim must be <= 6")
    comps = [
        generator_residual(a, subspace_dim=subspace_dim, include_cubic=include_cubic)
        for a in alphas
    ]
    if len(comps) < 2:
        return comps, None
    logs_a = np.log([abs(c.alpha) for c in comps])
    logs_r = np.log([c.residual_norm for c in comps])
    exponent = float(np.polyfit(logs_a, logs_r, 1)[0])
    return comps, exponent


def unitary_consistency(
    alpha: complex, theta: float, cutoff: int, subspace_dim: int = 20
) -> float:
    """Max-norm disagreement, on n <= subspace_dim, between exponentiating
    the conjugated generator and conjugating the exponentiated one. An exact
    identity; the returned value measures truncation error only."""
    g = displaced_generator(alpha, cutoff)
    u1 = expm_antihermitian(FockOperator(1j * theta * g.matrix, cutoff)).matrix
    d = displacement(alpha, cutoff).matrix
    u2 = d.conj().T @ sqrt_number_phase(theta, cutoff).matrix @ d
    k = subspace_dim + 1
    return float(np.max(np.abs((u1 - u2)[:k, :k])))


def rotation_covariance_error(
    r: float, phi: float, cutoff: int, subspace_dim: int = 20
) -> float:
    """How far G_exact(r e^{i phi}) is from the rotated phase-zero result;
    diagnostic for the x(phi) dependence entering only through arg(alpha)."""
    g_rot = displaced_generator(r * np.exp(1j * phi), cutoff).matrix
    g0 = displaced_generator(r, cutoff).matrix
    phases = np.exp(1j * phi * np.arange(cutoff + 1))
    conj = (phases[:, None] * g0) * np.conj(phases)[None, :]
    k = subspace_dim + 1
    return float(np.max(np.abs((g_rot - conj)[:k, :k])))
