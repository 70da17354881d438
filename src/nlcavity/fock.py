"""Truncated Fock-space linear algebra: states, ladder operators, coherent
states, displacements and matrix exponentials.

Everything is dense numpy; at desk scale (cutoff up to a few hundred) sparsity
buys nothing. Coherent amplitudes and overlaps are always assembled in
log-space so large photon numbers never touch an explicit factorial.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

# A vector counts as normalized when sum |c_n|^2 is within this of 1.
NORM_TOL = 1e-9

# coherent_state refuses to truncate harder than this.
LEAKAGE_LIMIT = 1e-6


class CutoffTooSmallError(ValueError):
    """Truncation leaks more probability than the caller may ignore."""


class NotAntiHermitianError(ValueError):
    """expm_antihermitian got a matrix with K + K^dag visibly nonzero."""


@dataclass
class FockVector:
    """Complex amplitudes c_0..c_N over number states, cutoff N."""

    amps: np.ndarray
    cutoff: int

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.shape != (self.cutoff + 1,):
            raise ValueError(
                f"amps has shape {self.amps.shape}, expected ({self.cutoff + 1},)"
            )

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol

    def normalized(self) -> "FockVector":
        n = math.sqrt(self.norm_sq())
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.amps / n, self.cutoff)

    def number_distribution(self) -> np.ndarray:
        return np.abs(self.amps) ** 2 / self.norm_sq()

    def mean_photon_number(self) -> float:
        dist = self.number_distribution()
        return float(np.sum(np.arange(self.cutoff + 1) * dist))


@dataclass
class FockOperator:
    """Dense complex (N+1)x(N+1) matrix on the truncated Fock space."""

    matrix: np.ndarray
    cutoff: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = self.cutoff + 1
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix has shape {self.matrix.shape}, expected ({dim}, {dim})"
            )

    def dag(self) -> "FockOperator":
        return FockOperator(self.matrix.conj().T, self.cutoff)

    def apply(self, vec: FockVector) -> FockVector:
        if vec.cutoff != self.cutoff:
            raise ValueError("cutoff mismatch between operator and vector")
        return FockVector(self.matrix @ vec.amps, self.cutoff)


def fock_state(n: int, cutoff: int) -> FockVector:
    if not 0 <= n <= cutoff:
        raise ValueError(f"Fock index {n} outside [0, {cutoff}]")
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[n] = 1.0
    return FockVector(amps, cutoff)


def annihilation(cutoff: int) -> FockOperator:
    """a with <m|a|n> = sqrt(n) delta_{m,n-1}."""
    m = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for n in range(1, cutoff + 1):
        m[n - 1, n] = math.sqrt(n)
    return FockOperator(m, cutoff)


def creation(cutoff: int) -> FockOperator:
    return annihilation(cutoff).dag()


def number_op(cutoff: int) -> FockOperator:
    return FockOperator(np.diag(np.arange(cutoff + 1, dtype=complex)), cutoff)


def quadrature(phi: float, cutoff: int) -> FockOperator:
    """x(phi) = a e^{-i phi} + a^dag e^{i phi}."""
    a = annihilation(cutoff).matrix
    return FockOperator(a * np.exp(-1j * phi) + a.conj().T * np.exp(1j * phi), cutoff)


def default_cutoff(alpha: complex) -> int:
    """Mean photon number plus eight Poisson standard deviations, padded."""
    r = abs(alpha)
    return math.ceil(r * r + 8.0 * r + 20.0)


def _log_coherent_amps(alpha, cutoff: int) -> np.ndarray:
    """log <n|alpha> = -|a|^2/2 + n log(a) - log(n!)/2 for n = 0..cutoff.

    alpha may be an array; the result has shape alpha.shape + (cutoff+1,).
    Where alpha == 0 the n > 0 entries have real part -inf, so their
    exponentials are exactly 0.
    """
    alpha = np.asarray(alpha, dtype=complex)[..., None]
    n = np.arange(cutoff + 1)
    log_vacuum = -np.abs(alpha) ** 2 / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = log_vacuum + n * np.log(alpha) - 0.5 * gammaln(n + 1)
    out[..., :1] = log_vacuum  # 0 * log(0) is nan; <0|alpha> needs no log
    return out


def poisson_weights(alpha: complex, cutoff: int) -> np.ndarray:
    """p_n = e^{-|alpha|^2} |alpha|^{2n} / n!  (photon statistics of |alpha>)."""
    return np.exp(2.0 * _log_coherent_amps(alpha, cutoff).real)


def coherent_leakage(alpha: complex, cutoff: int) -> float:
    """Probability weight lost to truncation, 1 - sum_n |c_n|^2."""
    return max(0.0, 1.0 - float(np.sum(poisson_weights(alpha, cutoff))))


def coherent_state(alpha: complex, cutoff: int) -> FockVector:
    """Truncated coherent state |alpha>, renormalized after truncation.

    Raises CutoffTooSmallError when the truncation leakage exceeds 1e-6.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    leak = coherent_leakage(alpha, cutoff)
    if leak > LEAKAGE_LIMIT:
        raise CutoffTooSmallError(
            f"cutoff too small: leakage {leak:.3e} exceeds {LEAKAGE_LIMIT:.1e} "
            f"for alpha={alpha} at cutoff {cutoff}"
        )
    amps = np.exp(_log_coherent_amps(alpha, cutoff)) / math.sqrt(1.0 - leak)
    return FockVector(amps, cutoff)


def expm_antihermitian(K: FockOperator) -> FockOperator:
    """exp(K) for anti-Hermitian K, via eigendecomposition of the
    Hermitian matrix iK. Output is unitary to working precision."""
    m = K.matrix
    scale = 1.0 + float(np.max(np.abs(m))) if m.size else 1.0
    dev = float(np.max(np.abs(m + m.conj().T)))
    if dev > 1e-12 * scale:
        raise NotAntiHermitianError(
            f"max |K + K^dag| = {dev:.3e} exceeds tolerance for scale {scale:.3e}"
        )
    h = 1j * m  # Hermitian
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w)) @ v.conj().T
    return FockOperator(u, K.cutoff)


def displacement(alpha: complex, cutoff: int) -> FockOperator:
    """D(alpha) = exp(alpha a^dag - alpha^* a) on the truncated space."""
    a = annihilation(cutoff).matrix
    k = alpha * a.conj().T - np.conj(alpha) * a
    return expm_antihermitian(FockOperator(k, cutoff))


def sqrt_number_phase(theta: float, cutoff: int) -> FockOperator:
    """Diagonal operator with entries e^{i theta sqrt(n)}."""
    n = np.arange(cutoff + 1)
    return FockOperator(np.diag(np.exp(1j * theta * np.sqrt(n))), cutoff)


def fidelity(a: FockVector, b: FockVector) -> float:
    """|<a|b>|^2 for normalized vectors of equal cutoff."""
    if a.cutoff != b.cutoff:
        raise ValueError("cutoff mismatch")
    if not a.is_normalized() or not b.is_normalized():
        raise ValueError("fidelity requires normalized vectors")
    return float(np.abs(np.vdot(a.amps, b.amps)) ** 2)
