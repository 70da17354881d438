"""Joint atom-field evolution and the conditional measurement blocks.

A two-level atom couples to the cavity mode through a^dag sigma- + a sigma+,
which joins only the pairs {|e,n>, |g,n+1>}: after a dimensionless interaction
time tau each pair turns by cos(tau sqrt(n+1)) - i sin(tau sqrt(n+1)) sigma_x.
Post-selecting the atom leaves the field multiplied entrywise by cos(tau
sqrt(n)) (ground-in, ground-out) or cos(tau sqrt(n+1)) (excited-in,
excited-out), or shifted one photon with weight -i sin(tau sqrt(n+1)) (atom
flipped). The blocks use these closed forms; the dense joint exponential,
_dense_joint_unitary, is kept so each can serve as the other's oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockOperator, FockVector, annihilation, expm_antihermitian

GROUND = "g"
EXCITED = "e"

# Outcomes below this probability are treated as impossible.
PROB_FLOOR = 1e-15


class ImpossibleOutcomeError(ValueError):
    """Post-selected on a measurement outcome of (numerically) zero weight."""


@dataclass
class JointOperator:
    """exp[-i tau (a^dag sigma- + a sigma+)] on the joint space with field
    numbers 0..cutoff; conditional_block gives its field blocks."""

    tau: float
    cutoff: int


@dataclass
class ConditionalOutcome:
    """Post-measurement field state with its success probability.

    `raw` keeps the unnormalized amplitudes; `state` is raw rescaled to unit
    norm; probability = sum |raw_n|^2.
    """

    raw: FockVector
    state: FockVector
    probability: float


def joint_evolution(tau: float, cutoff: int) -> JointOperator:
    """exp[-i tau (a^dag sigma- + a sigma+)] on the joint space."""
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    return JointOperator(float(tau), cutoff)


def conditional_block(U: JointOperator, atom_in: str, atom_out: str) -> FockOperator:
    """Field operator for preparing atom_in and detecting atom_out."""
    for label in (atom_in, atom_out):
        if label not in (GROUND, EXCITED):
            raise ValueError(f"atom state must be 'g' or 'e', got {label!r}")
    if atom_in == atom_out:
        factors = upsilon_factors(U.tau, U.cutoff, atom_in)
        if atom_in == EXCITED:
            factors[-1] = 1.0  # |e,N> has no partner |g,N+1> in the truncated space
        return FockOperator(np.diag(factors), U.cutoff)
    flips = -1j * np.sin(U.tau * np.sqrt(np.arange(1, U.cutoff + 1)))
    # g -> e takes a photon out of the field, e -> g puts one in.
    return FockOperator(np.diag(flips, 1 if atom_in == GROUND else -1), U.cutoff)


def _dense_joint_unitary(tau: float, cutoff: int) -> np.ndarray:
    """The dense 2(N+1) x 2(N+1) joint unitary, ordered (atom level) x (field
    number) with atom basis {g, e}: the oracle for conditional_block."""
    a = annihilation(cutoff).matrix
    h = np.block([[np.zeros_like(a), a.conj().T], [a, np.zeros_like(a)]])
    return expm_antihermitian(FockOperator(-1j * tau * h, 2 * cutoff + 1)).matrix


def upsilon_factors(tau, cutoff: int, variant: str = GROUND) -> np.ndarray:
    """cos(tau sqrt(n)) for variant g, cos(tau sqrt(n+1)) for variant e.

    tau may be an array; the result has shape tau.shape + (cutoff + 1,).
    This is the only implementation of the conditional map's factors."""
    n = np.arange(cutoff + 1)
    if variant == GROUND:
        return np.cos(np.multiply.outer(tau, np.sqrt(n)))
    if variant == EXCITED:
        return np.cos(np.multiply.outer(tau, np.sqrt(n + 1)))
    raise ValueError(f"variant must be 'g' or 'e', got {variant!r}")


def apply_upsilon(state: FockVector, tau: float, variant: str = GROUND) -> ConditionalOutcome:
    """Conditional measurement map on a normalized field state."""
    return apply_sequence(state, [(tau, variant)])


def apply_sequence(state: FockVector, steps) -> ConditionalOutcome:
    """Sequential conditional maps; steps is a list of (tau, variant).

    The joint success probability is the product of the stepwise conditional
    probabilities, which for these diagonal maps equals the norm squared of
    the accumulated raw amplitudes.
    """
    if not steps:
        raise ValueError("steps must be non-empty")
    if not state.is_normalized():
        raise ValueError("input state must be normalized")
    raw = state.amps
    for tau, variant in steps:
        raw = raw * upsilon_factors(tau, state.cutoff, variant)
    prob = float(np.sum(np.abs(raw) ** 2))
    if prob < PROB_FLOOR:
        raise ImpossibleOutcomeError(
            f"measurement outcome impossible: probability {prob:.3e}"
        )
    return ConditionalOutcome(
        raw=FockVector(raw, state.cutoff),
        state=FockVector(raw / math.sqrt(prob), state.cutoff),
        probability=prob,
    )


def ns_amplitudes(tau: float):
    """(A0, A1, A2) = (1, cos tau, cos(sqrt(2) tau)) on the two-photon space."""
    return tuple(float(v) for v in upsilon_factors(tau, 2))


def _as_steps(tau_or_steps):
    if isinstance(tau_or_steps, (int, float)):
        return [(float(tau_or_steps), GROUND)]
    return list(tau_or_steps)


def ns_gate_check(tau_or_steps, test_states):
    """Quality report of a conditional realization of the nonlinear sign map
    c0|0> + c1|1> + c2|2>  ->  c0|0> + c1|1> - c2|2>.

    Each test state (support on n <= 2) is pushed through the conditional
    sequence, renormalized and compared to the ideal target. Fidelity is
    |<target|out>|^2, which is already insensitive to a global phase.
    Returns {"worst_fidelity", "min_probability"}.
    """
    steps = _as_steps(tau_or_steps)
    worst_f = 1.0
    min_p = 1.0
    for st in test_states:
        if st.cutoff >= 3 and np.max(np.abs(st.amps[3:])) > 1e-12:
            raise ValueError("test states must be supported on n <= 2")
        out = apply_sequence(st, steps)
        target = st.amps.copy()
        if st.cutoff >= 2:
            target[2] = -target[2]
        tnorm = np.linalg.norm(target)
        fid = float(np.abs(np.vdot(target / tnorm, out.state.amps)) ** 2)
        worst_f = min(worst_f, fid)
        min_p = min(min_p, out.probability)
    return {"worst_fidelity": worst_f, "min_probability": min_p}
