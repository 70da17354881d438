"""Physical-parameter arithmetic tying the dimensionless interaction time to
laboratory quantities.

All frequencies are stored as angular frequencies (rad/s). Quoted lab values
usually come as "2 pi x f"; the CLI parses that shorthand so the two
conventions never get mixed inside the package.
"""

import math
import warnings
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


@dataclass
class RamanParams:
    """One-photon Rabi frequency g, Raman-pulse Rabi frequency Omega and
    detuning Delta, all angular (rad/s)."""

    g: float
    omega: float
    delta: float

    def __post_init__(self):
        for name in ("g", "omega", "delta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.delta < self.omega:
            warnings.warn(
                "detuning below the Raman Rabi frequency; the dispersive "
                "effective-coupling formula is outside its validity regime",
                stacklevel=3,
            )


def kappa(params: RamanParams) -> float:
    """Effective coupling Omega g / (2 Delta), in rad/s."""
    return params.omega * params.g / (2.0 * params.delta)


def interaction_time(tau: float, kappa_value: float) -> float:
    """Laboratory duration t = tau / kappa, in seconds."""
    if kappa_value <= 0:
        raise ValueError("kappa must be strictly positive")
    return tau / kappa_value
