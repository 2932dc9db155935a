"""Parameter set of the lossy, seeded, possibly unbalanced SU(1,1) interferometer."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class InterferometerConfig:
    """Full parameter set of the two-OPA interferometer.

    g1, g2   : parametric gains of the first and second amplifier (dimensionless)
    theta    : interferometric phase between the amplifiers (rad)
    t_s, t_i : internal amplitude transmissions of signal and idler, in [0, 1]
    n_i      : mean photon number of the coherent seed at the idler input
    """

    g1: float
    g2: float
    theta: float = 0.0
    t_s: float = 1.0
    t_i: float = 1.0
    n_i: float = 0.0

    def __post_init__(self):
        for name in ("g1", "g2", "theta", "t_s", "t_i", "n_i"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
        if self.g1 < 0 or self.g2 < 0:
            raise DomainError(f"gains must be >= 0, got g1={self.g1}, g2={self.g2}")
        for name in ("t_s", "t_i"):
            t = getattr(self, name)
            if not 0.0 <= t <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1], got {t}")
        if self.n_i < 0:
            raise DomainError(f"n_i must be >= 0, got {self.n_i}")

    def with_theta(self, theta: float) -> "InterferometerConfig":
        return replace(self, theta=theta)


class ConfigStack(NamedTuple):
    """N configurations as one stack: each parameter an (N,) float array, in
    the order of the configs.  The Gaussian pipeline reads it as it reads
    one InterferometerConfig."""

    g1: np.ndarray
    g2: np.ndarray
    theta: np.ndarray
    t_s: np.ndarray
    t_i: np.ndarray
    n_i: np.ndarray


def stack(cfgs: Sequence[InterferometerConfig]) -> ConfigStack:
    """Stack already validated configs parameter by parameter."""
    table = np.array(
        [(c.g1, c.g2, c.theta, c.t_s, c.t_i, c.n_i) for c in cfgs], dtype=float
    ).reshape(-1, len(ConfigStack._fields))
    return ConfigStack(*table.T)
