"""Analytic reference formulas for the lossy, seeded SU(1,1) interferometer.

These are direct evaluations of the closed-form signal photon number,
interference visibility (general, signal-loss-only, idler-loss-only,
symmetric-loss) and the ideal lossless phase sensitivity.  They are kept
independent of the Gaussian engine so the two can cross-validate each other.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .config import InterferometerConfig
from .errors import DomainError, UndefinedVisibilityError


@dataclass(frozen=True)
class GainShorthand:
    """Gain combinations appearing in the closed-form expressions.

    beta     = sinh(2 g1) sinh(2 g2) / 2
    lambda21 = sinh^2(g2) cosh^2(g1)
    lambda12 = sinh^2(g1) cosh^2(g2)
    delta1   = cosh^2(g1)
    delta2   = sinh^2(g2)
    """

    beta: float
    lambda21: float
    lambda12: float
    delta1: float
    delta2: float


def shorthand(cfg: InterferometerConfig) -> GainShorthand:
    """Evaluate the five gain-shorthand parameters for a configuration."""
    g1, g2 = cfg.g1, cfg.g2
    try:
        p = GainShorthand(
            beta=0.5 * math.sinh(2 * g1) * math.sinh(2 * g2),
            lambda21=math.sinh(g2) ** 2 * math.cosh(g1) ** 2,
            lambda12=math.sinh(g1) ** 2 * math.cosh(g2) ** 2,
            delta1=math.cosh(g1) ** 2,
            delta2=math.sinh(g2) ** 2,
        )
        if math.isfinite(p.beta + p.lambda21 + p.lambda12 + p.delta1):
            return p
    except OverflowError:
        pass
    raise DomainError(f"gains g1={g1}, g2={g2} overflow float64 in the closed form")


def mean_signal(cfg: InterferometerConfig) -> float:
    """Mean photon number at the signal output.

    (n_i+1) (beta cos(theta) t_i t_s + lambda21 t_i^2 + lambda12 t_s^2)
      + delta2 (1 - t_i^2)

    The bracket is summed as two non-negative parts that do not cancel at the
    dark fringe: (sinh g2 cosh g1 t_i - sinh g1 cosh g2 t_s)^2
    + 2 beta t_i t_s cos^2(theta/2).
    """
    p = shorthand(cfg)
    imbalance = math.sqrt(p.lambda21) * cfg.t_i - math.sqrt(p.lambda12) * cfg.t_s
    interference = (
        imbalance**2 + 2.0 * p.beta * cfg.t_i * cfg.t_s * math.cos(0.5 * cfg.theta) ** 2
    )
    return (cfg.n_i + 1.0) * interference + p.delta2 * (1.0 - cfg.t_i**2)


def mean_signal_derivative(cfg: InterferometerConfig) -> float:
    """d<N_s>/d theta of the closed-form mean: -(n_i+1) beta sin(theta) t_i t_s."""
    p = shorthand(cfg)
    return -(cfg.n_i + 1.0) * p.beta * math.sin(cfg.theta) * cfg.t_i * cfg.t_s


def visibility(cfg: InterferometerConfig) -> float:
    """General interference visibility for arbitrary gains, losses and seed.

    V = beta (n_i+1) t_i t_s
        / [lambda12 (n_i+1) t_s^2 + delta2 (1 + t_i^2 ((n_i+1) delta1 - 1))]
    """
    p = shorthand(cfg)
    denom = p.lambda12 * (cfg.n_i + 1.0) * cfg.t_s**2 + p.delta2 * (
        1.0 + cfg.t_i**2 * ((cfg.n_i + 1.0) * p.delta1 - 1.0)
    )
    if denom <= 0.0:
        raise UndefinedVisibilityError(
            f"visibility undefined: zero mean flux for g1={cfg.g1}, g2={cfg.g2}"
        )
    return p.beta * (cfg.n_i + 1.0) * cfg.t_i * cfg.t_s / denom


def visibility_signal_loss(t_s: float) -> float:
    """Visibility with loss only on the signal, balanced gains: 2 t_s / (t_s^2 + 1).

    Independent of the gain and of the seed strength.
    """
    if not 0.0 < t_s <= 1.0:
        raise DomainError(f"t_s must lie in (0, 1], got {t_s}")
    return 2.0 * t_s / (t_s**2 + 1.0)


def _balanced_cosh2(g: float, n_i: float) -> float:
    """cosh^2 g of a balanced gain g >= 0 with seed n_i >= 0, where every
    product of the visibility, at most 2 (n_i + 1) cosh^2 g, is finite."""
    if not g >= 0:
        raise DomainError(f"gain must be >= 0, got {g}")
    if not n_i >= 0:
        raise DomainError(f"n_i must be >= 0, got {n_i}")
    try:
        ch2 = math.cosh(g) ** 2
    except OverflowError:
        ch2 = math.inf
    if 2.0 * (n_i + 1.0) * ch2 == math.inf:
        raise DomainError(f"gain g={g} with n_i={n_i} overflows float64 in the closed form")
    return ch2


def visibility_idler_loss(t_i: float, g: float, n_i: float) -> float:
    """Visibility with loss only on the idler, balanced gains g."""
    if not 0.0 <= t_i <= 1.0:
        raise DomainError(f"t_i must lie in [0, 1], got {t_i}")
    ch2 = _balanced_cosh2(g, n_i)
    return (
        2.0 * (n_i + 1.0) * t_i * ch2
        / ((n_i + 1.0) * (t_i**2 + 1.0) * ch2 + 1.0 - t_i**2)
    )


def visibility_symmetric_loss(t: float, g: float, n_i: float) -> float:
    """Visibility with equal loss t on both modes, balanced gains g."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    ch2 = _balanced_cosh2(g, n_i)
    return (
        2.0 * (n_i + 1.0) * t**2 * ch2
        / (2.0 * (n_i + 1.0) * t**2 * ch2 + 1.0 - t**2)
    )


def ideal_sensitivity(g: float, n_i: float) -> float:
    """Optimal phase variance of the lossless, balanced, idler-seeded interferometer.

    Returns 1 / ((1 + n_i) sinh^2(2g)), checked against the equivalent form
    1 / (4 (1 + n_i) (N^2 + N)) with N = sinh^2(g); where float64 cannot
    hold both forms as normal numbers that agree, the answer is a DomainError.
    """
    if not 0.0 < g < math.inf:
        raise DomainError(f"gain must be finite and > 0 for a finite sensitivity, got {g}")
    if not 0.0 <= n_i < math.inf:
        raise DomainError(f"n_i must be finite and >= 0, got {n_i}")
    try:
        val = 1.0 / ((1.0 + n_i) * math.sinh(2 * g) ** 2)
        n_sq = math.sinh(g) ** 2
        alt = 1.0 / (4.0 * (1.0 + n_i) * (n_sq**2 + n_sq))
    except (OverflowError, ZeroDivisionError):
        val = alt = math.nan
    if not sys.float_info.min <= val < math.inf or abs(val - alt) > 1e-12 * val:
        raise DomainError(f"ideal sensitivity at g={g}, n_i={n_i} lies outside float64")
    return val
