"""Derived observables: visibility from propagation, error-propagation phase
sensitivity, shot-noise normalization and the optimal working point.

With real parameters the signal photon-number mean and variance are
polynomials of degree one and two in cos(theta).  One Gaussian propagation to
the phase, followed by three phase + OPA2 tails at theta = 0, pi/2 and pi,
fixes them (PhaseResponse); the visibility is m1/m0, and the slope,
sensitivity and optimum follow in closed form.  The shot-noise level reads the
signal mean of the same propagation, after OPA1 or after the loss.

phase_responses does this for N configs at once: one prefix pass (seed ->
OPA1 -> loss) over a stack of N states and one tail pass over N x {0, pi/2,
pi}, plus each config's own theta when asked for.  phase_response(cfg) is the
batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import config, gaussian
from .config import InterferometerConfig
from .errors import DomainError, StationaryPointError, UndefinedVisibilityError

# |m1| at or below this fraction of m0 is rounding noise, not a resolved fringe
INTERFERENCE_RTOL = 1e-9
# |sin theta0| at or below this puts the working point on a fringe extremum
STATIONARY_SIN = 1e-12
# working points stay this far inside (0, pi): at the lossless dark fringe the
# phase variance has an infimum at theta -> pi that no working point attains
THETA_MARGIN = math.pi / 514
# the phases whose tails fix the mean and variance coefficients
FRINGE_PHASES = (0.0, 0.5 * math.pi, math.pi)


class ShotNoiseConvention(str, Enum):
    """How the classical reference photon number is counted.

    AFTER_OPA1      : 1/N_s with N_s the signal mean after the first OPA.
    AFTER_LOSS      : 1/N_s with N_s the signal mean after the internal loss.
    PAIR_AFTER_OPA1 : 1/(2 N_s) tapped after the first OPA; counts both
                      photons of every signal-idler pair as phase-sensing
                      resource.  This is the normalization that reproduces
                      the reference dB benchmarks (the spontaneous lossy
                      case sitting exactly at shot noise).
    """

    AFTER_OPA1 = "after_opa1"
    AFTER_LOSS = "after_loss"
    PAIR_AFTER_OPA1 = "pair_after_opa1"


@dataclass(frozen=True)
class SensitivityReport:
    theta_opt: float
    dtheta2: float
    dtheta2_shotnoise: float
    db_vs_shotnoise: float
    snl_convention: ShotNoiseConvention


def visibility_numeric(cfg: InterferometerConfig) -> float:
    """Interference contrast of the Gaussian phase response, m1/m0."""
    return phase_response(cfg).visibility()


@dataclass(frozen=True)
class PhaseResponse:
    """Signal photon-number statistics of device cfg as functions of
    c = cos(theta): <N_s> = m0 + m1 c and Var N_s = v0 + v1 c + v2 c^2.

    after_opa1 and after_loss are the signal (mean, variance) before the
    phase, read by the shot-noise level and checked for overflow only there."""

    cfg: InterferometerConfig
    m0: float
    m1: float
    v0: float
    v1: float
    v2: float
    after_opa1: tuple[float, float]
    after_loss: tuple[float, float]

    def mean(self, theta: float) -> float:
        return self.m0 + self.m1 * math.cos(theta)

    def variance(self, theta: float) -> float:
        c = math.cos(theta)
        return self.v0 + (self.v1 + self.v2 * c) * c

    def visibility(self) -> float:
        """Interference contrast, the mean at theta=0 minus at theta=pi over
        their sum: m1/m0."""
        if self.m0 <= 0.0:
            raise UndefinedVisibilityError(
                f"zero total flux for g1={self.cfg.g1}, g2={self.cfg.g2}"
            )
        return self.m1 / self.m0

    def slope(self, theta: float) -> float:
        return -self.m1 * math.sin(theta)

    def dtheta2(self, theta: float) -> float:
        """Error-propagation phase variance Var N_s / (d<N_s>/d theta)^2."""
        if abs(math.sin(theta)) <= STATIONARY_SIN:
            raise StationaryPointError(
                f"theta0={theta} sits on an interference extremum (zero slope)"
            )
        slope = self.slope(theta)
        try:
            return self.variance(theta) / slope**2
        except OverflowError:  # slope^2 is past float range, the ratio is not
            return self.variance(theta) / slope / slope

    def optimal_theta(self) -> float:
        """Working point in (0, pi) minimizing dtheta2.

        Var/(1 - c^2) is stationary where v1 c^2 + 2 b c + v1 = 0, b = v0 + v2.
        The roots multiply to 1; the one in [-1, 1] is taken in the form
        without cancellation, with b^2 - v1^2 = Var(pi) Var(0) >= 0.  c does not
        change under a common scale of b and v1; scaling both by an exact power
        of two that brings b near 1 keeps b^2 finite for huge seeds.
        """
        scale = -math.frexp(self.v0 + self.v2)[1]
        b, v1 = math.ldexp(self.v0 + self.v2, scale), math.ldexp(self.v1, scale)
        disc = max(b - v1, 0.0) * max(b + v1, 0.0)
        c = -v1 / (b + math.sqrt(disc))
        theta = math.acos(min(max(c, -1.0), 1.0))
        return min(max(theta, THETA_MARGIN), math.pi - THETA_MARGIN)

    def shot_noise_level(self, convention: ShotNoiseConvention) -> float:
        """Classical benchmark phase variance, counted per the chosen convention."""
        after_loss = convention == ShotNoiseConvention.AFTER_LOSS
        before_phase = self.after_loss if after_loss else self.after_opa1
        n_s = gaussian.checked_stats(*before_phase).mean
        if n_s <= 0.0:
            raise DomainError(f"no signal photons inside the interferometer (N_s={n_s})")
        if convention == ShotNoiseConvention.PAIR_AFTER_OPA1:
            return 1.0 / (2.0 * n_s)
        return 1.0 / n_s


@dataclass(frozen=True)
class ResponsePoint:
    """One config's signal (mean, variance) from a batched propagation, not
    yet checked for float64 overflow: after the tail at each of FRINGE_PHASES,
    then at cfg.theta if it was asked for; and before the phase."""

    cfg: InterferometerConfig
    tails: tuple[tuple[float, float], ...]
    after_opa1: tuple[float, float]
    after_loss: tuple[float, float]

    def at_theta(self) -> gaussian.PhotonStats:
        """Signal statistics of the device at its own phase cfg.theta."""
        return gaussian.checked_stats(*self.tails[len(FRINGE_PHASES)])

    def response(self) -> PhaseResponse:
        """The phase response; the first tail that overflowed is its error."""
        s0, sh, sp = (gaussian.checked_stats(*t) for t in self.tails[:len(FRINGE_PHASES)])
        return PhaseResponse(
            cfg=self.cfg,
            m0=sh.mean,
            m1=0.5 * (s0.mean - sp.mean),
            v0=sh.variance,
            v1=0.5 * (s0.variance - sp.variance),
            v2=0.5 * (s0.variance + sp.variance) - sh.variance,
            after_opa1=self.after_opa1,
            after_loss=self.after_loss,
        )


def phase_responses(
    cfgs: Sequence[InterferometerConfig], at_theta: bool = False
) -> list[ResponsePoint]:
    """One ResponsePoint per config, in order, from one prefix pass over the
    stack of configs and one tail pass over configs x FRINGE_PHASES (and
    each config's own theta when at_theta).  Raises nothing for a config
    whose statistics overflow: that point's reads raise its DomainError."""
    stack = config.stack(cfgs)
    thetas = np.array(FRINGE_PHASES)[:, None]
    if at_theta:
        fringe = np.broadcast_to(thetas, (len(FRINGE_PHASES), len(cfgs)))
        thetas = np.concatenate([fringe, stack.theta[None]])
    mean, var = gaussian.signal_moments(stack, thetas)
    # one row of (mean, variance) pairs per tail phase, then after OPA1 and
    # after the loss
    *tail_rows, opa1, loss = (list(zip(m, v)) for m, v in zip(mean.tolist(), var.tolist()))
    return [
        ResponsePoint(cfg, tails, before_loss, after_loss)
        for cfg, tails, before_loss, after_loss in zip(cfgs, zip(*tail_rows), opa1, loss)
    ]


def phase_response(cfg: InterferometerConfig) -> PhaseResponse:
    """Mean and variance coefficients from one propagation to the phase and
    the phase + OPA2 tail at theta = 0, pi/2, pi: the batch of one."""
    return phase_responses([cfg])[0].response()


def _sensing_response(r: PhaseResponse) -> PhaseResponse:
    """The phase response, rejected when it carries no resolved fringe."""
    if abs(r.m1) <= INTERFERENCE_RTOL * abs(r.m0):
        raise DomainError(
            f"interference term not resolved: fringe amplitude {abs(r.m1):.3g} "
            f"is below {INTERFERENCE_RTOL:g} of the mean photon number {r.m0:.3g}"
        )
    return r


def mean_derivative(cfg: InterferometerConfig, theta0: float) -> float:
    """d<N_s>/d theta at theta0: -m1 sin(theta0)."""
    return phase_response(cfg).slope(theta0)


def sensitivity(cfg: InterferometerConfig, theta0: float) -> float:
    """Error-propagation phase variance Var(N_s) / |d<N_s>/d theta|^2 at theta0."""
    return _sensing_response(phase_response(cfg)).dtheta2(theta0)


def shot_noise_level(
    cfg: InterferometerConfig,
    convention: ShotNoiseConvention = ShotNoiseConvention.AFTER_OPA1,
) -> float:
    """Classical benchmark phase variance, counted per the chosen convention,
    from the signal mean of the device's phase response."""
    return phase_response(cfg).shot_noise_level(convention)


def sensitivity_report(
    response: PhaseResponse, convention: ShotNoiseConvention
) -> SensitivityReport:
    """Minimize the phase variance of a given response over the working point
    theta0 in (0, pi) and compare it with the shot-noise level."""
    if response.cfg.g2 <= 0.0:
        raise DomainError("g2 must be > 0: no interference at the second OPA")
    _sensing_response(response)
    theta_opt = response.optimal_theta()
    dtheta2 = response.dtheta2(theta_opt)

    snl = response.shot_noise_level(convention)
    db = 10.0 * math.log10(snl / dtheta2)
    return SensitivityReport(
        theta_opt=float(theta_opt),
        dtheta2=float(dtheta2),
        dtheta2_shotnoise=float(snl),
        db_vs_shotnoise=float(db),
        snl_convention=convention,
    )


def optimal_sensitivity(
    cfg: InterferometerConfig,
    convention: ShotNoiseConvention = ShotNoiseConvention.AFTER_OPA1,
) -> SensitivityReport:
    """Minimize the phase variance over the working point theta0 in (0, pi)."""
    return sensitivity_report(phase_response(cfg), convention)
