"""Derived observables: visibility from propagation, error-propagation phase
sensitivity, shot-noise normalization and the optimal working point.

With real parameters the signal photon-number mean and variance are
polynomials of degree one and two in cos(theta).  One Gaussian propagation to
the phase, followed by three phase + OPA2 tails at theta = 0, pi/2 and pi,
fixes them (PhaseResponse); the visibility is m1/m0, and the slope,
sensitivity and optimum follow in closed form.  The shot-noise level reads the
signal mean of the same propagation, after OPA1 or after the loss.

Everything is computed in columns over a block of N configs (a
config.ConfigStack): one gaussian.signal_moments call gives the PhaseResponse
coefficient arrays, and each metric is an array expression over them.  A row
that fails a check raises nothing: its Block keeps the first check each row
fails, and the row keeps the values computed before it.  The checks run in
this order: overflow of the mean at the row's own theta; overflow of the tail
at 0, pi/2, pi; zero flux; g2 <= 0; an unresolved fringe; overflow before the
phase; N_s <= 0; a phase variance at the optimum (or at sensitivity's fixed
theta0) that is not positive and finite (a variance lost to rounding).
metric_columns is a sweep block's path.  The single-config functions
(phase_response, visibility_numeric, sensitivity, mean_derivative,
shot_noise_level, optimal_sensitivity) are its batch of one and raise that
row's error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Sequence

import numpy as np

from . import config, gaussian
from .config import ConfigStack, InterferometerConfig
from .errors import DomainError, StationaryPointError, Su11Error, UndefinedVisibilityError

# |m1| at or below this fraction of m0 is rounding noise, not a resolved fringe
INTERFERENCE_RTOL = 1e-9
# |sin theta0| at or below this puts the working point on a fringe extremum
STATIONARY_SIN = 1e-12
# working points stay this far inside (0, pi): at the lossless dark fringe the
# phase variance has an infimum at theta -> pi that no working point attains
THETA_MARGIN = math.pi / 514
# the phases whose tails fix the mean and variance coefficients
FRINGE_PHASES = (0.0, 0.5 * math.pi, math.pi)
_FRINGE_THETAS = np.array(FRINGE_PHASES)[:, None]


def _working_point(c: float) -> float:
    """theta = acos(c) in (0, pi), THETA_MARGIN away from both ends.  acos is
    libm's, as the math module takes it: numpy's arccos (and log10) differ
    from libm's in the last bit for some inputs, so both are taken element by
    element."""
    theta = math.acos(min(max(c, -1.0), 1.0))
    return min(max(theta, THETA_MARGIN), math.pi - THETA_MARGIN)


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


@dataclass(frozen=True)
class PhaseResponse:
    """Signal photon-number statistics of the devices cfg as functions of
    c = cos(theta): <N_s> = m0 + m1 c and Var N_s = v0 + v1 c + v2 c^2.

    For a ConfigStack every coefficient is an (N,) array; for one
    InterferometerConfig (phase_response) it is a float.  after_opa1 and
    after_loss are the signal (mean, variance) before the phase, read by the
    shot-noise level.  The methods are array expressions and raise nothing;
    a row is rejected through its Block."""

    cfg: InterferometerConfig | ConfigStack
    m0: np.ndarray
    m1: np.ndarray
    v0: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    after_opa1: tuple[np.ndarray, np.ndarray]
    after_loss: tuple[np.ndarray, np.ndarray]

    def mean(self, theta):
        return self.m0 + self.m1 * np.cos(theta)

    def variance(self, theta):
        c = np.cos(theta)
        return self.v0 + (self.v1 + self.v2 * c) * c

    def visibility(self):
        """Interference contrast, the mean at theta=0 minus at theta=pi over
        their sum: m1/m0, undefined at zero flux (m0 <= 0)."""
        return self.m1 / self.m0

    def slope(self, theta):
        return -self.m1 * np.sin(theta)

    @np.errstate(over="ignore", invalid="ignore")
    def dtheta2(self, theta):
        """Error-propagation phase variance Var N_s / (d<N_s>/d theta)^2.
        Where the slope squared is past float range the ratio need not be,
        and is taken as Var N_s / slope / slope."""
        slope, var = self.slope(theta), self.variance(theta)
        # the square by libm pow, as float ** 2 takes it
        square = np.float_power(slope, 2.0)
        return np.where(np.isfinite(square), var / square, var / slope / slope)

    @np.errstate(over="ignore", invalid="ignore")
    def optimal_theta(self):
        """Working point in (0, pi) minimizing dtheta2.

        Var/(1 - c^2) is stationary where v1 c^2 + 2 b c + v1 = 0, b = v0 + v2.
        The roots multiply to 1; the one in [-1, 1] is taken in the form
        without cancellation, with b^2 - v1^2 = Var(pi) Var(0) >= 0.  c does not
        change under a common scale of b and v1; scaling both by the exact
        power of two that brings b into [0.5, 1) keeps b^2 finite for huge
        seeds.
        """
        b, exponent = np.frexp(self.v0 + self.v2)
        v1 = np.ldexp(self.v1, -exponent)
        disc = np.maximum(b - v1, 0.0) * np.maximum(b + v1, 0.0)
        c = -v1 / (b + np.sqrt(disc))
        return np.reshape([_working_point(x) for x in np.ravel(c).tolist()], np.shape(c))


class Block:
    """N configs after one batched propagation: the rows of
    gaussian.signal_moments, which of their statistics are finite, and each
    config's first error, None while it has none.  Checks are applied in
    order; a config keeps the error of the first check it fails."""

    def __init__(self, cfgs: ConfigStack, thetas: np.ndarray):
        self.cfgs = cfgs
        self.mean, self.var = gaussian.signal_moments(cfgs, thetas)
        self.finite = np.isfinite(self.mean) & np.isfinite(self.var)
        self.errors: list[Su11Error | None] = [None] * len(cfgs.theta)

    def require(self, ok: np.ndarray, error: Callable[[int], Su11Error]) -> None:
        """Give error(i) to each config i where ok fails that has no error yet."""
        for i, good in enumerate(ok.tolist()):
            if not good and self.errors[i] is None:
                self.errors[i] = error(i)

    def require_finite(self, k: int) -> None:
        """Fail the configs whose statistics in moments row k overflowed float64."""
        mean, var = self.mean[k], self.var[k]
        self.require(self.finite[k],
                     lambda i: gaussian.overflow_error(float(mean[i]), float(var[i])))

    def where_ok(self, column: np.ndarray) -> list[float | None]:
        """The column as floats, None for every config that failed a check."""
        return [v if e is None else None for v, e in zip(column.tolist(), self.errors)]


def _response(block: Block) -> PhaseResponse:
    """The phase response of the block's configs from its moments rows: the
    tails at FRINGE_PHASES first, after OPA1 and after the loss last.  A tail
    that overflowed fails its config, in phase order."""
    for k in range(len(FRINGE_PHASES)):
        block.require_finite(k)
    mean, var = block.mean, block.var
    return PhaseResponse(
        block.cfgs, mean[1], 0.5 * (mean[0] - mean[2]), var[1], 0.5 * (var[0] - var[2]),
        0.5 * (var[0] + var[2]) - var[1], (mean[-2], var[-2]), (mean[-1], var[-1]))


def _visibility(r: PhaseResponse, block: Block) -> np.ndarray:
    """m1/m0, failing the configs with zero total flux."""
    block.require(r.m0 > 0.0, lambda i: UndefinedVisibilityError(
        f"zero total flux for g1={float(r.cfg.g1[i])}, g2={float(r.cfg.g2[i])}"))
    return r.visibility()


def _require_resolved(r: PhaseResponse, block: Block) -> None:
    """Fail the configs whose response carries no resolved fringe."""
    block.require(np.abs(r.m1) > INTERFERENCE_RTOL * np.abs(r.m0), lambda i: DomainError(
        f"interference term not resolved: fringe amplitude {abs(r.m1[i]):.3g} "
        f"is below {INTERFERENCE_RTOL:g} of the mean photon number {r.m0[i]:.3g}"))


def _require_sensitivity(block: Block, dtheta2: np.ndarray, where: str) -> None:
    """Fail the configs whose phase variance at the working point `where` is
    not positive and finite: a variance lost to rounding (tiny photon numbers)."""
    block.require(np.isfinite(dtheta2) & (dtheta2 > 0.0), lambda i: DomainError(
        f"sensitivity not resolved: the phase variance at {where} is {dtheta2[i]:.3g}"))


def _shot_noise(r: PhaseResponse, block: Block, convention: ShotNoiseConvention):
    """Classical benchmark phase variance, counted per the chosen convention
    from the signal mean before the phase; fails the configs where that mean
    overflowed or is empty."""
    after_loss = convention == ShotNoiseConvention.AFTER_LOSS
    block.require_finite(-1 if after_loss else -2)
    n_s = (r.after_loss if after_loss else r.after_opa1)[0]
    block.require(n_s > 0.0, lambda i: DomainError(
        f"no signal photons inside the interferometer (N_s={float(n_s[i])})"))
    if convention == ShotNoiseConvention.PAIR_AFTER_OPA1:
        return 1.0 / (2.0 * n_s)
    return 1.0 / n_s


def _optimum(r: PhaseResponse, block: Block, convention: ShotNoiseConvention):
    """(theta_opt, dtheta2, shot-noise level, dB against it) of the phase
    variance minimized over the working point theta0 in (0, pi).  Fails, in
    this order, the configs with g2 <= 0, an unresolved fringe, a signal
    before the phase that overflowed or is empty, and a phase variance at the
    optimum that is not positive and finite."""
    block.require(r.cfg.g2 > 0.0,
                  lambda i: DomainError("g2 must be > 0: no interference at the second OPA"))
    _require_resolved(r, block)
    theta = r.optimal_theta()
    dtheta2 = r.dtheta2(theta)
    snl = _shot_noise(r, block, convention)
    _require_sensitivity(block, dtheta2, "the optimal working point")
    # the failed configs' logarithm is not taken: math.log10 raises on a ratio <= 0
    ratio = (snl / dtheta2).tolist()
    db = np.array([0.0 if e is not None else 10.0 * math.log10(q)
                   for q, e in zip(ratio, block.errors)])
    return theta, dtheta2, snl, db


@np.errstate(all="ignore")
def metric_columns(
    cfgs: ConfigStack, wanted: Sequence[str], convention: ShotNoiseConvention
) -> tuple[dict[str, list[float | None]], list[Su11Error | None]]:
    """The wanted metrics (mean, visibility, dtheta2, db_vs_shotnoise) of a
    block of configs from one batched propagation, each a column with None
    where the config failed a check before the metric was read, and each
    config's first error.  The mean rides the tail pass as a fourth phase,
    each config's own theta."""
    thetas = _FRINGE_THETAS
    if "mean" in wanted:
        fringe = np.broadcast_to(thetas, (len(FRINGE_PHASES), len(cfgs.theta)))
        thetas = np.concatenate([fringe, cfgs.theta[None]])
    block = Block(cfgs, thetas)
    columns: dict[str, list[float | None]] = {}
    if "mean" in wanted:
        own = len(FRINGE_PHASES)  # the row of each config's own theta
        block.require_finite(own)
        columns["mean"] = block.where_ok(block.mean[own])
    if set(wanted) - {"mean"}:
        r = _response(block)
        if "visibility" in wanted:
            columns["visibility"] = block.where_ok(_visibility(r, block))
        if {"dtheta2", "db_vs_shotnoise"} & set(wanted):
            _, dtheta2, _, db = _optimum(r, block, convention)
            columns["dtheta2"], columns["db_vs_shotnoise"] = map(block.where_ok, (dtheta2, db))
    return {m: columns[m] for m in wanted}, block.errors


@np.errstate(all="ignore")
def _one(cfg: InterferometerConfig, read: Callable[[PhaseResponse, Block], Any]):
    """read(response, block) of cfg as a block of one config whose tails are
    checked; raises that config's first error, else returns what read did."""
    block = Block(config.stack([cfg]), _FRINGE_THETAS)
    out = read(_response(block), block)
    if block.errors[0] is not None:
        raise block.errors[0]
    return out


def phase_response(cfg: InterferometerConfig) -> PhaseResponse:
    """Mean and variance coefficients from one propagation to the phase and
    the phase + OPA2 tail at theta = 0, pi/2, pi, as floats: the batch of one."""
    r = _one(cfg, lambda r, block: r)
    return PhaseResponse(cfg, *(c[0] for c in (r.m0, r.m1, r.v0, r.v1, r.v2)),
                         *(tuple(c[0] for c in pair) for pair in (r.after_opa1, r.after_loss)))


def visibility_numeric(cfg: InterferometerConfig) -> float:
    """Interference contrast of the Gaussian phase response, m1/m0."""
    return float(_one(cfg, _visibility)[0])


def mean_derivative(cfg: InterferometerConfig, theta0: float) -> float:
    """d<N_s>/d theta at theta0: -m1 sin(theta0)."""
    return float(_one(cfg, lambda r, block: r.slope(theta0))[0])


def sensitivity(cfg: InterferometerConfig, theta0: float) -> float:
    """Error-propagation phase variance Var(N_s) / |d<N_s>/d theta|^2 at theta0."""

    def read(r: PhaseResponse, block: Block) -> np.ndarray:
        _require_resolved(r, block)
        on_extremum = np.abs(np.sin([theta0])) <= STATIONARY_SIN
        block.require(~on_extremum, lambda i: StationaryPointError(
            f"theta0={theta0} sits on an interference extremum (zero slope)"))
        dtheta2 = r.dtheta2(theta0)
        _require_sensitivity(block, dtheta2, f"theta0={theta0}")
        return dtheta2

    return float(_one(cfg, read)[0])


def shot_noise_level(
    cfg: InterferometerConfig,
    convention: ShotNoiseConvention = ShotNoiseConvention.AFTER_OPA1,
) -> float:
    """Classical benchmark phase variance, counted per the chosen convention,
    from the signal mean of the device's phase response."""
    return float(_one(cfg, lambda r, block: _shot_noise(r, block, convention))[0])


def optimal_sensitivity(
    cfg: InterferometerConfig,
    convention: ShotNoiseConvention = ShotNoiseConvention.AFTER_OPA1,
) -> SensitivityReport:
    """Minimize the phase variance over the working point theta0 in (0, pi)
    and compare it with the shot-noise level."""
    columns = _one(cfg, lambda r, block: _optimum(r, block, convention))
    return SensitivityReport(*(float(c[0]) for c in columns), snl_convention=convention)
