"""Gaussian-state engine for the two-mode (signal, idler) field.

States are tracked by a 4x4 quadrature covariance matrix and a length-4
displacement vector, ordering (x_s, p_s, x_i, p_i), with x = (a + a^dag)/sqrt(2)
and vacuum covariance = I/2.  All maps are Gaussian channels, so the full
interferometer pipeline stays exact at any gain, loss or seed strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import InterferometerConfig
from .errors import DomainError

SIGNAL = "signal"
IDLER = "idler"

_MODE_SLICE = {SIGNAL: slice(0, 2), IDLER: slice(2, 4)}


@dataclass(frozen=True)
class GaussianTwoModeState:
    """Covariance matrix and displacement vector of the two-mode field."""

    cov: np.ndarray
    disp: np.ndarray


@dataclass(frozen=True)
class PhotonStats:
    """Mean and variance of a single mode's photon number."""

    mean: float
    variance: float


def _make_state(cov: np.ndarray, disp: np.ndarray) -> GaussianTwoModeState:
    # symmetrize to kill floating-point drift accumulated over long pipelines
    cov = 0.5 * (cov + cov.T)
    cov.flags.writeable = False
    disp = np.asarray(disp, dtype=float).copy()
    disp.flags.writeable = False
    return GaussianTwoModeState(cov=cov, disp=disp)


def vacuum_state() -> GaussianTwoModeState:
    """Two-mode vacuum: cov = I/2, zero displacement."""
    return _make_state(0.5 * np.eye(4), np.zeros(4))


def seed_idler(state: GaussianTwoModeState, n_i: float) -> GaussianTwoModeState:
    """Displace the idler to a real coherent amplitude with mean photon number n_i."""
    if n_i < 0:
        raise DomainError(f"seed photon number must be >= 0, got {n_i}")
    disp = state.disp.copy()
    disp[2] += np.sqrt(2.0 * n_i)
    return _make_state(state.cov.copy(), disp)


def squeezer_matrix(g: float) -> np.ndarray:
    """Symplectic matrix of the two-mode squeezer at squeezing phase zero."""
    c, s = np.cosh(g), np.sinh(g)
    return np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )


def apply_squeezer(state: GaussianTwoModeState, g: float) -> GaussianTwoModeState:
    """Two-mode squeezer (OPA), a_s -> cosh(g) a_s + sinh(g) a_i^dag and s<->i."""
    if not np.isfinite(g):
        raise DomainError(f"gain must be finite, got {g}")
    s_mat = squeezer_matrix(g)
    return _make_state(s_mat @ state.cov @ s_mat.T, s_mat @ state.disp)


def apply_phase(
    state: GaussianTwoModeState, theta: float, mode: str = SIGNAL
) -> GaussianTwoModeState:
    """Rotate one mode's quadratures by theta (phase shift e^{i theta n})."""
    sl = _MODE_SLICE[mode]
    c, s = np.cos(theta), np.sin(theta)
    r = np.eye(4)
    r[sl, sl] = np.array([[c, s], [-s, c]])
    return _make_state(r @ state.cov @ r.T, r @ state.disp)


def apply_loss(
    state: GaussianTwoModeState, t_s: float, t_i: float
) -> GaussianTwoModeState:
    """Independent beamsplitter loss with amplitude transmissions t_s, t_i.

    Per mode: V -> t^2 V + (1 - t^2) I/2, d -> t d; the cross-mode covariance
    block is scaled by t_s * t_i.
    """
    for name, t in (("t_s", t_s), ("t_i", t_i)):
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1], got {t}")
    scale = np.diag([t_s, t_s, t_i, t_i])
    cov = scale @ state.cov @ scale
    cov += 0.5 * np.diag([1 - t_s**2, 1 - t_s**2, 1 - t_i**2, 1 - t_i**2])
    return _make_state(cov, scale @ state.disp)


def photon_stats(state: GaussianTwoModeState, mode: str = SIGNAL) -> PhotonStats:
    """Photon-number mean and variance of one mode from its reduced Gaussian state.

    For reduced covariance V and displacement d:
        mean = (tr V - 1)/2 + |d|^2 / 2
        var  = tr(V^2)/2 + d^T V d - 1/4
    """
    sl = _MODE_SLICE[mode]
    v = state.cov[sl, sl]
    d = state.disp[sl]
    mean = 0.5 * (np.trace(v) - 1.0) + 0.5 * float(d @ d)
    var = 0.5 * float(np.trace(v @ v)) + float(d @ v @ d) - 0.25
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise DomainError(f"photon statistics overflow float64 (mean={mean}, "
                          f"variance={var}); reduce the gains or the seed")
    return PhotonStats(mean=float(mean), variance=float(var))


def mean_photons(state: GaussianTwoModeState, mode: str = SIGNAL) -> float:
    return photon_stats(state, mode).mean


def state_after_first_opa(
    cfg: InterferometerConfig, include_loss: bool = False
) -> GaussianTwoModeState:
    """The pipeline up to the phase: seed, then the first OPA, then (optionally)
    the internal loss."""
    state = seed_idler(vacuum_state(), cfg.n_i)
    state = apply_squeezer(state, cfg.g1)
    if include_loss:
        state = apply_loss(state, cfg.t_s, cfg.t_i)
    return state


def phase_then_second_opa(
    state: GaussianTwoModeState, theta: float, g2: float
) -> GaussianTwoModeState:
    """The pipeline tail: signal phase theta, then the second OPA of gain g2."""
    return apply_squeezer(apply_phase(state, theta, SIGNAL), g2)


def run_interferometer(cfg: InterferometerConfig) -> GaussianTwoModeState:
    """Propagate vacuum through seed -> OPA1 -> loss -> phase -> OPA2."""
    state = state_after_first_opa(cfg, include_loss=True)
    return phase_then_second_opa(state, cfg.theta, cfg.g2)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix; physical states have all >= 1/2."""
    omega = np.zeros((4, 4))
    for k in (0, 2):
        omega[k, k + 1] = 1.0
        omega[k + 1, k] = -1.0
    # eigenvalues of i*Omega*V come in +/- nu pairs with nu real
    eig = np.linalg.eigvals(1j * omega @ cov)
    return np.sort(np.abs(eig.real))[::2]
