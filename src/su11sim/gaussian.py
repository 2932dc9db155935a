"""Gaussian-state engine for the two-mode (signal, idler) field.

States are tracked by a 4x4 quadrature covariance matrix and a length-4
displacement vector, ordering (x_s, p_s, x_i, p_i), with x = (a + a^dag)/sqrt(2)
and vacuum covariance = I/2.  All maps are Gaussian channels, so the full
interferometer pipeline stays exact at any gain, loss or seed strength.

A state may be a stack: covariances (..., 4, 4) and displacements (..., 4)
over leading batch axes, one entry per configuration (and per phase).  Each
element takes its parameter as a scalar or as an array that broadcasts over
those axes, and applies it by the same matrix products whatever the batch, so
N configurations cost a few array operations; a single state is the stack
with no batch axes.  signal_moments is the batched propagation the phase
response reads: one prefix pass over N configs and one tail pass over N
configs x P phases, giving (mean, variance) arrays that metrics reads as
columns.  Float64 overflow raises no numpy warning from it, from
run_interferometer or from photon_moments: it shows as non-finite photon
statistics.  metrics turns those into per-row errors by a mask, checked_stats
into a DomainError for one state; overflow_error is the error of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigStack, InterferometerConfig
from .errors import DomainError

SIGNAL = "signal"
IDLER = "idler"

# index of each mode's x quadrature; p follows it
_MODE_START = {SIGNAL: 0, IDLER: 2}


@dataclass(frozen=True)
class GaussianTwoModeState:
    """Covariance matrices (..., 4, 4) and displacement vectors (..., 4) of the
    two-mode field, over leading batch axes that broadcast against each other
    (a seeded vacuum keeps one covariance for all of its displacements)."""

    cov: np.ndarray
    disp: np.ndarray


@dataclass(frozen=True)
class PhotonStats:
    """Mean and variance of a single mode's photon number."""

    mean: float
    variance: float


def _make_state(cov: np.ndarray, disp: np.ndarray) -> GaussianTwoModeState:
    """Freeze freshly computed arrays into a state; the batch axes of cov and
    disp broadcast against each other."""
    # symmetrize to kill floating-point drift accumulated over long pipelines
    cov = cov + cov.swapaxes(-1, -2)
    cov *= 0.5
    cov.flags.writeable = False
    disp.flags.writeable = False
    return GaussianTwoModeState(cov=cov, disp=disp)


def _transform(state: GaussianTwoModeState, m: np.ndarray) -> GaussianTwoModeState:
    """V -> M V M^T, d -> M d for a stack of matrices M (..., 4, 4)."""
    cov = m @ state.cov @ m.swapaxes(-1, -2)
    return _make_state(cov, (m @ state.disp[..., None])[..., 0])


# Entries of a row-major 4x4 matrix as slices of its 16 flat entries: the two
# diagonal entries of mode k's 2x2 block (k = 0 signal, 2 idler), and the
# off-diagonal pairs (0, 2), (2, 0) and (1, 3), (3, 1) that couple the modes.
def _block_diagonal(k: int) -> slice:
    return slice(5 * k, 5 * k + 6, 5)


_DIAGONAL = slice(0, 16, 5)
_X_COUPLING = slice(2, 9, 6)
_P_COUPLING = slice(7, 14, 6)


def _matrix_stack(shape: tuple[int, ...], entries) -> np.ndarray:
    """A stack of 4x4 matrices over shape, zero but for the given (flat slice,
    value) entries; each value is a scalar or an array of that shape."""
    m = np.zeros((*shape, 16))
    for flat, value in entries:
        m[..., flat] = np.asarray(value)[..., None]
    return m.reshape(*shape, 4, 4)


_VACUUM = _make_state(0.5 * np.eye(4), np.zeros(4))


def vacuum_state() -> GaussianTwoModeState:
    """Two-mode vacuum: cov = I/2, zero displacement."""
    return _VACUUM


def seed_idler(state: GaussianTwoModeState, n_i) -> GaussianTwoModeState:
    """Displace the idler to a real coherent amplitude with mean photon number n_i."""
    n_i = np.asarray(n_i, dtype=float)
    if (n_i < 0).any():
        raise DomainError(f"seed photon number must be >= 0, got {n_i}")
    shift = np.zeros((*n_i.shape, 4))
    shift[..., 2] = np.sqrt(2.0 * n_i)
    disp = state.disp + shift
    disp.flags.writeable = False
    return GaussianTwoModeState(cov=state.cov, disp=disp)  # cov is unchanged


def squeezer_matrix(g) -> np.ndarray:
    """Symplectic matrix of the two-mode squeezer at squeezing phase zero,
    stacked over the shape of g."""
    g = np.asarray(g, dtype=float)
    s = np.sinh(g)
    entries = ((_DIAGONAL, np.cosh(g)), (_X_COUPLING, s), (_P_COUPLING, -s))
    return _matrix_stack(g.shape, entries)


def apply_squeezer(state: GaussianTwoModeState, g) -> GaussianTwoModeState:
    """Two-mode squeezer (OPA), a_s -> cosh(g) a_s + sinh(g) a_i^dag and s<->i."""
    if not np.isfinite(g).all():
        raise DomainError(f"gain must be finite, got {g}")
    return _transform(state, squeezer_matrix(g))


def apply_phase(
    state: GaussianTwoModeState, theta, mode: str = SIGNAL
) -> GaussianTwoModeState:
    """Rotate one mode's quadratures by theta (phase shift e^{i theta n})."""
    theta = np.asarray(theta, dtype=float)
    s = np.sin(theta)
    k = _MODE_START[mode]
    # entries (k, k + 1) and (k + 1, k) are flat entries 5k + 1 and 5k + 4
    r = _matrix_stack(theta.shape, (
        (_block_diagonal(k), np.cos(theta)),
        (slice(5 * k + 1, 5 * k + 2), s),
        (slice(5 * k + 4, 5 * k + 5), -s),
        (_block_diagonal(2 - k), 1.0),
    ))
    return _transform(state, r)


def apply_loss(state: GaussianTwoModeState, t_s, t_i) -> GaussianTwoModeState:
    """Independent beamsplitter loss with amplitude transmissions t_s, t_i.

    Per mode: V -> t^2 V + (1 - t^2) I/2, d -> t d; the cross-mode covariance
    block is scaled by t_s * t_i.
    """
    t_s, t_i = np.asarray(t_s, dtype=float), np.asarray(t_i, dtype=float)
    for name, t in (("t_s", t_s), ("t_i", t_i)):
        if not ((0.0 <= t) & (t <= 1.0)).all():
            raise DomainError(f"{name} must lie in [0, 1], got {t}")
    shape = np.broadcast(t_s, t_i).shape
    scale = _matrix_stack(shape, ((_block_diagonal(0), t_s), (_block_diagonal(2), t_i)))
    t = scale.reshape(*shape, 16)[..., _DIAGONAL]
    cov = scale @ state.cov @ scale
    # the vacuum noise (1 - t^2)/2 on the diagonal, with t^2 by libm pow as
    # float ** 2 takes it: t * t differs in the last bit for about 1 t in 1000
    noise = 0.5 * (1 - np.float_power(t, 2.0))
    cov.reshape(*cov.shape[:-2], 16)[..., _DIAGONAL] += noise
    return _make_state(cov, (scale @ state.disp[..., None])[..., 0])


@np.errstate(over="ignore", invalid="ignore")
def photon_moments(state: GaussianTwoModeState, mode: str = SIGNAL):
    """Photon-number mean and variance of one mode, arrays over the batch axes.

    Never raises: an entry where float64 overflowed is inf or nan, to be
    reported as overflow_error.  For reduced covariance V and displacement d:
        mean = (tr V - 1)/2 + |d|^2 / 2
        var  = tr(V^2)/2 + d^T V d - 1/4
    """
    k = _MODE_START[mode]
    v = state.cov[..., k:k + 2, k:k + 2]
    row, col = state.disp[..., None, k:k + 2], state.disp[..., k:k + 2, None]
    vv = v @ v
    mean = 0.5 * (v[..., 0, 0] + v[..., 1, 1] - 1.0) + 0.5 * (row @ col)[..., 0, 0]
    var = 0.5 * (vv[..., 0, 0] + vv[..., 1, 1]) + (row @ v @ col)[..., 0, 0] - 0.25
    return mean, var


def overflow_error(mean: float, variance: float) -> DomainError:
    """The error of a point whose photon statistics overflowed float64."""
    return DomainError(f"photon statistics overflow float64 (mean={mean}, "
                       f"variance={variance}); reduce the gains or the seed")


def checked_stats(mean: float, variance: float) -> PhotonStats:
    """One point's photon statistics, or its DomainError if float64 overflowed."""
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise overflow_error(mean, variance)
    return PhotonStats(mean=mean, variance=variance)


def photon_stats(state: GaussianTwoModeState, mode: str = SIGNAL) -> PhotonStats:
    """Photon-number mean and variance of one mode of a single state."""
    mean, var = photon_moments(state, mode)
    return checked_stats(float(mean), float(var))


def mean_photons(state: GaussianTwoModeState, mode: str = SIGNAL) -> float:
    return photon_stats(state, mode).mean


def state_after_first_opa(cfg: InterferometerConfig) -> GaussianTwoModeState:
    """The pipeline up to the loss: seed, then the first OPA.  cfg may be a
    config.ConfigStack, giving one state per config."""
    return apply_squeezer(seed_idler(vacuum_state(), cfg.n_i), cfg.g1)


def phase_then_second_opa(
    state: GaussianTwoModeState, theta, g2
) -> GaussianTwoModeState:
    """The pipeline tail: signal phase theta, then the second OPA of gain g2."""
    return apply_squeezer(apply_phase(state, theta, SIGNAL), g2)


@np.errstate(over="ignore", invalid="ignore")
def run_interferometer(cfg: InterferometerConfig) -> GaussianTwoModeState:
    """Propagate vacuum through seed -> OPA1 -> loss -> phase -> OPA2."""
    before_phase = apply_loss(state_after_first_opa(cfg), cfg.t_s, cfg.t_i)
    return phase_then_second_opa(before_phase, cfg.theta, cfg.g2)


@np.errstate(over="ignore", invalid="ignore")
def signal_moments(cfgs: ConfigStack, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Signal photon-number mean and variance of N stacked configs, arrays
    (P + 2, N): after the phase + OPA2 tail at each of the P rows of thetas,
    shape (P, N) or (P, 1), then after OPA1, then after the loss.

    One prefix pass over the N configs, one tail pass over the P x N
    (config, phase) pairs and one moments pass; never raises for a point
    whose statistics overflow (see photon_moments)."""
    cfgs = ConfigStack(*(a[None] for a in cfgs))  # the prefix is one phase row
    after_opa1 = state_after_first_opa(cfgs)
    before_phase = apply_loss(after_opa1, cfgs.t_s, cfgs.t_i)
    tails = phase_then_second_opa(before_phase, thetas, cfgs.g2)
    states = (tails, after_opa1, before_phase)
    return photon_moments(GaussianTwoModeState(
        cov=np.concatenate([s.cov for s in states]),
        disp=np.concatenate([s.disp for s in states]),
    ))


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix; physical states have all >= 1/2."""
    omega = np.zeros((4, 4))
    for k in (0, 2):
        omega[k, k + 1] = 1.0
        omega[k + 1, k] = -1.0
    # eigenvalues of i*Omega*V come in +/- nu pairs with nu real
    eig = np.linalg.eigvals(1j * omega @ cov)
    return np.sort(np.abs(eig.real))[::2]
