"""Brute-force truncated Fock-space oracle for the two-mode pipeline.

Everything here is deliberately independent of the Gaussian engine: the seed
is the exact coherent state e^{-|alpha|^2/2} alpha^n / sqrt(n!) cut at the
cutoff, the two-mode squeeze is exponentiated block by block through the
eigendecomposition of a real symmetric tridiagonal matrix, and loss splits a
state into a stack of pure Kraus branches, so a mixed state is the sum of its
branches' projectors.  The oracle regime is small gains and seeds; the cutoff
auto-doubles when the tail of the photon-number distribution becomes populated
or probability is lost past it.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np
from scipy.special import comb

from .config import InterferometerConfig
from .errors import DomainError, TruncationError
from .gaussian import IDLER, SIGNAL, PhotonStats

DEFAULT_CUTOFF = 40
MAX_CUTOFF = 128
TAIL_TOL = 1e-10
# tensor axis of each mode's photon number
_AXIS = {SIGNAL: 0, IDLER: 1}


@dataclass(frozen=True)
class FockTwoModeState:
    """Truncated two-mode state: an amplitude array (D, D) indexed (n_s, n_i)
    if pure, else a stack (D, D, B) of B unnormalised pure branches, on the
    last axis, whose projectors sum to the density matrix."""

    tensor: np.ndarray

    @property
    def is_pure(self) -> bool:
        return self.tensor.ndim == 2

    @property
    def cutoff(self) -> int:
        return self.tensor.shape[0]


def vacuum(cutoff: int = DEFAULT_CUTOFF) -> FockTwoModeState:
    amp = np.zeros((cutoff, cutoff), dtype=complex)
    amp[0, 0] = 1.0
    return FockTwoModeState(tensor=amp)


def _squeeze_blocks(g: float, d: int):
    """Blockwise exponential of the two-mode-squeeze generator.

    The generator conserves n_s - n_i, so exp(K) is block diagonal over that
    offset; each block is the exponential of a small antisymmetric tridiagonal
    matrix gen, with `sub` below the diagonal and -`sub` above it.  With
    P = diag(i^k), gen = P (-i T) P^-1 for the real symmetric tridiagonal T
    that has `sub` on both off-diagonals, so from T = V diag(w) V^T:
        exp(gen) = Re[P V diag(e^{-iw}) V^T P^-1].
    Yields (flat-index array, dense block) pairs.
    """
    for off in range(-(d - 1), d):
        ns = np.arange(max(0, off), min(d, d + off))
        idx = ns * d + (ns - off)
        m = len(ns)
        if m == 1:
            yield idx, np.ones((1, 1))
            continue
        sub = g * np.sqrt((ns[:-1] + 1.0) * (ns[:-1] + 1.0 - off))
        w, v = np.linalg.eigh(np.diag(sub, -1) + np.diag(sub, 1))
        pv = v * np.array([1, 1j, -1, -1j])[np.arange(m) % 4, None]  # P V
        yield idx, ((pv * np.exp(-1j * w)) @ pv.conj().T).real


def _apply_squeeze_unitary(state: FockTwoModeState, g: float) -> FockTwoModeState:
    d = state.cutoff
    blocks = list(_squeeze_blocks(g, d))
    # one row per basis state, one column per branch: a (D^2, B) view
    vec = state.tensor.reshape(d * d, -1)
    out = np.empty_like(vec)
    for idx, block in blocks:
        out[idx] = block @ vec[idx]
    return FockTwoModeState(tensor=out.reshape(state.tensor.shape))


def _joint_distribution(state: FockTwoModeState) -> np.ndarray:
    """Joint photon-number distribution P(n_s, n_i), summed over branches."""
    d = state.cutoff
    return (np.abs(state.tensor) ** 2).reshape(d, d, -1).sum(axis=2)


def number_distribution(state: FockTwoModeState, mode: str = SIGNAL) -> np.ndarray:
    """Marginal photon-number distribution of one mode."""
    return _joint_distribution(state).sum(axis=1 - _AXIS[mode])


def _tail_mass(prob: np.ndarray) -> float:
    """Probability in the top two photon-number shells of either mode of a
    joint distribution: the two tail masses added, so the corner counts twice."""
    return float(prob[-2:].sum() + prob[:, -2:].sum())


def tail_population(state: FockTwoModeState) -> float:
    """Tail mass of the state's joint photon-number distribution."""
    return _tail_mass(_joint_distribution(state))


def _pad(state: FockTwoModeState, new_cutoff: int) -> FockTwoModeState:
    d = state.cutoff
    amp = np.zeros((new_cutoff, new_cutoff) + state.tensor.shape[2:], dtype=complex)
    amp[:d, :d] = state.tensor
    return FockTwoModeState(tensor=amp)


def _with_tail_retry(state, op, label):
    """Apply op; if the output populates the cutoff tail or has lost norm, pad
    the input to twice its cutoff, capped at MAX_CUTOFF, and redo.

    Squeeze and loss keep the norm inside the truncated space; the seed's
    amplitudes are exact, so its norm deficit is the mass lost past the cutoff.
    """
    while True:
        out = op(state)
        prob = _joint_distribution(out)
        lost = _tail_mass(prob) + max(1.0 - float(prob.sum()), 0.0)
        if lost < TAIL_TOL:
            return out
        if state.cutoff >= MAX_CUTOFF:
            raise TruncationError(
                f"{label}: tail and lost population {lost:.2e} at cutoff "
                f"{state.cutoff} (max cutoff {MAX_CUTOFF})"
            )
        state = _pad(state, min(2 * state.cutoff, MAX_CUTOFF))


def squeeze(state: FockTwoModeState, g: float) -> FockTwoModeState:
    """Two-mode squeeze exp[g (a_s^dag a_i^dag - a_s a_i)]."""
    if g < 0:
        raise DomainError(f"gain must be >= 0, got {g}")
    if g == 0:
        return state
    return _with_tail_retry(
        state, lambda st: _apply_squeeze_unitary(st, g), "squeeze"
    )


def displace(state: FockTwoModeState, alpha: complex, mode: str) -> FockTwoModeState:
    """Coherent displacement D(alpha) on one mode of the vacuum.

    The amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) are exact, built as one
    running product and cut at the cutoff, so the norm they miss is the
    population that lies past it.
    """
    if not np.array_equal(state.tensor, vacuum(state.cutoff).tensor):
        raise DomainError("displace seeds the pure vacuum only; the pipeline seeds first")
    if alpha == 0:
        return state

    def seed(st: FockTwoModeState) -> FockTwoModeState:
        d = st.cutoff
        ratios = np.r_[math.exp(-0.5 * abs(alpha) ** 2), alpha / np.sqrt(np.arange(1.0, d))]
        amp = np.zeros((d, d), dtype=complex)
        np.moveaxis(amp, _AXIS[mode], 0)[:, 0] = np.cumprod(ratios)
        return FockTwoModeState(tensor=amp)

    return _with_tail_retry(state, seed, "displace")


def phase_shift(
    state: FockTwoModeState, theta: float, mode: str = SIGNAL
) -> FockTwoModeState:
    """Phase shift exp(i theta n) on one mode (signal by default)."""
    ph = np.exp(1j * theta * np.arange(state.cutoff))
    ph = ph.reshape((-1,) + (1,) * (state.tensor.ndim - 1 - _AXIS[mode]))
    return FockTwoModeState(tensor=state.tensor * ph)


def loss(state: FockTwoModeState, t: float, mode: str) -> FockTwoModeState:
    """Attenuation channel with amplitude transmission t on one mode.

    Each branch splits into D Kraus branches; Kraus operator k loses k photons:
        A_k |m+k> = sqrt(C(m+k, k)) t^m (1-t^2)^(k/2) |m>
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"transmission must lie in [0, 1], got {t}")
    if t == 1.0:
        return state
    d = state.cutoff
    amp = state.tensor.reshape(d, d, -1)
    # (n_s, n_i, k, branch); the views put the lossy mode's axis first
    out = np.zeros((d, d, d, amp.shape[2]), dtype=complex)
    amp_m, out_m = np.moveaxis(amp, _AXIS[mode], 0), np.moveaxis(out, _AXIS[mode], 0)
    for k in range(d):
        mk = np.arange(d - k, dtype=float)
        w = np.sqrt(comb(mk + k, k)) * t**mk * (1.0 - t * t) ** (k / 2)
        out_m[: d - k, :, k] = w[:, None, None] * amp_m[k:]
    return FockTwoModeState(tensor=out.reshape(d, d, -1))


def norm_deficit(state: FockTwoModeState) -> float:
    """1 - trace; positive values are truncation leakage."""
    return 1.0 - float(np.sum(np.abs(state.tensor) ** 2))


def photon_stats(state: FockTwoModeState, mode: str = SIGNAL) -> PhotonStats:
    """Mean and variance of one mode's photon number by direct summation."""
    p = number_distribution(state, mode)
    n = np.arange(state.cutoff, dtype=float)
    mean = float(n @ p)
    var = float((n * n) @ p) - mean * mean
    return PhotonStats(mean=mean, variance=var)


def suggested_cutoff(cfg: InterferometerConfig) -> int:
    """Initial cutoff sized to the pipeline's peak per-mode photon flux.

    Slightly generous so the tail-driven auto-doubling rarely triggers; used
    by the validation harness, while DEFAULT_CUTOFF stays the plain default.
    """
    # sinh(10)^2 is already ~1e8 photons, far past MAX_CUTOFF
    peak = cfg.n_i + (cfg.n_i + 1.0) * math.sinh(min(cfg.g1 + cfg.g2, 10.0)) ** 2 + 1.0
    if peak >= MAX_CUTOFF:
        return MAX_CUTOFF
    d = int(math.ceil(peak + 6.0 * math.sqrt(peak) + 14.0))
    d = 4 * ((d + 3) // 4)
    return max(16, min(d, MAX_CUTOFF))


def pipeline(
    cfg: InterferometerConfig, cutoff: int = DEFAULT_CUTOFF
) -> PhotonStats:
    """Full interferometer in the truncated Fock basis; returns signal stats.

    Order matches the Gaussian engine: seed -> OPA1 -> loss -> phase -> OPA2.
    """
    state = vacuum(cutoff)
    state = displace(state, np.sqrt(cfg.n_i), IDLER)
    state = squeeze(state, cfg.g1)
    state = loss(state, cfg.t_s, SIGNAL)
    state = loss(state, cfg.t_i, IDLER)
    state = phase_shift(state, cfg.theta, SIGNAL)
    state = squeeze(state, cfg.g2)
    return photon_stats(state, SIGNAL)
