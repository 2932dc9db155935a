"""Brute-force truncated Fock-space oracle for the two-mode pipeline.

Everything here is deliberately independent of the Gaussian engine: the
two-mode squeeze is exponentiated block by block through the eigendecomposition
of a real symmetric tridiagonal matrix, the displacement by a sparse
exponential of its ladder-operator generator, and loss splits a state into a
stack of pure Kraus branches, so a mixed state is the sum of its branches'
projectors.  The oracle regime is small gains and seeds; cutoff auto-doubles
when the tail of the photon-number distribution becomes populated.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from scipy.special import comb

from .config import InterferometerConfig
from .errors import DomainError, TruncationError
from .gaussian import IDLER, SIGNAL, PhotonStats

DEFAULT_CUTOFF = 40
MAX_CUTOFF = 128
TAIL_TOL = 1e-10


@dataclass(frozen=True)
class FockTwoModeState:
    """Truncated two-mode state: an amplitude array (D, D) indexed (n_s, n_i)
    if pure, else a stack (B, D, D) of unnormalised pure branches whose
    projectors sum to the density matrix."""

    tensor: np.ndarray

    @property
    def is_pure(self) -> bool:
        return self.tensor.ndim == 2

    @property
    def cutoff(self) -> int:
        return self.tensor.shape[-1]


def vacuum(cutoff: int = DEFAULT_CUTOFF) -> FockTwoModeState:
    amp = np.zeros((cutoff, cutoff), dtype=complex)
    amp[0, 0] = 1.0
    return FockTwoModeState(tensor=amp)


def _annihilator(d: int) -> sp.spmatrix:
    return sp.diags(np.sqrt(np.arange(1, d, dtype=float)), 1)


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
    # one column per branch: (D^2, B)
    vec = state.tensor.reshape(-1, d * d).T.copy()
    for idx, block in blocks:
        vec[idx] = block @ vec[idx]
    return FockTwoModeState(tensor=vec.T.reshape(state.tensor.shape))


def _displace_generator(alpha: complex, d: int, mode: str) -> sp.spmatrix:
    a = _annihilator(d)
    gen = alpha * a.T - np.conj(alpha) * a
    eye = sp.identity(d)
    full = sp.kron(gen, eye) if mode == SIGNAL else sp.kron(eye, gen)
    return full.tocsr()


def _apply_unitary(state: FockTwoModeState, gen: sp.spmatrix) -> FockTwoModeState:
    d = state.cutoff
    vec = expm_multiply(gen, state.tensor.reshape(-1))
    return FockTwoModeState(tensor=vec.reshape(d, d))


def number_distribution(state: FockTwoModeState, mode: str = SIGNAL) -> np.ndarray:
    """Marginal photon-number distribution of one mode."""
    prob = np.abs(state.tensor) ** 2
    prob = prob.sum(axis=-1 if mode == SIGNAL else -2)
    return prob.reshape(-1, state.cutoff).sum(axis=0)


def tail_population(state: FockTwoModeState) -> float:
    """Total probability sitting in the top two photon-number shells of either
    mode: the signal and idler tail masses added, so the corner counts twice."""
    d = state.cutoff
    prob = (np.abs(state.tensor) ** 2).reshape(-1, d, d).sum(axis=0)
    return float(prob[-2:].sum() + prob[:, -2:].sum())


def _pad(state: FockTwoModeState, new_cutoff: int) -> FockTwoModeState:
    d = state.cutoff
    amp = np.zeros(state.tensor.shape[:-2] + (new_cutoff, new_cutoff), dtype=complex)
    amp[..., :d, :d] = state.tensor
    return FockTwoModeState(tensor=amp)


def _with_tail_retry(state, op, label):
    """Apply op; if the output populates the cutoff tail, pad the input to twice
    its cutoff, capped at MAX_CUTOFF, and redo."""
    while True:
        out = op(state)
        tail = tail_population(out)
        if tail < TAIL_TOL:
            return out
        if state.cutoff >= MAX_CUTOFF:
            raise TruncationError(
                f"{label}: tail population {tail:.2e} at cutoff {state.cutoff} "
                f"(max cutoff {MAX_CUTOFF})"
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
    """Coherent displacement D(alpha) on one mode of a pure state."""
    if not state.is_pure:
        raise DomainError("displace acts on pure states only; the pipeline seeds first")
    if alpha == 0:
        return state
    return _with_tail_retry(
        state,
        lambda st: _apply_unitary(st, _displace_generator(alpha, st.cutoff, mode)),
        "displace",
    )


def phase_shift(
    state: FockTwoModeState, theta: float, mode: str = SIGNAL
) -> FockTwoModeState:
    """Phase shift exp(i theta n) on one mode (signal by default)."""
    ph = np.exp(1j * theta * np.arange(state.cutoff))
    ph = ph[:, None] if mode == SIGNAL else ph
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
    amp = state.tensor.reshape(-1, d, d)
    out = np.zeros((d,) + amp.shape, dtype=complex)
    m = np.arange(d, dtype=float)
    for k in range(d):
        mk = m[: d - k]
        w = np.sqrt(comb(mk + k, k)) * t**mk * (1.0 - t * t) ** (k / 2)
        if mode == SIGNAL:
            out[k, :, : d - k, :] = w[:, None] * amp[:, k:, :]
        else:
            out[k, :, :, : d - k] = w * amp[:, :, k:]
    return FockTwoModeState(tensor=out.reshape(-1, d, d))


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
    peak = cfg.n_i + (cfg.n_i + 1.0) * math.sinh(cfg.g1 + cfg.g2) ** 2 + 1.0
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
