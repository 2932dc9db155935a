"""Brute-force truncated Fock-space oracle for the two-mode pipeline.

Everything here is deliberately independent of the Gaussian engine: the seed
is the exact coherent state e^{-|alpha|^2/2} alpha^n / sqrt(n!) cut at the
cutoff, and the two-mode squeeze is exponentiated sector by sector, through
the eigendecomposition of a real symmetric tridiagonal matrix per sector of
fixed n_s - n_i.

A pure state is a (D, D) amplitude array indexed (n_s, n_i).  Loss makes it
mixed, and a mixed state is kept as its sector density

    Z[delta, n_s, n_i] = <n_s, n_i| rho |n_s + delta, n_i + delta>,

shape (2D - 1, D, D) with delta + D - 1 on the first axis: the part of rho
that commutes with exp[i phi (n_s - n_i)].  Dropping the rest is exact, not a
truncation.  Squeeze, loss and phase each commute with that rotation, and so
does the photon-number readout, so coherences between different n_s - n_i
can never reach a reported statistic.  The sector density holds D^3
amplitudes, and loss, phase and squeeze are each one batched matrix product
over delta or over the sectors.

The oracle regime is small gains and seeds; the cutoff auto-doubles when the
tail of the photon-number distribution becomes populated or probability is
lost past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import math

import numpy as np
from scipy.special import comb

from .config import InterferometerConfig
from .errors import DomainError, TruncationError
from .gaussian import IDLER, SIGNAL, PhotonStats

DEFAULT_CUTOFF = 40
MAX_CUTOFF = 128
TAIL_TOL = 1e-10
# tensor axis of each mode's photon number in a pure state
_AXIS = {SIGNAL: 0, IDLER: 1}


@dataclass(frozen=True)
class FockTwoModeState:
    """Truncated two-mode state: an amplitude array (D, D) indexed (n_s, n_i)
    if pure, else the sector density (2D - 1, D, D) indexed
    (delta + D - 1, n_s, n_i), see the module docstring."""

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


class _Sectors(NamedTuple):
    """The n_s - n_i sectors at one cutoff d.

    Sector s (row s + d - 1) holds the m = d - |s| states
    |a + max(s, 0), a + max(-s, 0)>, a = min(n_s, n_i) < m, zero-padded to d.
    """

    flat: np.ndarray  # (2d-1, d): flat index n_s d + n_i of state a of sector s
    pure: tuple  # (amplitude, sector-vector) flat index pairs, one per state
    mixed: tuple  # (sector-density, sector-block) flat index pairs
    w: np.ndarray  # (d, d): eigenvalues of the unit-gain block T, by |s|
    pv: np.ndarray  # (d, d, d): P V, the matching eigenvectors times diag(i^a)


@lru_cache(maxsize=4)
def _sectors(d: int) -> _Sectors:
    """Sector layout and the squeeze eigenbasis at cutoff d.

    The squeeze generator conserves n_s - n_i.  On sector s it is g times an
    antisymmetric tridiagonal matrix gen, with sub_a = sqrt((a+1)(a+1+|s|))
    below the diagonal and -sub_a above it, so one eigendecomposition at unit
    gain serves every g, and sectors s and -s share it.  With P = diag(i^a),
    gen = P (-i T) P^-1 for the real symmetric tridiagonal T that has sub on
    both off-diagonals, so from T = V diag(w) V^T:
        exp(g gen) = Re[P V diag(e^{-igw}) V^T P^-1].
    """
    s = np.arange(-(d - 1), d)[:, None]
    a = np.arange(d)
    valid = a < d - np.abs(s)
    flat = (a + np.maximum(s, 0)) * d + a + np.maximum(-s, 0)
    pure = (flat[valid], np.flatnonzero(valid))
    block = valid[:, :, None] & valid[:, None, :]  # (s, a, b)
    # <row a| rho |column b> of sector s sits at delta = b - a
    z = (a - a[:, None] + d - 1) * d * d + flat[:, :, None]
    mixed = (z[block], np.flatnonzero(block))

    off = np.arange(d)[:, None]
    sub = np.sqrt((a[1:] * (a[1:] + off)).astype(float)) * (a[1:] < d - off)
    t = np.zeros((d, d, d))
    t[:, a[1:], a[:-1]] = sub
    t[:, a[:-1], a[1:]] = sub
    w, v = np.linalg.eigh(t)
    pv = v * np.array([1, 1j, -1, -1j])[a % 4, None]
    return _Sectors(flat, pure, mixed, w, pv)


def _sector_unitaries(g: float, d: int) -> np.ndarray:
    """(d, d, d) real: the squeeze exp(g gen) on each sector, by |s|; the
    zero padding of a sector maps to itself."""
    sec = _sectors(d)
    u = (sec.pv * np.exp(-1j * g * sec.w)[:, None, :]) @ sec.pv.conj().transpose(0, 2, 1)
    return u.real


def _squeeze_blocks(g: float, d: int):
    """The squeeze's sector blocks one at a time, in the order of n_s - n_i,
    as (flat index into the (D, D) amplitudes, real block) pairs."""
    flat, blocks = _sectors(d).flat, _sector_unitaries(g, d)
    for s in range(-(d - 1), d):
        m = d - abs(s)
        yield flat[s + d - 1, :m], blocks[abs(s), :m, :m]


def _regroup(src: np.ndarray, take: np.ndarray, put: np.ndarray, shape) -> np.ndarray:
    """A zero array of `shape` whose flat entries `put` are src's flat `take`."""
    out = np.zeros(shape, dtype=complex)
    out.reshape(-1)[put] = src.reshape(-1)[take]
    return out


def _apply_squeeze_unitary(state: FockTwoModeState, g: float) -> FockTwoModeState:
    d = state.cutoff
    sec = _sectors(d)
    u = _sector_unitaries(g, d)[np.abs(np.arange(-(d - 1), d))]
    if state.is_pure:
        amp, vec = sec.pure
        x = _regroup(state.tensor, amp, vec, (2 * d - 1, d, 1))
        out = _regroup(u @ x, vec, amp, (d, d))
    else:
        dens, blk = sec.mixed
        r = _regroup(state.tensor, dens, blk, (2 * d - 1, d, d))
        out = _regroup(u @ r @ u.transpose(0, 2, 1), blk, dens, state.tensor.shape)
    return FockTwoModeState(tensor=out)


def _joint_distribution(state: FockTwoModeState) -> np.ndarray:
    """Joint photon-number distribution P(n_s, n_i): |amplitude|^2, or the
    sector density at delta = 0."""
    if state.is_pure:
        return np.abs(state.tensor) ** 2
    return state.tensor[state.cutoff - 1].real


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
    if state.is_pure:
        amp = np.zeros((new_cutoff, new_cutoff), dtype=complex)
        amp[:d, :d] = state.tensor
    else:
        # delta = 0 moves from row d - 1 to row new_cutoff - 1
        amp = np.zeros((2 * new_cutoff - 1, new_cutoff, new_cutoff), dtype=complex)
        amp[new_cutoff - d : new_cutoff + d - 1, :d, :d] = state.tensor
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
    """Phase shift exp(i theta n) on one mode (signal by default).

    On a sector density it is the factor exp(-i theta delta), whichever mode.
    """
    d, axis = state.cutoff, _AXIS[mode]
    if state.is_pure:
        ph = np.exp(1j * theta * np.arange(d)).reshape((-1,) + (1,) * (1 - axis))
    else:
        ph = np.exp(-1j * theta * np.arange(-(d - 1), d))[:, None, None]
    return FockTwoModeState(tensor=state.tensor * ph)


def _diagonal_shifts(a: np.ndarray) -> np.ndarray:
    """(2D - 1, D, D) stack of a (D, D) array shifted along its diagonal:
    out[delta + D - 1, n, m] = a[n + delta, m + delta], zero outside a."""
    d = a.shape[0]
    pad = np.zeros((3 * d - 2, 3 * d - 2), dtype=a.dtype)
    pad[d - 1 : 2 * d - 1, d - 1 : 2 * d - 1] = a
    k = np.arange(2 * d - 1)
    return np.lib.stride_tricks.sliding_window_view(pad, (d, d))[k, k]


def loss(state: FockTwoModeState, t: float, mode: str) -> FockTwoModeState:
    """Attenuation channel with amplitude transmission t on one mode.

    Kraus operator k loses k photons:
        A_k |m+k> = w(m, k) |m>,  w(m, k) = sqrt(C(m+k, k)) t^m (1-t^2)^(k/2),
    so on the sector density the lossy mode's index is multiplied by
        L[delta][n, n'] = w(n, n' - n) w(n + delta, n' - n):
    L @ Z for the signal, Z @ L^T for the idler.  A pure state becomes its
    sector density first.
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"transmission must lie in [0, 1], got {t}")
    if t == 1.0:
        return state
    d = state.cutoff
    n = np.arange(d)
    k = np.maximum(n - n[:, None], 0)
    # w[m, m + k] = w(m, k), zero below the diagonal
    w = np.sqrt(comb(n, n[:, None])) * t ** n[:, None] * (1.0 - t * t) ** (k / 2)
    lmat = w * _diagonal_shifts(w)
    if state.is_pure:
        z = state.tensor * _diagonal_shifts(state.tensor).conj()
    else:
        z = state.tensor
    out = lmat @ z if _AXIS[mode] == 0 else z @ lmat.transpose(0, 2, 1)
    return FockTwoModeState(tensor=out)


def norm_deficit(state: FockTwoModeState) -> float:
    """1 - trace; positive values are truncation leakage."""
    return 1.0 - float(_joint_distribution(state).sum())


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
