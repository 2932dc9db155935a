"""Brute-force truncated Fock-space oracle for the two-mode pipeline.

Everything here is deliberately independent of the Gaussian engine: the seed
is the exact coherent state e^{-|alpha|^2/2} alpha^n / sqrt(n!) cut at the
cutoff, and the two-mode squeeze is exponentiated sector by sector, through
the singular value decomposition of the half-size even-odd block of a real
symmetric tridiagonal matrix per sector of fixed n_s - n_i.

A pure state is a (D, D) amplitude array indexed (n_s, n_i).  Loss makes it
mixed, and a mixed state is kept as its sector density

    Z[delta, n_s, n_i] = <n_s, n_i| rho |n_s + delta, n_i + delta>,

the part of rho that commutes with exp[i phi (n_s - n_i)].  Dropping the rest
is exact, not a truncation.  Squeeze, loss and phase each commute with that
rotation, and so does the photon-number readout, so coherences between
different n_s - n_i can never reach a reported statistic.  Hermiticity gives
Z[-delta][n + delta, m + delta] = conj Z[delta][n, m], so only the delta >= 0
half is stored: shape (D, D, D), delta on the first axis.  Loss and phase act
on each delta alone, and the squeeze on each sector's Hermitian block, whose
upper triangle is that half.  Sector s holds only D - |s| states and the
delta-slice only D - delta live rows, so the indices |s| and delta are grouped
into contiguous size buckets (`_buckets`), and each bucket runs its batched
matrix products on the [:m, :m] corner its smallest index leaves live, not
on the zero padding up to D.  A pure state (OPA 1, and OPA 2 of a lossless
device) is squeezed by applying the eigenbasis to its sector vectors
directly, without forming any squeeze matrix.

The pipeline runs in real float64 arithmetic.  Every factor before the phase
is real (the seed at alpha = sqrt(n_i), the squeeze blocks, the loss weights),
so the sector density Z there is real, and the phase turns it into
exp(-i theta delta) Z.  What enters OPA 2 instead is its real part,
cos(theta delta) Z: the sector density of the mixture (rho_theta +
rho_-theta) / 2.  This is exact, not an approximation: every OPA-2 block is
real, so rho_theta and rho_-theta give the same signal photon-number
distribution.  The public `phase_shift` still returns the true, complex state,
and a pure state (a lossless device) crosses the phase as its complex (D, D)
amplitudes, which cost little.  Every state keeps its input's dtype, so a
complex seed alpha gives complex amplitudes.

OPA 2 is the last element, and the pipeline reads only the diagonal of its
output.  So it forms no output state: per sector block it takes the
distribution straight from the upper triangle of the input block, with one
batched product and one row-dot per size bucket (`_apply_squeeze_readout`).
The public `squeeze` still returns the whole state.

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
# most sector indices |s| (or loss deltas) per size bucket, see _buckets:
# measured within 7 % of the fastest width at every cutoff from 24 to 112
_BUCKET = 8


@dataclass(frozen=True)
class FockTwoModeState:
    """Truncated two-mode state: an amplitude array (D, D) indexed (n_s, n_i)
    if pure, else the delta >= 0 half of the sector density, (D, D, D)
    indexed (delta, n_s, n_i), see the module docstring."""

    tensor: np.ndarray

    @property
    def is_pure(self) -> bool:
        return self.tensor.ndim == 2

    @property
    def cutoff(self) -> int:
        return self.tensor.shape[-1]


def vacuum(cutoff: int = DEFAULT_CUTOFF) -> FockTwoModeState:
    amp = np.zeros((cutoff, cutoff))
    amp[0, 0] = 1.0
    return FockTwoModeState(tensor=amp)


def _buckets(d: int) -> list:
    """Contiguous ranges [lo, hi) of the sector index |s|, or of the loss's
    delta, at most _BUCKET wide, each with the size m = d - lo of the corner
    [:m, :m] that holds every live row and column of the range."""
    return [(lo, min(lo + _BUCKET, d), d - lo) for lo in range(0, d, _BUCKET)]


class _Sectors(NamedTuple):
    """The n_s - n_i sectors at one cutoff d.

    Sector s holds the m = d - |s| states |a + max(s, 0), a + max(-s, 0)>,
    a = min(n_s, n_i) < m, zero-padded to d.  Sectors s and -s share their
    squeeze block, so the sector vectors are stacked (d, 2, d) and the sector
    blocks (d, 2, d, d), with sector s at [|s|, s < 0]; [0, 1] stays zero.
    The eigenbasis is taken per size bucket (_buckets): each bucket's factors
    fill the top-left corner of x, y and sv, with the identity (sv = 0)
    beyond, so the padding still maps to itself.
    """

    flat: np.ndarray  # (2d-1, d): flat index n_s d + n_i of state a of sector s
    pure: tuple  # (amplitude, sector-vector) flat index pairs, one per state
    mixed: tuple  # (sector-density, sector-block) flat index pairs, b >= a
    sv: np.ndarray  # (d, (d+1)//2): singular values of B, by |s|; 0-padded
    x: np.ndarray  # (d, (d+1)//2, (d+1)//2): R X, rows a = 0, 2, ...
    y: np.ndarray  # (d, d//2, d//2): R Y, rows a = 1, 3, ...


@lru_cache(maxsize=4)
def _sectors(d: int) -> _Sectors:
    """Sector layout and the squeeze eigenbasis at cutoff d.

    The squeeze generator conserves n_s - n_i.  On sector s it is g times an
    antisymmetric tridiagonal matrix gen, with sub_a = sqrt((a+1)(a+1+|s|))
    below the diagonal and -sub_a above it, so one decomposition at unit gain
    serves every g, and sectors s and -s share it.  With P = diag(i^a),
    gen = P (-i T) P^-1 for the real symmetric tridiagonal T that has sub on
    both off-diagonals, so exp(g gen) = Re[P (cos gT - i sin gT) P^-1].
    T only links a to a +- 1: in even-odd order T = [[0, B], [B^T, 0]] with
    B = T[::2, 1::2], and from B = X diag(sv) Y^T
        cos gT = [[X cos(g sv) X^T, 0], [0, Y cos(g sv) Y^T]],
        sin gT = [[0, X sin(g sv) Y^T], [Y sin(g sv) X^T, 0]].
    For odd d, X has one column more than Y; it spans B's left null space
    and takes sv = 0, so cos = 1 there.  With P = R diag(i^(a%2)),
    R = diag((-1)^(a//2)), the real part is R cos(gT) R on even a - b,
    R sin(gT) R for odd a and even b, and -R sin(gT) R for even a and odd b:
    real products of R X and R Y, from one SVD per size bucket of the stack
    of B on the bucket's corner, ((m+1)//2, m//2).  Unlike an
    eigendecomposition of the stack of T, these SVDs stay off OpenBLAS's
    worker threads at the cutoffs validate reaches.
    """
    s = np.arange(-(d - 1), d)[:, None]
    a = np.arange(d)
    valid = a < d - np.abs(s)
    flat = (a + np.maximum(s, 0)) * d + a + np.maximum(-s, 0)
    vec = (2 * np.abs(s) + (s < 0)) * d + a  # flat index into the (d, 2, d) stack
    pure = (flat[valid], vec[valid])
    # <row a| rho |column b> of sector s sits at delta = b - a: the stored
    # half is the upper triangle b >= a of each block, at flat index
    # delta d^2 + flat[s, a] of the density and vec[s, a] d + a + delta of
    # the blocks.  Both step by d + 1 with a, so each (s, delta < m) is one
    # run of m - delta entries.
    delta, si = np.nonzero(valid.T)
    count = valid.sum(axis=1)[si] - delta
    first = np.repeat(np.cumsum(count) - count, count)
    step = (d + 1) * (np.arange(first.size) - first)
    mixed = (np.repeat(delta * (d * d) + flat[si, 0], count) + step,
             np.repeat(vec[si, 0] * d + delta, count) + step)

    off = np.arange(d)[:, None]
    sub = np.sqrt((a[1:] * (a[1:] + off)).astype(float)) * (a[1:] < d - off)
    t = np.zeros((d, d, d))
    t[:, a[1:], a[:-1]] = sub
    t[:, a[:-1], a[1:]] = sub
    sign = (-1.0) ** np.arange((d + 1) // 2)[:, None]
    sv = np.zeros((d, (d + 1) // 2))
    x = np.tile(np.eye((d + 1) // 2), (d, 1, 1))
    y = np.tile(np.eye(d // 2), (d, 1, 1))
    for lo, hi, m in _buckets(d):
        xb, sv[lo:hi, : m // 2], yt = np.linalg.svd(t[lo:hi, :m:2, 1:m:2])
        x[lo:hi, : (m + 1) // 2, : (m + 1) // 2] = sign[: (m + 1) // 2] * xb
        y[lo:hi, : m // 2, : m // 2] = sign[: m // 2] * yt.transpose(0, 2, 1)
    return _Sectors(flat, pure, mixed, sv, x, y)


@lru_cache(maxsize=4)
def _loss_binomials(d: int) -> np.ndarray:
    """(d, d): sqrt(C(m', m)) at [m, m'], zero below the diagonal."""
    n = np.arange(d)
    return np.sqrt(comb(n, n[:, None]))


def _sector_unitaries(g: float, d: int) -> np.ndarray:
    """(d, d, d) real: the squeeze exp(g gen) on sectors s and -s, by |s|;
    the zero padding of a sector maps to itself.  Each size bucket fills its
    [:m, :m] corner, and the identity stands beyond it."""
    sec = _sectors(d)
    gsv = g * sec.sv[:, None, :]
    cos, sin = np.cos(gsv), np.sin(gsv)
    u = np.tile(np.eye(d), (d, 1, 1))
    for lo, hi, m in _buckets(d):
        ne, no = (m + 1) // 2, m // 2
        x, y, ub = sec.x[lo:hi, :ne, :ne], sec.y[lo:hi, :no, :no], u[lo:hi, :m, :m]
        ub[:, ::2, ::2] = (x * cos[lo:hi, :, :ne]) @ x.transpose(0, 2, 1)
        ub[:, 1::2, 1::2] = (y * cos[lo:hi, :, :no]) @ y.transpose(0, 2, 1)
        ub[:, 1::2, ::2] = (y * sin[lo:hi, :, :no]) @ x[..., :no].transpose(0, 2, 1)
        ub[:, ::2, 1::2] = -ub[:, 1::2, ::2].transpose(0, 2, 1)
    return u


def _squeeze_blocks(g: float, d: int):
    """The squeeze's sector blocks one at a time, in the order of n_s - n_i,
    as (flat index into the (D, D) amplitudes, real block) pairs."""
    flat, blocks = _sectors(d).flat, _sector_unitaries(g, d)
    for s in range(-(d - 1), d):
        m = d - abs(s)
        yield flat[s + d - 1, :m], blocks[abs(s), :m, :m]


def _regroup(src: np.ndarray, take: np.ndarray, put: np.ndarray, shape) -> np.ndarray:
    """A zero array of `shape` whose flat entries `put` are src's flat `take`."""
    out = np.zeros(shape, dtype=src.dtype)
    out.reshape(-1)[put] = src.reshape(-1)[take]
    return out


def _apply_squeeze_unitary(state: FockTwoModeState, g: float) -> FockTwoModeState:
    d = state.cutoff
    sec = _sectors(d)
    if state.is_pure:
        # exp(g gen) v straight from the eigenbasis, see _sectors: with
        # a = X^T v_even and b = Y^T v_odd, the even rows are X (cos a - sin b)
        # and the odd rows Y (sin a + cos b)
        amp, vec = sec.pure
        v = _regroup(state.tensor, amp, vec, (d, 2, d))
        h = d // 2  # for odd d the last even column has sv = 0 and no partner
        cos, sin = np.cos(g * sec.sv)[:, None], np.sin(g * sec.sv[:, None, :h])
        a, b = v[..., ::2] @ sec.x, v[..., 1::2] @ sec.y
        even = cos * a
        even[..., :h] -= sin * b
        v[..., ::2] = even @ sec.x.transpose(0, 2, 1)
        v[..., 1::2] = (sin * a[..., :h] + cos[..., :h] * b) @ sec.y.transpose(0, 2, 1)
        return FockTwoModeState(tensor=_regroup(v, vec, amp, (d, d)))
    u = _sector_unitaries(g, d)
    dens, blk = sec.mixed
    r = _regroup(state.tensor, dens, blk, (d, 2, d, d))
    # the Hermitian block from its upper triangle
    r += np.triu(r, 1).conj().swapaxes(2, 3)
    for lo, hi, m in _buckets(d):
        ub = u[lo:hi, None, :m, :m]
        r[lo:hi, :, :m, :m] = ub @ r[lo:hi, :, :m, :m] @ ub.swapaxes(2, 3)
    return FockTwoModeState(tensor=_regroup(r, blk, dens, state.tensor.shape))


def _apply_squeeze_readout(state: FockTwoModeState, g: float) -> np.ndarray:
    """P(n_s, n_i) of _apply_squeeze_unitary(state, g).

    A mixed state's sector block is R = R_t + R_t^H - diag(R_t) for its stored
    upper triangle R_t.  Every block U is real, so the diagonal of U R U^T is
        2 rowsum((U Re R_t) * U) - (U * U) diag(Re R_t):
    per size bucket one batched product and one row-dot, and the output state
    is never formed.
    """
    if state.is_pure:
        return _joint_distribution(_apply_squeeze_unitary(state, g))
    d = state.cutoff
    sec = _sectors(d)
    u = _sector_unitaries(g, d)
    dens, blk = sec.mixed
    r = _regroup(state.tensor.real, dens, blk, (d, 2, d, d))
    p = np.zeros((d, 2, d))
    for lo, hi, m in _buckets(d):
        ub, rb = u[lo:hi, None, :m, :m], r[lo:hi, :, :m, :m]
        diag = np.diagonal(rb, axis1=2, axis2=3)[..., None]
        rowdot = np.einsum("...ij,...ij->...i", ub @ rb, ub)
        p[lo:hi, :, :m] = 2.0 * rowdot - ((ub * ub) @ diag)[..., 0]
    amp, vec = sec.pure
    return _regroup(p, vec, amp, (d, d))


def _joint_distribution(state: FockTwoModeState) -> np.ndarray:
    """Joint photon-number distribution P(n_s, n_i): |amplitude|^2, or the
    sector density at delta = 0."""
    if state.is_pure:
        return np.abs(state.tensor) ** 2
    return state.tensor[0].real


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
        amp = np.zeros((new_cutoff, new_cutoff), dtype=state.tensor.dtype)
        amp[:d, :d] = state.tensor
    else:
        amp = np.zeros((new_cutoff,) * 3, dtype=state.tensor.dtype)
        amp[:d, :d, :d] = state.tensor
    return FockTwoModeState(tensor=amp)


def _with_tail_retry(state, op, label, dist=_joint_distribution):
    """Apply op; if the joint distribution dist(output) populates the cutoff
    tail or has lost norm, pad the input to twice its cutoff, capped at
    MAX_CUTOFF, and redo.

    Squeeze and loss keep the norm inside the truncated space; the seed's
    amplitudes are exact, so its norm deficit is the mass lost past the cutoff.
    """
    while True:
        out = op(state)
        prob = dist(out)
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


def _squeezed_distribution(state: FockTwoModeState, g: float) -> np.ndarray:
    """P(n_s, n_i) of squeeze(state, g), through the same tail retry, without
    forming the output state (see _apply_squeeze_readout)."""
    if g == 0:
        return _joint_distribution(state)
    return _with_tail_retry(
        state, lambda st: _apply_squeeze_readout(st, g), "squeeze", dist=lambda p: p
    )


def displace(state: FockTwoModeState, alpha: complex, mode: str) -> FockTwoModeState:
    """Coherent displacement D(alpha) on one mode of the vacuum.

    The amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) are exact, real for a
    real alpha, built as one running product and cut at the cutoff, so the
    norm they miss is the population that lies past it.
    """
    if not np.array_equal(state.tensor, vacuum(state.cutoff).tensor):
        raise DomainError("displace seeds the pure vacuum only; the pipeline seeds first")
    if alpha == 0:
        return state

    def seed(st: FockTwoModeState) -> FockTwoModeState:
        d = st.cutoff
        ratios = np.r_[math.exp(-0.5 * abs(alpha) ** 2), alpha / np.sqrt(np.arange(1.0, d))]
        amp = np.zeros((d, d), dtype=ratios.dtype)
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
        ph = np.exp(-1j * theta * np.arange(d))[:, None, None]
    return FockTwoModeState(tensor=state.tensor * ph)


def _diagonal_shifts(a: np.ndarray) -> np.ndarray:
    """(D, D, D) read-only view of a (D, D) array shifted along its diagonal:
    out[delta, n, m] = a[n + delta, m + delta], zero outside a."""
    d = a.shape[0]
    pad = np.zeros((2 * d - 1, 2 * d - 1), dtype=a.dtype)
    pad[:d, :d] = a
    rows, cols = pad.strides
    return np.lib.stride_tricks.as_strided(
        pad, (d, d, d), (rows + cols, rows, cols), writeable=False
    )


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
    w = _loss_binomials(d) * t ** n[:, None] * (1.0 - t * t) ** (k / 2)
    shifted, amp = _diagonal_shifts(w), state.tensor
    # a pure state's sector density is conj(amp[n + delta, m + delta]) amp[n, m]
    z = _diagonal_shifts(amp.conj()) if state.is_pure else amp
    out = np.zeros((d, d, d), np.result_type(w, amp))
    # delta-slice delta lives in its [:d - delta, :d - delta] corner
    for lo, hi, m in _buckets(d):
        lb = shifted[lo:hi, :m, :m] * w[:m, :m]
        zb = z[lo:hi, :m, :m] * amp[:m, :m] if state.is_pure else z[lo:hi, :m, :m]
        out[lo:hi, :m, :m] = lb @ zb if _AXIS[mode] == 0 else zb @ lb.transpose(0, 2, 1)
    return FockTwoModeState(tensor=out)


def norm_deficit(state: FockTwoModeState) -> float:
    """1 - trace; positive values are truncation leakage."""
    return 1.0 - float(_joint_distribution(state).sum())


def photon_stats(state: FockTwoModeState, mode: str = SIGNAL) -> PhotonStats:
    """Mean and variance of one mode's photon number by direct summation."""
    return _moments(number_distribution(state, mode))


def _moments(p: np.ndarray) -> PhotonStats:
    """Mean and variance of a photon-number distribution p(n)."""
    n = np.arange(len(p), dtype=float)
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
    OPA 2 returns only the joint photon-number distribution.
    """
    state = vacuum(cutoff)
    state = displace(state, np.sqrt(cfg.n_i), IDLER)
    state = squeeze(state, cfg.g1)
    state = loss(state, cfg.t_s, SIGNAL)
    state = loss(state, cfg.t_i, IDLER)
    if state.is_pure:
        state = phase_shift(state, cfg.theta, SIGNAL)
    else:  # the real part of the phase: the +-theta mixture, see the module docstring
        # a mixed state here is a fresh loss output, so it is scaled in place
        state.tensor[...] *= np.cos(cfg.theta * np.arange(state.cutoff))[:, None, None]
    prob = _squeezed_distribution(state, cfg.g2)
    return _moments(prob.sum(axis=1 - _AXIS[SIGNAL]))
