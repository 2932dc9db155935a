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
on the zero padding up to D.  A pure state (OPA 1) is squeezed by applying
the eigenbasis to its sector vectors directly, without forming any squeeze
matrix.

Every kernel acts on a stack: a leading axis of states that share one
cutoff, each with its own gain, transmission or phase.  `pipeline_stack`
runs every config of a stack down one path, with one batched product per
stage and size bucket:

    seed (`_seed`) -> OPA 1 (`_squeeze_pure`) -> loss and phase
    (`_loss_chain`) -> OPA 2 (`_readout`),

and `pipeline` is its stack of one; the public single-state functions
(`displace`, `squeeze`, `loss`, `phase_shift`) are stacks of one of the
same kernels.  Each row of a stacked product and each row sum is computed
exactly as the row alone would be (a reduction is an elementwise product
summed along a row, never a matrix-vector product), so a row's result does
not depend on what else is in its stack.

The pipeline runs in real float64 arithmetic.  Every factor before the phase
is real (the seed at alpha = sqrt(n_i), the squeeze blocks, the loss weights),
so the sector density Z there is real, and the phase turns it into
exp(-i theta delta) Z.  What enters OPA 2 instead is its real part,
cos(theta delta) Z: the sector density of the mixture (rho_theta +
rho_-theta) / 2.  This is exact, not an approximation: every OPA-2 block is
real, so rho_theta and rho_-theta give the same signal photon-number
distribution.  Both losses and that phase are one product chain per size
bucket of delta, cos(theta delta) L_s Z L_i^T, written once.  A lossless
mode takes the same chain: at t = 1 its loss weights are the exact
identity.  The public `phase_shift` still returns the true, complex state.
Every state keeps its input's dtype, so a complex seed alpha gives complex
amplitudes.

OPA 2 is the last element, and the pipeline reads only the diagonal of its
output.  So it forms no output state: a real sector block R, with stored
upper triangle R_t, gives diag(U R U^T) = rowsum((U R'') * U) for
R'' = 2 R_t - diag R_t, one batched product and one row sum per size bucket
(`_readout`).  The phase chain writes its delta > 0 slices doubled, so each
bucket gathers R'' straight from the sector density.  The public `squeeze`
still returns the whole state.

The oracle regime is small gains and seeds; the cutoff auto-doubles when the
tail of the photon-number distribution becomes populated or probability is
lost past it.  A stack of one redoes the failing stage at the doubled
cutoff; in a larger stack a failing row is recomputed as a stack of one.
Cutoffs outside [1, MAX_CUTOFF], non-finite parameters and unknown mode
names raise DomainError before any arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import math

import numpy as np
from scipy.special import comb

from .config import InterferometerConfig, stack
from .errors import DomainError, TruncationError
from .gaussian import IDLER, SIGNAL, PhotonStats

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


def _check_cutoff(cutoff) -> None:
    if not (isinstance(cutoff, (int, np.integer)) and 1 <= cutoff <= MAX_CUTOFF):
        raise DomainError(f"cutoff must be an integer in [1, {MAX_CUTOFF}], got {cutoff!r}")


def _axis(mode: str) -> int:
    """The tensor axis of the mode's photon number in a pure state."""
    if mode not in _AXIS:
        raise DomainError(f"mode must be {SIGNAL!r} or {IDLER!r}, got {mode!r}")
    return _AXIS[mode]


def _vacuum(k: int, d: int) -> np.ndarray:
    amp = np.zeros((k, d, d))
    amp[:, 0, 0] = 1.0
    return amp


def vacuum(cutoff: int) -> FockTwoModeState:
    _check_cutoff(cutoff)
    return FockTwoModeState(tensor=_vacuum(1, cutoff)[0])


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
    blocks of a size bucket (hi - lo, 2, m, m), with sector s at
    [|s| - lo, s < 0]; [0, 1] stays zero.  Each bucket's block positions
    outside the live upper triangle index the density's last entry,
    Z[d-1, d-1, d-1], which lies past the cutoff and so is zero in every
    sector density (d >= 2).  The eigenbasis is taken per size bucket: each
    bucket's factors fill the top-left corner of x, y and sv, with the
    identity (sv = 0) beyond, so the padding still maps to itself.
    """

    pure: tuple  # (amplitude, sector-vector) flat index pairs, one per state
    blocks: list  # per size bucket: (hi-lo, 2, m, m) flat index into the density
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
    # <row a| rho |column b> of sector s sits at delta = b - a, n_s = a + max(s, 0)
    blocks = []
    for lo, hi, m in _buckets(d):
        s_abs, neg = np.arange(lo, hi)[:, None, None, None], np.arange(2)[:, None, None]
        row, col = np.arange(m)[:, None], np.arange(m)
        live = (row <= col) & (col < d - s_abs) & ((s_abs > 0) | (neg == 0))
        index = ((col - row) * d + row + s_abs * (1 - neg)) * d + row + s_abs * neg
        blocks.append(np.where(live, index, d**3 - 1))

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
    return _Sectors(pure, blocks, sv, x, y)


@lru_cache(maxsize=4)
def _loss_binomials(d: int) -> np.ndarray:
    """(d, d): sqrt(C(m', m)) at [m, m'], zero below the diagonal."""
    n = np.arange(d)
    return np.sqrt(comb(n, n[:, None]))


def _rotations(g: np.ndarray, sec: _Sectors) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of g[k] times the singular values, (K, d, (d+1)//2) each."""
    gsv = g[:, None, None] * sec.sv
    return np.cos(gsv), np.sin(gsv)


def _bucket_unitaries(cos, sin, sec: _Sectors, lo: int, hi: int, m: int) -> np.ndarray:
    """(K, hi - lo, m, m) real: the squeeze exp(g gen) on sectors s and -s,
    lo <= |s| < hi, on the bucket's corner, whose zero padding maps to itself;
    cos and sin from _rotations."""
    ne, no = (m + 1) // 2, m // 2
    x, y = sec.x[lo:hi, :ne, :ne], sec.y[lo:hi, :no, :no]
    c, s = cos[:, lo:hi, None, :ne], sin[:, lo:hi, None, :no]
    u = np.empty((len(cos), hi - lo, m, m))
    u[..., ::2, ::2] = (x * c) @ x.transpose(0, 2, 1)
    u[..., 1::2, 1::2] = (y * c[..., :no]) @ y.transpose(0, 2, 1)
    u[..., 1::2, ::2] = (y * s) @ x[..., :no].transpose(0, 2, 1)
    u[..., ::2, 1::2] = -u[..., 1::2, ::2].swapaxes(-1, -2)
    return u


def _regroup(src: np.ndarray, take: np.ndarray, put: np.ndarray, shape) -> np.ndarray:
    """A zero stack of `shape` per row whose flat entries `put` are the row's
    flat entries `take` of src."""
    k = len(src)
    out = np.zeros((k,) + shape, dtype=src.dtype)
    out.reshape(k, -1)[:, put] = src.reshape(k, -1)[:, take]
    return out


def _squeeze_pure(amp: np.ndarray, g: np.ndarray) -> np.ndarray:
    """exp(g[k] gen) on each (D, D) amplitude array of a stack, straight from
    the eigenbasis (see _sectors): with a = X^T v_even and b = Y^T v_odd, the
    even rows are X (cos a - sin b) and the odd rows Y (sin a + cos b)."""
    d = amp.shape[-1]
    sec = _sectors(d)
    src, vec = sec.pure
    v = _regroup(amp, src, vec, (d, 2, d))
    h = d // 2  # for odd d the last even column has sv = 0 and no partner
    cos, sin = _rotations(g, sec)
    cos, sin = cos[:, :, None], sin[:, :, None, :h]
    a, b = v[..., ::2] @ sec.x, v[..., 1::2] @ sec.y
    even = cos * a
    even[..., :h] -= sin * b
    v[..., ::2] = even @ sec.x.transpose(0, 2, 1)
    v[..., 1::2] = (sin * a[..., :h] + cos[..., :h] * b) @ sec.y.transpose(0, 2, 1)
    return _regroup(v, vec, src, (d, d))


def _squeeze_mixed(z: np.ndarray, g: np.ndarray) -> np.ndarray:
    """S R S^T on each Hermitian sector block R of a stack of sector
    densities, rebuilt per size bucket from its stored upper triangle."""
    k, d = len(z), z.shape[-1]
    sec = _sectors(d)
    cos, sin = _rotations(g, sec)
    flat = z.reshape(k, -1)
    out = np.zeros_like(z)
    for (lo, hi, m), index in zip(_buckets(d), sec.blocks):
        r = np.take(flat, index, axis=1)
        r += np.triu(r, 1).conj().swapaxes(-1, -2)
        u = _bucket_unitaries(cos, sin, sec, lo, hi, m)[:, :, None]
        live = index != d**3 - 1
        out.reshape(k, -1)[:, index[live]] = (u @ r @ u.swapaxes(-1, -2))[:, live]
    return out


def _readout(z: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(K, D, D): P(n_s, n_i) after the squeeze of gain g[k] on each sector
    density of a stack whose delta > 0 slices are doubled: rowsum((U R'') * U)
    per sector block, with U and R'' = 2 R_t - diag R_t formed per size
    bucket, see the module docstring.
    """
    k, d = len(z), z.shape[-1]
    sec = _sectors(d)
    cos, sin = _rotations(g, sec)
    flat = z.reshape(k, -1)
    p = np.empty((k, d, 2, d))  # each sector's dead rows a >= d - |s| are never read
    # two work arrays as large as the first bucket's blocks, shared by every bucket
    work = np.empty((2, k * min(d, _BUCKET) * 2 * d * d))
    for (lo, hi, m), index in zip(_buckets(d), sec.blocks):
        shape = (k, hi - lo, 2, m, m)
        r, ur = (w[: math.prod(shape)].reshape(shape) for w in work)
        np.take(flat, index, axis=1, out=r, mode="clip")
        u = _bucket_unitaries(cos, sin, sec, lo, hi, m)[:, :, None]
        p[:, lo:hi, :, :m] = np.einsum("...ij,...ij->...i", np.matmul(u, r, out=ur), u)
    src, vec = sec.pure
    return _regroup(p, vec, src, (d, d))


def _distribution(x: np.ndarray) -> np.ndarray:
    """Joint photon-number distribution P(n_s, n_i) of each row of a stack:
    |amplitude|^2, or the sector density at delta = 0."""
    return np.abs(x) ** 2 if x.ndim == 3 else x[:, 0].real.copy()


def _joint_distribution(state: FockTwoModeState) -> np.ndarray:
    """Joint photon-number distribution P(n_s, n_i) of one state."""
    return _distribution(state.tensor[None])[0]


def number_distribution(state: FockTwoModeState, mode: str = SIGNAL) -> np.ndarray:
    """Marginal photon-number distribution of one mode."""
    return _joint_distribution(state).sum(axis=1 - _axis(mode))


def _row_sums(x: np.ndarray) -> np.ndarray:
    return x.reshape(len(x), -1).sum(axis=-1)


def _tail_mass(prob: np.ndarray) -> np.ndarray:
    """Probability in the top two photon-number shells of either mode of each
    joint distribution of a stack: the two tail masses added, so the corner
    counts twice."""
    return _row_sums(prob[:, -2:]) + _row_sums(prob[:, :, -2:])


def _pad(x: np.ndarray, new_cutoff: int) -> np.ndarray:
    """A stack of states zero-padded to a larger cutoff."""
    out = np.zeros(x.shape[:1] + (new_cutoff,) * (x.ndim - 1), dtype=x.dtype)
    out[(slice(None),) + (slice(x.shape[-1]),) * (x.ndim - 1)] = x
    return out


def _with_tail_retry(x, op, label, dist=_distribution, retry=True):
    """op(x) for a stack x, and which of its rows passed: whose joint
    distribution dist(output) keeps its tail and lost norm below TAIL_TOL.
    With retry (a stack of one), a failing input is padded to twice its
    cutoff, capped at MAX_CUTOFF, and redone.

    Squeeze and loss keep the norm inside the truncated space; the seed's
    amplitudes are exact, so its norm deficit is the mass lost past the cutoff.
    """
    while True:
        out = op(x)
        prob = dist(out)
        lost = _tail_mass(prob) + np.maximum(1.0 - _row_sums(prob), 0.0)
        ok = lost < TAIL_TOL
        if ok.all() or not retry:
            return out, ok
        d = x.shape[-1]
        if d >= MAX_CUTOFF:
            raise TruncationError(
                f"{label}: tail and lost population {lost.max():.2e} at cutoff "
                f"{d} (max cutoff {MAX_CUTOFF})"
            )
        x = _pad(x, min(2 * d, MAX_CUTOFF))


def squeeze(state: FockTwoModeState, g: float) -> FockTwoModeState:
    """Two-mode squeeze exp[g (a_s^dag a_i^dag - a_s a_i)]."""
    if not (math.isfinite(g) and g >= 0):
        raise DomainError(f"gain must be finite and >= 0, got {g}")
    if g == 0:
        return state
    op = _squeeze_pure if state.is_pure else _squeeze_mixed
    out, _ = _with_tail_retry(state.tensor[None], lambda x: op(x, np.array([g], float)), "squeeze")
    return FockTwoModeState(tensor=out[0])


def _seed(alpha: np.ndarray, d: int, mode: str) -> np.ndarray:
    """(K, d, d): the coherent amplitudes of each alpha[k] on one mode of the
    vacuum, e^{-|alpha|^2/2} alpha^n / sqrt(n!) as one running product, cut
    at d."""
    ratios = np.empty((len(alpha), d), dtype=np.result_type(alpha, float))
    ratios[:, 0] = [math.exp(-0.5 * abs(a) ** 2) for a in alpha.tolist()]
    ratios[:, 1:] = alpha[:, None] / np.sqrt(np.arange(1.0, d))
    amp = np.zeros((len(alpha), d, d), dtype=ratios.dtype)
    np.moveaxis(amp, 1 + _AXIS[mode], 1)[:, :, 0] = np.cumprod(ratios, axis=1)
    return amp


def displace(state: FockTwoModeState, alpha: complex, mode: str) -> FockTwoModeState:
    """Coherent displacement D(alpha) on one mode of the vacuum.

    The amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) are exact, real for a
    real alpha, built as one running product and cut at the cutoff, so the
    norm they miss is the population that lies past it.  |alpha|^2 must be
    a finite float64.
    """
    _axis(mode)
    a = complex(alpha)
    r = math.hypot(a.real, a.imag)  # abs(a) ** 2 would raise OverflowError
    if not math.isfinite(r * r):
        raise DomainError(f"seed amplitude must have a finite |alpha|^2, got {alpha}")
    if not np.array_equal(state.tensor, _vacuum(1, state.cutoff)[0]):
        raise DomainError("displace seeds the pure vacuum only; the pipeline seeds first")
    if alpha == 0:
        return state
    out, _ = _with_tail_retry(
        state.tensor[None], lambda x: _seed(np.array([alpha]), x.shape[-1], mode), "displace"
    )
    return FockTwoModeState(tensor=out[0])


def phase_shift(
    state: FockTwoModeState, theta: float, mode: str = SIGNAL
) -> FockTwoModeState:
    """Phase shift exp(i theta n) on one mode (signal by default).

    On amplitudes it multiplies that mode's axis; on a sector density it is
    the factor exp(-i theta delta), whichever mode.
    """
    axis = _axis(mode)
    if not math.isfinite(theta):
        raise DomainError(f"phase theta must be finite, got {theta}")
    ph = np.exp(1j * theta * np.arange(state.cutoff))
    if state.is_pure:
        return FockTwoModeState(tensor=state.tensor * (ph[:, None] if axis == 0 else ph))
    return FockTwoModeState(tensor=state.tensor * ph.conj()[:, None, None])


def _diagonal_shifts(a: np.ndarray) -> np.ndarray:
    """(K, D, D, D) read-only view of a stack of (D, D) arrays, each shifted
    along its diagonal: out[k, delta, n, m] = a[k, n + delta, m + delta],
    zero outside a."""
    k, d = len(a), a.shape[-1]
    pad = np.zeros((k, 2 * d - 1, 2 * d - 1), dtype=a.dtype)
    pad[:, :d, :d] = a
    layer, rows, cols = pad.strides
    return np.lib.stride_tricks.as_strided(
        pad, (k, d, d, d), (layer, rows + cols, rows, cols), writeable=False
    )


def _loss_weights(t: np.ndarray, d: int) -> np.ndarray:
    """(K, d, d): w(m, m' - m) at [m, m'] for each transmission t[k] (see
    loss), zero below the diagonal; at t = 1 the exact identity."""
    n = np.arange(d)
    k = np.maximum(n - n[:, None], 0)
    t = t[:, None, None]
    return _loss_binomials(d) * t ** n[:, None] * (1.0 - t * t) ** (k / 2)


def _loss_chain(x, w_s, w_i, scale) -> np.ndarray:
    """Both losses on a stack of states, as (K, D, D, D) sector densities:
    L_s Z L_i^T on each delta-slice, times scale[k, delta], one product
    chain per size bucket of delta, with the weights from _loss_weights.  A
    pure state's sector density is conj(amp[n + delta, m + delta]) amp[n, m]."""
    k, d = len(x), x.shape[-1]
    pure = x.ndim == 3
    z = _diagonal_shifts(x.conj()) if pure else x
    shift_s, shift_i = _diagonal_shifts(w_s), _diagonal_shifts(w_i)
    dtype = np.result_type(x, w_s, w_i)
    out = np.zeros((k, d, d, d), dtype)
    # three work arrays as large as the first bucket, shared by every bucket:
    # the loss matrices, and the two ends of each product
    work = np.empty((3, k * min(d, _BUCKET) * d * d), dtype)
    # delta-slice delta lives in its [:d - delta, :d - delta] corner, where
    # L[delta][n, n'] = w(n, n' - n) w(n + delta, n' - n)
    for lo, hi, m in _buckets(d):
        shape = (k, hi - lo, m, m)
        l, a, b = (w[: math.prod(shape)].reshape(shape) for w in work)
        zb = np.multiply(z[:, lo:hi, :m, :m], x[:, None, :m, :m], out=b) if pure else z[:, lo:hi, :m, :m]
        np.multiply(shift_s[:, lo:hi, :m, :m], w_s[:, None, :m, :m], out=l)
        np.matmul(l, zb, out=a)
        np.multiply(shift_i[:, lo:hi, :m, :m], w_i[:, None, :m, :m], out=l)
        np.matmul(a, l.swapaxes(-1, -2), out=b)
        np.multiply(b, scale[:, lo:hi, None, None], out=out[:, lo:hi, :m, :m])
    return out


def loss(state: FockTwoModeState, t: float, mode: str) -> FockTwoModeState:
    """Attenuation channel with amplitude transmission t on one mode.

    Kraus operator k loses k photons:
        A_k |m+k> = w(m, k) |m>,  w(m, k) = sqrt(C(m+k, k)) t^m (1-t^2)^(k/2),
    so on the sector density the lossy mode's index is multiplied by
        L[delta][n, n'] = w(n, n' - n) w(n + delta, n' - n):
    L @ Z for the signal, Z @ L^T for the idler, the other mode's weights
    being the identity.  A pure state becomes its sector density first.
    """
    axis = _axis(mode)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"transmission must lie in [0, 1], got {t}")
    if t == 1.0:
        return state
    d = state.cutoff
    w, identity = _loss_weights(np.array([t, 1.0]), d)[:, None]
    sides = (w, identity) if axis == 0 else (identity, w)
    return FockTwoModeState(tensor=_loss_chain(state.tensor[None], *sides, np.ones((1, d)))[0])


def norm_deficit(state: FockTwoModeState) -> float:
    """1 - trace; positive values are truncation leakage."""
    return 1.0 - float(_joint_distribution(state).sum())


def photon_stats(state: FockTwoModeState, mode: str = SIGNAL) -> PhotonStats:
    """Mean and variance of one mode's photon number by direct summation."""
    return _moments(number_distribution(state, mode)[None])[0]


def _moments(p: np.ndarray) -> list[PhotonStats]:
    """Mean and variance of each photon-number distribution p[k](n)."""
    n = np.arange(p.shape[-1], dtype=float)
    mean = (n * p).sum(axis=-1)
    var = (n * n * p).sum(axis=-1) - mean * mean
    return [PhotonStats(mean=m, variance=v) for m, v in zip(mean.tolist(), var.tolist())]


def suggested_cutoff(cfg: InterferometerConfig) -> int:
    """Initial cutoff sized to the pipeline's peak per-mode photon flux.

    Slightly generous so the tail-driven auto-doubling rarely triggers; used
    by the validation harness.
    """
    # sinh(10)^2 is already ~1e8 photons, far past MAX_CUTOFF
    peak = cfg.n_i + (cfg.n_i + 1.0) * math.sinh(min(cfg.g1 + cfg.g2, 10.0)) ** 2 + 1.0
    if peak >= MAX_CUTOFF:
        return MAX_CUTOFF
    d = int(math.ceil(peak + 6.0 * math.sqrt(peak) + 14.0))
    d = 4 * ((d + 3) // 4)
    return max(16, min(d, MAX_CUTOFF))


def _gain_stage(x, g, op, keep, dist, retry):
    """op(x[rows], g[rows]) through the tail check on the rows of the stack x
    whose gain g is not 0, keep(x) on the others (a squeeze of gain 0 is the
    identity), and which rows passed."""
    rows, ok = g != 0, np.ones(len(x), bool)
    if not rows.any():
        return keep(x), ok
    part = x if rows.all() else x[rows]
    out, ok[rows] = _with_tail_retry(part, lambda y: op(y, g[rows]), "squeeze", dist, retry)
    if rows.all():
        return out, ok
    full = keep(x)
    full[rows] = out
    return full, ok


def pipeline_stack(cfgs: list[InterferometerConfig], cutoff: int) -> list[PhotonStats]:
    """Signal photon statistics of each config, all started at one cutoff.

    Every config runs the one path seed -> OPA1 -> loss and phase -> OPA2,
    in the Gaussian engine's order.  Every row equals pipeline(cfg, cutoff)
    bit for bit: a row that fails a tail check is recomputed as a stack of
    one, which grows its cutoff.
    """
    _check_cutoff(cutoff)
    if not cfgs:
        return []
    p, retry = stack(cfgs), len(cfgs) == 1
    amp, ok = _with_tail_retry(
        _vacuum(len(cfgs), cutoff), lambda x: _seed(np.sqrt(p.n_i), x.shape[-1], IDLER),
        "displace", retry=retry,
    )
    amp, passed = _gain_stage(amp, p.g1, _squeeze_pure, lambda x: x, _distribution, retry)
    d = amp.shape[-1]
    # the real part of the phase, with the delta > 0 slices doubled for _readout
    scale = np.cos(p.theta[:, None] * np.arange(d))
    scale[:, 1:] *= 2.0
    z = _loss_chain(amp, _loss_weights(p.t_s, d), _loss_weights(p.t_i, d), scale)
    prob, read = _gain_stage(z, p.g2, _readout, _distribution, lambda q: q, retry)
    ok &= passed & read
    stats = _moments(prob.sum(axis=2))
    return [s if ok[i] else pipeline_stack([cfgs[i]], cutoff)[0] for i, s in enumerate(stats)]


def pipeline(cfg: InterferometerConfig, cutoff: int) -> PhotonStats:
    """Full interferometer in the truncated Fock basis; returns signal stats.

    The stack of one of pipeline_stack.  OPA 2 returns only the joint
    photon-number distribution.
    """
    return pipeline_stack([cfg], cutoff)[0]
