"""Gaussian-state engine for the two-mode (signal, idler) field.

States are tracked by a 4x4 quadrature covariance matrix V and a length-4
displacement d, ordering (x_s, p_s, x_i, p_i), with x = (a + a^dag)/sqrt(2)
and vacuum covariance = I/2.  All maps are Gaussian channels, so the full
interferometer pipeline stays exact at any gain, loss or seed strength.

A state is held as one array of entries, index first, over batch axes (one
entry per configuration, and per phase): each row is a (mode, quadrature)
pair, and the columns are V's four, as (mode, quadrature) pairs, then d as a
fifth.  A linear map L takes (V | d) to (L V L^T | L d): its rows act on V
and d alike, then its columns act on V alone.  So every element is a few
whole-array operations on rows of entries.  The squeezer mixes the rows of
the two modes (0 with 2, 1 with 3), then the same columns; the phase mixes
the two rows of one mode (0 with 1 for the signal), then the same columns;
the loss scales entries.  An element takes its parameter as a scalar or as
an array that broadcasts over the batch axes, and computes one state and a
stack of them by the same expressions, element by element.  No element makes
a matrix product, and cosh and sinh come from libm, so the results do not
depend on the CPU's BLAS kernel or SIMD extensions.

signal_moments is the batched propagation the phase response reads: one
prefix pass over N configs and one tail pass over N configs x P phases,
whose second OPA forms only the signal rows and columns that the moments
read, giving (mean, variance) arrays that metrics reads as columns.
run_interferometer and photon_stats are the same expressions on the whole
state.  Float64 overflow raises no numpy warning from signal_moments,
run_interferometer or photon_moments: it shows as non-finite photon
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

_MODE = {SIGNAL: 0, IDLER: 1}
# the diagonal of V, entries [m, q, 2 m + q], as a (mode, quadrature) array
_DIAGONAL = (np.array([[0, 0], [1, 1]]), np.array([[0, 1], [0, 1]]), np.array([[0, 1], [2, 3]]))
# the modes a squeezer forms, and the other mode of each: both, or the signal
_BOTH_MODES, _SIGNAL_MODE = (slice(0, 2), slice(1, None, -1)), (slice(0, 1), slice(1, 2))


def _mode_index(mode: str) -> int:
    """0 for the signal, 1 for the idler; DomainError for any other name."""
    if mode not in _MODE:
        raise DomainError(f"mode must be {SIGNAL!r} or {IDLER!r}, got {mode!r}")
    return _MODE[mode]


@dataclass(frozen=True)
class GaussianTwoModeState:
    """The two-mode field as entries (2, 2, 5, ...) over the batch axes:
    entries[m, q, c] is V's entry of rows (m, q) and c = 2 m' + q' for c < 4,
    and d's entry (m, q) for c = 4.  cov (..., 4, 4) and disp (..., 4) are
    the same numbers batch first."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries.flags.writeable = False

    @property
    def cov(self) -> np.ndarray:
        rows = self.entries.reshape(4, *self.entries.shape[2:])
        return np.moveaxis(rows[:, :4], (0, 1), (-2, -1))

    @property
    def disp(self) -> np.ndarray:
        return np.moveaxis(self.entries.reshape(4, *self.entries.shape[2:])[:, 4], 0, -1)


@dataclass(frozen=True)
class PhotonStats:
    """Mean and variance of a single mode's photon number."""

    mean: float
    variance: float


def _lift(a: np.ndarray, lead: int, ndim: int) -> np.ndarray:
    """a with unit batch axes inserted after its lead entry axes, up to ndim
    batch axes, so that it broadcasts against arrays of ndim batch axes."""
    return a.reshape(a.shape[:lead] + (1,) * (ndim + lead - a.ndim) + a.shape[lead:])


def _lifted(state: GaussianTwoModeState, param: np.ndarray):
    """The state's entries and their number of batch axes, at least the
    parameter's."""
    ndim = max(state.entries.ndim - 3, param.ndim)
    return _lift(state.entries, 3, ndim), ndim


def _libm(f, x: float) -> float:
    """f(x) for f = math.cosh or math.sinh, inf of its sign past float64."""
    try:
        return f(x)
    except OverflowError:
        return math.copysign(math.inf, x) if f is math.sinh else math.inf


def _cosh_sinh(g) -> np.ndarray:
    """cosh g, sinh g and -sinh g, shape (3, *g.shape), from libm element
    by element as the math module takes them: numpy's SIMD cosh and sinh
    differ from libm in the last bit for some inputs on some CPUs.  Gains
    that are all equal (a sweep along another axis) are taken once."""
    g = np.asarray(g, dtype=float)
    xs = g.ravel().tolist()
    if not all(map(math.isfinite, xs)):
        raise DomainError(f"gain must be finite, got {g}")
    xs = xs[:1] if xs == xs[:1] * len(xs) else xs
    ch, sh = ([_libm(f, x) for x in xs] for f in (math.cosh, math.sinh))
    values = np.empty((3, g.size))
    values[:] = [ch, sh, [-x for x in sh]]
    return values.reshape(3, *g.shape)


# V = I/2 and d = 0: the 4x4 identity with a zero fifth column, halved
_VACUUM = GaussianTwoModeState(0.5 * np.eye(4, 5).reshape(2, 2, 5))


def vacuum_state() -> GaussianTwoModeState:
    """Two-mode vacuum: cov = I/2, zero displacement."""
    return _VACUUM


def seed_idler(state: GaussianTwoModeState, n_i) -> GaussianTwoModeState:
    """Displace the idler to a real coherent amplitude with mean photon number n_i."""
    n_i = np.asarray(n_i, dtype=float)
    if not ((0.0 <= n_i) & (n_i < math.inf)).all():
        raise DomainError(f"seed photon number n_i must be finite and >= 0, got {n_i}")
    e = _lifted(state, n_i)[0] + np.zeros(n_i.shape)  # the entries, one copy per seed
    e[1, 0, 4] += np.sqrt(2.0 * n_i)  # the covariance is unchanged
    return GaussianTwoModeState(e)


def _squeeze(state: GaussianTwoModeState, g, modes) -> np.ndarray:
    """The entries of the modes (own, other) of _BOTH_MODES or _SIGNAL_MODE
    after the two-mode squeezer g: the whole state, or the signal's rows, of
    which only the signal columns and d are formed.  Rows first, then
    columns: x_s mixes with x_i and p_s with -p_i, as a_s -> cosh g a_s +
    sinh g a_i^dag."""
    values, (own, other) = _cosh_sinh(g), modes
    e, ndim = _lifted(state, values[0])
    ch, k = values[0], _lift(values[1:], 1, ndim)  # k: sinh g times the signs of x, p
    e = ch * e[own] + k[:, None] * e[other]
    v = e[:, :, :4].reshape(e.shape[:2] + (2, 2) + e.shape[3:])  # a view: columns as (m', q')
    v[:, :, own] = ch * v[:, :, own] + k * v[:, :, other]
    return e


def apply_squeezer(state: GaussianTwoModeState, g) -> GaussianTwoModeState:
    """Two-mode squeezer (OPA), a_s -> cosh(g) a_s + sinh(g) a_i^dag and s<->i."""
    return GaussianTwoModeState(_squeeze(state, g, _BOTH_MODES))


def apply_phase(state: GaussianTwoModeState, theta, mode: str = SIGNAL) -> GaussianTwoModeState:
    """Rotate one mode's quadratures by theta (phase shift e^{i theta n}):
    x -> cos x + sin p and p -> cos p - sin x, on its rows, then its columns."""
    m = _mode_index(mode)
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():
        raise DomainError(f"phase theta must be finite, got {theta}")
    e, ndim = _lifted(state, theta)
    c = np.cos(theta)
    s = _lift(np.multiply.outer((1.0, -1.0), np.sin(theta)), 1, ndim)
    rows = c * e[m] + s[:, None] * e[m, ::-1]
    out = np.empty((2, *rows.shape))
    out[m], out[1 - m] = rows, e[1 - m]
    v = out[:, :, :4].reshape(out.shape[:2] + (2, 2) + out.shape[3:])  # a view, as above
    v[:, :, m] = c * v[:, :, m] + s * v[:, :, m, ::-1]
    return GaussianTwoModeState(out)


def apply_loss(state: GaussianTwoModeState, t_s, t_i) -> GaussianTwoModeState:
    """Independent beamsplitter loss with amplitude transmissions t_s, t_i.

    Per mode: V -> t^2 V + (1 - t^2) I/2, d -> t d; the cross-mode covariance
    block is scaled by t_s * t_i.
    """
    t = np.empty((5, *np.broadcast(t_s, t_i).shape))  # per column: t_s, t_s, t_i, t_i, 1
    t[:2], t[2:4], t[4] = t_s, t_i, 1.0
    if not ((0.0 <= t) & (t <= 1.0)).all():
        name, x = ("t_s", t[0]) if not ((0.0 <= t[0]) & (t[0] <= 1.0)).all() else ("t_i", t[2])
        raise DomainError(f"{name} must lie in [0, 1], got {x}")
    e, ndim = _lifted(state, t[0])
    t, modes = _lift(t, 1, ndim), slice(0, 4, 2)
    # entries[m, q, c] -> t_m entries t_c, rows first; d's column has t = 1
    e = t[modes, None, None] * e * t
    # the vacuum noise (1 - t^2)/2 on the diagonal, with t^2 by libm pow as
    # float ** 2 takes it: t * t differs in the last bit for about 1 t in 1000
    e[_DIAGONAL] += 0.5 * (1 - np.float_power(t[modes, None], 2.0))
    return GaussianTwoModeState(e)


@np.errstate(over="ignore", invalid="ignore")
def photon_moments(state: GaussianTwoModeState, mode: str = SIGNAL):
    """Photon-number mean and variance of one mode, arrays over the batch axes.

    Never raises on overflow: an entry where float64 overflowed is inf or
    nan, to be reported as overflow_error."""
    m = _mode_index(mode)
    return _moments(state.entries[m, :, 2 * m:2 * m + 2], state.entries[m, :, 4])


def _moments(v: np.ndarray, d: np.ndarray):
    """Photon-number mean and variance from one mode's covariance entries
    v (2, 2, ...) and displacement entries d (2, ...) of the same batch axes:
        mean = (tr V - 1)/2 + |d|^2 / 2
        var  = tr(V^2)/2 + d^T V d - 1/4
    """
    squares, row = v * v.swapaxes(0, 1), d[0] * v[0] + d[1] * v[1]
    dd, dvd = d * d, row * d
    mean = 0.5 * ((v[0, 0] + v[1, 1] - 1.0) + (dd[0] + dd[1]))
    var = (0.5 * ((squares[0, 0] + squares[0, 1]) + (squares[1, 0] + squares[1, 1]))
           + (dvd[0] + dvd[1]) - 0.25)
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


def state_after_first_opa(cfg: InterferometerConfig) -> GaussianTwoModeState:
    """The pipeline up to the loss: seed, then the first OPA.  cfg may be a
    config.ConfigStack, giving one state per config."""
    return apply_squeezer(seed_idler(vacuum_state(), cfg.n_i), cfg.g1)


@np.errstate(over="ignore", invalid="ignore")
def run_interferometer(cfg: InterferometerConfig) -> GaussianTwoModeState:
    """Propagate vacuum through seed -> OPA1 -> loss -> phase -> OPA2."""
    before_phase = apply_loss(state_after_first_opa(cfg), cfg.t_s, cfg.t_i)
    return apply_squeezer(apply_phase(before_phase, cfg.theta, SIGNAL), cfg.g2)


@np.errstate(over="ignore", invalid="ignore")
def signal_moments(cfgs: ConfigStack, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Signal photon-number mean and variance of N stacked configs, arrays
    (P + 2, N): after the phase + OPA2 tail at each of the P rows of thetas,
    shape (P, N) or (P, 1), then after OPA1, then after the loss.

    One prefix pass over the N configs, one tail pass over the P x N
    (config, phase) pairs and one moments pass; never raises for a point
    whose statistics overflow (see photon_moments).  Each number is the one
    photon_moments gives for run_interferometer's state, bit for bit."""
    cfgs = ConfigStack(*(a[None] for a in cfgs))  # the prefix is one phase row
    after_opa1 = state_after_first_opa(cfgs)
    before_phase = apply_loss(after_opa1, cfgs.t_s, cfgs.t_i)
    # OPA2 forms only the signal rows, and of those the signal columns and d
    tails = _squeeze(apply_phase(before_phase, thetas, SIGNAL), cfgs.g2, _SIGNAL_MODE)
    signal = np.concatenate([tails[0], *(s.entries[0] for s in (after_opa1, before_phase))], 2)
    return _moments(signal[:, :2], signal[:, 4])


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix; physical states have all >= 1/2."""
    # eigenvalues of i*Omega*V, Omega = diag(J, J) with J = [[0, 1], [-1, 0]],
    # come in +/- nu pairs with nu real
    eig = np.linalg.eigvals(1j * np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]) @ cov)
    return np.sort(np.abs(eig.real))[::2]
