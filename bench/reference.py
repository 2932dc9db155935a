"""Reference computations used to check the benchmark's outputs.

Written apart from su11sim and importing nothing from it:

- the paper's closed-form mean signal photon number and fringe visibility,
  written as offset + amplitude * cos(theta);
- a 4x4 covariance propagation in the (x_s, x_i, p_s, p_i) ordering with
  vacuum covariance = identity (x = a + a^dag), giving Var N_s(theta);
- a phase minimisation of the error-propagation variance
  Var N_s / (d<N_s>/d theta)^2, using the analytic slope of the closed form.

Transmissions are power transmissions (ts2 = t_s^2, ti2 = t_i^2), as on the
command line.  The closed-form functions accept numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def fringe(g1, g2, ts2, ti2, n_i):
    """(offset, amplitude) with <N_s>(theta) = offset + amplitude * cos(theta)."""
    c1, s1 = np.cosh(g1), np.sinh(g1)
    c2, s2 = np.cosh(g2), np.sinh(g2)
    seeded = n_i + 1.0
    # signal output = cosh g2 * (inner signal) + sinh g2 * (inner idler)^dag;
    # the idler-side vacuum admitted by loss adds s2^2 (1 - ti2)
    offset = seeded * (s2**2 * c1**2 * ti2 + s1**2 * c2**2 * ts2) + s2**2 * (1.0 - ti2)
    amplitude = seeded * 2.0 * s1 * c1 * s2 * c2 * np.sqrt(ts2 * ti2)
    return offset, amplitude


def mean_signal(g1, g2, theta, ts2, ti2, n_i):
    offset, amplitude = fringe(g1, g2, ts2, ti2, n_i)
    return offset + amplitude * np.cos(theta)


def visibility(g1, g2, ts2, ti2, n_i):
    """(max - min) / (max + min) of the fringe, i.e. amplitude / offset."""
    offset, amplitude = fringe(g1, g2, ts2, ti2, n_i)
    return amplitude / offset


def mean_after_first_opa(g1, n_i):
    """Signal photons between the amplifiers: (n_i + 1) sinh^2 g1."""
    return (n_i + 1.0) * math.sinh(g1) ** 2


def _squeezer(g):
    c, s = math.cosh(g), math.sinh(g)
    return np.array(
        [[c, s, 0.0, 0.0], [s, c, 0.0, 0.0], [0.0, 0.0, c, -s], [0.0, 0.0, -s, c]]
    )


def _inner_state(g1, ts2, ti2, n_i):
    """Covariance and mean after seed, first amplifier and loss."""
    cov = np.eye(4)
    disp = np.array([0.0, 2.0 * math.sqrt(n_i), 0.0, 0.0])
    s1 = _squeezer(g1)
    cov = s1 @ cov @ s1.T
    disp = s1 @ disp
    t = np.sqrt(np.array([ts2, ti2, ts2, ti2]))
    cov = t[:, None] * cov * t[None, :] + np.diag(1.0 - t**2)
    return cov, t * disp


def signal_stats(g1, g2, theta, ts2, ti2, n_i):
    """(mean, variance) of N_s for each phase in theta (scalar or 1-d array).

    For the reduced signal covariance V and mean d in these units:
    mean = (tr V - 2)/4 + |d|^2/4 and Var = tr(V^2)/8 + d.V.d/4 - 1/4.
    """
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    cov, disp = _inner_state(g1, ts2, ti2, n_i)
    c, s = np.cos(thetas), np.sin(thetas)
    rot = np.zeros((len(thetas), 4, 4))
    rot[:, 1, 1] = rot[:, 3, 3] = 1.0
    rot[:, 0, 0] = rot[:, 2, 2] = c
    rot[:, 0, 2] = -s
    rot[:, 2, 0] = s
    total = _squeezer(g2) @ rot
    cov_out = total @ cov @ np.swapaxes(total, 1, 2)
    disp_out = total @ disp
    sig = [0, 2]
    v = cov_out[:, sig][:, :, sig]
    d = disp_out[:, sig]
    mean = (np.trace(v, axis1=1, axis2=2) - 2.0) / 4.0 + np.sum(d * d, axis=1) / 4.0
    var = (
        np.sum(v * v, axis=(1, 2)) / 8.0
        + np.einsum("ni,nij,nj->n", d, v, d) / 4.0
        - 0.25
    )
    return mean, var


def phase_variance(g1, g2, theta, ts2, ti2, n_i):
    """Error-propagation phase variance Var N_s / (d<N_s>/d theta)^2."""
    _, amplitude = fringe(g1, g2, ts2, ti2, n_i)
    _, var = signal_stats(g1, g2, theta, ts2, ti2, n_i)
    return var / (amplitude * np.sin(theta)) ** 2


def optimal_phase_variance(g1, g2, ts2, ti2, n_i, grid_points=4096, tol=1e-12):
    """(theta, variance) minimising the phase variance over theta in (0, pi).

    A dense grid brackets the minimum; golden-section search refines it.
    """
    grid = np.linspace(0.0, math.pi, grid_points + 2)[1:-1]
    values = phase_variance(g1, g2, grid, ts2, ti2, n_i)
    k = int(np.argmin(values))
    a = grid[max(k - 1, 0)] if k > 0 else grid[0] / 2.0
    b = grid[k + 1] if k + 1 < len(grid) else (grid[-1] + math.pi) / 2.0

    def f(th):
        return float(phase_variance(g1, g2, th, ts2, ti2, n_i)[0])

    c, d = b - _PHI * (b - a), a + _PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _PHI * (b - a)
            fd = f(d)
    theta = 0.5 * (a + b)
    return theta, f(theta)


def db_vs_pair_shot_noise(g1, g2, ts2, ti2, n_i):
    """Optimal sensitivity in dB against the pair shot-noise level 1/(2 N_s),
    with N_s the signal photons after the first amplifier."""
    _, dtheta2 = optimal_phase_variance(g1, g2, ts2, ti2, n_i)
    shot_noise = 1.0 / (2.0 * mean_after_first_opa(g1, n_i))
    return 10.0 * math.log10(shot_noise / dtheta2)


def lossless_pair_limit_db(g):
    """Balanced, lossless limit of db_vs_pair_shot_noise: 10 log10(2 cosh^2 g)."""
    return 10.0 * math.log10(2.0 * math.cosh(g) ** 2)
