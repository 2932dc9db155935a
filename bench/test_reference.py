"""Tests of the benchmark's reference computations against known values.

Run with:  python3 -m pytest -q bench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference as ref

RNG_CONFIGS = [
    (0.1, 0.1, 0.7, 1.0, 50.0),
    (0.45, 0.2, 0.52 * 0.3, 0.42, 1.0e4),
    (0.3, 0.05, 0.2, 0.9, 0.0),
    (0.02, 0.25, 1.0, 0.35, 3.0),
]


@pytest.mark.parametrize("g", [0.05, 0.1, 0.7, 1.5])
def test_two_mode_squeezed_vacuum_mean_and_variance(g):
    # one amplifier only: thermal signal with N = sinh^2 g, Var = N (N + 1)
    mean, var = ref.signal_stats(g, 0.0, 0.3, 1.0, 1.0, 0.0)
    n = math.sinh(g) ** 2
    assert mean[0] == pytest.approx(n, rel=1e-12)
    assert var[0] == pytest.approx(n * (n + 1.0), rel=1e-12)
    assert ref.mean_signal(g, 0.0, 0.3, 1.0, 1.0, 0.0) == pytest.approx(n, rel=1e-12)


def test_coherent_seed_is_amplified():
    # seeded single amplifier: N = (n_i + 1) sinh^2 g = mean between the amplifiers
    mean, _ = ref.signal_stats(0.4, 0.0, 0.0, 1.0, 1.0, 9.0)
    assert mean[0] == pytest.approx(10.0 * math.sinh(0.4) ** 2, rel=1e-12)
    assert ref.mean_after_first_opa(0.4, 9.0) == pytest.approx(mean[0], rel=1e-12)


def test_lossless_balanced_dark_fringe_and_bright_fringe():
    g = 0.3
    dark = ref.mean_signal(g, g, math.pi, 1.0, 1.0, 0.0)
    bright = ref.mean_signal(g, g, 0.0, 1.0, 1.0, 0.0)
    assert abs(dark) < 1e-15
    assert bright == pytest.approx(math.sinh(2 * g) ** 2, rel=1e-12)
    assert ref.visibility(g, g, 1.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("cfg", RNG_CONFIGS)
def test_closed_form_mean_equals_covariance_propagation(cfg):
    g1, g2, ts2, ti2, n_i = cfg
    thetas = np.linspace(0.0, 2.0 * math.pi, 9)
    mean, var = ref.signal_stats(g1, g2, thetas, ts2, ti2, n_i)
    closed = ref.mean_signal(g1, g2, thetas, ts2, ti2, n_i)
    np.testing.assert_allclose(mean, closed, rtol=1e-11)
    assert np.all(var >= 0.0)


@pytest.mark.parametrize("g,n_i", [(0.1, 0.0), (0.1, 50.0), (0.6, 3.0)])
@pytest.mark.parametrize("ts2", [0.2, 0.75, 1.0])
def test_signal_loss_visibility_is_gain_and_seed_independent(g, n_i, ts2):
    # balanced gains, loss on the signal only: V = 2 t_s / (t_s^2 + 1)
    t_s = math.sqrt(ts2)
    assert ref.visibility(g, g, ts2, 1.0, n_i) == pytest.approx(
        2.0 * t_s / (ts2 + 1.0), rel=1e-12
    )


@pytest.mark.parametrize("g", [0.1, 0.5])
@pytest.mark.parametrize("n_i", [0.0, 50.0])
def test_lossless_pair_convention_limit(g, n_i):
    # optimum of the lossless balanced device: 1 / ((1 + n_i) sinh^2 2g),
    # i.e. 10 log10(2 cosh^2 g) dB below the pair shot-noise level.  It is
    # reached at the dark fringe theta -> pi, which the search approaches to
    # within pi / 8194, hence the tolerance.
    theta, dtheta2 = ref.optimal_phase_variance(g, g, 1.0, 1.0, n_i)
    assert math.pi - 1e-3 < theta < math.pi
    assert dtheta2 == pytest.approx(1.0 / ((1.0 + n_i) * math.sinh(2 * g) ** 2), rel=1e-6)
    assert ref.db_vs_pair_shot_noise(g, g, 1.0, 1.0, n_i) == pytest.approx(
        ref.lossless_pair_limit_db(g), abs=1e-5
    )


def test_minimiser_finds_grid_minimum_and_loss_degrades_it():
    g1, g2, ts2, ti2, n_i = 0.1, 0.1, 0.6, 1.0, 50.0
    theta, best = ref.optimal_phase_variance(g1, g2, ts2, ti2, n_i)
    grid = np.linspace(0.01, math.pi - 0.01, 2001)
    assert best <= ref.phase_variance(g1, g2, grid, ts2, ti2, n_i).min() * (1 + 1e-12)
    assert ref.db_vs_pair_shot_noise(g1, g2, ts2, ti2, n_i) < ref.lossless_pair_limit_db(g1)
    # seeding mitigates idler loss more than signal loss
    assert ref.db_vs_pair_shot_noise(g1, g2, 1.0, 0.6, n_i) < ref.db_vs_pair_shot_noise(
        g1, g2, 0.6, 1.0, n_i
    )
