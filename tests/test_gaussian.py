import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su11sim import InterferometerConfig
from su11sim import closed_form
from su11sim import config
from su11sim import gaussian as g
from su11sim.errors import DomainError

SINH2_01 = math.sinh(0.1) ** 2          # 0.0100335...
TMSV_VAR_01 = SINH2_01 * math.cosh(0.1) ** 2  # 0.0101342...


def pipeline_states(cfg):
    """All intermediate states of the standard pipeline."""
    st0 = g.vacuum_state()
    st1 = g.seed_idler(st0, cfg.n_i)
    st2 = g.apply_squeezer(st1, cfg.g1)
    st3 = g.apply_loss(st2, cfg.t_s, cfg.t_i)
    st4 = g.apply_phase(st3, cfg.theta)
    st5 = g.apply_squeezer(st4, cfg.g2)
    return [st0, st1, st2, st3, st4, st5]


def test_vacuum_state():
    vac = g.vacuum_state()
    assert np.allclose(vac.cov, 0.5 * np.eye(4))
    assert np.allclose(vac.disp, 0.0)
    stats = g.photon_stats(vac, g.SIGNAL)
    assert stats.mean == pytest.approx(0.0, abs=1e-15)
    assert stats.variance == pytest.approx(0.0, abs=1e-15)


def test_vacuum_is_fixed_point_of_every_map():
    vac = g.vacuum_state()
    for mapped in (
        g.apply_squeezer(vac, 0.0),
        g.apply_loss(vac, 1.0, 1.0),
        g.apply_loss(vac, 0.3, 0.7),
        g.apply_phase(vac, 1.7),
        g.apply_phase(vac, -0.3, g.IDLER),
    ):
        assert np.allclose(mapped.cov, vac.cov, atol=1e-14)
        assert np.allclose(mapped.disp, vac.disp, atol=1e-14)


def test_seed_idler():
    vac = g.vacuum_state()
    assert np.allclose(g.seed_idler(vac, 0.0).disp, 0.0)
    seeded = g.seed_idler(vac, 50.0)
    assert g.photon_stats(seeded, g.IDLER).mean == pytest.approx(50.0, rel=1e-12)
    assert g.photon_stats(seeded, g.SIGNAL).mean == pytest.approx(0.0, abs=1e-12)
    stats = g.photon_stats(g.seed_idler(vac, 1e4), g.IDLER)
    # coherent state: Poissonian, variance = mean
    assert stats.mean == pytest.approx(1e4, rel=1e-12)
    assert stats.variance == pytest.approx(1e4, rel=1e-10)
    with pytest.raises(DomainError):
        g.seed_idler(vac, -1.0)


def test_squeezer_photon_statistics():
    tmsv = g.apply_squeezer(g.vacuum_state(), 0.1)
    stats = g.photon_stats(tmsv, g.SIGNAL)
    assert stats.mean == pytest.approx(SINH2_01, rel=1e-12)
    # thermal marginal: Var = nbar (nbar + 1)
    assert stats.variance == pytest.approx(TMSV_VAR_01, rel=1e-12)


def test_phase_trivia():
    tmsv = g.apply_squeezer(g.vacuum_state(), 0.3)
    same = g.apply_phase(tmsv, 0.0)
    assert np.allclose(same.cov, tmsv.cov, atol=1e-15)
    full = g.apply_phase(tmsv, 2.0 * math.pi)
    assert np.allclose(full.cov, tmsv.cov, atol=1e-12)
    assert np.allclose(full.disp, tmsv.disp, atol=1e-12)


def test_destructive_fringe_balanced():
    st1 = g.apply_squeezer(g.vacuum_state(), 0.1)
    st2 = g.apply_phase(st1, math.pi)
    st3 = g.apply_squeezer(st2, 0.1)
    assert g.photon_stats(st3, g.SIGNAL).mean == pytest.approx(0.0, abs=1e-14)


def test_loss_trivia():
    tmsv = g.apply_squeezer(g.vacuum_state(), 0.1)
    unchanged = g.apply_loss(tmsv, 1.0, 1.0)
    assert np.allclose(unchanged.cov, tmsv.cov, atol=1e-15)
    absorbed = g.apply_loss(tmsv, 0.0, 1.0)
    assert g.photon_stats(absorbed, g.SIGNAL).mean == pytest.approx(0.0, abs=1e-14)
    # signal reduced state is vacuum
    assert np.allclose(absorbed.cov[:2, :2], 0.5 * np.eye(2), atol=1e-14)
    with pytest.raises(DomainError):
        g.apply_loss(tmsv, 1.2, 1.0)
    with pytest.raises(DomainError):
        g.apply_loss(tmsv, 0.5, -0.1)


def test_run_interferometer_fringe_extremes():
    cfg = InterferometerConfig(g1=0.1, g2=0.1, theta=0.0)
    assert g.photon_stats(g.run_interferometer(cfg)).mean == pytest.approx(
        math.sinh(0.2) ** 2, rel=1e-12
    )
    cfg_pi = cfg.with_theta(math.pi)
    assert g.photon_stats(g.run_interferometer(cfg_pi)).mean == pytest.approx(
        0.0, abs=1e-14
    )


def test_run_interferometer_no_gain_pure_attenuation():
    cfg = InterferometerConfig(g1=0.0, g2=0.0, theta=1.3, t_s=0.6, t_i=0.8, n_i=7.0)
    out = g.run_interferometer(cfg)
    assert g.photon_stats(out, g.IDLER).mean == pytest.approx(7.0 * 0.8**2, rel=1e-12)
    assert g.photon_stats(out, g.SIGNAL).mean == pytest.approx(0.0, abs=1e-12)


def test_energy_bookkeeping_lossless_spontaneous():
    cfg = InterferometerConfig(g1=0.25, g2=0.15, theta=0.0)
    out = g.run_interferometer(cfg)
    assert g.photon_stats(out, g.SIGNAL).mean == pytest.approx(
        g.photon_stats(out, g.IDLER).mean, rel=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(
    g1=st.floats(0.0, 1.0),
    g2=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2.0 * math.pi),
    t_s=st.floats(0.0, 1.0),
    t_i=st.floats(0.0, 1.0),
    n_i=st.floats(0.0, 100.0),
)
def test_closed_form_mean_equivalence(g1, g2, theta, t_s, t_i, n_i):
    cfg = InterferometerConfig(g1=g1, g2=g2, theta=theta, t_s=t_s, t_i=t_i, n_i=n_i)
    engine = g.photon_stats(g.run_interferometer(cfg)).mean
    analytic = closed_form.mean_signal(cfg)
    assert engine == pytest.approx(analytic, rel=1e-10, abs=1e-12)


def test_closed_form_mean_equivalence_large_seed_unbalanced():
    cfg = InterferometerConfig(
        g1=0.45, g2=0.2, theta=0.7, t_s=math.sqrt(0.52), t_i=math.sqrt(0.42), n_i=1e4
    )
    assert g.photon_stats(g.run_interferometer(cfg)).mean == pytest.approx(
        closed_form.mean_signal(cfg), rel=1e-10
    )


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(-10.0, 10.0))
def test_phase_periodicity(theta):
    cfg = InterferometerConfig(g1=0.2, g2=0.1, theta=theta, t_s=0.8, t_i=0.9, n_i=2.0)
    m1 = g.photon_stats(g.run_interferometer(cfg)).mean
    m2 = g.photon_stats(g.run_interferometer(cfg.with_theta(theta + 2 * math.pi))).mean
    assert m2 == pytest.approx(m1, abs=1e-12, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(0.0, 2.0 * math.pi),
    t_s=st.floats(0.0, 1.0),
    t_i=st.floats(0.0, 1.0),
)
def test_loss_phase_commutation(theta, t_s, t_i):
    base = g.apply_squeezer(g.seed_idler(g.vacuum_state(), 3.0), 0.4)
    a = g.apply_phase(g.apply_loss(base, t_s, t_i), theta)
    b = g.apply_loss(g.apply_phase(base, theta), t_s, t_i)
    assert np.allclose(a.cov, b.cov, atol=1e-12)
    assert np.allclose(a.disp, b.disp, atol=1e-12)


def test_phase_mode_assignment_does_not_change_signal_stats():
    # the interferometric phase can sit on the signal, the idler, or be split:
    # the measured signal moments are identical
    base = g.apply_loss(
        g.apply_squeezer(g.seed_idler(g.vacuum_state(), 3.0), 0.3), 0.7, 0.5
    )
    theta = 1.234
    variants = [
        g.apply_phase(base, theta, g.SIGNAL),
        g.apply_phase(base, theta, g.IDLER),
        g.apply_phase(g.apply_phase(base, theta / 2, g.SIGNAL), theta / 2, g.IDLER),
    ]
    stats = [g.photon_stats(g.apply_squeezer(v, 0.15), g.SIGNAL) for v in variants]
    for s in stats[1:]:
        assert s.mean == pytest.approx(stats[0].mean, rel=1e-12)
        assert s.variance == pytest.approx(stats[0].variance, rel=1e-12)


def test_cov_symmetry_and_physicality_along_pipeline():
    cfg = InterferometerConfig(
        g1=0.45, g2=0.2, theta=2.1, t_s=0.3, t_i=0.9, n_i=1e4
    )
    for state in pipeline_states(cfg):
        assert np.abs(state.cov - state.cov.T).max() < 1e-12
        nu_min = g.symplectic_eigenvalues(state.cov)[0]
        assert nu_min >= 0.5 - 1e-9


def test_non_finite_photon_stats_is_domain_error():
    # g1 = 400 overflows float64 inside the first squeezer
    cfg = InterferometerConfig(g1=400.0, g2=0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        state = g.run_interferometer(cfg)
    with pytest.raises(DomainError, match="overflow"):
        g.photon_stats(state)


def random_configs(seed, n):
    rng = np.random.default_rng(seed)
    return [
        InterferometerConfig(
            g1=rng.uniform(0.0, 1.5), g2=rng.uniform(0.0, 1.5),
            theta=rng.uniform(-2 * math.pi, 2 * math.pi),
            t_s=rng.uniform(0.0, 1.0), t_i=rng.uniform(0.0, 1.0),
            n_i=rng.choice([0.0, rng.uniform(0.0, 1e3)]),
        )
        for _ in range(n)
    ]


def test_stacked_pipeline_matches_single_runs():
    cfgs = random_configs(5, 30)
    stacked = g.run_interferometer(config.stack(cfgs))
    assert stacked.cov.shape == (30, 4, 4) and stacked.disp.shape == (30, 4)
    for mode in (g.SIGNAL, g.IDLER):
        mean, var = g.photon_moments(stacked, mode)
        single = [g.photon_stats(g.run_interferometer(c), mode) for c in cfgs]
        np.testing.assert_allclose(mean, [s.mean for s in single], rtol=1e-13, atol=1e-300)
        np.testing.assert_allclose(var, [s.variance for s in single], rtol=1e-13, atol=1e-300)


def test_elements_broadcast_per_point_parameters():
    base = g.apply_squeezer(g.seed_idler(g.vacuum_state(), 3.0), 0.4)
    thetas = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    stacked = g.apply_phase(base, thetas)
    assert stacked.cov.shape == (3, 2, 4, 4)
    for idx in np.ndindex(thetas.shape):
        single = g.apply_phase(base, float(thetas[idx]))
        np.testing.assert_allclose(stacked.cov[idx], single.cov, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(stacked.disp[idx], single.disp, rtol=1e-13, atol=1e-15)
    lossy = g.apply_loss(stacked, np.array([0.2, 0.9]), 0.5)
    single = g.apply_loss(g.apply_phase(base, 1.0), 0.9, 0.5)
    np.testing.assert_allclose(lossy.cov[0, 1], single.cov, rtol=1e-13, atol=1e-15)
    with pytest.raises(DomainError):
        g.apply_loss(stacked, np.array([0.2, 1.5]), 0.5)
    with pytest.raises(DomainError):
        g.seed_idler(g.vacuum_state(), np.array([1.0, -1.0]))


def test_overflowing_point_does_not_stop_its_batch():
    cfgs = [InterferometerConfig(g1=400.0, g2=0.1), InterferometerConfig(g1=0.1, g2=0.1)]
    thetas = np.array([[0.0], [math.pi]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, var = g.signal_moments(config.stack(cfgs), thetas)
    assert mean.shape == var.shape == (4, 2)
    assert not np.isfinite(mean[:, 0]).all() or not np.isfinite(var[:, 0]).all()
    assert np.isfinite(mean[:, 1]).all() and np.isfinite(var[:, 1]).all()
    assert mean[0, 1] == pytest.approx(math.sinh(0.2) ** 2, rel=1e-12)
    with pytest.raises(DomainError, match="photon statistics overflow float64"):
        g.checked_stats(float(mean[0, 0]), float(var[0, 0]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("element, name", [
    (lambda x: g.seed_idler(g.vacuum_state(), x), "n_i"),
    (lambda x: g.apply_squeezer(g.vacuum_state(), x), "gain"),
    (lambda x: g.apply_phase(g.vacuum_state(), x), "theta"),
    (lambda x: g.apply_phase(g.vacuum_state(), x, g.IDLER), "theta"),
    (lambda x: g.apply_loss(g.vacuum_state(), x, 1.0), "t_s"),
    (lambda x: g.apply_loss(g.vacuum_state(), 1.0, x), "t_i"),
])
def test_non_finite_element_parameter_is_domain_error(element, name, value):
    # a nan or inf parameter is named, not carried into photon statistics
    # that read as a float64 overflow
    for x in (value, np.array([0.5, value])):
        with pytest.raises(DomainError, match=name):
            element(x)


def test_elements_make_no_blas_call():
    # the same bytes on every CPU: outside the test-only diagnostic
    # symplectic_eigenvalues, no matrix product and no numpy.linalg call,
    # whose results follow the BLAS kernel the CPU picks
    import ast
    from pathlib import Path

    tree = ast.parse(Path(g.__file__).read_text())
    nodes = [node for top in tree.body
             if not (isinstance(top, ast.FunctionDef) and top.name == "symplectic_eigenvalues")
             for node in ast.walk(top)]
    products = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum", "linalg"}
    assert not [node for node in nodes
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    assert not [node.attr for node in nodes
                if isinstance(node, ast.Attribute) and node.attr in products]
    assert not [node.id for node in nodes if isinstance(node, ast.Name) and node.id in products]
