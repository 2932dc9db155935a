import functools
import math

import numpy as np
import pytest

from su11sim import InterferometerConfig
from su11sim import fock
from su11sim import gaussian
from su11sim.errors import DomainError, TruncationError


def test_vacuum_trivia():
    st = fock.vacuum(16)
    assert st.is_pure
    assert fock.photon_stats(st).mean == 0.0
    assert fock.squeeze(st, 0.0) is st


def test_tmsv_schmidt_coefficients():
    st = fock.squeeze(fock.vacuum(), 0.1)
    prob = np.abs(st.tensor) ** 2
    assert prob[1, 1] / prob[0, 0] == pytest.approx(math.tanh(0.1) ** 2, rel=1e-10)
    # off-diagonal photon numbers never appear in a two-mode squeezed vacuum
    assert np.abs(prob - np.diagflat(np.diag(prob))).max() < 1e-20


def test_tmsv_moments_match_gaussian():
    st = fock.squeeze(fock.vacuum(), 0.1)
    stats = fock.photon_stats(st)
    assert stats.mean == pytest.approx(math.sinh(0.1) ** 2, rel=1e-10)
    assert stats.variance == pytest.approx(
        math.sinh(0.1) ** 2 * math.cosh(0.1) ** 2, rel=1e-10
    )


def test_phase_trivia():
    st = fock.squeeze(fock.vacuum(), 0.2)
    same = fock.phase_shift(st, 0.0)
    assert np.allclose(same.tensor, st.tensor)
    rotated = fock.phase_shift(st, 1.3)
    assert np.allclose(
        fock.number_distribution(rotated), fock.number_distribution(st), atol=1e-15
    )


def test_destructive_fringe():
    st = fock.squeeze(fock.vacuum(), 0.1)
    st = fock.phase_shift(st, math.pi)
    st = fock.squeeze(st, 0.1)
    assert fock.photon_stats(st).mean == pytest.approx(0.0, abs=1e-9)


def test_loss_trivia_and_coherent_scaling():
    st = fock.vacuum(32)
    assert fock.loss(st, 1.0, fock.SIGNAL) is st
    st = fock.displace(st, math.sqrt(2.0), fock.IDLER)  # n_i = 2 coherent seed
    lossy = fock.loss(st, 0.5, fock.IDLER)
    assert not lossy.is_pure
    assert fock.photon_stats(lossy, fock.IDLER).mean == pytest.approx(0.5, rel=1e-9)
    with pytest.raises(DomainError):
        fock.loss(st, 1.5, fock.IDLER)


def test_loss_attenuates_thermal_marginal():
    st = fock.squeeze(fock.vacuum(), 0.2)
    lossy = fock.loss(st, 0.7, fock.SIGNAL)
    assert fock.photon_stats(lossy, fock.SIGNAL).mean == pytest.approx(
        0.49 * math.sinh(0.2) ** 2, rel=1e-9
    )


def test_loss_preserves_trace_and_positivity():
    st = fock.squeeze(fock.vacuum(), 0.3)
    st = fock.loss(st, 0.4, fock.SIGNAL)
    st = fock.loss(st, 0.9, fock.IDLER)
    assert abs(fock.norm_deficit(st)) < 1e-9
    assert fock.number_distribution(st, fock.SIGNAL).min() >= -1e-12
    assert fock.number_distribution(st, fock.IDLER).min() >= -1e-12


def test_displacement_poisson_statistics():
    st = fock.displace(fock.vacuum(32), 0.0, fock.IDLER)
    assert fock.photon_stats(st, fock.IDLER).mean == 0.0
    st = fock.displace(fock.vacuum(32), 2.0, fock.IDLER)
    stats = fock.photon_stats(st, fock.IDLER)
    assert stats.mean == pytest.approx(4.0, rel=1e-10)
    assert stats.variance == pytest.approx(4.0, rel=1e-9)


def test_seeded_single_opa_gain_factor():
    # displaced idler then squeezed: signal mean = sinh^2(g) (1 + |alpha|^2)
    st = fock.displace(fock.vacuum(), 2.0, fock.IDLER)
    st = fock.squeeze(st, 0.1)
    assert fock.photon_stats(st, fock.SIGNAL).mean == pytest.approx(
        math.sinh(0.1) ** 2 * 5.0, rel=1e-9
    )


def test_pipeline_fringe_extremes():
    cfg = InterferometerConfig(g1=0.1, g2=0.1, theta=0.0)
    assert fock.pipeline(cfg).mean == pytest.approx(math.sinh(0.2) ** 2, abs=1e-8)
    cfg_pi = cfg.with_theta(math.pi)
    assert fock.pipeline(cfg_pi).mean == pytest.approx(0.0, abs=1e-9)


def test_pipeline_matches_closed_form_and_gaussian():
    from su11sim import closed_form

    cfg = InterferometerConfig(
        g1=0.2, g2=0.1, theta=math.pi / 3, t_s=0.8, t_i=0.6, n_i=1.0
    )
    stats = fock.pipeline(cfg)
    assert stats.mean == pytest.approx(closed_form.mean_signal(cfg), rel=1e-7)
    g_stats = gaussian.photon_stats(gaussian.run_interferometer(cfg))
    assert stats.variance == pytest.approx(g_stats.variance, rel=1e-6)


def test_truncation_monotonicity():
    cfg = InterferometerConfig(
        g1=0.3, g2=0.3, theta=1.0, t_s=0.5, t_i=0.5, n_i=4.0
    )
    a = fock.pipeline(cfg, cutoff=40)
    b = fock.pipeline(cfg, cutoff=80)
    assert abs(a.mean - b.mean) < 1e-8
    assert abs(a.variance - b.variance) < 1e-8


def test_cutoff_auto_doubles_on_tail_breach():
    # a cutoff-8 start cannot hold a seed of 4 photons: it must grow
    st = fock.displace(fock.vacuum(8), 2.0, fock.IDLER)
    assert st.cutoff >= 16
    assert fock.photon_stats(st, fock.IDLER).mean == pytest.approx(4.0, rel=1e-9)


def test_truncation_error_at_max_cutoff(monkeypatch):
    monkeypatch.setattr(fock, "MAX_CUTOFF", 16)
    with pytest.raises(TruncationError):
        fock.displace(fock.vacuum(16), math.sqrt(8.0), fock.IDLER)


def test_cutoff_doubling_stops_at_max_cutoff():
    # 40 -> 80 -> 128: the last step is capped at MAX_CUTOFF, not skipped
    st = fock.squeeze(fock.vacuum(40), 1.5)
    assert st.cutoff == fock.MAX_CUTOFF == 128
    assert fock.tail_population(st) < fock.TAIL_TOL


def test_truncation_error_names_the_cutoff_tried(monkeypatch):
    monkeypatch.setattr(fock, "MAX_CUTOFF", 24)
    with pytest.raises(TruncationError, match=r"at cutoff 24 "):
        fock.displace(fock.vacuum(16), math.sqrt(8.0), fock.IDLER)


def test_tail_population_is_both_marginals_top_two_shells():
    # squeezed past its cutoff on purpose (no retry), then lossy on both modes
    st = fock._apply_squeeze_unitary(fock.vacuum(8), 0.8)
    st = fock.loss(st, 0.7, fock.SIGNAL)
    st = fock.loss(st, 0.6, fock.IDLER)
    assert not st.is_pure
    p_s = fock.number_distribution(st, fock.SIGNAL)
    p_i = fock.number_distribution(st, fock.IDLER)
    ref = p_s[-2:].sum() + p_i[-2:].sum()
    assert ref > 1e-4
    assert fock.tail_population(st) == pytest.approx(ref, rel=1e-15)


@pytest.mark.parametrize("d", [5, 13, 16, 36, 64, 128])
@pytest.mark.parametrize("g", [0.05, 0.3, 1.0, 1.5])
def test_squeeze_blocks_orthogonal_and_match_expm(g, d):
    from scipy.linalg import expm

    blocks = list(fock._squeeze_blocks(g, d))
    assert len(blocks) == 2 * d - 1
    # sectors s and -s have the same generator: one expm is the reference of both
    refs = {}
    for idx, block in blocks:
        ns, ni = np.divmod(idx, d)
        off = ns[0] - ni[0]
        assert np.all(ns - ni == off)
        sub = g * np.sqrt((ns[:-1] + 1.0) * (ns[:-1] + 1.0 - off))
        key = sub.tobytes()
        if key not in refs:
            refs[key] = expm(np.diag(sub, -1) - np.diag(sub, 1))
        assert block.dtype == float
        assert np.abs(block @ block.T - np.eye(len(idx))).max() < 1e-13
        assert np.abs(block - refs[key]).max() < 1e-11
    assert len(refs) == d


def test_suggested_cutoff_bounds():
    small = fock.suggested_cutoff(InterferometerConfig(g1=0.05, g2=0.05))
    big = fock.suggested_cutoff(
        InterferometerConfig(g1=0.3, g2=0.3, n_i=4.0)
    )
    assert 16 <= small <= big <= fock.MAX_CUTOFF


def test_displace_rejects_mixed_state():
    mixed = fock.loss(fock.squeeze(fock.vacuum(12), 0.1), 0.8, fock.SIGNAL)
    assert not mixed.is_pure
    with pytest.raises(DomainError, match="pure"):
        fock.displace(mixed, 0.5, fock.IDLER)


def _dense_reference_joint(d):
    """Density-matrix reference for the mixture tests below: rho is a
    D^2 x D^2 matrix, unitaries are dense expm of the full generators and
    loss is a sum over explicit Kraus matrices.  Returns P(n_s, n_i)."""
    from scipy.linalg import expm
    from scipy.special import factorial

    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    eye = np.eye(d)

    def on_mode(op, mode):
        return np.kron(op, eye) if mode == fock.SIGNAL else np.kron(eye, op)

    def unitary(rho, u):
        return u @ rho @ u.conj().T

    def squeeze(rho, g):
        return unitary(rho, expm(g * (np.kron(a.T, a.T) - np.kron(a, a))))

    def phase(rho, theta, mode):
        ph = np.diag(np.exp(1j * theta * np.arange(d)))
        return unitary(rho, on_mode(ph, mode))

    def loss(rho, t, mode):
        # A_k = sqrt((1 - t^2)^k / k!) t^n a^k
        t_n = np.diag(t ** np.arange(d))
        kraus = [
            np.sqrt((1.0 - t * t) ** k / factorial(k))
            * t_n @ np.linalg.matrix_power(a, k)
            for k in range(d)
        ]
        assert np.allclose(sum(k.T @ k for k in kraus), eye, atol=1e-14)
        return sum(unitary(rho, on_mode(k, mode)) for k in kraus)

    alpha = 0.4
    vec = expm(on_mode(alpha * (a.T - a), fock.IDLER))[:, 0]
    rho = np.outer(vec, vec.conj())
    rho = squeeze(rho, 0.15)
    rho = loss(rho, 0.7, fock.SIGNAL)
    rho = loss(rho, 0.5, fock.IDLER)
    rho = phase(rho, 0.9, fock.SIGNAL)
    rho = phase(rho, -0.4, fock.IDLER)
    rho = squeeze(rho, 0.2)
    return np.diag(rho).real.reshape(d, d)


def _dense_reference_marginals(d):
    diag = _dense_reference_joint(d)
    return diag.sum(axis=1), diag.sum(axis=0)


def test_mixture_matches_dense_density_reference():
    d = 12
    st = fock.displace(fock.vacuum(d), 0.4, fock.IDLER)
    st = fock.squeeze(st, 0.15)
    st = fock.loss(st, 0.7, fock.SIGNAL)
    st = fock.loss(st, 0.5, fock.IDLER)
    st = fock.phase_shift(st, 0.9, fock.SIGNAL)
    st = fock.phase_shift(st, -0.4, fock.IDLER)
    st = fock.squeeze(st, 0.2)
    assert not st.is_pure and st.cutoff == d
    p_s, p_i = _dense_reference_marginals(d)
    assert np.abs(fock.number_distribution(st, fock.SIGNAL) - p_s).max() < 1e-12
    assert np.abs(fock.number_distribution(st, fock.IDLER) - p_i).max() < 1e-12



def test_mixture_joint_distribution_matches_dense_density_reference():
    # a swapped delta or sector index can leave both marginals intact
    d = 12
    st = fock.displace(fock.vacuum(d), 0.4, fock.IDLER)
    st = fock.squeeze(st, 0.15)
    st = fock.loss(st, 0.7, fock.SIGNAL)
    st = fock.loss(st, 0.5, fock.IDLER)
    st = fock.phase_shift(st, 0.9, fock.SIGNAL)
    st = fock.phase_shift(st, -0.4, fock.IDLER)
    st = fock.squeeze(st, 0.2)
    assert not st.is_pure and st.tensor.shape == (d, d, d)
    joint = fock._joint_distribution(st)
    assert joint.shape == (d, d)
    assert np.abs(joint - _dense_reference_joint(d)).max() < 1e-12


def test_squeeze_tail_retry_pads_a_mixed_state():
    # lossy at cutoff 16, then squeezed past it: OPA 2 must double the cutoff
    def lossy(d):
        st = fock.squeeze(fock.vacuum(d), 0.3)
        st = fock.loss(st, 0.7, fock.SIGNAL)
        st = fock.loss(st, 0.6, fock.IDLER)
        return fock.phase_shift(st, 1.0)

    small = lossy(16)
    assert not small.is_pure and small.cutoff == 16
    assert fock.tail_population(fock._apply_squeeze_unitary(small, 0.6)) >= fock.TAIL_TOL
    grown = fock.squeeze(small, 0.6)
    ref = fock.squeeze(lossy(32), 0.6)
    assert grown.cutoff == ref.cutoff == 32
    assert np.abs(grown.tensor - ref.tensor).max() < 1e-12
    assert fock.photon_stats(grown).mean == pytest.approx(fock.photon_stats(ref).mean, abs=1e-12)


def _readout_states():
    seeded = fock.displace(fock.vacuum(16), 0.4, fock.IDLER)
    squeezed = fock.squeeze(seeded, 0.15)
    lossy = fock.loss(fock.loss(squeezed, 0.7, fock.SIGNAL), 0.6, fock.IDLER)
    assert squeezed.is_pure and not lossy.is_pure and lossy.cutoff == 16
    rotated = fock.phase_shift(lossy, 1.1)
    assert np.iscomplexobj(rotated.tensor) and not np.iscomplexobj(lossy.tensor)
    return {"pure": squeezed, "real mixed": lossy, "complex mixed": rotated}


@pytest.mark.parametrize("kind", ["pure", "real mixed", "complex mixed"])
def test_squeezed_distribution_matches_the_full_squeeze(kind):
    st = _readout_states()[kind]
    prob = fock._squeezed_distribution(st, 0.2)
    ref = fock._joint_distribution(fock.squeeze(st, 0.2))
    assert prob.shape == ref.shape == (16, 16)
    assert np.abs(prob - ref).max() <= 1e-14


def test_squeezed_distribution_grows_the_cutoff_as_squeeze_does():
    st = fock.squeeze(fock.vacuum(16), 0.3)
    st = fock.phase_shift(fock.loss(fock.loss(st, 0.7, fock.SIGNAL), 0.6, fock.IDLER), 1.0)
    assert fock.tail_population(fock._apply_squeeze_unitary(st, 0.6)) >= fock.TAIL_TOL
    prob = fock._squeezed_distribution(st, 0.6)
    ref = fock._joint_distribution(fock.squeeze(st, 0.6))
    assert prob.shape == ref.shape == (32, 32)
    assert np.abs(prob - ref).max() <= 1e-14


def test_lossy_pipeline_at_large_cutoff_in_bounded_memory():
    import tracemalloc

    cfg = InterferometerConfig(g1=0.3, g2=0.3, theta=1.0, t_s=0.5, t_i=0.5, n_i=4.0)
    ref = fock.pipeline(cfg, cutoff=40)
    big = fock.pipeline(cfg, cutoff=96)
    assert abs(big.mean - ref.mean) < 1e-8
    assert abs(big.variance - ref.variance) < 1e-8
    # a (D, D, D^2) Kraus-branch stack would hold 268 MB at cutoff 64
    fock._sectors.cache_clear()
    tracemalloc.start()
    try:
        fock.pipeline(cfg, cutoff=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128e6


def test_squeeze_eigenbasis_is_computed_once_per_cutoff(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a: calls.append(a.shape) or svd(a))
    fock._sectors.cache_clear()
    first = fock.squeeze(fock.vacuum(20), 0.1)
    # one SVD per size bucket, of its (|s| count, (m+1)//2, m//2) corner stack
    buckets = fock._buckets(20)
    assert len(buckets) > 1
    assert calls == [(hi - lo, (m + 1) // 2, m // 2) for lo, hi, m in buckets]
    assert sum(n for n, _, _ in calls) == 20
    mixed = fock.loss(first, 0.8, fock.SIGNAL)
    fock.squeeze(fock.vacuum(20), 0.25)
    fock.squeeze(mixed, 0.2)
    fock._squeezed_distribution(mixed, 0.3)
    assert len(calls) == len(buckets)


def test_oracle_runs_on_one_thread():
    # a cold oracle at the cutoffs validate reaches, single and in stacks,
    # leaves no BLAS worker busy; the baseline is taken after the start-up
    # spin of importing numpy and scipy
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import time\n"
        "from su11sim import InterferometerConfig, fock, sweep\n"
        "other = lambda: time.process_time() - time.thread_time()\n"
        "time.sleep(0.3)\n"
        "base = other()\n"
        "cfg = InterferometerConfig(g1=0.2, g2=0.2, theta=1.0, t_s=0.7, t_i=0.6, n_i=2.0)\n"
        "for d in (32, 36, 40):\n"
        "    fock.pipeline(cfg, cutoff=d)\n"
        "sweep.validate(180, 24)\n"
        "time.sleep(0.3)\n"
        "print(other() - base)\n"
    )
    src = str(Path(fock.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert float(out) < 0.010


def test_returned_states_share_no_work_array():
    st = fock.squeeze(fock.displace(fock.vacuum(16), 0.5, fock.IDLER), 0.2)
    lossy = fock.loss(st, 0.7, fock.SIGNAL)
    squeezed = fock.squeeze(lossy, 0.3)
    kept = lossy.tensor.copy(), squeezed.tensor.copy()
    fock.squeeze(fock.loss(fock.loss(st, 0.4, fock.IDLER), 0.5, fock.SIGNAL), 0.6)
    fock.pipeline(InterferometerConfig(g1=0.2, g2=0.3, theta=0.4, t_s=0.6, t_i=0.5), 16)
    assert np.array_equal(lossy.tensor, kept[0])
    assert np.array_equal(squeezed.tensor, kept[1])


def test_pipeline_in_threads_matches_serial():
    from concurrent.futures import ThreadPoolExecutor

    cfgs = [
        InterferometerConfig(g1=0.1 + 0.02 * k, g2=0.2, theta=0.3 * k, t_s=0.7, t_i=0.6, n_i=1.0)
        for k in range(8)
    ]
    serial = [fock.pipeline(cfg, cutoff=24) for cfg in cfgs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda cfg: fock.pipeline(cfg, cutoff=24), cfgs))
    assert threaded == serial


@pytest.mark.parametrize("mode", [fock.SIGNAL, fock.IDLER])
def test_seed_is_the_exact_coherent_state(mode):
    from scipy.linalg import expm

    d, alpha = 48, 1.5 - 0.5j
    st = fock.displace(fock.vacuum(d), alpha, mode)
    assert st.is_pure and st.cutoff == d
    amp = st.tensor if mode == fock.SIGNAL else st.tensor.T
    assert not amp[:, 1:].any()
    closed = np.array(
        [
            np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / math.sqrt(math.factorial(n))
            for n in range(d)
        ]
    )
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    dense = expm(alpha * a.T - np.conj(alpha) * a)[:, 0]
    assert np.abs(amp[:, 0] - closed).max() < 1e-13
    assert np.abs(amp[:, 0] - dense).max() < 1e-13


def test_seed_past_max_cutoff_raises():
    # a truncated unitary D(alpha) reflects this population back to low n; at
    # n_i = 400 almost none of it reaches the top two shells at cutoff 128, so
    # only the lost norm reveals it
    with pytest.raises(TruncationError, match="at cutoff 128 "):
        fock.displace(fock.vacuum(40), 11.0, fock.IDLER)
    cfg = InterferometerConfig(g1=0.1, g2=0.1, theta=1.0, n_i=400.0)
    with pytest.raises(TruncationError):
        fock.pipeline(cfg)


def test_displace_rejects_squeezed_pure_state():
    squeezed = fock.squeeze(fock.vacuum(12), 0.1)
    assert squeezed.is_pure
    with pytest.raises(DomainError, match="pure"):
        fock.displace(squeezed, 0.5, fock.IDLER)


@pytest.mark.parametrize(
    "cfg",
    [InterferometerConfig(g1=400.0, g2=0.1), InterferometerConfig(g1=0.1, g2=0.1, n_i=1e300)],
)
def test_suggested_cutoff_caps_a_peak_past_max_cutoff(cfg):
    assert fock.suggested_cutoff(cfg) == fock.MAX_CUTOFF
    with pytest.raises(TruncationError):
        fock.pipeline(cfg, cutoff=fock.suggested_cutoff(cfg))


def test_cli_import_loads_no_scipy_linear_algebra():
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys, su11sim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'sparse'], ['scipy', 'linalg'])))"
    )
    src = str(Path(fock.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"


def test_oracle_imports_only_photon_stats_and_mode_names_from_gaussian():
    import ast
    from pathlib import Path

    tree = ast.parse(Path(fock.__file__).read_text())
    from_su11sim = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or "su11sim" in node.module):
            module = (node.module or "").removeprefix("su11sim").lstrip(".")
            names = {alias.name for alias in node.names}
            from_su11sim.setdefault(module, set()).update(names)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("su11sim") for alias in node.names)
    assert from_su11sim["gaussian"] == {"IDLER", "SIGNAL", "PhotonStats"}
    assert set(from_su11sim) <= {"config", "errors", "gaussian"}


@pytest.mark.parametrize("mode", [fock.SIGNAL, fock.IDLER])
def test_loss_commutes_with_phase(mode):
    # both are covariant under exp[i phi (n_s - n_i)], so their order is free
    st = fock.squeeze(fock.displace(fock.vacuum(12), 0.3 + 0.2j, fock.IDLER), 0.2)
    a = fock.loss(fock.phase_shift(st, 0.7, mode), 0.6, mode)
    b = fock.phase_shift(fock.loss(st, 0.6, mode), 0.7, mode)
    assert np.abs(a.tensor - b.tensor).max() < 1e-15


def _complex_reference(cfg, cutoff):
    """The pipeline through the true, complex phase: phase_shift, then OPA 2."""
    state = fock.vacuum(cutoff)
    state = fock.displace(state, math.sqrt(cfg.n_i), fock.IDLER)
    state = fock.squeeze(state, cfg.g1)
    state = fock.loss(state, cfg.t_s, fock.SIGNAL)
    state = fock.loss(state, cfg.t_i, fock.IDLER)
    state = fock.phase_shift(state, cfg.theta, fock.SIGNAL)
    assert np.iscomplexobj(state.tensor)
    return fock.photon_stats(fock.squeeze(state, cfg.g2), fock.SIGNAL)


def _phase_mixture_configs():
    from su11sim import sweep

    cfgs = sweep.random_oracle_configs(180, 24) + sweep.random_oracle_configs(7, 24)
    assert any(cfg.theta > math.pi for cfg in cfgs)
    return cfgs + [
        InterferometerConfig(g1=0.25, g2=0.2, theta=4.0, n_i=2.0),  # lossless: pure path
        InterferometerConfig(g1=0.2, g2=0.3, theta=5.5, t_s=0.6, t_i=0.9, n_i=3.0),
    ]


@pytest.mark.parametrize("cfg", _phase_mixture_configs())
def test_phase_mixture_matches_the_complex_phase(cfg):
    # pipeline's OPA 2 sees cos(theta delta) Z, the real part of the phase
    cutoff = fock.suggested_cutoff(cfg)
    ref = _complex_reference(cfg, cutoff)
    stats = fock.pipeline(cfg, cutoff=cutoff)
    assert stats.mean == pytest.approx(ref.mean, rel=1e-13, abs=0.0)
    assert stats.variance == pytest.approx(ref.variance, rel=1e-13, abs=0.0)


def test_real_states_stay_float64():
    seeded = fock.displace(fock.vacuum(16), 0.7, fock.IDLER)
    squeezed = fock.squeeze(seeded, 0.2)
    lossy = fock.loss(squeezed, 0.8, fock.SIGNAL)
    assert not lossy.is_pure
    for st in (fock.vacuum(16), seeded, squeezed, lossy, fock.loss(lossy, 0.9, fock.IDLER),
               fock.squeeze(lossy, 0.1)):
        assert st.tensor.dtype == np.float64
    # a complex state stays complex through loss and squeeze
    rotated = fock.phase_shift(lossy, 0.3)
    assert np.iscomplexobj(fock.squeeze(fock.loss(rotated, 0.9, fock.IDLER), 0.1).tensor)


def test_complex_seed_writes_the_exact_complex_amplitudes():
    d, alpha = 32, 1 + 1j
    st = fock.displace(fock.vacuum(d), alpha, fock.IDLER)
    assert st.cutoff == d and st.tensor.dtype == np.complex128 and not st.tensor[1:].any()
    exact = [
        np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / math.sqrt(math.factorial(n))
        for n in range(d)
    ]
    assert np.abs(st.tensor[0] - exact).max() < 1e-15


@pytest.mark.parametrize("engine", ["metrics", "closed_form", "sweep"])
def test_oracle_is_independent_of_the_other_engines(engine):
    # only config, errors and IDLER/SIGNAL/PhotonStats of gaussian, in any import form
    import ast
    from pathlib import Path

    tree = ast.parse(Path(fock.__file__).read_text())
    modules, from_gaussian = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ["su11sim", base]))
            # `from package import name` may import the module package.name
            modules.update([base] + [f"{base}.{alias.name}" for alias in node.names])
            if base == "su11sim.gaussian":
                from_gaussian.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            assert node.id not in ("__import__", "importlib")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            assert f"su11sim.{engine}" not in node.value
    assert f"su11sim.{engine}" not in modules
    ours = {m for m in modules if m.startswith("su11sim.") and m.count(".") == 1}
    assert ours == {"su11sim.config", "su11sim.errors", "su11sim.gaussian"}
    assert from_gaussian == {"IDLER", "SIGNAL", "PhotonStats"}


# --- size buckets -------------------------------------------------------------
# Odd and even cutoffs, one bucket (5) and many (112); each state below fills
# every sector and every delta, so the first sector and delta of each bucket,
# the edges where a corner shrinks, are populated.
_BUCKET_CUTOFFS = [5, 13, 16, 37, 64, 112]


def _random_pure(d, seed):
    """Dense, normalised complex amplitudes: every sector is populated."""
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return amp / np.linalg.norm(amp)


def _sector_density(amp):
    """Z[delta, n_s, n_i] = amp[n_s, n_i] conj amp[n_s + delta, n_i + delta],
    written out one delta at a time."""
    d = amp.shape[0]
    z = np.zeros((d, d, d), dtype=complex)
    for delta in range(d):
        z[delta, : d - delta, : d - delta] = amp[: d - delta, : d - delta] * amp[delta:, delta:].conj()
    return z


def _random_mixed(d, seed):
    """The sector density of a mixture of two random pure states."""
    return 0.3 * _sector_density(_random_pure(d, seed)) + 0.7 * _sector_density(
        _random_pure(d, seed + 1)
    )


@functools.lru_cache(maxsize=None)
def _sector_expm(g, s_abs, d):
    """The dense references' exp(g (a_s^dag a_i^dag - a_s a_i)) on sectors
    s and -s, by expm of their tridiagonal generator."""
    from scipy.linalg import expm

    a = np.arange(1, d - s_abs)
    sub = g * np.sqrt((a * (a + s_abs)).astype(float))
    return expm(np.diag(sub, -1) - np.diag(sub, 1))


def _squeeze_reference(tensor, g):
    """Sector by sector: U v for amplitudes, U R U^T on the Hermitian sector
    block R of a sector density."""
    d = tensor.shape[-1]
    out = np.zeros_like(tensor, dtype=complex)
    for s in range(-(d - 1), d):
        u, a = _sector_expm(g, abs(s), d), np.arange(d - abs(s))
        ns, ni = a + max(s, 0), a + max(-s, 0)
        if tensor.ndim == 2:
            out[ns, ni] = u @ tensor[ns, ni]
            continue
        a, b = np.meshgrid(np.arange(len(ns)), np.arange(len(ns)), indexing="ij")
        upper = tensor[np.abs(b - a), ns[np.minimum(a, b)], ni[np.minimum(a, b)]]
        rho = np.where(b >= a, upper, upper.conj())
        rot = u @ rho @ u.T
        out[(b - a)[b >= a], ns[a[b >= a]], ni[a[b >= a]]] = rot[b >= a]
    return out


def _loss_reference(z, t, mode):
    """The dense references' Kraus sum sum_k A_k rho A_k^dag on the sector
    density, one k at a time: with A_k |n + k> = w(n, k) |n>,
    Z'[delta][n, m] = sum_k w(n, k) w(n + delta, k) Z[delta][n + k, m]
    on the lossy mode's index n."""
    from scipy.special import comb

    d = z.shape[-1]
    zz = z if mode == fock.SIGNAL else z.transpose(0, 2, 1)
    n, delta = np.arange(d), np.arange(d)[:, None]
    out = np.zeros(zz.shape, dtype=complex)
    for k in range(d):
        w = lambda m: np.sqrt(comb(m + k, k)) * t**m * (1.0 - t * t) ** (k / 2)
        out[:, : d - k] += (w(n) * w(n + delta))[:, : d - k, None] * zz[:, k:]
    return out if mode == fock.SIGNAL else out.transpose(0, 2, 1)


def test_sector_references_match_the_dense_density_reference():
    # the references above are the dense D^2 x D^2 ones, one sector at a time
    from scipy.linalg import expm
    from scipy.special import factorial

    d, g, t = 6, 0.4, 0.7
    amp = _random_pure(d, 3)
    a, eye = np.diag(np.sqrt(np.arange(1.0, d)), 1), np.eye(d)
    rho = np.outer(amp.reshape(-1), amp.reshape(-1).conj())
    sq = expm(g * (np.kron(a.T, a.T) - np.kron(a, a)))
    kraus = [np.sqrt((1 - t * t) ** k / factorial(k)) * np.diag(t ** np.arange(d))
             @ np.linalg.matrix_power(a, k) for k in range(d)]

    def sector_density(rho):
        r = rho.reshape(d, d, d, d)
        return np.array([[[r[n, m, n + e, m + e] if max(n, m) + e < d else 0
                           for m in range(d)] for n in range(d)] for e in range(d)])

    assert np.abs(_squeeze_reference(amp, g) - (sq @ amp.reshape(-1)).reshape(d, d)).max() < 1e-14
    assert np.abs(_sector_density(amp) - sector_density(rho)).max() < 1e-15
    z = _sector_density(amp)
    assert np.abs(_squeeze_reference(z, g) - sector_density(sq @ rho @ sq.T)).max() < 1e-14
    for mode, k_on in ((fock.SIGNAL, lambda k: np.kron(k, eye)), (fock.IDLER, lambda k: np.kron(eye, k))):
        dense = sum(k_on(k) @ rho @ k_on(k).T for k in kraus)
        assert np.abs(_loss_reference(z, t, mode) - sector_density(dense)).max() < 1e-14


@pytest.mark.parametrize("d", _BUCKET_CUTOFFS)
def test_buckets_tile_every_index_with_its_live_corner(d):
    buckets = fock._buckets(d)
    assert [lo for lo, _, _ in buckets] == list(range(0, d, fock._BUCKET))
    assert [hi for _, hi, _ in buckets] == [lo for lo, _, _ in buckets[1:]] + [d]
    assert all(m == d - lo and hi - lo <= fock._BUCKET for lo, hi, m in buckets)


@pytest.mark.parametrize("d", _BUCKET_CUTOFFS)
@pytest.mark.parametrize("mode", [fock.SIGNAL, fock.IDLER])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_loss_matches_the_kraus_sum_across_buckets(kind, mode, d):
    amp = _random_pure(d, d)
    tensor = amp if kind == "pure" else _random_mixed(d, d)
    z = _sector_density(amp) if kind == "pure" else tensor
    edge = fock._buckets(d)[-1][0]  # first delta of the last bucket
    assert np.abs(z[edge]).max() > 0
    out = fock.loss(fock.FockTwoModeState(tensor=tensor), 0.6, mode).tensor
    assert out.shape == (d, d, d)
    assert np.abs(out - _loss_reference(z, 0.6, mode)).max() < 1e-15


@pytest.mark.parametrize("d", _BUCKET_CUTOFFS)
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_squeeze_matches_the_sector_expm_across_buckets(kind, d):
    # _apply_squeeze_unitary is squeeze without the tail retry: a dense random
    # state fills the cutoff's tail on purpose
    tensor = _random_pure(d, d) if kind == "pure" else _random_mixed(d, d)
    state = fock.FockTwoModeState(tensor=tensor)
    ref = _squeeze_reference(tensor, 0.3)
    out = fock._apply_squeeze_unitary(state, 0.3).tensor
    assert out.shape == tensor.shape
    # 5e-14 is the expm reference's own accuracy here: the unbucketed oracle is as far off
    assert np.abs(out - ref).max() < 5e-14
    prob = fock._apply_squeeze_readout(state, 0.3)
    joint = np.abs(ref) ** 2 if kind == "pure" else ref[0].real
    assert np.abs(prob - joint).max() < 1e-14
    if kind == "pure":
        # the eigenbasis branch against the same blocks applied as matrices
        blocks = np.zeros_like(tensor)
        for idx, block in fock._squeeze_blocks(0.3, d):
            blocks.reshape(-1)[idx] = block @ tensor.reshape(-1)[idx]
        assert np.abs(out - blocks).max() < 2e-15


def test_pipeline_forms_the_sector_unitaries_once_per_opa2_attempt(monkeypatch):
    # a noise-free count: OPA 1 squeezes a pure state without any sector
    # unitary; OPA 2 builds each size bucket's unitaries once per cutoff it tries
    built, attempts = [], []
    unitaries, readout = fock._bucket_unitaries, fock._readout
    monkeypatch.setattr(
        fock, "_bucket_unitaries",
        lambda cos, sin, sec, lo, hi, m: built.append((len(sec.sv), lo)) or unitaries(cos, sin, sec, lo, hi, m),
    )
    monkeypatch.setattr(fock, "_readout", lambda x, g: attempts.append(x.shape[-1]) or readout(x, g))

    def once_per_bucket(*cutoffs):
        return [(d, lo) for d in cutoffs for lo, _, _ in fock._buckets(d)]

    lossy = InterferometerConfig(g1=0.2, g2=0.2, theta=1.0, t_s=0.7, t_i=0.6, n_i=2.0)
    fock.pipeline(lossy, cutoff=32)
    assert built == once_per_bucket(32) and attempts == [32]
    built.clear()
    attempts.clear()
    # OPA 2 from cutoff 16 must double once
    fock.pipeline(InterferometerConfig(g1=0.1, g2=0.6, theta=1.0, t_s=0.7, t_i=0.6), cutoff=16)
    assert built == once_per_bucket(16, 32) and attempts == [16, 32]
    built.clear()
    attempts.clear()
    fock.pipeline(InterferometerConfig(g1=0.2, g2=0.2, theta=1.0, n_i=2.0), cutoff=32)  # lossless
    assert built == [] and attempts == [32]


# --- stacks -------------------------------------------------------------------

# each edge case of the stacked pipeline: a lossless mode (t = 1), a lossless
# device (a pure state through OPA 2), no seed, and a gain of 0 in either OPA
_STACK_EDGES = [
    InterferometerConfig(g1=0.2, g2=0.2, theta=1.0, t_s=1.0, t_i=0.6, n_i=2.0),
    InterferometerConfig(g1=0.2, g2=0.2, theta=1.0, t_s=0.7, t_i=1.0, n_i=2.0),
    InterferometerConfig(g1=0.2, g2=0.2, theta=4.0, n_i=2.0),
    InterferometerConfig(g1=0.2, g2=0.2, theta=1.0, t_s=0.7, t_i=0.6, n_i=0.0),
    InterferometerConfig(g1=0.2, g2=0.0, theta=1.0, t_s=0.7, t_i=0.6, n_i=2.0),
    InterferometerConfig(g1=0.2, g2=0.0, theta=1.0, n_i=2.0),
    InterferometerConfig(g1=0.0, g2=0.2, theta=1.0, t_s=0.7, t_i=0.6, n_i=2.0),
]


@pytest.mark.parametrize("seed,points", [(180, 24), (42, 200)])
def test_pipeline_stack_rows_equal_the_single_pipeline(seed, points):
    from su11sim import sweep

    cfgs = sweep.random_oracle_configs(seed, points)
    stacks = sweep._oracle_stacks(cfgs)
    assert len({cutoff for cutoff, _ in stacks}) > 1
    for cutoff, idx in stacks:
        stack = [cfgs[i] for i in idx] + _STACK_EDGES
        assert fock.pipeline_stack(stack, cutoff) == [fock.pipeline(cfg, cutoff) for cfg in stack]


def test_an_empty_stack_is_empty():
    assert fock.pipeline_stack([], 32) == []


def test_a_stack_recomputes_the_row_that_must_escalate(monkeypatch):
    attempts, readout = [], fock._readout
    monkeypatch.setattr(fock, "_readout", lambda x, g: attempts.append(x.shape) or readout(x, g))
    stack = [
        InterferometerConfig(g1=0.05 + 0.01 * k, g2=0.1, theta=0.7 * k, t_s=0.6, t_i=0.8, n_i=0.5)
        for k in range(4)
    ]
    stack.insert(2, InterferometerConfig(g1=0.1, g2=0.6, theta=1.0, t_s=0.7, t_i=0.6))
    out = fock.pipeline_stack(stack, 16)
    # OPA 2 of the stack at cutoff 16, then of the failing row alone at 16 and 32
    assert attempts == [(5, 16, 16, 16), (1, 16, 16, 16), (1, 32, 32, 32)]
    assert out == [fock.pipeline(cfg, 16) for cfg in stack]


@pytest.mark.parametrize("d", _BUCKET_CUTOFFS)
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_two_sided_loss_matches_the_kraus_sum_once_per_mode(kind, d):
    amp = _random_pure(d, d)
    tensor = amp if kind == "pure" else _random_mixed(d, d)
    z = _sector_density(amp) if kind == "pure" else tensor
    t = np.array([0.6, 0.8])
    weights = fock._loss_weights(t, d)
    out = fock._loss_chain(np.stack([tensor, tensor]), weights, weights[::-1])
    assert out.shape == (2, d, d, d)
    for row, (t_s, t_i) in enumerate([(0.6, 0.8), (0.8, 0.6)]):
        ref = _loss_reference(_loss_reference(z, t_s, fock.SIGNAL), t_i, fock.IDLER)
        assert np.abs(out[row] - ref).max() <= 1e-15


def test_a_stack_holds_one_config_whose_density_exceeds_the_cap():
    from su11sim import sweep

    big = InterferometerConfig(g1=0.1, g2=0.1, theta=1.0, t_s=0.5**0.5, n_i=50.0)
    assert fock.suggested_cutoff(big) == 112
    assert 8 * 112**3 > sweep.ORACLE_STACK_BYTES  # 11 MB
    small = sweep.random_oracle_configs(180, 24)
    stacks = sweep._oracle_stacks([big] + small + [big])
    assert stacks[0] == (112, [0]) and stacks[1] == (112, [25])
    # the other cutoffs, in first-seen order, each fit one stack under the cap
    seen = list(dict.fromkeys(fock.suggested_cutoff(cfg) for cfg in small))
    assert [cutoff for cutoff, _ in stacks[2:]] == seen
    for cutoff, idx in stacks[2:]:
        assert 1 < len(idx) and len(idx) * 8 * cutoff**3 <= sweep.ORACLE_STACK_BYTES
    assert sorted(i for _, idx in stacks for i in idx) == list(range(26))
