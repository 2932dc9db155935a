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


@pytest.mark.parametrize("d", [16, 36, 64, 128])
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
    assert not st.is_pure and st.tensor.shape == (2 * d - 1, d, d)
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
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    fock._sectors.cache_clear()
    first = fock.squeeze(fock.vacuum(20), 0.1)
    assert calls == [(20, 20, 20)]
    mixed = fock.loss(first, 0.8, fock.SIGNAL)
    fock.squeeze(fock.vacuum(20), 0.25)
    fock.squeeze(mixed, 0.2)
    assert calls == [(20, 20, 20)]


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
