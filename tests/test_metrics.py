import inspect
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from su11sim import InterferometerConfig
from su11sim import closed_form as cf
from su11sim import gaussian
from su11sim import metrics as m
from su11sim.errors import DomainError, StationaryPointError, UndefinedVisibilityError
from su11sim.metrics import ShotNoiseConvention


def cfg(g1=0.1, g2=0.1, ts2=1.0, ti2=1.0, n_i=0.0):
    return InterferometerConfig(
        g1=g1, g2=g2, t_s=math.sqrt(ts2), t_i=math.sqrt(ti2), n_i=n_i
    )


class TestVisibilityNumeric:
    def test_lossless_balanced(self):
        assert m.visibility_numeric(cfg()) == pytest.approx(1.0, rel=1e-12)

    def test_matches_closed_form_signal_loss(self):
        assert m.visibility_numeric(cfg(ts2=0.5)) == pytest.approx(
            cf.visibility(cfg(ts2=0.5)), abs=1e-10
        )

    def test_matches_closed_form_unbalanced_experiment_point(self):
        c = cfg(g1=0.45, g2=0.2, ts2=0.52, ti2=0.42)
        assert m.visibility_numeric(c) == pytest.approx(cf.visibility(c), abs=1e-10)
        c_seeded = cfg(g1=0.45, g2=0.2, ts2=0.52, ti2=0.42, n_i=1e4)
        assert m.visibility_numeric(c_seeded) == pytest.approx(
            cf.visibility(c_seeded), rel=1e-9
        )

    def test_zero_flux_raises(self):
        with pytest.raises(UndefinedVisibilityError):
            m.visibility_numeric(cfg(g1=0.0, g2=0.0))


class TestSensitivity:
    def test_stationary_point(self):
        with pytest.raises(StationaryPointError):
            m.sensitivity(cfg(), 0.0)

    def test_near_dark_fringe_approaches_ideal(self):
        val = m.sensitivity(cfg(), math.pi - 1e-3)
        assert val == pytest.approx(cf.ideal_sensitivity(0.1, 0.0), rel=1e-4)

    def test_seeded_near_dark_fringe(self):
        val = m.sensitivity(cfg(n_i=50.0), math.pi - 1e-3)
        assert val == pytest.approx(cf.ideal_sensitivity(0.1, 50.0), rel=1e-4)

    def test_derivative_cross_check(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            c = InterferometerConfig(
                g1=rng.uniform(0.05, 0.5),
                g2=rng.uniform(0.05, 0.5),
                t_s=rng.uniform(0.3, 1.0),
                t_i=rng.uniform(0.3, 1.0),
                n_i=rng.uniform(0.0, 20.0),
            )
            theta0 = rng.uniform(0.1, math.pi - 0.1)
            num = m.mean_derivative(c, theta0)
            ana = cf.mean_signal_derivative(c.with_theta(theta0))
            assert num == pytest.approx(ana, rel=1e-6)


class TestShotNoise:
    def test_after_opa1_spontaneous(self):
        assert m.shot_noise_level(cfg()) == pytest.approx(
            1.0 / math.sinh(0.1) ** 2, rel=1e-10
        )

    def test_after_opa1_seeded(self):
        assert m.shot_noise_level(cfg(n_i=50.0)) == pytest.approx(
            1.0 / (51.0 * math.sinh(0.1) ** 2), rel=1e-10
        )

    def test_after_loss_tap(self):
        c = cfg(ts2=0.25)
        assert m.shot_noise_level(c, ShotNoiseConvention.AFTER_LOSS) == pytest.approx(
            1.0 / (0.25 * math.sinh(0.1) ** 2), rel=1e-10
        )

    def test_pair_convention_is_half(self):
        c = cfg(n_i=3.0)
        assert m.shot_noise_level(
            c, ShotNoiseConvention.PAIR_AFTER_OPA1
        ) == pytest.approx(0.5 * m.shot_noise_level(c), rel=1e-12)

    def test_dead_signal_arm_raises(self):
        with pytest.raises(DomainError):
            m.shot_noise_level(cfg(ts2=0.0), ShotNoiseConvention.AFTER_LOSS)


class TestOptimalSensitivity:
    def test_ideal_lossless_balanced(self):
        report = m.optimal_sensitivity(cfg())
        assert report.dtheta2 == pytest.approx(cf.ideal_sensitivity(0.1, 0.0), rel=1e-4)
        # optimum sits at the destructive fringe
        assert report.theta_opt == pytest.approx(math.pi, abs=0.05)

    def test_report_consistency(self):
        report = m.optimal_sensitivity(cfg(ti2=0.75, n_i=50.0))
        expected_db = 10.0 * math.log10(report.dtheta2_shotnoise / report.dtheta2)
        assert report.db_vs_shotnoise == pytest.approx(expected_db, abs=1e-12)
        assert report.dtheta2 > 0

    def test_degenerate_second_opa_rejected(self):
        with pytest.raises(DomainError):
            m.optimal_sensitivity(cfg(g2=0.0))

    def test_dead_interference_rejected(self):
        with pytest.raises(DomainError):
            m.optimal_sensitivity(cfg(ts2=0.0))

    def test_seeding_improves_lossy_idler_case(self):
        conv = ShotNoiseConvention.PAIR_AFTER_OPA1
        db0 = m.optimal_sensitivity(cfg(ti2=0.75), conv).db_vs_shotnoise
        db50 = m.optimal_sensitivity(cfg(ti2=0.75, n_i=50.0), conv).db_vs_shotnoise
        assert db50 - db0 >= 1.0


def random_config(rng, lossy=False):
    lo_t = 0.3 if lossy else 0.0
    hi_t = 0.95 if lossy else 1.0
    return InterferometerConfig(
        g1=rng.uniform(0.0, 1.5),
        g2=rng.uniform(0.05, 1.5),
        t_s=rng.uniform(lo_t, hi_t),
        t_i=rng.uniform(lo_t, hi_t),
        n_i=rng.choice([0.0, rng.uniform(0.0, 1e3)]),
    )


class TestPhaseResponse:
    def test_reconstructs_direct_runs(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            c = random_config(rng)
            r = m.phase_response(c)
            for theta in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 5):
                direct = gaussian.photon_stats(
                    gaussian.run_interferometer(c.with_theta(theta))
                )
                assert r.mean(theta) == pytest.approx(direct.mean, rel=1e-9, abs=1e-12)
                assert r.variance(theta) == pytest.approx(
                    direct.variance, rel=1e-9, abs=1e-12
                )

    def test_optimum_matches_dense_brute_force(self):
        rng = np.random.default_rng(4)
        lo, hi = m.THETA_MARGIN, math.pi - m.THETA_MARGIN
        for _ in range(8):
            c = random_config(rng, lossy=True)
            report = m.optimal_sensitivity(c)
            grid = np.linspace(lo, hi, 513)
            values = [m.sensitivity(c, th) for th in grid]
            k = int(np.argmin(values))
            res = minimize_scalar(
                lambda th: m.sensitivity(c, th),
                bounds=(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]),
                method="bounded",
                options={"xatol": 1e-10},
            )
            brute = min(res.fun, values[k])
            assert report.dtheta2 <= brute * (1.0 + 1e-12)
            assert report.dtheta2 == pytest.approx(brute, rel=1e-9)

    def test_optimum_costs_one_loss_three_phases_and_no_closed_form(self, monkeypatch):
        counts = {"loss": 0, "phase": 0, "closed_form": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gaussian, "apply_loss", counting("loss", gaussian.apply_loss))
        monkeypatch.setattr(gaussian, "apply_phase", counting("phase", gaussian.apply_phase))
        for name, fn in list(vars(cf).items()):
            if inspect.isfunction(fn) and fn.__module__ == cf.__name__:
                monkeypatch.setattr(cf, name, counting("closed_form", fn))
        m.optimal_sensitivity(cfg(ti2=0.75, n_i=50.0))
        # one propagation to the phase, then three phase + OPA2 tails
        assert counts == {"loss": 1, "phase": 3, "closed_form": 0}

    def test_unresolved_interference_rejected(self):
        for c in (cfg(ts2=0.0), cfg(g1=0.0), cfg(ts2=1e-30)):
            with pytest.raises(DomainError, match="interference term not resolved"):
                m.sensitivity(c, 1.0)

    def test_stationary_only_on_extremum(self):
        with pytest.raises(StationaryPointError):
            m.sensitivity(cfg(), math.pi)
        # a tiny but resolved slope is a valid working point
        assert m.sensitivity(cfg(), 1e-9) > 0
