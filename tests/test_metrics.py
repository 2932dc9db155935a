import inspect
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from su11sim import InterferometerConfig
from su11sim import closed_form as cf
from su11sim import config
from su11sim import gaussian
from su11sim import metrics as m
from su11sim import sweep
from su11sim.errors import (
    DomainError, StationaryPointError, Su11Error, UndefinedVisibilityError,
)
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

    def test_variance_lost_to_rounding_is_domain_error(self):
        # the variance rounds to 0 at every phase (as for the optimum), so a
        # fixed working point has no phase variance either
        c = cfg(g1=1e-100, g2=1e-100, ts2=0.5, ti2=0.5, n_i=1e100)
        with pytest.raises(DomainError, match="sensitivity not resolved"):
            m.sensitivity(c, 1.0)

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

    def test_variance_lost_to_rounding_is_domain_error(self):
        # at g ~ 1e-100 the signal variance rounds to 0 at every phase, so the
        # phase variance has no minimum
        c = cfg(g1=1e-100, g2=1e-100, ts2=0.5, ti2=0.5, n_i=1e100)
        with pytest.raises(DomainError, match="sensitivity not resolved"):
            m.optimal_sensitivity(c)
        spec = sweep.SweepSpec(axis="n_i", lo=1e100, hi=2e100, steps=2, fixed=c,
                               metrics=("mean", "dtheta2"))
        for row in sweep.run_sweep(spec):
            assert row.error.startswith("sensitivity not resolved")
            assert row.values["mean"] > 0.0 and row.values["dtheta2"] is None

    def test_seeding_improves_lossy_idler_case(self):
        conv = ShotNoiseConvention.PAIR_AFTER_OPA1
        db0 = m.optimal_sensitivity(cfg(ti2=0.75), conv).db_vs_shotnoise
        db50 = m.optimal_sensitivity(cfg(ti2=0.75, n_i=50.0), conv).db_vs_shotnoise
        assert db50 - db0 >= 1.0


class TestBlock:
    @staticmethod
    def block(n):
        return m.Block(config.stack([cfg()] * n), m._FRINGE_THETAS)

    def test_require_visits_the_failing_rows_in_order_first_error_wins(self):
        block = self.block(5)
        visited = []

        def error(tag):
            def make(i):
                visited.append((tag, i))
                return DomainError(f"{tag}{i}")
            return make

        block.require(np.array([True, False, True, False, True]), error("a"))
        block.require(np.array([False, False, True, True, True]), error("b"))
        block.require(np.ones(5, dtype=bool), error("c"))
        assert visited == [("a", 1), ("a", 3), ("b", 0)]
        assert [e and str(e) for e in block.errors] == ["b0", "a1", None, "a3", None]

    def test_where_ok_drops_only_failed_rows(self):
        block = self.block(3)
        column = np.array([1.0, -2.5, math.inf])
        assert block.where_ok(column) == [1.0, -2.5, math.inf]
        block.require(np.array([True, False, True]), lambda i: DomainError("x"))
        assert block.where_ok(column) == [1.0, None, math.inf]


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
        calls = {"loss": 0, "phase": 0, "closed_form": 0}
        pairs = {"loss": 0, "phase": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                out = fn(*args, **kwargs)
                if key in pairs:  # the (config, phase) pairs the call carries
                    pairs[key] += math.prod(out.cov.shape[:-2])
                return out
            return wrapper

        monkeypatch.setattr(gaussian, "apply_loss", counting("loss", gaussian.apply_loss))
        monkeypatch.setattr(gaussian, "apply_phase", counting("phase", gaussian.apply_phase))
        for name, fn in list(vars(cf).items()):
            if inspect.isfunction(fn) and fn.__module__ == cf.__name__:
                monkeypatch.setattr(cf, name, counting("closed_form", fn))
        m.optimal_sensitivity(cfg(ti2=0.75, n_i=50.0))
        # one propagation to the phase, then one batched call for the three
        # phase + OPA2 tails
        assert calls == {"loss": 1, "phase": 1, "closed_form": 0}
        assert pairs == {"loss": 1, "phase": 3}

    @pytest.mark.parametrize("call, error", [
        (lambda: m.phase_response(cfg(n_i=1.7e308)), "overflow float64"),
        (lambda: m.optimal_sensitivity(cfg(n_i=1e160)), None),
        (lambda: m.visibility_numeric(cfg(g1=0.0, g2=0.0)), "zero total flux"),
        (lambda: m.sensitivity(cfg(ts2=1e-30), 1.0), "interference term not resolved"),
        (lambda: m.optimal_sensitivity(cfg(g2=0.0)), "g2 must be > 0"),
        # zero-flux, g2 = 0 and overflowing rows in one block
        (lambda: sweep.run_sweep(sweep.SweepSpec(
            axis="G1", lo=0.0, hi=400.0, steps=9, fixed=cfg(g2=0.0),
            metrics=sweep.METRICS)), None),
    ], ids=["response-overflow", "optimum-huge-seed", "zero-flux", "unresolved",
            "no-second-gain", "sweep-error-rows"])
    def test_overflow_raises_only_domain_error(self, call, error):
        # library callers get the typed error and no numpy RuntimeWarning, also
        # from the array arithmetic on rows that failed a check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if error is None:
                call()
            else:
                with pytest.raises(Su11Error, match=error):
                    call()

    def test_batch_of_none_is_empty(self):
        conv = ShotNoiseConvention.AFTER_OPA1
        for wanted in (("visibility",), ("mean", "visibility")):
            assert m.metric_columns(config.stack([]), wanted, conv) == (
                {name: [] for name in wanted}, []
            )

    def test_unresolved_interference_rejected(self):
        for c in (cfg(ts2=0.0), cfg(g1=0.0), cfg(ts2=1e-30)):
            with pytest.raises(DomainError, match="interference term not resolved"):
                m.sensitivity(c, 1.0)

    def test_stationary_only_on_extremum(self):
        with pytest.raises(StationaryPointError):
            m.sensitivity(cfg(), math.pi)
        # a tiny but resolved slope is a valid working point
        assert m.sensitivity(cfg(), 1e-9) > 0

    def test_huge_seed_optimum_is_scale_free(self):
        # b^2 overflows float64 here; the exact optimum is unchanged when every
        # coefficient is scaled by the same power of two
        r = m.phase_response(cfg(ts2=1e-8, n_i=1e158))
        small = m.PhaseResponse(
            r.cfg, *(math.ldexp(x, -520) for x in (r.m0, r.m1, r.v0, r.v1, r.v2)),
            r.after_opa1, r.after_loss,
        )
        assert abs(small.v0 + small.v2) < 1.0
        assert r.optimal_theta() == small.optimal_theta()
        assert r.optimal_theta() == pytest.approx(1.5708983133408537, rel=1e-12)

    def test_huge_seed_dtheta2_has_no_overflow(self):
        r = m.phase_response(cfg(n_i=1e160))
        small = m.PhaseResponse(
            r.cfg, *(math.ldexp(x, -530) for x in (r.m0, r.m1, r.v0, r.v1, r.v2)),
            r.after_opa1, r.after_loss,
        )
        theta = r.optimal_theta()
        # Var scales like the coefficients and the slope squared like their square
        assert r.dtheta2(theta) == pytest.approx(
            math.ldexp(small.dtheta2(theta), -530), rel=1e-15
        )
        report = m.optimal_sensitivity(cfg(n_i=1e160))
        assert report.dtheta2 == r.dtheta2(theta)
