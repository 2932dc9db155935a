import math

import numpy as np
import pytest

from su11sim import InterferometerConfig
from su11sim import closed_form as cf
from su11sim.errors import DomainError, UndefinedVisibilityError


def cfg(g1=0.1, g2=0.1, theta=0.0, ts2=1.0, ti2=1.0, n_i=0.0):
    return InterferometerConfig(
        g1=g1, g2=g2, theta=theta, t_s=math.sqrt(ts2), t_i=math.sqrt(ti2), n_i=n_i
    )


class TestShorthand:
    def test_zero_gain(self):
        p = cf.shorthand(cfg(g1=0.0, g2=0.0))
        assert (p.beta, p.lambda21, p.lambda12, p.delta1, p.delta2) == (
            0.0, 0.0, 0.0, 1.0, 0.0,
        )

    def test_balanced_low_gain(self):
        p = cf.shorthand(cfg())
        assert p.beta == pytest.approx(0.5 * math.sinh(0.2) ** 2, rel=1e-12)
        lam = math.sinh(0.1) ** 2 * math.cosh(0.1) ** 2
        assert p.lambda12 == pytest.approx(lam, rel=1e-12)
        assert p.lambda21 == pytest.approx(lam, rel=1e-12)

    def test_unbalanced(self):
        p = cf.shorthand(cfg(g1=0.45, g2=0.2))
        assert p.delta2 == pytest.approx(math.sinh(0.2) ** 2, rel=1e-12)

    def test_identity_beta_squared(self):
        # beta = 2 sqrt(lambda21 * lambda12) for non-negative gains
        rng = np.random.default_rng(7)
        for g1, g2 in rng.uniform(0.0, 2.0, size=(50, 2)):
            p = cf.shorthand(cfg(g1=g1, g2=g2))
            assert p.beta == pytest.approx(
                2.0 * math.sqrt(p.lambda21 * p.lambda12), rel=1e-12, abs=1e-15
            )
            assert p.delta1 >= 1.0
            assert p.delta2 >= 0.0


class TestMeanSignal:
    def test_constructive(self):
        assert cf.mean_signal(cfg(theta=0.0)) == pytest.approx(
            math.sinh(0.2) ** 2, rel=1e-12
        )

    def test_destructive(self):
        assert cf.mean_signal(cfg(theta=math.pi)) == pytest.approx(0.0, abs=1e-17)

    def test_spontaneous_amplification_term_only(self):
        # with no first-OPA gain and a dark idler, only delta2 (1 - t_i^2) remains
        c = cfg(g1=0.0, g2=0.2, theta=1.1, ti2=0.0)
        assert cf.mean_signal(c) == pytest.approx(math.sinh(0.2) ** 2, rel=1e-12)

    @pytest.mark.parametrize("g", [1.0, 5.0, 10.0])
    def test_dark_fringe_has_no_cancellation(self, g):
        # balanced, lossless, unseeded: the exact mean at theta = pi is 0
        c = cfg(g1=g, g2=g, theta=math.pi)
        mean = cf.mean_signal(c)
        assert 0.0 <= mean <= 1e-12 * (c.n_i + 1.0) * cf.shorthand(c).beta

    def test_gain_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="overflow"):
            cf.shorthand(cfg(g1=400.0, g2=0.1))
        with pytest.raises(DomainError, match="overflow"):
            cf.mean_signal(cfg(g1=300.0, g2=300.0))


class TestVisibility:
    def test_lossless_balanced_is_one(self):
        for n_i in (0.0, 3.0, 1e4):
            assert cf.visibility(cfg(n_i=n_i)) == pytest.approx(1.0, rel=1e-12)

    def test_signal_loss_value(self):
        assert cf.visibility(cfg(ts2=0.5)) == pytest.approx(0.9428090415820635, rel=1e-10)

    def test_idler_loss_value(self):
        assert cf.visibility(cfg(ti2=0.5)) == pytest.approx(0.7088672013380181, rel=1e-10)

    def test_zero_gain_raises(self):
        with pytest.raises(UndefinedVisibilityError):
            cf.visibility(cfg(g1=0.0, g2=0.0))

    def test_reductions_to_special_cases(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = rng.uniform(0.01, 1.0)
            n_i = rng.uniform(0.0, 100.0)
            tau = rng.uniform(0.05, 1.0)
            c_sl = cfg(g1=g, g2=g, ts2=tau**2, n_i=n_i)
            assert cf.visibility(c_sl) == pytest.approx(
                cf.visibility_signal_loss(tau), rel=1e-12
            )
            c_il = cfg(g1=g, g2=g, ti2=tau**2, n_i=n_i)
            assert cf.visibility(c_il) == pytest.approx(
                cf.visibility_idler_loss(tau, g, n_i), rel=1e-12
            )
            c_sym = cfg(g1=g, g2=g, ts2=tau**2, ti2=tau**2, n_i=n_i)
            assert cf.visibility(c_sym) == pytest.approx(
                cf.visibility_symmetric_loss(tau, g, n_i), rel=1e-12
            )

    def test_signal_loss_independent_of_gain_and_seed(self):
        tau = math.sqrt(0.37)
        ref = cf.visibility_signal_loss(tau)
        for g in (0.05, 0.1, 0.5, 1.0):
            for n_i in (0.0, 50.0, 1e4):
                v = cf.visibility(cfg(g1=g, g2=g, ts2=tau**2, n_i=n_i))
                assert abs(v - ref) < 1e-12

    def test_theta_sweep_contrast_equals_visibility(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            c = cfg(
                g1=rng.uniform(0.05, 0.8),
                g2=rng.uniform(0.05, 0.8),
                ts2=rng.uniform(0.05, 1.0),
                ti2=rng.uniform(0.05, 1.0),
                n_i=rng.uniform(0.0, 50.0),
            )
            m0 = cf.mean_signal(c.with_theta(0.0))
            mpi = cf.mean_signal(c.with_theta(math.pi))
            assert (m0 - mpi) / (m0 + mpi) == pytest.approx(
                cf.visibility(c), rel=1e-12
            )


class TestSpecialCaseCurves:
    def test_signal_loss_endpoints(self):
        assert cf.visibility_signal_loss(1.0) == pytest.approx(1.0, rel=1e-15)
        assert cf.visibility_signal_loss(1e-6) == pytest.approx(0.0, abs=1e-5)
        with pytest.raises(DomainError):
            cf.visibility_signal_loss(0.0)

    def test_idler_loss_values(self):
        assert cf.visibility_idler_loss(1.0, 0.1, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert cf.visibility_idler_loss(math.sqrt(0.5), 0.1, 0.0) == pytest.approx(
            0.7088672013380181, rel=1e-10
        )
        # strong seeding: approaches the signal-loss curve
        v = cf.visibility_idler_loss(math.sqrt(0.5), 0.1, 1e4)
        assert v == pytest.approx(2 * math.sqrt(0.5) / 1.5, abs=1e-4)

    def test_symmetric_loss_values(self):
        assert cf.visibility_symmetric_loss(1.0, 0.1, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert cf.visibility_symmetric_loss(math.sqrt(0.5), 0.1, 0.0) == pytest.approx(
            0.6688814913976917, rel=1e-10
        )
        assert cf.visibility_symmetric_loss(math.sqrt(0.5), 0.1, 1e4) > 0.999

    def test_spontaneous_ordering(self):
        for tau2 in np.linspace(0.02, 0.98, 25):
            tau = math.sqrt(tau2)
            v_sl = cf.visibility_signal_loss(tau)
            v_il = cf.visibility_idler_loss(tau, 0.1, 0.0)
            v_sil = cf.visibility_symmetric_loss(tau, 0.1, 0.0)
            assert v_sl >= v_il >= v_sil


class TestIdealSensitivity:
    def test_values(self):
        assert cf.ideal_sensitivity(0.1, 0.0) == pytest.approx(
            1.0 / math.sinh(0.2) ** 2, rel=1e-12
        )
        assert cf.ideal_sensitivity(0.1, 50.0) == pytest.approx(
            1.0 / (51.0 * math.sinh(0.2) ** 2), rel=1e-12
        )

    def test_both_forms_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = rng.uniform(0.01, 2.0)
            n_i = rng.uniform(0.0, 1e4)
            n_sq = math.sinh(g) ** 2
            alt = 1.0 / (4.0 * (1.0 + n_i) * (n_sq**2 + n_sq))
            assert cf.ideal_sensitivity(g, n_i) == pytest.approx(alt, rel=1e-12)

    def test_zero_gain_raises(self):
        with pytest.raises(DomainError):
            cf.ideal_sensitivity(0.0, 0.0)


@pytest.mark.parametrize(
    "helper, args",
    [
        (cf.ideal_sensitivity, (400.0, 0.0)),
        (cf.ideal_sensitivity, (1e-200, 0.0)),
        (cf.ideal_sensitivity, (0.1, math.nan)),
        (cf.ideal_sensitivity, (math.inf, 0.0)),
        (cf.ideal_sensitivity, (math.nan, 0.0)),
        (cf.visibility_idler_loss, (0.5, 400.0, 0.0)),
        (cf.visibility_idler_loss, (0.5, math.inf, 0.0)),
        (cf.visibility_idler_loss, (0.5, 350.0, 1e10)),
        (cf.visibility_symmetric_loss, (0.5, 400.0, 0.0)),
        (cf.visibility_symmetric_loss, (0.5, math.nan, 0.0)),
        (cf.visibility_symmetric_loss, (0.5, 0.1, math.nan)),
    ],
)
def test_helpers_outside_float64_raise_domain_error(helper, args):
    with pytest.raises(DomainError):
        helper(*args)
