import math
import threading

import numpy as np
import pytest

import msheston.mc as mc_mod
from msheston.errors import StepExplosion
from msheston.group_params import FullModelParams, compute_group_params
from msheston.kernel import HestonParams
from msheston.mc import SimConfig, correlation_matrix, mc_price_call, simulate_paths
from msheston.pricer import OptionSpec, price_corrected
from msheston.vol_surface import bs_call

from .helpers import euler_path_sums, payoff_terminal_prices


def _full_model(**overrides):
    heston_kwargs = dict(
        kappa=1.0, theta=0.24, sigma=0.39, rho=-0.35, z=0.24, r=0.05
    )
    heston_kwargs.update(overrides.pop("heston_kwargs", {}))
    defaults = dict(
        heston=HestonParams(**heston_kwargs),
        epsilon=1e-2,
        m=0.06,
        nu=1.0,
        rho_xy=-0.35,
        rho_yz=0.35,
        y0=0.06,
    )
    defaults.update(overrides)
    return FullModelParams(**defaults)


def correlate_brownians(normals, rho_xy, rho_xz, rho_yz):
    """Color independent normals the way the payoff oracle does."""
    return np.linalg.cholesky(correlation_matrix(rho_xy, rho_xz, rho_yz)) @ normals


def _constant_factor(fm):
    return lambda y, out=None: np.ones_like(np.asarray(y, dtype=float))


def _pairs(x):
    half = x.size // 2
    return 0.5 * (x[:half] + x[half:])


def _spot_martingales(fm, sums):
    """The discounted spot over its start on each path, given the path sums,
    under the full model and under the Heston leg."""
    a, b, _ = mc_mod._yzx_factor(fm)[2]
    rho = fm.rho_effective
    return (
        np.exp(sums.martingale - 0.5 * (a * a + b * b) * sums.variance),
        np.exp(rho * sums.martingale_z - 0.5 * rho * rho * sums.variance_z),
    )


def _sums(sample):
    return (sample.variance, sample.martingale, sample.variance_z, sample.martingale_z)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_paths=0, dt=1e-3, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n_paths=10, dt=0.0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n_paths=11, dt=1e-3, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n_paths=2, dt=1e-3, seed=1)
        with pytest.raises(ValueError, match="dt"):
            SimConfig(n_paths=10, dt=math.inf, seed=1)
        for seed in (-1, 1.5):
            with pytest.raises(ValueError, match="seed"):
                SimConfig(n_paths=10, dt=1e-3, seed=seed)


class TestCorrelateBrownians:
    def test_identity_at_zero_correlation(self):
        normals = np.random.default_rng(0).standard_normal((3, 100))
        out = correlate_brownians(normals, 0.0, 0.0, 0.0)
        np.testing.assert_array_equal(out, normals)

    def test_sample_correlations_converge(self):
        n = 1_000_000
        normals = np.random.default_rng(123).standard_normal((3, n))
        out = correlate_brownians(normals, -0.35, -0.35, 0.35)
        corr = np.corrcoef(out)
        bound = 3.0 / math.sqrt(n)
        assert abs(corr[0, 1] - (-0.35)) < bound
        assert abs(corr[0, 2] - (-0.35)) < bound
        assert abs(corr[1, 2] - 0.35) < bound


class TestSimulatePaths:
    def test_seed_determinism(self):
        fm = _full_model()
        cfg = SimConfig(n_paths=2000, dt=1e-2, seed=99)
        a = simulate_paths(fm, 1.0, cfg)
        b = simulate_paths(fm, 1.0, cfg)
        for x, y in zip(_sums(a), _sums(b)):
            np.testing.assert_array_equal(x, y)
        assert a.truncation_fraction == b.truncation_fraction

    def test_martingale_property(self):
        # given the path sums, the conditional mean of the discounted spot
        # over its start, under the full model and under the Heston leg:
        # each has mean 1
        fm = _full_model()
        cfg = SimConfig(n_paths=40000, dt=1e-3, seed=5)
        sample = simulate_paths(fm, 1.0, cfg)
        for disc in _spot_martingales(fm, sample):
            pooled = _pairs(disc)
            se = pooled.std(ddof=1) / math.sqrt(pooled.size)
            assert abs(pooled.mean() - 1.0) <= 3.0 * se

    def test_full_truncation_keeps_variance_nonnegative(self):
        # at the Table-1 sigma = 0.39 no step goes below zero; at sigma = 1
        # about 2.8 % of the step states do, and the floored variance keeps
        # every price finite
        cfg = SimConfig(n_paths=5000, dt=5e-3, seed=11)
        calm = simulate_paths(_full_model(), 1.0, cfg)
        assert calm.truncation_fraction == 0.0
        assert calm.warnings == ()
        wild = simulate_paths(
            _full_model(heston_kwargs=dict(sigma=1.0)),
            1.0, cfg,
        )
        assert mc_mod.MAX_TRUNCATION_FRACTION < wild.truncation_fraction < 0.05
        assert wild.warnings == ("truncation_fraction_above_threshold",)
        assert all(np.all(np.isfinite(x)) for x in _sums(wild))
        assert np.all(wild.variance >= 0.0) and np.all(wild.variance_z >= 0.0)

    def test_deterministic_variance_limit_matches_black_scholes(self, monkeypatch):
        # constant volatility factor plus vanishing vol-of-vol: the variance
        # follows its deterministic relaxation and the price is Black-Scholes
        # at the integrated variance
        monkeypatch.setattr(mc_mod, "volatility_factor", _constant_factor)
        fm = _full_model(
            heston_kwargs=dict(kappa=1.0, theta=0.04, sigma=1e-6, rho=0.0, z=0.09)
        )
        cfg = SimConfig(n_paths=60000, dt=1e-3, seed=21)
        est = mc_price_call(fm, 100.0, 1.0, cfg, spot=100.0)
        kappa, theta, z0 = 1.0, 0.04, 0.09
        integrated = theta + (z0 - theta) * (1 - math.exp(-kappa)) / kappa
        ref = bs_call(100.0, 100.0, 1.0, math.sqrt(integrated), 0.05)
        assert abs(est.price - ref) <= 3.0 * est.std_error

    def test_degenerate_volatility_gives_forward_payoff(self, monkeypatch):
        monkeypatch.setattr(mc_mod, "volatility_factor", _constant_factor)
        fm = _full_model(
            heston_kwargs=dict(
                kappa=1.0, theta=1e-10, sigma=1e-9, rho=0.0, z=1e-10
            )
        )
        cfg = SimConfig(n_paths=200, dt=1e-2, seed=3)
        est = mc_price_call(fm, 90.0, 1.0, cfg, spot=100.0)
        ref = max(100.0 * math.exp(0.05) - 90.0, 0.0) * math.exp(-0.05)
        assert est.price == pytest.approx(ref, abs=1e-5)

    def test_antithetic_layout_pairs_across_chunks(self, monkeypatch):
        # constant factor and a variance that barely moves: a path and its
        # mirror take opposite shocks, so their martingale sums add to the
        # same value (0) for every pair, including pairs past the first chunk
        monkeypatch.setattr(mc_mod, "volatility_factor", _constant_factor)
        fm = _full_model(heston_kwargs=dict(sigma=1e-9, theta=0.24, z=0.24))
        n_base = mc_mod._CHUNK + 100
        cfg = SimConfig(n_paths=2 * n_base, dt=0.01, seed=13)
        sample = simulate_paths(fm, 0.02, cfg)
        for mart in (sample.martingale, sample.martingale_z):
            assert np.ptp(mart[:n_base] + mart[n_base:]) < 1e-9

    def test_euler_and_exact_updates_agree_at_fine_steps(self, monkeypatch):
        fm = _full_model(epsilon=1e-1)
        cfg = SimConfig(n_paths=20000, dt=1e-3, seed=17)
        exact = mc_price_call(fm, 100.0, 0.5, cfg)
        monkeypatch.setattr(mc_mod, "simulate_paths", euler_path_sums)
        euler = mc_price_call(fm, 100.0, 0.5, cfg)
        # shared randomness: schemes differ only in the fast-factor step bias
        assert abs(exact.price - euler.price) < 0.2

    def test_step_explosion_reports_location(self, monkeypatch):
        monkeypatch.setattr(
            mc_mod,
            "volatility_factor",
            lambda fm: lambda y, out=None: np.full_like(np.asarray(y, float), 1e180),
        )
        fm = _full_model()
        cfg = SimConfig(n_paths=16, dt=1e-2, seed=2)
        threads = threading.active_count()
        with pytest.raises(StepExplosion) as excinfo:
            simulate_paths(fm, 1.0, cfg)
        assert excinfo.value.step >= 0
        assert excinfo.value.path_index >= 0
        assert threading.active_count() == threads

    @pytest.mark.parametrize("n_steps", [1, 2, 3])
    def test_stream_order_matches_serial_oracle(self, n_steps):
        # I_z and M_z do not depend on Y, and euler_path_sums draws e1, then
        # e2, serially from the same chunk streams: a skipped, doubled or
        # reordered draw moves them by O(1).  Two chunks; at one step nothing
        # is drawn ahead, at three the last step draws nothing ahead.
        fm = _full_model(epsilon=1.0)
        n_base = mc_mod._CHUNK + 100
        cfg = SimConfig(n_paths=2 * n_base, dt=1e-2, seed=31)
        horizon = n_steps * cfg.dt
        threads = threading.active_count()
        sample = simulate_paths(fm, horizon, cfg)
        assert threading.active_count() == threads
        oracle = euler_path_sums(fm, horizon, cfg)
        for got, want in ((sample.variance_z, oracle.variance_z),
                          (sample.martingale_z, oracle.martingale_z)):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("fail_at", [0, 1, 2])
    def test_a_failed_draw_is_raised_without_hanging(self, monkeypatch, fail_at):
        # the first draw, one drawn ahead and the last one
        boom = RuntimeError("draw failed")

        class FailingStream:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def standard_normal(self, out):
                if self.calls == fail_at:
                    raise boom
                self.calls += 1
                return self.rng.standard_normal(out=out)

        streams = mc_mod._chunk_streams
        monkeypatch.setattr(
            mc_mod, "_chunk_streams",
            lambda seed, n: [FailingStream(rng) for rng in streams(seed, n)],
        )
        cfg = SimConfig(n_paths=16, dt=1e-2, seed=2)
        threads = threading.active_count()
        raised = []

        def run():
            try:
                simulate_paths(_full_model(), 3 * cfg.dt, cfg)
            except RuntimeError as exc:
                raised.append(exc)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(raised) == 1 and raised[0] is boom
        assert threading.active_count() == threads


class TestMcPriceCall:
    def test_coarse_step_warning(self):
        fm = _full_model(epsilon=1e-4)
        cfg = SimConfig(n_paths=128, dt=1e-3, seed=1)
        est = mc_price_call(fm, 100.0, 0.05, cfg)
        assert "fast_factor_step_coarse" in est.warnings

    def test_conditional_and_payoff_estimators_agree(self):
        # seed 23: the payoff estimator draws the spot's own normal and prices
        # max(S - K, 0) with it; its standard error is about 7x the
        # conditional one
        fm = _full_model()
        cfg = SimConfig(n_paths=40000, dt=1e-2, seed=23)
        est = mc_price_call(fm, 100.0, 1.0, cfg)
        x = payoff_terminal_prices(fm, 1.0, cfg)
        payoff = _pairs(math.exp(-fm.heston.r) * np.maximum(100.0 * x - 100.0, 0.0))
        se = payoff.std(ddof=1) / math.sqrt(payoff.size)
        assert abs(est.price - payoff.mean()) <= 4.0 * math.hypot(se, est.std_error)

    def test_variance_floored_along_the_whole_path(self):
        # HestonParams admits no z <= 0; a start variance of -1 set past its
        # check, with theta tiny, keeps Z below 0, so full truncation floors
        # it at every step and both legs have total variance 0
        heston = HestonParams(kappa=1.0, theta=1e-12, sigma=0.39, rho=-0.35,
                              z=0.24, r=0.05)
        object.__setattr__(heston, "z", -1.0)
        fm = _full_model(heston=heston)
        cfg = SimConfig(n_paths=64, dt=1e-2, seed=4)
        sample = simulate_paths(fm, 1.0, cfg)
        assert sample.truncation_fraction == 1.0
        for x in _sums(sample):
            assert not np.any(x)
        for strike in (90.0, 100.0 * math.exp(0.05), 110.0):
            est = mc_price_call(fm, strike, 1.0, cfg)
            # every path prices the same; the regression rounds
            intrinsic = max(100.0 - strike * math.exp(-0.05), 0.0)
            assert est.price == pytest.approx(intrinsic, rel=1e-14, abs=1e-14)
            assert est.std_error <= 1e-14 * max(intrinsic, 1.0)
            assert est.correction == est.correction_std_error == 0.0

    def test_zero_total_variance_prices_the_forward_intrinsic(self):
        spot = np.array([90.0, 100.0, 110.0, 100.0])
        calls = mc_mod._bs_calls(spot, 100.0, np.array([0.0, 0.0, 0.0, 0.04]))
        np.testing.assert_array_equal(calls[:3], [0.0, 0.0, 10.0])
        assert calls[3] == pytest.approx(bs_call(100.0, 100.0, 1.0, 0.2, 0.0), rel=1e-12)


class TestEpsilonScan:
    def test_nu_03_row_agrees_with_first_order(self):
        # The nu = 0.3 row of the epsilon scan (Table-1 dynamics, K = 100,
        # tau = 1, epsilon = 1e-3, dt = epsilon / 4, 20,000 pairs, seed 1).
        # At nu = 1 the Monte Carlo correction runs to twice the first-order
        # one at this epsilon, the O(epsilon) term growing like <f^4> =
        # exp(4 nu^2); at nu = 0.3 that term is small, so a gap here would
        # point at a wrong constant in the group coefficients instead.
        fm = _full_model(epsilon=1e-3, nu=0.3)
        rho_eff, v = compute_group_params(fm)
        first_order = price_corrected(
            OptionSpec(strike=100.0, expiry=1.0, spot=100.0),
            fm.heston.replace(rho=rho_eff), v,
        ).p_correction
        est = mc_price_call(fm, 100.0, 1.0, SimConfig(n_paths=40000, dt=2.5e-4, seed=1))
        assert abs(est.correction - first_order) <= 3.0 * est.correction_std_error
