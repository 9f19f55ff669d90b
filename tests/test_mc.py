import math

import numpy as np
import pytest

import msheston.mc as mc_mod
from msheston.errors import StepExplosion
from msheston.group_params import FullModelParams
from msheston.kernel import HestonParams
from msheston.mc import SimConfig, correlation_matrix, mc_price_call, simulate_paths
from msheston.vol_surface import bs_call

from .helpers import euler_terminal_prices


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
    """Color independent normals the way ``simulate_paths`` does."""
    return np.linalg.cholesky(correlation_matrix(rho_xy, rho_xz, rho_yz)) @ normals


def _constant_factor(fm):
    return lambda y: np.ones_like(np.asarray(y, dtype=float))


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
        np.testing.assert_array_equal(a.x, b.x)
        assert a.truncation_fraction == b.truncation_fraction

    def test_martingale_property(self):
        fm = _full_model()
        cfg = SimConfig(n_paths=40000, dt=1e-3, seed=5)
        sample = simulate_paths(fm, 1.0, cfg)
        disc = math.exp(-fm.heston.r * 1.0) * sample.x
        se = disc.std(ddof=1) / math.sqrt(disc.size)
        assert abs(disc.mean() - 1.0) <= 3.0 * se

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
        assert np.all(np.isfinite(wild.x)) and np.all(wild.x > 0.0)

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
        # mirror take opposite spot shocks, so their log prices sum to the
        # same value for every pair, including pairs past the first chunk
        monkeypatch.setattr(mc_mod, "volatility_factor", _constant_factor)
        fm = _full_model(heston_kwargs=dict(sigma=1e-9, theta=0.24, z=0.24))
        n_base = mc_mod._CHUNK + 100
        cfg = SimConfig(n_paths=2 * n_base, dt=0.01, seed=13)
        log_x = np.log(simulate_paths(fm, 0.02, cfg).x)
        sums = log_x[:n_base] + log_x[n_base:]
        assert np.ptp(sums) < 1e-9

    def test_euler_and_exact_updates_agree_at_fine_steps(self):
        fm = _full_model(epsilon=1e-1)
        cfg = SimConfig(n_paths=20000, dt=1e-3, seed=17)
        exact = mc_price_call(fm, 100.0, 0.5, cfg)
        x = euler_terminal_prices(fm, 0.5, cfg)
        euler = math.exp(-fm.heston.r * 0.5) * np.maximum(100.0 * x - 100.0, 0.0)
        # shared randomness: schemes differ only in the fast-factor step bias
        assert abs(exact.price - euler.mean()) < 0.2

    def test_step_explosion_reports_location(self, monkeypatch):
        monkeypatch.setattr(
            mc_mod,
            "volatility_factor",
            lambda fm: lambda y: np.full_like(np.asarray(y, float), 1e180),
        )
        fm = _full_model()
        cfg = SimConfig(n_paths=16, dt=1e-2, seed=2)
        with pytest.raises(StepExplosion) as excinfo:
            simulate_paths(fm, 1.0, cfg)
        assert excinfo.value.step >= 0
        assert excinfo.value.path_index >= 0


class TestMcPriceCall:
    def test_coarse_step_warning(self):
        fm = _full_model(epsilon=1e-4)
        cfg = SimConfig(n_paths=128, dt=1e-3, seed=1)
        est = mc_price_call(fm, 100.0, 0.05, cfg)
        assert "fast_factor_step_coarse" in est.warnings
