import dataclasses
import json
import math
import re
import sys

import numpy as np
import pytest
from scipy.optimize import least_squares

from msheston.calibration import (
    CalibProblem,
    calibrate_heston,
    calibrate_multiscale,
    format_residual_table,
    objective_heston,
    objective_multiscale,
    residual_ratio_report,
)
from msheston import calibration, cli, pricer, vol_surface
from msheston.calibration import (
    FIT_NAMES,
    _box,
    _fit,
    _linearize,
    _pack,
    _per_expiry_rss,
    _unpack,
)
from msheston.kernel import HestonParams
from msheston.pricer import HESTON_NAMES, GroupParams, price_slopes, price_strikes, price_strips
from msheston.quadrature import QuadratureSpec, integrate_adaptive
from msheston.vol_surface import (PRICE_TOL, VolPoint, VolSurface, bs_call, bs_vega,
                                  implied_vol, model_surface)

from .conftest import EDGE_HESTON, FIGURE1_HESTON, TABLE1_HESTON
from .helpers import group_array

SPEC = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-7)

TRUTH_P = HestonParams(
    kappa=1.8, theta=0.09, sigma=0.4, rho=-0.55, z=0.06, r=0.02
)
TRUTH_V = GroupParams(0.002, -0.001, -0.004, 0.0015)
# the point of the fitted model that prices like TRUTH_V to first order in
# v: the move (v1e, v4e) += (-v1e, v1e) prices as rho - v1e/sigma, so rho
# takes v1e/sigma back
FOLDED_P = TRUTH_P.replace(rho=TRUTH_P.rho + TRUTH_V.v1e / TRUTH_P.sigma)
FOLDED_V = GroupParams(0.0, TRUTH_V.v2e, TRUTH_V.v3e, TRUTH_V.v4e + TRUTH_V.v1e)
# sigma^2 > 2 kappa theta: the Feller condition fails
EQUITY_P = HestonParams(kappa=1.5, theta=0.04, sigma=0.6, rho=-0.7, z=0.04, r=0.02)

EXPIRIES = [0.25, 0.6, 1.2]
STRIKES = list(np.linspace(85.0, 115.0, 7))


def _as_market(surf, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    pts = []
    for pt in surf.points:
        bump = rng.normal(0.0, noise) if noise else 0.0
        pts.append(VolPoint(pt.expiry, pt.strike, pt.implied_vol + bump, "market"))
    return VolSurface(
        spot=surf.spot,
        points=tuple(pts),
        rates=dict(surf.rates),
        dividend_yields=dict(surf.dividend_yields),
    )


@pytest.fixture(scope="module")
def heston_market():
    surf = model_surface(EXPIRIES, STRIKES, TRUTH_P, None, SPEC)
    return _as_market(surf)


@pytest.fixture(scope="module")
def multiscale_market():
    surf = model_surface(EXPIRIES, STRIKES, TRUTH_P, TRUTH_V, SPEC)
    return _as_market(surf)


def _problem(market, **kwargs):
    return CalibProblem(market=market, quadrature=SPEC, **kwargs)


def _bs(market, pt):
    """Black-Scholes (call, vega, d1 * d2 / vol) of a quote at its market vol."""
    rate, q = market.rate(pt.expiry), market.dividend_yield(pt.expiry)
    args = (market.spot, pt.strike, pt.expiry, pt.implied_vol, rate, q)
    sq = pt.implied_vol * math.sqrt(pt.expiry)
    d1 = (math.log(market.spot / pt.strike)
          + (rate - q + 0.5 * pt.implied_vol**2) * pt.expiry) / sq
    return bs_call(*args), bs_vega(*args), d1 * (d1 - sq) / pt.implied_vol


def _inversion_bounds(market):
    """Per quote of a chain priced by ``model_surface``, the most its price
    gap over vega at the pricing point can be: ``implied_vol`` reproduced the
    model price to min(PRICE_TOL, 1e-8 * its time value)."""
    bounds = []
    for pt in market.points:
        call, vega, _ = _bs(market, pt)
        rate, q = market.rate(pt.expiry), market.dividend_yield(pt.expiry)
        lower = max(market.spot * math.exp(-q * pt.expiry)
                    - pt.strike * math.exp(-rate * pt.expiry), 0.0)
        bounds.append(min(PRICE_TOL, 1e-8 * (call - lower)) / vega)
    return np.array(bounds)


def _bumped(market, expiry, bumps):
    """The first len(bumps) quotes of ``expiry``, each vol moved by its bump."""
    pts = [pt for pt in market.points if pt.expiry == expiry][:len(bumps)]
    return VolSurface(
        spot=market.spot,
        points=tuple(VolPoint(pt.expiry, pt.strike, pt.implied_vol + bump, "market")
                     for pt, bump in zip(pts, bumps)),
        rates=dict(market.rates),
        dividend_yields={},
    )


def _check_vol_gaps(res, market, p, bumps):
    """Each residual is its quote's price gap to the model at ``p`` over vega,
    to 1e-12 relative; that is its vol bump to second order: the vega-weighted
    gap is bump - (d1 d2 / vol) bump^2 / 2 + O(bump^3), here within
    (d1 d2 / vol) bump^2 of the bump."""
    (expiry,) = market.expiries()
    model = price_strikes(market.strikes(expiry), expiry, market.spot, p, None, SPEC)
    assert res.shape == (len(bumps),)
    for r, pt, bd, bump in zip(res, market.points, model, bumps):
        call, vega, curvature = _bs(market, pt)
        assert r == pytest.approx((call - bd.total) / vega, rel=1e-12, abs=0.0)
        assert abs(r - bump) <= abs(curvature) * bump * bump


@pytest.fixture
def fits(monkeypatch):
    """The OptimizeResult of every least_squares run, in call order."""
    recorded = []

    def recording(*args, **kwargs):
        recorded.append(least_squares(*args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr(calibration, "least_squares", recording)
    return recorded


class TestObjective:
    def test_zero_at_truth(self, heston_market):
        # zero up to the inversion that made the quotes: measured at most
        # 0.88 of each quote's bound (2.9e-12)
        res = objective_heston(TRUTH_P, _problem(heston_market))
        assert res.shape == (len(heston_market.points),)
        assert np.all(np.abs(res) <= _inversion_bounds(heston_market))

    def test_single_quote_residual_is_vol_gap(self, heston_market):
        # a +0.01 vol bump gives a residual of 0.009772
        single = _bumped(heston_market, EXPIRIES[0], [0.01])
        res = objective_heston(TRUTH_P, _problem(single))
        _check_vol_gaps(res, single, TRUTH_P, [0.01])

    def test_perturbed_parameters_increase_rss(self, heston_market):
        prob = _problem(heston_market)
        at_truth = float(np.sum(objective_heston(TRUTH_P, prob) ** 2))
        bumped = TRUTH_P.replace(
            kappa=1.1 * TRUTH_P.kappa,
            theta=1.1 * TRUTH_P.theta,
            sigma=1.1 * TRUTH_P.sigma,
            rho=min(0.999, 1.1 * TRUTH_P.rho),
            z=1.1 * TRUTH_P.z,
        )
        perturbed = float(np.sum(objective_heston(bumped, prob) ** 2))
        assert at_truth < 1e-12
        assert perturbed > at_truth

    def test_multiscale_objective_zero_at_truth(self, multiscale_market):
        # measured at most 0.94 of each quote's bound (3.6e-12)
        res = objective_multiscale((TRUTH_P, TRUTH_V), _problem(multiscale_market))
        assert np.all(np.abs(res) <= _inversion_bounds(multiscale_market))

    @pytest.mark.parametrize("expiry, strike, vol", [(0.01, 200.0, 1e-3),
                                                     (7 / 365, 130.0, 0.05)],
                             ids=["zero-vega", "subnormal-vega"])
    def test_quote_without_finite_weight_rejected_before_pricing(
            self, monkeypatch, expiry, strike, vol):
        # the first quote's vega is 0.0, the second's about 1e-311, whose
        # inverse overflows: neither can weigh a price gap
        vega = bs_vega(100.0, strike, expiry, vol, 0.0)
        assert vega < sys.float_info.min
        market = VolSurface(spot=100.0, points=(VolPoint(expiry, strike, vol, "market"),),
                            rates={expiry: 0.0}, dividend_yields={})

        def no_pricing(*args, **kwargs):
            raise AssertionError("priced before weighing the quotes")

        monkeypatch.setattr(pricer, "integrate_adaptive", no_pricing)
        with pytest.raises(ValueError, match=re.escape(
                f"quote at expiry {expiry}, strike {strike}: vega {vega}")):
            _problem(market)


class TestCalibrateHeston:
    def test_start_at_truth_stays(self, heston_market):
        prob = _problem(heston_market)
        res = calibrate_heston(prob, TRUTH_P)
        assert res.converged
        assert res.objective < 1e-12
        # already optimal: a couple of trust-region iterations at most
        assert res.iterations <= 25
        for name in ("kappa", "rho", "sigma", "theta", "z"):
            got = getattr(res.heston, name)
            want = getattr(TRUTH_P, name)
            assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("truth", [TRUTH_P, TABLE1_HESTON, FIGURE1_HESTON, EQUITY_P],
                             ids=["truth-p", "table-1", "figure-1", "equity-like"])
    def test_recovery_from_far_starts(self, truth):
        # four seeded starts, each parameter scaled by a factor in [0.6, 1.4]
        prob = _problem(_as_market(model_surface(EXPIRIES, STRIKES, truth, None, SPEC)))
        for seed in range(4):
            factors = np.random.default_rng(seed).uniform(0.6, 1.4, len(HESTON_NAMES))
            start = truth.replace(**{
                name: f * getattr(truth, name) for name, f in zip(HESTON_NAMES, factors)})
            res = calibrate_heston(prob, start)
            assert res.converged, seed
            for name in HESTON_NAMES:
                got, want = getattr(res.heston, name), getattr(truth, name)
                tol = 1e-5 if name == "rho" else 1e-5 * want
                assert abs(got - want) <= tol, (seed, name)

    @pytest.mark.parametrize("name, box", [
        ("theta", (1e-8, 1e-7)),
        ("kappa", (1e-4, 5e-4)),
        ("rho", (-0.9999999, -0.9999995)),
    ])
    def test_narrow_box_fits(self, heston_market, name, box):
        # the theta and rho boxes are narrower than the 1e-6 difference step;
        # unclipped, a step out of the theta box reaches a negative theta
        prob = _problem(heston_market, bounds={name: box})
        h_res = calibrate_heston(prob, TRUTH_P.replace(**{name: sum(box) / 2}))
        m_res = calibrate_multiscale(prob, h_res)
        for res in (h_res, m_res):
            assert res.converged
            assert box[0] <= getattr(res.heston, name) <= box[1]
        assert m_res.objective <= h_res.objective

    def test_recovery_from_perturbed_start(self, heston_market):
        prob = _problem(heston_market)
        start = TRUTH_P.replace(
            kappa=0.8 * TRUTH_P.kappa,
            theta=1.2 * TRUTH_P.theta,
            sigma=1.2 * TRUTH_P.sigma,
            rho=0.8 * TRUTH_P.rho,
            z=0.8 * TRUTH_P.z,
        )
        res = calibrate_heston(prob, start)
        assert res.converged
        assert res.objective < 1e-10

    def test_noisy_data_hits_statistical_floor(self, heston_market):
        noise = 2e-3
        market = _as_market(
            model_surface(EXPIRIES, STRIKES, TRUTH_P, None, SPEC),
            noise=noise,
            seed=11,
        )
        prob = _problem(market)
        res = calibrate_heston(prob, TRUTH_P)
        floor = market.n_points * noise**2
        assert 0.5 * floor <= res.objective <= 2.0 * floor

    def test_objective_recomputation_matches(self, heston_market):
        prob = _problem(heston_market)
        res = calibrate_heston(prob, TRUTH_P)
        recomputed = float(
            np.sum(objective_heston(res.heston, prob) ** 2)
        )
        assert abs(recomputed - res.objective) <= 1e-12

    def test_determinism(self, heston_market):
        prob = _problem(heston_market)
        start = TRUTH_P.replace(kappa=1.5)
        a = calibrate_heston(prob, start)
        b = calibrate_heston(prob, start)
        assert a == b

    def test_bounds_respected(self, heston_market):
        bounds = {
            "kappa": (0.5, 1.6),  # excludes the true 1.8
            "rho": (-0.9, 0.0),
            "sigma": (0.05, 1.0),
            "theta": (1e-3, 1.0),
            "z": (1e-3, 1.0),
        }
        prob = _problem(heston_market, bounds=bounds)
        res = calibrate_heston(prob, TRUTH_P.replace(kappa=1.0))
        assert 0.5 <= res.heston.kappa <= 1.6

    def test_nonfinite_start_detected(self, heston_market):
        # a non-finite market vol never reaches a fit: its quote is refused
        pt = heston_market.points[0]
        with pytest.raises(ValueError, match="implied_vol must be finite and positive"):
            VolPoint(pt.expiry, pt.strike, math.inf, "market")

    @pytest.mark.parametrize("truth, start", [
        (TRUTH_P.replace(sigma=0.7), TRUTH_P.replace(sigma=0.7)),
        (EQUITY_P, TRUTH_P),
    ], ids=["sigma-0.7", "equity-like"])
    def test_feller_violating_fit_converges_and_reports_it(self, truth, start):
        # sigma^2 > 2 kappa theta at the truth: both stages recover it, the
        # corrected stage adds no correction, and both report the violation
        market = _as_market(model_surface(EXPIRIES, STRIKES, truth, None, SPEC))
        prob = _problem(market)
        h_res = calibrate_heston(prob, start)
        m_res = calibrate_multiscale(prob, h_res)
        for res in (h_res, m_res):
            assert res.converged
            assert not res.feller_satisfied
            assert res.objective <= 1e-12
            for name in ("kappa", "theta", "sigma", "z"):
                got, want = getattr(res.heston, name), getattr(truth, name)
                assert abs(got - want) <= 1e-6 * want, name
            assert abs(res.heston.rho - truth.rho) <= 1e-6
        assert max(abs(x) for x in group_array(m_res.group)) <= 1e-6

    def test_misspelt_bound_rejected(self, heston_market):
        with pytest.raises(ValueError, match="unknown bound bounds.kapa; known: "
                           "kappa, rho, sigma, theta, z, v2e, v3e, v4e"):
            _problem(heston_market, bounds={"kapa": (0.5, 1.0)})

    def test_v1e_has_no_bound(self, heston_market):
        # no fit moves v1e, so a box for it is refused like a misspelt one
        assert tuple(calibration.DEFAULT_BOUNDS) == FIT_NAMES
        with pytest.raises(ValueError, match="unknown bound bounds.v1e"):
            _problem(heston_market, bounds={"v1e": (-0.1, 0.1)})

    @pytest.mark.parametrize("value", [5.0, (1.0,), (1, 2, 3), "12"],
                             ids=["number", "one", "three", "string"])
    def test_bound_not_a_pair_rejected(self, heston_market, value):
        with pytest.raises(ValueError, match=re.escape(
                f"bounds.kappa = {value!r} is not a (lo, hi) pair of numbers")):
            _problem(heston_market, bounds={"kappa": value})

    def test_too_few_quotes_rejected_before_pricing(self, monkeypatch, heston_market):
        few = VolSurface(
            spot=heston_market.spot,
            points=heston_market.points[:4],
            rates=dict(heston_market.rates),
            dividend_yields=dict(heston_market.dividend_yields),
        )

        def no_pricing(*args, **kwargs):
            raise AssertionError("priced before counting the quotes")

        monkeypatch.setattr(pricer, "integrate_adaptive", no_pricing)
        with pytest.raises(ValueError, match="4 quotes cannot identify 5 free"):
            calibrate_heston(_problem(few), TRUTH_P)


class TestRhoAbsorbsV1e:
    """At v = 0 the rho-slope of every price is sigma times the difference of
    its v1e- and v4e-slopes, so a fit of rho, v1e and v4e together has an
    exactly singular Jacobian there; the corrected fit holds v1e at 0."""

    @pytest.mark.parametrize("p", [TABLE1_HESTON, FIGURE1_HESTON,
                                   EDGE_HESTON["feller_violated"]],
                             ids=["table1", "figure1", "feller_violated"])
    def test_rho_slope_is_sigma_times_v1e_minus_v4e(self, p):
        # K 60-160 at 7 d to 3 y, at 1e-12/1e-11: the rows met to at most
        # 8.5e-13 of the strip's largest |rho-slope| (Figure-1 at 7 d) and to
        # 1e-14 or better at 30 d and beyond
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)
        strikes = np.linspace(60.0, 160.0, 11)
        taus = (7 / 365, 30 / 365, 0.5, 1.0, 3.0)
        strips = [(strikes, tau, 100.0, p, GroupParams.zero()) for tau in taus]
        _, slopes = price_slopes(strips, ("rho", "v1e", "v4e"), spec)
        for tau, (rho, v1e, v4e) in zip(taus, slopes):
            gap = np.max(np.abs(rho - p.sigma * (v1e - v4e)))
            assert gap <= 1e-11 * np.max(np.abs(rho)), tau


class TestCalibrateMultiscale:
    def test_two_stage_recovery(self):
        # quotes priced at a point the fitted model holds: all eight
        # parameters come back, here to 1e-9
        market = _as_market(model_surface(EXPIRIES, STRIKES, FOLDED_P, FOLDED_V, SPEC))
        prob = _problem(market)
        h_res = calibrate_heston(prob, TRUTH_P.replace(kappa=1.4, sigma=0.5, z=0.05))
        m_res = calibrate_multiscale(prob, h_res)
        assert m_res.converged
        for name in HESTON_NAMES:
            got, want = getattr(m_res.heston, name), getattr(FOLDED_P, name)
            assert abs(got - want) <= 1e-4 * abs(want), name
        for name in ("v1e", "v2e", "v3e", "v4e"):
            got, want = getattr(m_res.group, name), getattr(FOLDED_V, name)
            assert abs(got - want) <= 1e-4, name
        assert m_res.objective <= h_res.objective + 1e-12

    def test_identified_combinations_recovered(self, multiscale_market):
        # TRUTH_V has v1e != 0, which the fitted model cannot hold: it fits
        # the quotes to 1.4e-11 (about 8e-7 RMS in vol), and the two
        # combinations that v1e enters, which a chain identifies, came back
        # within 9.8e-5 (rho) and 5.3e-6 (v1e + v4e) of the truth's
        prob = _problem(multiscale_market)
        h_res = calibrate_heston(prob, TRUTH_P.replace(kappa=1.4, sigma=0.5, z=0.05))
        m_res = calibrate_multiscale(prob, h_res)
        assert m_res.converged
        assert m_res.objective <= 1e-10
        assert m_res.group.v1e == 0.0

        def combinations(p, v):
            return p.rho + (v.v1e - v.v4e) / (2.0 * p.sigma), v.v1e + v.v4e

        got = combinations(m_res.heston, m_res.group)
        want = combinations(TRUTH_P, TRUTH_V)
        assert np.max(np.abs(np.subtract(got, want))) <= 2e-4

    def test_noisy_chain_fit_stays_inside_its_box(self, multiscale_market):
        # with 1e-3 vol noise on the TRUTH_V chain, a fit that also moved v1e
        # slid along the direction rho already prices, to rho = 0.999 (its
        # bound) with v1e = -0.154 and v4e = 0.152; without it the fit ends
        # at rho = -0.63 with |v| <= 0.003
        prob = _problem(_as_market(multiscale_market, noise=1e-3, seed=11))
        h_res = calibrate_heston(prob, TRUTH_P.replace(kappa=1.4, sigma=0.5, z=0.05))
        m_res = calibrate_multiscale(prob, h_res)
        assert m_res.converged
        x = _pack(m_res.heston, m_res.group)
        lo, hi = _box(prob.bounds, multiscale=True)
        assert np.all(np.minimum(x - lo, hi - x) > 1e-3 * (hi - lo))
        assert max(abs(c) for c in group_array(m_res.group)) <= 0.02

    def test_nested_model_consistency_on_heston_data(self, heston_market):
        prob = _problem(heston_market)
        h_res = calibrate_heston(prob, TRUTH_P)
        m_res = calibrate_multiscale(prob, h_res)
        assert m_res.objective <= h_res.objective + 1e-12
        assert max(abs(x) for x in group_array(m_res.group)) < 1e-4


class TestOneRunPerStage:
    """A stage is its least_squares run, and its report is that run's result."""

    def test_stage_costs_nfev(self, fits, monkeypatch, multiscale_market):
        integrations = []

        def counted(*args, **kwargs):
            integrations.append(1)
            return integrate_adaptive(*args, **kwargs)

        monkeypatch.setattr(pricer, "integrate_adaptive", counted)
        prob = _problem(multiscale_market)
        h_res = calibrate_heston(prob, TRUTH_P.replace(kappa=1.4, sigma=0.5, z=0.05))
        stages = [(h_res, fits[-1], len(integrations))]
        integrations.clear()
        m_res = calibrate_multiscale(prob, h_res)
        stages.append((m_res, fits[-1], len(integrations)))
        assert len(fits) == 2
        for res, fit, n_integrations in stages:
            # each residual pass carries its Jacobian: njev costs nothing
            assert n_integrations == fit.nfev
            assert res.objective == fit.fun @ fit.fun
            assert res.iterations == fit.nfev
            assert res.jacobians == fit.njev


class _Stop(Exception):
    pass


class TestBatchedPasses:
    """A residual pass prices all its points in one integration and inverts
    nothing; the Jacobian at its x costs nothing more."""

    def _setup(self, market, spec=SPEC):
        prob = CalibProblem(market=market, quadrature=spec)
        x = _pack(
            TRUTH_P.replace(kappa=1.4, sigma=0.5),
            GroupParams(0.0, -0.001, -0.004, 0.0015),
        )
        rate = market.rate(EXPIRIES[0])

        def residuals(x):
            return objective_multiscale(_unpack(x, rate), prob)

        return x, prob, residuals

    def test_one_integration_per_pass(self, monkeypatch, multiscale_market):
        calls, inversions = [], []

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate_adaptive(*args, **kwargs)

        def counted_inversion(*args, **kwargs):
            inversions.append(1)
            return implied_vol(*args, **kwargs)

        def first_passes(fun, x0, jac, **kwargs):
            # the residual pass at x0, the Jacobian there, and one elsewhere
            res = fun(x0)
            seen = [(len(calls), len(inversions))]
            jacs = [jac(x0)]
            seen.append((len(calls), len(inversions)))
            jacs.append(jac(0.999 * x0))
            seen.append((len(calls), len(inversions)))
            raise _Stop(res, jacs, seen)

        monkeypatch.setattr(pricer, "integrate_adaptive", counted)
        monkeypatch.setattr(vol_surface, "implied_vol", counted_inversion)
        monkeypatch.setattr(calibration, "least_squares", first_passes)
        # nor is there an inversion of its own to call
        assert not hasattr(calibration, "implied_vol")
        n = multiscale_market.n_points
        x, prob, _ = self._setup(multiscale_market)
        for multiscale in (False, True):
            calls.clear()
            inversions.clear()
            with pytest.raises(_Stop) as stop:
                _fit(prob, x if multiscale else x[:5], *_box(prob.bounds, multiscale))
            res, jacs, seen = stop.value.args
            assert res.shape == (n,)
            assert all(jac.shape == (n, 8 if multiscale else 5) for jac in jacs)
            # no pass inverts; the Jacobian at the residual pass's x does
            # not price, and elsewhere it takes one more pass
            assert seen == [(1, 0), (1, 0), (2, 0)]

    def test_jacobian_against_central_differences(self, multiscale_market, heston_market):
        # central differences of the residuals with step 1e-4, each point
        # priced on its own at 1e-11 quadrature tolerances; the exact
        # Heston-stage columns meet them to 2.0e-7 of their scale (z).  The
        # multiscale stage's exact Heston columns meet them to 3.2e-11,
        # 2.3e-10, 5.5e-10, 8.2e-8 and 2.1e-7 (kappa to z), and its v-columns
        # to 2.4e-6 (v3e, whose largest entry is 3.1).  At v3e = 0.49 on the
        # Heston chain 6 of the 21 model prices leave the no-arbitrage band:
        # their residuals stay finite and their rows true (smallest row norm
        # 0.61), within 4.0e-6 of scale
        spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)
        x8, prob, residuals = self._setup(multiscale_market, spec)
        _, out_prob, out_residuals = self._setup(heston_market, spec)
        x_out = _pack(TRUTH_P, GroupParams(0.0, 0.0, 0.49, 0.0))
        priced = price_strips(calibration._strips(*_unpack(x_out, TRUTH_P.r), heston_market),
                              spec)
        tags = [bd.warnings for strip in priced for bd in strip]
        assert sum("outside_no_arbitrage_band" in t for t in tags) == 6
        delta = 1e-4
        for x, prob, residuals in ((x8[:5], prob, residuals), (x8, prob, residuals),
                                   (x_out, out_prob, out_residuals)):
            res, jac, _ = _linearize(x, prob)
            assert np.all(np.isfinite(res))
            assert np.all(np.linalg.norm(jac, axis=1) > 0.0)
            for j in range(len(x)):
                e = np.zeros_like(x)
                e[j] = delta
                central = (residuals(x + e) - residuals(x - e)) / (2.0 * delta)
                scale = max(1.0, float(np.max(np.abs(central))))
                assert np.max(np.abs(jac[:, j] - central)) <= 1e-5 * scale, (len(x), j)


class TestSoftFailures:
    def test_a_fit_counts_its_tagged_integrations(self, heston_market):
        # three panels cannot meet 1e-9: the fit's prices come back tagged
        # nonconvergence, and the stage says in how many integrations
        start = TRUTH_P.replace(kappa=1.5, sigma=0.45)
        coarse = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=3)
        res = calibrate_heston(CalibProblem(market=heston_market, quadrature=coarse), start)
        assert 0 < res.soft_failures <= res.iterations + res.jacobians
        assert calibrate_heston(CalibProblem(market=heston_market), start).soft_failures == 0


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


class TestResidualReport:
    def test_two_quote_mean_square(self, heston_market):
        # one expiry, two quotes offset by +a and +b: marginal msr is the mean
        # of the two squared residuals, each about its offset
        a, b = 0.004, -0.002
        market = _bumped(heston_market, EXPIRIES[0], [a, b])
        res = objective_heston(TRUTH_P, _problem(market))
        _check_vol_gaps(res, market, TRUTH_P, [a, b])
        rows = _per_expiry_rss(res, market)
        assert len(rows) == 1
        assert rows[0][1] == pytest.approx(np.mean(res**2), rel=1e-15)

    def test_zero_residuals(self, heston_market):
        prob = _problem(heston_market)
        res = calibrate_heston(prob, TRUTH_P)
        assert [expiry for expiry, _ in res.per_expiry_rss] == EXPIRIES
        assert all(rss < 1e-14 for _, rss in res.per_expiry_rss)

    def test_ratio_report_consistent_with_stored_residuals(self, multiscale_market):
        prob = _problem(multiscale_market)
        h_res = calibrate_heston(prob, TRUTH_P)
        m_res = calibrate_multiscale(prob, h_res)
        rows = residual_ratio_report(h_res, m_res, prob)
        h_map = h_res.rss_map()
        m_map = m_res.rss_map()
        for row, expiry in zip(rows, EXPIRIES):
            assert row["heston_mean_sq"] == h_map[expiry]
            assert row["multiscale_mean_sq"] == m_map[expiry]
            if m_map[expiry] > 0:
                assert row["ratio"] == pytest.approx(
                    h_map[expiry] / m_map[expiry]
                )
            else:
                assert row["ratio"] is None
        table = format_residual_table(rows)
        assert "ratio" in table.splitlines()[0]
        assert len(table.splitlines()) == len(rows) + 1

    def test_zero_multiscale_mean_square_has_no_ratio(self, heston_market):
        # on exact quotes both mean squares can be 0: no ratio, not inf
        prob = _problem(heston_market)
        h_res = calibrate_heston(prob, TRUTH_P)
        zero = dataclasses.replace(h_res, per_expiry_rss=tuple(
            (expiry, 0.0) for expiry, _ in h_res.per_expiry_rss))
        for h in (h_res, zero):
            rows = residual_ratio_report(h, zero, prob)
            assert [row["ratio"] for row in rows] == [None] * len(EXPIRIES)
            table = format_residual_table(rows).splitlines()
            assert all(line.split()[-1] == "-" for line in table[1:])
            json.loads(cli._json_dumps(rows), parse_constant=_reject)
