import dataclasses
import json
import math
import re

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
from msheston import calibration, cli, pricer
from msheston.calibration import (
    _box,
    _fit,
    _linearize,
    _pack,
    _per_expiry_rss,
    _unpack,
)
from msheston.kernel import HestonParams
from msheston.pricer import HESTON_NAMES, GroupParams
from msheston.quadrature import QuadratureSpec, integrate_adaptive
from msheston.vol_surface import VolPoint, VolSurface, implied_vol, model_surface

from .conftest import FIGURE1_HESTON, TABLE1_HESTON
from .helpers import group_array

SPEC = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-7)

TRUTH_P = HestonParams(
    kappa=1.8, theta=0.09, sigma=0.4, rho=-0.55, z=0.06, r=0.02
)
TRUTH_V = GroupParams(0.002, -0.001, -0.004, 0.0015)
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
        res = objective_heston(TRUTH_P, _problem(heston_market))
        assert res.shape == (len(heston_market.points),)
        assert np.max(np.abs(res)) < 1e-12

    def test_single_quote_residual_is_vol_gap(self, heston_market):
        pt = heston_market.points[0]
        single = VolSurface(
            spot=heston_market.spot,
            points=(VolPoint(pt.expiry, pt.strike, pt.implied_vol + 0.01, "market"),),
            rates=dict(heston_market.rates),
            dividend_yields={},
        )
        res = objective_heston(TRUTH_P, _problem(single))
        assert res.shape == (1,)
        assert res[0] == pytest.approx(0.01, abs=1e-9)

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
        res = objective_multiscale((TRUTH_P, TRUTH_V), _problem(multiscale_market))
        assert np.max(np.abs(res)) < 1e-12

    def test_out_of_band_model_points_penalized(self, heston_market):
        # an absurd correction drives short-dated prices out of band; the
        # objective stays finite with unit penalty residuals
        prob = _problem(heston_market)
        res = objective_multiscale(
            (TRUTH_P, GroupParams(0.0, 0.0, 0.49, 0.0)), prob
        )
        assert np.all(np.isfinite(res))
        assert np.max(np.abs(res)) <= 1.0 + 1e-12
        out = np.abs(res) == 1.0
        assert np.any(out)
        # such quotes get zero Jacobian rows; the others still move
        x = _pack(TRUTH_P, GroupParams(0.0, 0.0, 0.49, 0.0))
        jac = _linearize(x, prob)[1]
        assert np.all(jac[out] == 0.0)
        assert np.all(np.any(jac[~out] != 0.0, axis=1))


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
                           "kappa, rho, sigma, theta, z, v1e, v2e, v3e, v4e"):
            _problem(heston_market, bounds={"kapa": (0.5, 1.0)})

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


class TestCalibrateMultiscale:
    def test_two_stage_recovery(self, multiscale_market):
        prob = _problem(multiscale_market)
        start = TRUTH_P.replace(kappa=1.4, sigma=0.5, z=0.05)
        h_res = calibrate_heston(prob, start)
        m_res = calibrate_multiscale(prob, h_res)
        assert m_res.converged
        for name in ("kappa", "rho", "sigma", "theta", "z"):
            got = getattr(m_res.heston, name)
            want = getattr(TRUTH_P, name)
            assert abs(got - want) <= 1e-4 * abs(want), name
        for name in ("v1e", "v2e", "v3e", "v4e"):
            got = getattr(m_res.group, name)
            want = getattr(TRUTH_V, name)
            assert abs(got - want) <= 1e-4, name
        assert m_res.objective <= h_res.objective + 1e-12

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
    one point's quotes; the Jacobian at its x costs nothing more."""

    def _setup(self, market, spec=SPEC):
        prob = CalibProblem(market=market, quadrature=spec)
        x = _pack(
            TRUTH_P.replace(kappa=1.4, sigma=0.5),
            GroupParams(0.01 - 1e-7, -0.001, -0.004, 0.0015),
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
        monkeypatch.setattr(calibration, "implied_vol", counted_inversion)
        monkeypatch.setattr(calibration, "least_squares", first_passes)
        n = multiscale_market.n_points
        x, prob, _ = self._setup(multiscale_market)
        for multiscale in (False, True):
            calls.clear()
            inversions.clear()
            with pytest.raises(_Stop) as stop:
                _fit(prob, x if multiscale else x[:5], *_box(prob.bounds, multiscale))
            res, jacs, seen = stop.value.args
            assert res.shape == (n,)
            assert all(jac.shape == (n, 9 if multiscale else 5) for jac in jacs)
            # the Jacobian at the residual pass's x neither prices nor
            # inverts; elsewhere it takes one more pass
            assert seen == [(1, n), (1, n), (2, 2 * n)]

    def test_jacobian_against_central_differences(self, multiscale_market):
        # central differences of the residuals with step 1e-4, each point
        # priced on its own at 1e-11 quadrature tolerances; the exact
        # Heston-stage columns meet them to 2.0e-7 of their scale (z).  The
        # multiscale stage's exact Heston columns meet them to 3.0e-11,
        # 6.9e-10, 1.4e-9, 8.8e-8 and 3.6e-7 (kappa to z), where forward
        # differences met them to 1.2e-8, 3.2e-8, 6.5e-8, 1.9e-6 and 2.8e-6,
        # and its v-columns to 3.0e-6 (v3e, whose largest entry is 3.2)
        spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)
        x9, prob, residuals = self._setup(multiscale_market, spec)
        delta = 1e-4
        for x in (x9[:5], x9):
            jac = _linearize(x, prob)[1]
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
        # one expiry, two quotes offset by +a and +b: marginal msr = (a^2+b^2)/2
        a, b = 0.004, -0.002
        pts = [
            pt for pt in heston_market.points if pt.expiry == EXPIRIES[0]
        ][:2]
        market = VolSurface(
            spot=heston_market.spot,
            points=(
                VolPoint(pts[0].expiry, pts[0].strike, pts[0].implied_vol + a, "market"),
                VolPoint(pts[1].expiry, pts[1].strike, pts[1].implied_vol + b, "market"),
            ),
            rates=dict(heston_market.rates),
            dividend_yields={},
        )
        prob = _problem(market)
        rows = _per_expiry_rss(objective_heston(TRUTH_P, prob), market)
        assert len(rows) == 1
        assert rows[0][1] == pytest.approx((a * a + b * b) / 2.0, rel=1e-6)

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
