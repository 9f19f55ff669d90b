import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from msheston import pricer
from msheston.kernel import _b_coeffs, _cd_of, _f_hats
from msheston.pricer import (
    GroupParams,
    OptionSpec,
    _payoff_transform,
    c_infinity,
    price_corrected,
    price_heston,
    price_slopes,
    price_strikes,
    price_strips,
)
from msheston.quadrature import QuadratureSpec, integrate_adaptive

from .conftest import (
    EDGE_HESTON,
    FIGURE1_HESTON,
    TABLE1_HESTON,
    d_zero_call_contour,
    group_at_epsilon,
)
from .helpers import (
    gil_pelaez_heston_call,
    group_array,
    mp_f1_hat,
    mp_payoff_transform,
    ode_corrected_price,
)


def payoff_transform(k, strike):
    """The pricer's payoff transform K**(1+ik) / (ik - k^2), without phase."""
    return complex(_payoff_transform(complex(k), math.log(strike), 0.0))


def f1_hat(tau, k, p, v):
    k = complex(k)
    return complex(_f_hats(tau, k, v, _cd_of(tau, k, p)[2])[1])


@pytest.fixture(scope="module")
def atm_option():
    return OptionSpec(strike=100.0, expiry=1.0, spot=100.0)


class TestPayoffTransform:
    def test_unit_strike_pure_imaginary(self):
        assert payoff_transform(2j, 1.0) == pytest.approx(0.5)

    def test_against_high_precision(self):
        val = payoff_transform(1 + 1.5j, 100.0)
        assert val == pytest.approx(mp_payoff_transform(1 + 1.5j, 100.0), rel=1e-13)

    def test_put_strip(self):
        val = payoff_transform(1 - 0.5j, 100.0)
        assert val == pytest.approx(mp_payoff_transform(1 - 0.5j, 100.0), rel=1e-13)


class TestHestonPrice:
    def test_benchmark_value_against_independent_pricer(
        self, atm_option, table1_heston
    ):
        bd = price_heston(atm_option, table1_heston)
        ref = gil_pelaez_heston_call(100.0, 100.0, 0.05, 1.0, table1_heston)
        assert bd.total == pytest.approx(ref, abs=2e-7)
        assert bd.p_correction == 0.0

    @pytest.mark.parametrize("sigma", [0.01, 0.05])
    @pytest.mark.parametrize("tau", [5 / 365, 0.25, 1.0, 5.0])
    def test_small_sigma_against_independent_pricer(self, table1_heston, sigma, tau):
        # c_infinity ~ 1/sigma would squeeze the kernel's Gaussian decay onto
        # u ~ 0, where the quadrature gave up with nonconvergence
        p = table1_heston.replace(sigma=sigma)
        strikes = [60.0, 100.0, 160.0]
        for strike, bd in zip(strikes, price_strikes(strikes, tau, 100.0, p)):
            assert bd.warnings == ()
            ref = gil_pelaez_heston_call(100.0, strike, p.r, tau, p)
            assert abs(bd.total - ref) <= bd.quadrature_error + 1e-9, strike

    def test_one_day_figure1_strip_against_independent_pricer(self, figure1_heston):
        # low variance over one day: the oracle's integrands decay only past
        # u = 300 (it was 6.5e-4 off with a fixed cut there); the strip meets
        # it to 9e-10 within bounds of 1.8e-7.  The K = 120 price is zero
        # within its bound and may come out slightly negative.
        strikes = [90.0, 95.0, 98.0, 100.0, 102.0, 105.0, 110.0, 120.0]
        for strike, bd in zip(
            strikes, price_strikes(strikes, 1 / 365, 100.0, figure1_heston)
        ):
            assert not any(w.startswith("nonconvergence") for w in bd.warnings)
            ref = gil_pelaez_heston_call(100.0, strike, 0.0, 1 / 365, figure1_heston)
            assert abs(bd.total - ref) <= bd.quadrature_error + 1e-9, strike

    @pytest.mark.parametrize("payoff", ["call", "put"])
    @pytest.mark.parametrize("tau", [1 / 365, 0.25], ids=["1d", "0.25y"])
    def test_figure1_strips_against_independent_pricer(self, figure1_heston, tau, payoff):
        # the surface grid's strikes, on a start mesh graded towards the
        # payoff pole near u = 1 (0.5 * scale from it); puts by parity at r = 0
        strikes = np.linspace(75.0, 125.0, 11)
        bds = price_strikes(strikes, tau, 100.0, figure1_heston, payoff=payoff)
        for strike, bd in zip(strikes, bds):
            assert "nonconvergence" not in bd.warnings
            ref = gil_pelaez_heston_call(100.0, strike, 0.0, tau, figure1_heston)
            if payoff == "put":
                ref += strike - 100.0
            assert abs(bd.total - ref) <= bd.quadrature_error + 1e-9, strike

    @pytest.mark.parametrize("payoff", ["call", "put"])
    @pytest.mark.parametrize("factor", [0.98, 1.02])
    @pytest.mark.parametrize("p, bracket", [
        (TABLE1_HESTON, (0.05, 0.5)),
        (TABLE1_HESTON, (5.0, 12.0)),
        (FIGURE1_HESTON, (0.005, 0.05)),
        (FIGURE1_HESTON, (10.0, 20.0)),
        (EDGE_HESTON["feller_violated"], (0.005, 0.05)),
        (EDGE_HESTON["rho_plus_099"], (0.001, 0.01)),
        (EDGE_HESTON["rho_minus_099"], (0.001, 0.01)),
    ], ids=["table1-short", "table1-long", "figure1-short", "figure1-long",
            "feller", "rho+0.99", "rho-0.99"])
    def test_strips_either_side_of_the_scale_switch(
        self, monkeypatch, p, bracket, factor, payoff
    ):
        # the map scale switches from 4*sqrt(V) to c_infinity/2, and the
        # tail's depth halves, where c_infinity = 4*sqrt(V): on either side
        # the strip meets the oracle within its bound plus the oracle's own
        # 1e-9, with no nonconvergence; puts by parity
        def gap(tau):
            variance = p.theta * tau - (p.z - p.theta) * math.expm1(-p.kappa * tau) / p.kappa
            return c_infinity(tau, p) - 4.0 * math.sqrt(variance)

        orders = []

        def recording(f, spec, tail_order=0, **kwargs):
            orders.append(tail_order)
            return integrate_adaptive(f, spec, tail_order=tail_order, **kwargs)

        monkeypatch.setattr(pricer, "integrate_adaptive", recording)
        tau = factor * brentq(gap, *bracket, xtol=1e-14)
        strikes = np.linspace(75.0, 125.0, 25)
        bds = price_strikes(strikes, tau, 100.0, p, payoff=payoff)
        assert orders == [int(gap(tau) <= 0.0)]
        for strike, bd in zip(strikes, bds):
            assert "nonconvergence" not in bd.warnings
            ref = gil_pelaez_heston_call(100.0, strike, p.r, tau, p)
            if payoff == "put":
                ref += strike * math.exp(-p.r * tau) - 100.0
            assert abs(bd.total - ref) <= bd.quadrature_error + 1e-9, strike

    def test_deep_itm_short_dated_limit(self, table1_heston):
        opt = OptionSpec(strike=1.0, expiry=0.01, spot=100.0)
        bd = price_heston(opt, table1_heston)
        intrinsic = 100.0 - 1.0 * math.exp(-0.05 * 0.01)
        assert bd.total == pytest.approx(intrinsic, abs=1e-6)

    def test_put_call_parity(self, table1_heston):
        strike, tau, spot = 110.0, 0.75, 100.0
        call = price_strikes([strike], tau, spot, table1_heston)[0]
        put = price_strikes([strike], tau, spot, table1_heston, payoff="put")[0]
        lhs = call.total - put.total
        rhs = spot - strike * math.exp(-table1_heston.r * tau)
        assert lhs == pytest.approx(rhs, abs=1e-7)

    @pytest.mark.parametrize("payoff", ["Call", "straddle"])
    def test_unknown_payoff_rejected(self, table1_heston, payoff):
        with pytest.raises(ValueError, match=repr(payoff)):
            price_strikes([100.0], 1.0, 100.0, table1_heston, payoff=payoff)

    def test_within_no_arbitrage_band(self, table1_heston):
        for strike in (40.0, 100.0, 250.0):
            opt = OptionSpec(strike=strike, expiry=1.0, spot=100.0)
            bd = price_heston(opt, table1_heston)
            lower = max(100.0 - strike * math.exp(-0.05), 0.0)
            assert lower - 1e-8 <= bd.total <= 100.0 + 1e-8
            assert "outside_no_arbitrage_band" not in bd.warnings

    def test_band_no_wider_than_its_slack_is_tagged(self, table1_heston):
        # K = S = 100: the band min(S, K*exp(-r*tau)) is 0.67 at 100 y, and
        # ten quadrature bounds (6.6e-3 there) fit inside it; at 150 and
        # 200 y the calls' bounds (0.046 and 8.8) make a slack wider than the
        # band (0.055 and 4.5e-3), which then admitted the 200-y call at
        # 99.997; at 1000 y the call prices -1.2e35 and the put's bound is 1.8
        def tagged(tau, kind):
            bd = price_heston(OptionSpec(100.0, tau, 100.0, kind), table1_heston)
            return "outside_no_arbitrage_band" in bd.warnings

        assert not any(tagged(tau, kind) for tau in (50.0, 100.0) for kind in ("call", "put"))
        assert not any(tagged(tau, "put") for tau in (150.0, 200.0))
        assert all(tagged(tau, "call") for tau in (150.0, 200.0, 1000.0))
        assert tagged(1000.0, "put")

    def test_deterministic(self, atm_option, table1_heston):
        a = price_heston(atm_option, table1_heston)
        b = price_heston(atm_option, table1_heston)
        assert a == b


class TestF1Hat:
    def test_zero_at_tau_zero(self, table1_heston):
        v = GroupParams(0.1, 0.2, 0.3, 0.4)
        assert f1_hat(0.0, 1 + 1.5j, table1_heston, v) == 0.0

    def test_zero_coefficients(self, table1_heston):
        assert f1_hat(0.7, 2 + 1.5j, table1_heston, GroupParams.zero()) == 0.0

    def test_ode_residual(self, table1_heston, table1_v_unit):
        # d f1/d tau = (sigma^2 D - M) f1 + b, central differences at tau=0.5
        p = table1_heston
        v = GroupParams(*(0.1 * table1_v_unit))
        k = 1.0 + 1.5j
        tau, h = 0.5, 1e-4
        lhs = (f1_hat(tau + h, k, p, v) - f1_hat(tau - h, k, p, v)) / (2 * h)
        _, big_d_val, _ = _cd_of(tau, k, p)
        m = p.kappa + 1j * p.rho * p.sigma * k
        a_coef = p.sigma**2 * big_d_val - m
        b0, b1, b2 = _b_coeffs(k, v)
        b_val = b0 + big_d_val * (b1 + big_d_val * b2)
        rhs = a_coef * f1_hat(tau, k, p, v) + b_val
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(rhs))

    @pytest.mark.parametrize(
        "name, tau, k",
        [
            ("feller_violated", 1.0, 0.7 + 1.5j),
            ("rho_plus_099", 1 / 365, 40.0 + 1.5j),
            ("rho_minus_099", 10.0, 40.0 - 0.5j),
        ],
        ids=["feller_violated", "rho_plus_099_one_day", "rho_minus_099_put_10y"],
    )
    def test_against_definition(self, name, tau, k):
        p = EDGE_HESTON[name]
        v = group_at_epsilon(1e-2)
        ref = mp_f1_hat(tau, k, p, v)
        assert f1_hat(tau, k, p, v) == pytest.approx(ref, rel=1e-12)

    def test_linear_in_coefficients(self, table1_heston):
        k = 0.8 + 1.5j
        f_a = f1_hat(1.0, k, table1_heston, GroupParams(0.2, 0, 0.1, 0))
        f_b = f1_hat(1.0, k, table1_heston, GroupParams(0, -0.3, 0, 0.05))
        f_ab = f1_hat(1.0, k, table1_heston, GroupParams(0.2, -0.3, 0.1, 0.05))
        assert f_ab == pytest.approx(f_a + f_b, rel=1e-9, abs=1e-12)


class TestCorrectedPrice:
    def test_zero_coefficients_reproduce_heston_exactly(
        self, atm_option, table1_heston
    ):
        base = price_heston(atm_option, table1_heston)
        bd = price_corrected(atm_option, table1_heston, GroupParams.zero())
        assert bd.p_heston == base.p_heston
        assert bd.p_correction == 0.0
        assert bd.total == base.total

    def test_against_ode_route(self, atm_option, table1_heston):
        v = group_at_epsilon(1e-2)
        bd = price_corrected(atm_option, table1_heston, v)
        ref_heston, ref_total = ode_corrected_price(
            100.0, 100.0, 1.0, table1_heston, v
        )
        assert bd.p_heston == pytest.approx(ref_heston, abs=5e-6)
        assert bd.total == pytest.approx(ref_total, abs=5e-6)

    @given(
        name=st.sampled_from(sorted(EDGE_HESTON)),
        log_tau=st.floats(math.log(2 / 365), math.log(10.0)),
        log_moneyness=st.floats(-1.2, 1.1),
    )
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_edge_regimes_against_ode_route(self, name, log_tau, log_moneyness):
        # The oracle truncates its k-integral at k_cut, and the kernel decays
        # like exp(-c_infinity * k_r): 36/c_infinity leaves e^-36 beyond the
        # cut, and at least 40 keeps the payoff's own 1/k^2 tail small where
        # c_infinity is large.  Its p00 and p_correction are separate quad
        # calls with absolute tolerances 1.49e-8 and 1e-9 on the folded
        # integrals; over the long oscillatory ranges of short expiries and
        # deep strikes p00 is measured off by up to 4e-8.
        p = EDGE_HESTON[name]
        tau = math.exp(log_tau)
        strike = 100.0 * math.exp(log_moneyness)
        v = group_at_epsilon(1e-2)
        bd = price_strikes([strike], tau, 100.0, p, v)[0]
        k_cut = max(40.0, 36.0 / c_infinity(tau, p))
        ref_heston, ref_total = ode_corrected_price(
            100.0, strike, tau, p, v, k_cut=k_cut
        )
        gap_correction = abs(bd.p_correction - (ref_total - ref_heston))
        assert gap_correction <= bd.quadrature_error + 1e-8
        assert abs(bd.total - ref_total) <= bd.quadrature_error + 1e-7

    def test_correction_additive_in_coefficients(self, atm_option, table1_heston):
        v1 = GroupParams(0.02, 0.0, -0.01, 0.0)
        v2 = GroupParams(0.0, -0.015, 0.0, 0.03)
        v12 = GroupParams(0.02, -0.015, -0.01, 0.03)
        c1 = price_corrected(atm_option, table1_heston, v1).p_correction
        c2 = price_corrected(atm_option, table1_heston, v2).p_correction
        c12 = price_corrected(atm_option, table1_heston, v12).p_correction
        assert c12 == pytest.approx(c1 + c2, abs=5e-7)

    def test_correction_scales_linearly(self, atm_option, table1_heston):
        v = GroupParams(0.01, -0.02, 0.03, 0.005)
        c1 = price_corrected(atm_option, table1_heston, v).p_correction
        v3 = GroupParams(*3.0 * group_array(v))
        c3 = price_corrected(atm_option, table1_heston, v3).p_correction
        assert c3 == pytest.approx(3.0 * c1, abs=5e-7)

    def test_breakdown_identity(self, atm_option, table1_heston):
        p = table1_heston
        v = group_at_epsilon(1e-2)
        bd = price_corrected(atm_option, p, v)
        assert bd.total == bd.p_heston + bd.p_correction


class TestStrikeShapes:
    def test_monotone_and_convex_in_strike(self, table1_heston):
        strikes = np.linspace(50.0, 200.0, 50)
        res = price_strikes(strikes, 1.0, 100.0, table1_heston)
        prices = np.array([bd.total for bd in res])
        diffs = np.diff(prices)
        assert np.all(diffs < 0.0)  # call price decreasing in strike
        second = np.diff(prices, 2)
        assert np.all(second > -1e-7)  # convex

    def test_folding_matches_full_line_and_imag_vanishes(self, table1_heston):
        p = table1_heston
        tau, spot, strike, k_i = 1.0, 100.0, 90.0, 1.5
        q = p.r * tau + math.log(spot)

        def integrand(kr):
            k = np.asarray(kr) + 1j * k_i
            c_val, d_val, _ = _cd_of(tau, k, p)
            h_hat = strike ** (1 + 1j * k) / (1j * k - k * k)
            return np.exp(-1j * k * q) * np.exp(c_val + p.z * d_val) * h_hat

        grid = np.arange(-500.0, 500.0 + 1e-3, 1e-3)
        full = np.trapezoid(integrand(grid), grid)
        assert abs(full.imag) < 1e-8 * abs(full.real)

        bd = price_strikes([strike], tau, spot, p)[0]
        pref = math.exp(-p.r * tau) / (2.0 * math.pi)
        assert bd.p_heston == pytest.approx(pref * full.real, rel=1e-6)


class TestGrid:
    def test_singleton_matches_single_call(self, table1_heston):
        v = GroupParams(0.01, 0.0, -0.02, 0.0)
        opt = OptionSpec(strike=95.0, expiry=0.5, spot=100.0)
        strip = price_strikes([95.0], 0.5, 100.0, table1_heston, v)
        single = price_corrected(opt, table1_heston, v)
        assert strip[0] == single

    def test_permutation_invariance(self, table1_heston):
        # the refinement is shared by all rows and driven by their largest
        # error, so the order of the strikes does not change the prices
        v = GroupParams(0.01, 0.0, -0.02, 0.0)
        strikes = [80.0, 100.0, 120.0]
        fwd = price_strikes(strikes, 0.5, 100.0, table1_heston, v)
        rev = price_strikes(strikes[::-1], 0.5, 100.0, table1_heston, v)
        for a, b in zip(fwd, rev[::-1]):
            assert a.total == pytest.approx(b.total, rel=1e-13, abs=0.0)
            assert a.quadrature_error == pytest.approx(b.quadrature_error, rel=1e-12)

    def test_strip_agrees_with_solo_within_bounds(self, table1_heston):
        v = group_at_epsilon(1e-2)
        strikes = [80.0, 100.0, 125.0]
        strip = price_strikes(strikes, 1.0, 100.0, table1_heston, v)
        for strike, bd in zip(strikes, strip):
            solo = price_corrected(
                OptionSpec(strike=strike, expiry=1.0, spot=100.0),
                table1_heston,
                v,
            )
            tol = bd.quadrature_error + solo.quadrature_error + 1e-12
            assert abs(bd.total - solo.total) <= tol

    def test_rejects_empty(self, table1_heston):
        with pytest.raises(ValueError, match="nonempty"):
            price_strikes([], 1.0, 100.0, table1_heston)


class TestPriceStrips:
    def _mixed(self, table1_heston, figure1_heston):
        # different expiries, parameters and strike counts; baseline (None
        # and zero) and corrected strips side by side
        return [
            ([100.0], 1.0, 100.0, table1_heston, None),
            (np.linspace(70.0, 140.0, 8), 0.25, 100.0, figure1_heston,
             GroupParams(-0.001, 0.0005, 0.002, -0.0005)),
            ([90.0, 110.0], 3.0, 95.0, EDGE_HESTON["rho_minus_099"],
             GroupParams.zero()),
            (np.linspace(60.0, 160.0, 5), 1 / 365, 100.0, table1_heston,
             GroupParams(0.01, 0.0, -0.02, 0.005)),
            ([80.0, 100.0, 125.0], 0.5, 100.0, EDGE_HESTON["feller_violated"],
             None),
        ]

    def test_agrees_with_one_strip_at_a_time(self, table1_heston, figure1_heston):
        strips = self._mixed(table1_heston, figure1_heston)
        batch = price_strips(strips)
        assert [len(b) for b in batch] == [len(s[0]) for s in strips]
        for strip, priced in zip(strips, batch):
            alone = price_strikes(*strip)
            corrected = strip[4] is not None and not strip[4].is_zero
            for a, b in zip(priced, alone):
                assert a.warnings == b.warnings
                assert not any(w.startswith("nonconvergence") for w in a.warnings)
                tol = a.quadrature_error + b.quadrature_error
                assert abs(a.total - b.total) <= tol
                assert abs(a.p_heston - b.p_heston) <= tol
                if not corrected:
                    # the correction row of a zero v is exactly 0
                    assert a.p_correction == 0.0

    def test_repeat_is_byte_identical(self, table1_heston, figure1_heston):
        strips = self._mixed(table1_heston, figure1_heston)
        assert repr(price_strips(strips)) == repr(price_strips(strips))

    def test_soft_failure_tags_only_the_strips_that_miss(self, table1_heston):
        # a one-day 25-strike corrected strip needs more panels than the
        # budget of 60 (it converges within 80); the ATM baseline strip at
        # one year converges on the panels both share
        p = table1_heston
        strips = [
            ([100.0], 1.0, 100.0, p, None),
            (np.linspace(30.0, 300.0, 25), 1 / 365, 100.0, p, group_at_epsilon(1e-2)),
        ]
        easy, hard = price_strips(strips, QuadratureSpec(max_subdivisions=60))
        assert easy[0].warnings == ()
        assert all("nonconvergence" in bd.warnings for bd in hard)
        # every strip keeps its best estimate and its bound
        full_easy, full_hard = price_strips(strips)
        assert not any(
            w.startswith("nonconvergence") for bd in full_easy + full_hard
            for w in bd.warnings
        )
        tol = easy[0].quadrature_error + full_easy[0].quadrature_error
        assert abs(easy[0].total - full_easy[0].total) <= tol
        spec = QuadratureSpec()
        assert max(bd.quadrature_error for bd in hard) > spec.abs_tol
        for bd, ref in zip(hard, full_hard):
            assert np.isfinite(bd.total)
            assert abs(bd.total - ref.total) <= bd.quadrature_error + ref.quadrature_error

    def test_integrand_rows(self, table1_heston, monkeypatch):
        # one row per strike when no strip is corrected; a price and a
        # correction row per strike as soon as one is (all price rows
        # first), the correction rows riding on the mesh the price rows
        # steer, and the correction row of an uncorrected strip integrating
        # to exactly 0
        seen = []

        def recording(f, *args, ride=0, **kwargs):
            def rows(us):
                vals = f(us)
                seen.append((len(vals), ride))
                return vals
            return integrate_adaptive(rows, *args, ride=ride, **kwargs)

        monkeypatch.setattr(pricer, "integrate_adaptive", recording)
        base = ([90.0, 100.0, 110.0], 1.0, 100.0, table1_heston, None)
        corr = ([80.0, 120.0], 0.5, 100.0, table1_heston, group_at_epsilon(1e-2))
        zero = ([95.0], 2.0, 100.0, table1_heston, GroupParams.zero())
        for strips, rows_and_ride in (
            ([base, zero], (4, 0)),
            ([corr], (4, 2)),
            ([base, corr, zero], (12, 6)),
        ):
            seen.clear()
            priced = price_strips(strips)
            assert set(seen) == {rows_and_ride}
        assert all(bd.p_correction == 0.0 for bd in priced[0] + priced[2])

    def test_no_strips_no_prices(self):
        # an empty market's objective and an empty surface stay empty
        assert price_strips([]) == []


class TestAffineInV:
    """One batch is affine in the correction coefficients: strips that differ
    only in v share the mesh, so the correction row is linear in each
    coefficient to rounding, and the correction row at a unit coefficient,
    which ``price_slopes`` integrates, is the exact slope in it."""

    @pytest.mark.parametrize("spec", [QuadratureSpec(),
                                      QuadratureSpec(abs_tol=1e-5, rel_tol=1e-5)],
                             ids=["default", "1e-5"])
    @pytest.mark.parametrize("name", ["v1e", "v2e", "v3e", "v4e"])
    def test_second_difference_is_rounding(self, table1_heston, spec, name):
        # steps of 1 in one coefficient: |P0 - 2 P1 + P2| was at most 3.8e-15
        # of |P1 - P0| per strike, over both specs and all four coefficients;
        # priced one strip at a time, each on its own mesh, it reaches 2e-12
        # at the default spec and 5.5e-9 at 1e-5
        v = GroupParams(0.01, -0.001, -0.004, 0.0015)
        strikes = np.linspace(80.0, 120.0, 5)
        steps = [dataclasses.replace(v, **{name: getattr(v, name) + i}) for i in range(3)]
        p0, p1, p2 = np.array([
            [bd.total for bd in strip] for strip in price_strips(
                [(strikes, 0.5, 100.0, table1_heston, w) for w in steps], spec)
        ])
        assert np.all(np.abs(p0 - 2.0 * p1 + p2) <= 1e-13 * np.abs(p1 - p0))

    @pytest.mark.parametrize("spec", [QuadratureSpec(),
                                      QuadratureSpec(abs_tol=1e-5, rel_tol=1e-5)],
                             ids=["default", "1e-5"])
    def test_slopes_are_one_unit_differences(self, table1_heston, spec):
        # the exact v-slopes against steps of 1 in each coefficient, the
        # shifted strips priced in the same call so that every strip steers
        # one mesh: they met to 3.1e-15 of |P1 - P0|
        v = GroupParams(0.01, -0.001, -0.004, 0.0015)
        strikes = np.linspace(80.0, 120.0, 5)
        names = pricer.GROUP_NAMES
        strips = [(strikes, 0.5, 100.0, table1_heston, v),
                  (strikes[::2], 2.0, 100.0, table1_heston, v)]
        shifted = [(s[0], s[1], s[2], s[3],
                    dataclasses.replace(v, **{name: getattr(v, name) + 1.0}))
                   for name in names for s in strips]
        breakdowns, slopes = price_slopes(strips + shifted, names, spec)
        totals = [[bd.total for bd in strip] for strip in breakdowns]
        p0 = np.concatenate(totals[:len(strips)])
        forward = np.reshape(np.concatenate(totals[len(strips):]), (len(names), -1)) - p0
        exact = np.hstack(slopes[:len(strips)])
        assert np.all(np.abs(exact - forward) <= 1e-12 * np.abs(forward))

    def test_unknown_slope_rejected(self, table1_heston):
        with pytest.raises(ValueError, match="no slope in 'r'; known: kappa, rho"):
            price_slopes([([100.0], 1.0, 100.0, table1_heston, None)], ("r",))


class TestHestonSlopes:
    """The Heston slopes of a corrected strip are those of its total price,
    correction included."""

    @pytest.mark.parametrize("p", [EDGE_HESTON["feller_violated"],
                                   EDGE_HESTON["rho_minus_099"]],
                             ids=["feller_violated", "rho_minus_099"])
    def test_against_central_differences(self, table1_heston, p):
        # steps of 1e-5 relative in each parameter, the shifted strips priced
        # at abs_tol = rel_tol = 1e-12: each sits on its own rho-dependent map
        # scale, so at the default spec their quadrature errors do not cancel
        # in the differences (1.5e-7 at rho = -0.99).  The default-spec slopes
        # met the tight central differences to 7.0e-9 of max(1, |slope|),
        # where the slopes of p_heston alone miss them by up to 0.28
        names = pricer.HESTON_NAMES
        v = GroupParams(0.01, -0.001, -0.004, 0.0015)
        strikes = np.linspace(80.0, 120.0, 5)
        strips = [(strikes, 0.5, 100.0, p, v), (strikes[::2], 2.0, 100.0, p, v)]
        shifted = []
        for name in names:
            h = 1e-5 * abs(getattr(p, name))
            for sign in (1.0, -1.0):
                moved = p.replace(**{name: getattr(p, name) + sign * h})
                shifted += [(s[0], s[1], s[2], moved, s[4]) for s in strips]
        _, slopes = price_slopes(strips, names)
        tight = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
        totals = np.concatenate([[bd.total for bd in strip]
                                 for strip in price_strips(shifted, tight)])
        n = len(strikes) + len(strikes[::2])
        up, down = totals.reshape(len(names), 2, n).transpose(1, 0, 2)
        steps = np.array([1e-5 * abs(getattr(p, name)) for name in names])[:, None]
        central = (up - down) / (2.0 * steps)
        exact = np.hstack(slopes[:len(strips)])
        assert np.all(np.abs(exact - central) <= 1e-7 * np.maximum(1.0, np.abs(central)))


class TestContourChoice:
    def test_c_infinity_formula(self, table1_heston):
        p = table1_heston
        expected = math.sqrt(1 - p.rho**2) / p.sigma * (p.z + p.kappa * p.theta * 2.0)
        assert c_infinity(2.0, p) == pytest.approx(expected)

    def test_price_is_contour_independent(
        self, atm_option, table1_heston, monkeypatch
    ):
        # the call contour is fixed at DEFAULT_CALL_CONTOUR; any k_i > 1 gives
        # the same price, corrected prices included, and so does the contour
        # on which d(i*k_i) = 0: there the 1/d^2 of the closed-form transform
        # sits at the contour's end, u -> 1, which the open rule never
        # evaluates
        p = table1_heston
        v = group_at_epsilon(1e-2)
        ref_heston = price_heston(atm_option, p)
        ref = price_corrected(atm_option, p, v)
        for k_i in (1.2, 2.5, d_zero_call_contour(p)):
            monkeypatch.setattr(pricer, "DEFAULT_CALL_CONTOUR", k_i)
            a = price_heston(atm_option, p)
            assert a.total == pytest.approx(ref_heston.total, abs=1e-7)
            bd = price_corrected(atm_option, p, v)
            tol = ref.quadrature_error + bd.quadrature_error
            assert abs(bd.total - ref.total) <= tol

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_unit_correlation_rejected(self, table1_heston, rho):
        # c_infinity = 0 would leave the half-line substitution without a
        # scale, so HestonParams admits only |rho| < 1
        with pytest.raises(ValueError, match=r"rho must lie in \(-1, 1\)"):
            table1_heston.replace(rho=rho)
