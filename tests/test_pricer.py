import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msheston.errors import ContourViolation
from msheston.kernel import _cd_of
from msheston.pricer import (
    GroupParams,
    OptionSpec,
    c_infinity,
    f1_hat,
    payoff_transform_call,
    payoff_transform_put,
    price_corrected,
    price_grid,
    price_heston,
    price_strikes,
)
from msheston.quadrature import QuadratureSpec

from .conftest import EDGE_HESTON, d_zero_call_contour, group_at_epsilon
from .helpers import (
    gil_pelaez_heston_call,
    mp_f1_hat,
    mp_payoff_transform,
    ode_corrected_price,
)


@pytest.fixture(scope="module")
def atm_option():
    return OptionSpec(strike=100.0, expiry=1.0, spot=100.0)


class TestPayoffTransform:
    def test_unit_strike_pure_imaginary(self):
        assert payoff_transform_call(2j, 1.0) == pytest.approx(0.5)

    def test_contour_violations(self):
        with pytest.raises(ContourViolation):
            payoff_transform_call(1.0 + 1.0j, 100.0)
        with pytest.raises(ContourViolation):
            payoff_transform_put(1.0 + 0.0j, 100.0)

    def test_against_high_precision(self):
        val = payoff_transform_call(1 + 1.5j, 100.0)
        assert val == pytest.approx(mp_payoff_transform(1 + 1.5j, 100.0), rel=1e-13)

    def test_put_strip(self):
        val = payoff_transform_put(1 - 0.5j, 100.0)
        assert val == pytest.approx(mp_payoff_transform(1 - 0.5j, 100.0), rel=1e-13)


class TestHestonPrice:
    def test_benchmark_value_against_independent_pricer(
        self, atm_option, table1_heston
    ):
        bd = price_heston(atm_option, table1_heston)
        ref = gil_pelaez_heston_call(100.0, 100.0, 0.05, 1.0, table1_heston)
        assert bd.total == pytest.approx(ref, abs=2e-7)
        assert bd.p_correction == 0.0
        assert bd.p10 == 0.0 and bd.p11 == 0.0

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

    def test_within_no_arbitrage_band(self, table1_heston):
        for strike in (40.0, 100.0, 250.0):
            opt = OptionSpec(strike=strike, expiry=1.0, spot=100.0)
            bd = price_heston(opt, table1_heston)
            lower = max(100.0 - strike * math.exp(-0.05), 0.0)
            assert lower - 1e-8 <= bd.total <= 100.0 + 1e-8
            assert "outside_no_arbitrage_band" not in bd.warnings

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
        from msheston.kernel import b_source

        rhs = a_coef * f1_hat(tau, k, p, v) + b_source(tau, k, p, v)
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
        c3 = price_corrected(atm_option, table1_heston, v.scaled(3.0)).p_correction
        assert c3 == pytest.approx(3.0 * c1, abs=5e-7)

    def test_breakdown_identity(self, atm_option, table1_heston):
        p = table1_heston
        v = group_at_epsilon(1e-2)
        bd = price_corrected(atm_option, p, v)
        pref = math.exp(-p.r * 1.0) / (2.0 * math.pi)
        recomputed = pref * (p.kappa * p.theta * bd.p10 + p.z * bd.p11)
        assert bd.p_correction == pytest.approx(recomputed, rel=1e-12)
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
        grid = price_grid([opt], table1_heston, v)
        single = price_corrected(opt, table1_heston, v)
        assert grid[0] == single

    def test_permutation_invariance(self, table1_heston):
        v = GroupParams(0.01, 0.0, -0.02, 0.0)
        opts = [
            OptionSpec(strike=k, expiry=t, spot=100.0)
            for k, t in ((80.0, 0.5), (100.0, 1.0), (120.0, 0.25))
        ]
        fwd = price_grid(opts, table1_heston, v)
        rev = price_grid(opts[::-1], table1_heston, v)
        assert fwd == rev[::-1]

    def test_matches_elementwise_serial_evaluation(self, table1_heston):
        strikes = np.linspace(60.0, 160.0, 100)
        opts = [OptionSpec(strike=k, expiry=1.0, spot=100.0) for k in strikes]
        grid = price_grid(opts, table1_heston, GroupParams.zero())
        serial = [
            price_corrected(o, table1_heston, GroupParams.zero()) for o in opts
        ]
        assert grid == serial

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
        with pytest.raises(ValueError):
            price_grid([], table1_heston, GroupParams.zero())


class TestContourChoice:
    def test_c_infinity_formula(self, table1_heston):
        p = table1_heston
        expected = math.sqrt(1 - p.rho**2) / p.sigma * (p.z + p.kappa * p.theta * 2.0)
        assert c_infinity(2.0, p) == pytest.approx(expected)

    def test_price_is_contour_independent(self, atm_option, table1_heston):
        a = price_heston(atm_option, table1_heston, k_i=1.2)
        b = price_heston(atm_option, table1_heston, k_i=2.5)
        assert a.total == pytest.approx(b.total, abs=1e-7)
        # corrected prices too, including the call contour on which
        # d(i*k_i) = 0: there the 1/d^2 of the closed-form transform sits at
        # the contour's end, u -> 1, which the open rule never evaluates
        p = table1_heston
        v = group_at_epsilon(1e-2)
        ref = price_corrected(atm_option, p, v, k_i=1.5)
        for k_i in (1.2, 2.5, d_zero_call_contour(p)):
            bd = price_corrected(atm_option, p, v, k_i=k_i)
            tol = ref.quadrature_error + bd.quadrature_error
            assert abs(bd.total - ref.total) <= tol

    def test_call_contour_validated(self, atm_option, table1_heston):
        with pytest.raises(ContourViolation):
            price_heston(atm_option, table1_heston, k_i=0.9)
