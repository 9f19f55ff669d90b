import csv
import io
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import msheston
from msheston import vol_surface
from msheston.errors import NonConvergence, OutOfBand
from msheston.pricer import GroupParams, price_strikes
from msheston.quadrature import QuadratureSpec
from msheston.vol_surface import (
    VOL_BRACKET,
    VolPoint,
    VolSurface,
    bs_call,
    bs_vega,
    implied_vol,
    model_surface,
)

from .helpers import mp_bs_call, mp_bs_vega

EPS = sys.float_info.epsilon

# Wing grid: moneyness 0.3-3, tau from one day to 10 y, vol 0.01-3.
WINGS = list(itertools.product(
    np.geomspace(0.3, 3.0, 10).tolist(),
    np.geomspace(1.0 / 365.0, 10.0, 8).tolist(),
    np.geomspace(0.01, 3.0, 8).tolist(),
))


class TestBsCall:
    def test_vanishing_vol_limit(self):
        price = bs_call(100.0, 90.0, 1.0, 1e-12, 0.05)
        assert price == pytest.approx(100.0 - 90.0 * math.exp(-0.05), abs=1e-12)

    def test_atm_forward_identity(self):
        # spot = strike * e^{-rT} and vol*sqrt(T) = 0.2:
        # price = spot * (2 N(0.1) - 1)
        rate, expiry = 0.07, 4.0
        strike = 100.0
        spot = strike * math.exp(-rate * expiry)
        vol = 0.2 / math.sqrt(expiry)
        expected = spot * (2.0 * norm.cdf(0.1) - 1.0)
        assert bs_call(spot, strike, expiry, vol, rate) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("arg", range(6))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_nonfinite_input(self, arg, value):
        # spot, strike, expiry, vol, rate, dividend yield: none gives a NaN price
        args = [100.0, 100.0, 1.0, 0.2, 0.05, 0.01]
        args[arg] = value
        with pytest.raises(ValueError, match="must be finite"):
            bs_call(*args)

    def test_against_high_precision(self):
        val = bs_call(100.0, 100.0, 1.0, 0.2, 0.05)
        assert val == pytest.approx(mp_bs_call(100.0, 100.0, 1.0, 0.2, 0.05), rel=1e-13)

    def test_against_mpmath_in_the_wings(self):
        # 1e-12 of the sum of the terms S N(d1) and K e^{-rT} N(d2), which is
        # 1e-12 of the price wherever they do not cancel.  Deep out of the
        # money at short tau and low vol the difference of the terms loses up
        # to |d1| / (vol sqrt(tau)) in relative precision whatever the normal
        # CDF, which no double-precision evaluation of the formula recovers.
        spot, rate = 100.0, 0.03
        checked = 0
        for moneyness, expiry, vol in WINGS:
            strike = spot * moneyness
            ref = mp_bs_call(spot, strike, expiry, vol, rate)
            if ref <= 1e-250:
                continue
            sq = vol * math.sqrt(expiry)
            d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * expiry) / sq
            discount = math.exp(-rate * expiry)
            scale = spot * norm.cdf(d1) + strike * discount * norm.cdf(d1 - sq)
            got = bs_call(spot, strike, expiry, vol, rate)
            assert abs(got - ref) <= 1e-12 * scale, (moneyness, expiry, vol, got, ref)
            checked += 1
        assert checked > len(WINGS) // 2

    def test_monotone_in_vol(self):
        prices = [bs_call(100, 110, 0.5, v, 0.02) for v in (0.1, 0.2, 0.4, 0.8)]
        assert all(a < b for a, b in zip(prices, prices[1:]))

    def test_dividend_yield_forward_adjustment(self):
        with_div = bs_call(100.0, 100.0, 2.0, 0.3, 0.05, dividend_yield=0.03)
        equivalent = bs_call(100.0 * math.exp(-0.03 * 2.0), 100.0, 2.0, 0.3, 0.05)
        assert with_div == pytest.approx(equivalent, rel=1e-14)


class TestBsVega:
    def test_against_mpmath_in_the_wings(self):
        spot, rate = 100.0, 0.03
        checked = 0
        for moneyness, expiry, vol in WINGS:
            strike = spot * moneyness
            ref = mp_bs_vega(spot, strike, expiry, vol, rate)
            if ref <= 1e-250:
                continue
            got = bs_vega(spot, strike, expiry, vol, rate)
            assert got == pytest.approx(ref, rel=1e-12), (moneyness, expiry, vol)
            checked += 1
        assert checked > len(WINGS) // 2


class TestImpliedVol:
    def test_round_trip(self):
        price = bs_call(100.0, 105.0, 0.7, 0.2, 0.03)
        vol = implied_vol(price, 100.0, 105.0, 0.7, 0.03)
        assert vol == pytest.approx(0.2, abs=1e-10)

    def test_upper_band_violation(self):
        with pytest.raises(OutOfBand) as excinfo:
            implied_vol(100.0, 100.0, 100.0, 1.0, 0.05)
        assert excinfo.value.bound == "upper"

    def test_lower_band_violation(self):
        intrinsic = 100.0 - 80.0 * math.exp(-0.05)
        with pytest.raises(OutOfBand) as excinfo:
            implied_vol(intrinsic, 100.0, 80.0, 1.0, 0.05)
        assert excinfo.value.bound == "lower"

    @pytest.mark.parametrize("price", [math.nan, math.inf, -math.inf])
    def test_nonfinite_price_raises_before_iterating(self, monkeypatch, price):
        def not_reached(*args):
            raise AssertionError("iterated on a non-finite price")

        monkeypatch.setattr(vol_surface, "bs_call", not_reached)
        with pytest.raises(NonConvergence, match=f"price {price!r} is not finite"):
            implied_vol(price, 100.0, 100.0, 1.0, 0.05)

    def test_benchmark_heston_price_regression(self, table1_heston):
        # pinned after the first verified build: self-oracle round trip of the
        # baseline benchmark price
        bd = price_strikes([100.0], 1.0, 100.0, table1_heston)[0]
        vol = implied_vol(bd.total, 100.0, 100.0, 1.0, 0.05)
        assert vol == pytest.approx(0.4811216010424218, abs=1e-9)
        assert bs_call(100.0, 100.0, 1.0, vol, 0.05) == pytest.approx(
            bd.total, abs=1e-10
        )

    def test_wings_against_mpmath(self):
        # each point inverts to the true vol or raises; a tiny price must not
        # read as the bracket's lower end, as it did under an absolute 1e-10
        spot, rate = 100.0, 0.05
        inverted = 0
        for moneyness, expiry, vol in WINGS:
            strike = spot * moneyness
            price = mp_bs_call(spot, strike, expiry, vol, rate)
            try:
                got = implied_vol(price, spot, strike, expiry, rate)
            except (OutOfBand, NonConvergence):
                continue
            assert got not in VOL_BRACKET, (moneyness, expiry, vol, price)
            # bs_call rounds to about eps times the size of its two terms,
            # S N(d1) + K e^(-rT) N(d2) = price + 2 K e^(-rT) N(d2); that
            # resolves the vol to about eps * terms / vega
            d2 = (math.log(spot / strike) + (rate - 0.5 * vol * vol) * expiry) / (
                vol * math.sqrt(expiry))
            terms = price + strike * math.exp(-rate * expiry) * math.erfc(-d2 / math.sqrt(2))
            vega = mp_bs_vega(spot, strike, expiry, vol, rate)
            resolved = 4.0 * EPS * terms / vega if vega > 0 else math.inf
            assert abs(got - vol) <= max(1e-6 * vol, resolved), (
                moneyness, expiry, vol, price, got)
            inverted += 1
        assert inverted > len(WINGS) // 2

    @pytest.mark.parametrize("price", [0.001, 99.5], ids=["below", "above"])
    def test_vol_outside_bracket_raises(self, price):
        # inside the band (0, 100) at K = S, T = 1, r = 0, but below the price
        # at vol 1e-4 (about 0.004) or above the price at vol 5 (about 98.8)
        with pytest.raises(NonConvergence,
                           match=r"implies a vol outside \[0\.0001, 5\.0\]"):
            implied_vol(price, 100.0, 100.0, 1.0, 0.0)

    def test_unresolved_time_value_raises(self):
        # K = 38.7 at 3.2 days: the float price 61.27 is the same for every
        # true vol from 0.01 to 0.59, so no inverted vol would mean anything
        spot, rate = 100.0, 0.05
        for moneyness, expiry, vol in WINGS[72:78]:  # indices [1][1][0..5]
            strike = spot * moneyness
            price = mp_bs_call(spot, strike, expiry, vol, rate)
            with pytest.raises(NonConvergence):
                implied_vol(price, spot, strike, expiry, rate)

    @given(
        vol=st.floats(0.01, 3.0),
        moneyness=st.floats(0.5, 1.8),
        expiry=st.floats(0.05, 5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, vol, moneyness, expiry):
        spot, rate = 100.0, 0.02
        strike = spot * moneyness
        price = bs_call(spot, strike, expiry, vol, rate)
        lower = max(spot - strike * math.exp(-rate * expiry), 0.0)
        if price <= lower + 1e-12 or price >= spot - 1e-12:
            return  # numerically at the band edge; inversion contract excludes
        got = implied_vol(price, spot, strike, expiry, rate)
        assert bs_call(spot, strike, expiry, got, rate) == pytest.approx(
            price, abs=1e-10
        )


class TestSurfaceContainer:
    def test_rejects_duplicate_strikes(self):
        pts = (
            VolPoint(1.0, 100.0, 0.2, "market"),
            VolPoint(1.0, 100.0, 0.21, "market"),
        )
        with pytest.raises(ValueError, match="duplicate"):
            VolSurface(spot=100.0, points=pts, rates={1.0: 0.05}, dividend_yields={})

    @pytest.mark.parametrize("field, value", [
        ("rates", math.nan), ("rates", math.inf),
        ("dividend_yields", math.inf), ("dividend_yields", -math.inf),
    ])
    def test_rejects_a_nonfinite_level_by_name(self, field, value):
        levels = {"rates": {1.0: 0.05}, "dividend_yields": {1.0: 0.0}}
        levels[field] = {1.0: value}
        pts = (VolPoint(1.0, 100.0, 0.2, "market"),)
        with pytest.raises(ValueError) as exc:
            VolSurface(spot=100.0, points=pts, **levels)
        assert str(exc.value) == f"{field}[1.0] must be finite, got {value!r}"

    def test_orders_points(self):
        pts = (
            VolPoint(1.0, 110.0, 0.2, "market"),
            VolPoint(0.5, 100.0, 0.25, "market"),
            VolPoint(1.0, 90.0, 0.22, "market"),
        )
        surf = VolSurface(
            spot=100.0,
            points=pts,
            rates={0.5: 0.05, 1.0: 0.05},
            dividend_yields={},
        )
        assert surf.expiries() == [0.5, 1.0]
        assert surf.strikes(1.0) == [90.0, 110.0]

    def test_csv_round_trip_exact(self):
        pts = tuple(
            VolPoint(t, k, v, "heston_model")
            for t, k, v in (
                (0.25, 90.0, 0.2391847362), (0.25, 100.0, 0.2210398471),
                (1.0, 100.0, 0.2501938475),
            )
        )
        surf = VolSurface(
            spot=100.0, points=pts, rates={0.25: 0.05, 1.0: 0.05},
            dividend_yields={},
        )
        rows = list(csv.DictReader(io.StringIO(surf.to_csv())))
        back = tuple(
            VolPoint(float(row["expiry_years"]), float(row["strike"]),
                     float(row["implied_vol"]), row["source"])
            for row in rows
        )
        assert back == surf.points


class TestModelSurface:
    def test_zero_coefficients_reproduce_baseline_surface(self, table1_heston):
        expiries = [0.5, 1.0]
        strikes = [90.0, 100.0, 110.0]
        a = model_surface(expiries, strikes, table1_heston, GroupParams.zero())
        b = model_surface(expiries, strikes, table1_heston, None)
        assert a.points == b.points
        assert all(pt.source == "heston_model" for pt in a.points)

    def test_four_coefficients_move_surface_in_distinct_directions(
        self, figure1_heston
    ):
        spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8)
        strikes = list(np.linspace(80.0, 120.0, 9))
        base = model_surface([1.0], strikes, figure1_heston, None, spec)
        base_vols = np.array([pt.implied_vol for pt in base.points])

        deltas = []
        size = 0.005
        for i in range(4):
            coeffs = [0.0] * 4
            coeffs[i] = size
            surf = model_surface(
                [1.0], strikes, figure1_heston, GroupParams(*coeffs), spec
            )
            assert not surf.errors
            vols = np.array([pt.implied_vol for pt in surf.points])
            assert np.all(np.abs(vols - base_vols) > 0.0)
            deltas.append(vols - base_vols)

        tol = 10.0 * 1e-8
        for i in range(4):
            for j in range(i + 1, 4):
                gap = np.max(np.abs(deltas[i] - deltas[j]))
                assert gap > tol, (i, j, gap)

    def test_perturbation_linearity_to_first_order(self, figure1_heston):
        strikes = [90.0, 100.0, 110.0]
        base = model_surface([1.0], strikes, figure1_heston, None)
        base_vols = np.array([pt.implied_vol for pt in base.points])

        def delta(scale):
            surf = model_surface(
                [1.0], strikes, figure1_heston, GroupParams(0, 0, scale, 0)
            )
            return np.array([pt.implied_vol for pt in surf.points]) - base_vols

        d1 = delta(0.005)
        d2 = delta(0.01)
        mismatch = np.max(np.abs(d2 - 2.0 * d1) / np.abs(d2))
        assert mismatch < 0.10

    def test_no_arbitrage_shape_of_produced_surface(self, table1_heston):
        strikes = list(np.linspace(70.0, 140.0, 15))
        surf = model_surface([1.0], strikes, table1_heston, None)
        prices = np.array(
            [
                bs_call(100.0, pt.strike, 1.0, pt.implied_vol, table1_heston.r)
                for pt in surf.points
            ]
        )
        assert np.all(np.diff(prices) < 0)
        assert np.all(np.diff(prices, 2) > -1e-8)

    def test_extreme_coefficients_collect_errors(self, figure1_heston):
        surf = model_surface(
            [0.1], [100.0], figure1_heston, GroupParams(0.0, 0.0, 0.45, 0.0)
        )
        # the huge skew coefficient drives the short-dated price out of band
        assert surf.errors or surf.points
        if surf.errors:
            assert surf.errors[0][0] == 0.1


def test_import_does_not_load_scipy_stats():
    # scipy.stats alone doubled the package's import time; the normal CDF and
    # density come from the standard library
    src = str(Path(msheston.__file__).resolve().parent.parent)
    code = "import sys, msheston; assert 'scipy.stats' not in sys.modules"
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_import_loads_no_scipy():
    # SciPy and concurrent.futures are imported where the fit and the
    # simulation call them: the package, the command line and every exported
    # name load none of them
    src = str(Path(msheston.__file__).resolve().parent.parent)
    code = "\n".join([
        "import sys, msheston, msheston.cli",
        "for name in msheston.__all__:",
        "    getattr(msheston, name)",
        "loaded = [m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')]",
        "assert not loaded, loaded[:5]",
        "assert msheston.calibrate_heston is msheston.calibration.calibrate_heston",
        "assert msheston.SimConfig is msheston.mc.SimConfig",
        "assert msheston.cli.calibrate_multiscale is msheston.calibrate_multiscale",
        "assert msheston.cli.mc_price_call is msheston.mc_price_call",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_scipy_loads_where_it_is_called():
    # a simulation loads scipy.special for its normal CDF and not the
    # optimizer; a fit loads scipy.optimize
    src = str(Path(msheston.__file__).resolve().parent.parent)
    code = "\n".join([
        "import sys",
        "import msheston as ms",
        "p = ms.HestonParams(kappa=1.0, theta=0.24, sigma=0.39, rho=-0.35, z=0.24, r=0.05)",
        "fm = ms.FullModelParams(heston=p, epsilon=1e-2, m=0.06, nu=1.0,",
        "                        rho_xy=-0.35, rho_yz=0.35, y0=0.06)",
        "ms.mc_price_call(fm, 100.0, 0.5, ms.SimConfig(n_paths=8, dt=0.1, seed=1))",
        "assert 'scipy.special' in sys.modules",
        "assert 'scipy.optimize' not in sys.modules",
        "model = ms.model_surface([0.5, 1.0], [90.0, 100.0, 110.0], p, ms.GroupParams.zero())",
        "quotes = tuple(ms.VolPoint(q.expiry, q.strike, q.implied_vol, 'market')",
        "               for q in model.points)",
        "market = ms.VolSurface(spot=100.0, points=quotes, rates=model.rates,",
        "                       dividend_yields=model.dividend_yields)",
        "ms.calibrate_heston(ms.CalibProblem(market=market), p)",
        "assert 'scipy.optimize' in sys.modules",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
