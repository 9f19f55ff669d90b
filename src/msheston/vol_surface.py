"""Black-Scholes pricing, implied-volatility inversion, and surface assembly.

Implied volatility is the common coordinate in which market data, the
baseline model, and the corrected model are compared, so the inversion here
favors unconditional convergence over speed: a bracketing bisection on
[1e-4, 5.0] refined by safeguarded Newton steps, stopping when the price is
reproduced to 1e-10 and to 1e-8 of its time value.

Dividends enter as a continuous yield through the forward adjustment
``spot * exp(-q*T)``, applied identically on the Black-Scholes side and on
the model-pricing side so implied vols stay comparable.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, field

from .errors import NonConvergence, OutOfBand, require_finite
from .kernel import HestonParams
from .pricer import GroupParams, price_strips
from .quadrature import QuadratureSpec

VOL_BRACKET = (1e-4, 5.0)
PRICE_TOL = 1e-10

_SOURCES = ("market", "heston_model", "multiscale_model")

_EPS = sys.float_info.epsilon
_INF = math.inf
_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _norm_cdf(x: float) -> float:
    """Standard normal CDF; erfc keeps full relative precision in the left tail."""
    return 0.5 * math.erfc(-x / _SQRT_2)


@dataclass(frozen=True)
class VolPoint:
    expiry: float
    strike: float
    implied_vol: float
    source: str

    def __post_init__(self):
        require_finite(positive=True, expiry=self.expiry, strike=self.strike,
                       implied_vol=self.implied_vol)
        if self.source not in _SOURCES:
            raise ValueError(f"unknown source {self.source!r}")


@dataclass(frozen=True)
class VolSurface:
    """Implied vols grouped by expiry, with the valuation metadata.

    ``rates`` and ``dividend_yields`` map expiry (years) to the per-expiry
    level, which must be finite; within each expiry strikes are strictly
    increasing.  A model surface lists in ``errors`` the points it could not
    invert and in ``soft_failures`` the (expiry, strike) points whose price
    missed its quadrature tolerance.
    """

    spot: float
    points: tuple
    rates: dict
    dividend_yields: dict
    errors: tuple = field(default_factory=tuple)
    soft_failures: tuple = field(default_factory=tuple)

    def __post_init__(self):
        require_finite(positive=True, spot=self.spot)
        for field_name in ("rates", "dividend_yields"):
            for expiry, value in getattr(self, field_name).items():
                require_finite(**{f"{field_name}[{expiry!r}]": value})
        ordered = tuple(sorted(self.points, key=lambda pt: (pt.expiry, pt.strike)))
        object.__setattr__(self, "points", ordered)
        seen = {}
        for pt in ordered:
            if pt.expiry not in self.rates:
                raise ValueError(f"no rate for expiry {pt.expiry}")
            key = (pt.expiry, pt.strike)
            if key in seen:
                raise ValueError(
                    f"duplicate strike {pt.strike} at expiry {pt.expiry}"
                )
            seen[key] = True

    @property
    def n_points(self) -> int:
        return len(self.points)

    def expiries(self) -> list:
        out = []
        for pt in self.points:
            if not out or out[-1] != pt.expiry:
                out.append(pt.expiry)
        return out

    def strikes(self, expiry: float) -> list:
        return [pt.strike for pt in self.points if pt.expiry == expiry]

    def rate(self, expiry: float) -> float:
        return self.rates[expiry]

    def dividend_yield(self, expiry: float) -> float:
        return self.dividend_yields.get(expiry, 0.0)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["expiry_years", "strike", "implied_vol", "source"])
        for pt in self.points:
            writer.writerow([repr(pt.expiry), repr(pt.strike), repr(pt.implied_vol), pt.source])
        return buf.getvalue()


def bs_call(
    spot: float,
    strike: float,
    expiry: float,
    vol: float,
    rate: float,
    dividend_yield: float = 0.0,
) -> float:
    """Black-Scholes call on a continuous-dividend forward; increasing in vol."""
    # comparisons, not a call of ``require_finite``: this runs in every
    # step of an implied-vol inversion, and NaN fails each of them
    if not (0 < spot < _INF and 0 < strike < _INF and 0 < expiry < _INF
            and 0 < vol < _INF and -_INF < rate < _INF
            and -_INF < dividend_yield < _INF):
        raise ValueError("spot, strike, expiry and vol must be finite and "
                         "positive, rate and dividend_yield finite")
    s_eff = spot * math.exp(-dividend_yield * expiry)
    sq = vol * math.sqrt(expiry)
    d1 = (math.log(s_eff / strike) + (rate + 0.5 * vol * vol) * expiry) / sq
    d2 = d1 - sq
    return float(
        s_eff * _norm_cdf(d1) - strike * math.exp(-rate * expiry) * _norm_cdf(d2)
    )


def bs_vega(spot, strike, expiry, vol, rate, dividend_yield=0.0) -> float:
    s_eff = spot * math.exp(-dividend_yield * expiry)
    sq = vol * math.sqrt(expiry)
    d1 = (math.log(s_eff / strike) + (rate + 0.5 * vol * vol) * expiry) / sq
    return float(s_eff * math.exp(-0.5 * d1 * d1) / _SQRT_2PI * math.sqrt(expiry))


def implied_vol(
    price: float,
    spot: float,
    strike: float,
    expiry: float,
    rate: float,
    dividend_yield: float = 0.0,
) -> float:
    """Invert Black-Scholes for a call price inside its no-arbitrage band.

    Bisection on the vol bracket with Newton refinement wherever vega is
    informative; converges unconditionally and reproduces ``price`` through
    ``bs_call`` to 1e-10 absolute and to 1e-8 of its time value
    ``price - lower``, whichever is tighter.

    Raises
    ------
    OutOfBand
        If the price is at or outside the band; ``bound`` says which side.
    NonConvergence
        If the price is not finite, or if no bracket vol reproduces it to
        tolerance: prices implying vols outside [1e-4, 5.0], or time values
        too small for the float price to resolve.
    """
    if not math.isfinite(price):
        raise NonConvergence(f"price {price!r} is not finite; no vol is resolved")
    s_eff = spot * math.exp(-dividend_yield * expiry)
    discounted_strike = strike * math.exp(-rate * expiry)
    lower = max(s_eff - discounted_strike, 0.0)
    upper = s_eff
    if price <= lower:
        raise OutOfBand(
            f"price {price} at or below intrinsic bound {lower}", bound="lower"
        )
    if price >= upper:
        raise OutOfBand(
            f"price {price} at or above spot bound {upper}", bound="upper"
        )
    # bs_call rounds to about eps times its two terms S N(d1) and
    # K e^(-rT) N(d2), whose sum is at most price + 2 K e^(-rT); a time value
    # below that rounding is reproduced bit for bit by a whole range of vols
    if lower > 0 and price - lower <= 4.0 * _EPS * (price + 2.0 * discounted_strike):
        raise NonConvergence(
            f"time value {price - lower} of price {price} is below the "
            "rounding of its Black-Scholes terms; no vol is resolved"
        )

    lo, hi = VOL_BRACKET
    # relative to the time value, so a tiny price is not matched by any vol
    # whose price is within an absolute tolerance of it
    tol = min(PRICE_TOL, 1e-8 * (price - lower))

    def f(v):
        return bs_call(spot, strike, expiry, v, rate, dividend_yield) - price

    f_lo, f_hi = f(lo), f(hi)
    if f_lo > 0 or f_hi < 0:
        raise NonConvergence(
            "price lies within the no-arbitrage band but implies a vol "
            f"outside [{lo}, {hi}]"
        )

    mid = 0.5 * (lo + hi)
    for _ in range(200):
        f_mid = f(mid)
        if abs(f_mid) <= tol:
            return mid
        if f_mid > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-15 * max(1.0, hi):
            break
        vega = bs_vega(spot, strike, expiry, mid, rate, dividend_yield)
        newton = mid - f_mid / vega if vega > 1e-14 else None
        mid = newton if newton is not None and lo < newton < hi else 0.5 * (lo + hi)
    f_mid = f(mid)
    if abs(f_mid) <= tol:
        return mid
    raise NonConvergence("implied vol iteration stalled")


def model_surface(
    expiries,
    strikes,
    p: HestonParams,
    v: GroupParams | None,
    spec: QuadratureSpec | None = None,
    spot: float = 100.0,
    dividend_yield: float = 0.0,
) -> VolSurface:
    """Implied-vol surface of the (corrected) model on an expiry/strike grid.

    Every expiry is priced at the same ``strikes``, all expiries in one
    integration.  With ``v`` zero or None the surface is the pure
    baseline-model surface.  Points whose model price cannot be inverted
    (possible for extreme correction sizes) are collected into
    ``surface.errors`` instead of failing the grid, and points priced beyond
    the quadrature tolerance (tagged ``nonconvergence``) into
    ``surface.soft_failures``.  A ValueError names a non-finite
    ``dividend_yield``.
    """
    require_finite(dividend_yield=dividend_yield)
    source = (
        "heston_model" if v is None or v.is_zero else "multiscale_model"
    )
    points, errors, soft_failures = [], [], []
    strips = [
        (strikes, expiry, spot * math.exp(-dividend_yield * expiry), p, v)
        for expiry in expiries
    ]
    for expiry, breakdowns in zip(expiries, price_strips(strips, spec)):
        for strike, bd in zip(strikes, breakdowns):
            if "nonconvergence" in bd.warnings:
                soft_failures.append((expiry, strike))
            try:
                vol = implied_vol(
                    bd.total, spot, strike, expiry, p.r,
                    dividend_yield=dividend_yield,
                )
            except (OutOfBand, NonConvergence) as exc:
                errors.append((expiry, strike, type(exc).__name__, str(exc)))
                continue
            points.append(VolPoint(expiry, strike, vol, source))
    return VolSurface(
        spot=spot,
        points=tuple(points),
        rates={expiry: p.r for expiry in expiries},
        dividend_yields={expiry: dividend_yield for expiry in expiries},
        errors=tuple(errors),
        soft_failures=tuple(soft_failures),
    )
