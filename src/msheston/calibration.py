"""Constrained nonlinear least squares against market implied vols.

Two nested fits share one machinery: the baseline fit over
``(kappa, rho, sigma, theta, z)`` and the corrected-model fit over
``FIT_NAMES``, which adds v2e, v3e and v4e, seeded from the baseline optimum
with them at zero (the corrected model embeds the baseline at v = 0, so its
fitted objective can only improve).  It holds v1e at 0: at v = 0 the
rho-slope of every price is exactly sigma * (dP/dv1e - dP/dv4e), so a chain
identifies rho + (v1e - v4e)/(2 sigma) and v1e + v4e, not the three apart,
and rho and v4e carry v1e's direction.  A fit minimizes the quotes' price
gaps over vega at the market vol, their implied-vol gaps to first order, and
nothing else: the Feller condition is reported
(``CalibResult.feller_satisfied``), never enforced.

A fit runs in natural units inside the box of ``DEFAULT_BOUNDS`` overridden
by ``CalibProblem.bounds``: SciPy's trust-region reflective method keeps
every iterate strictly inside it.

Each stage is one ``least_squares`` run from its start point.  Each
residual evaluation prices every expiry in one ``price_slopes`` call and
inverts nothing; the Jacobian at that x is read off the same pass, so a run
costs nfev integrations.  Every column of both stages is exact, with no
difference step: the slope of each total price in each parameter, riding on
the mesh that the prices choose, times the quote's constant weight.  The
reported objective and per-expiry residuals are read off the run's final
residual vector, finite wherever the model prices are, in band or not.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .kernel import HestonParams
from .pricer import GROUP_NAMES, HESTON_NAMES, GroupParams, price_slopes, price_strips
from .quadrature import QuadratureSpec
from .vol_surface import VolSurface, bs_call, bs_vega

# The corrected fit's parameters in ``_pack`` order; the baseline fits the first 5
FIT_NAMES = HESTON_NAMES + GROUP_NAMES[1:]

DEFAULT_BOUNDS = {
    "kappa": (1e-3, 50.0),
    "rho": (-0.999, 0.999),
    "sigma": (1e-3, 5.0),
    "theta": (1e-4, 4.0),
    "z": (1e-4, 4.0),
    "v2e": (-0.5, 0.5),
    "v3e": (-0.5, 0.5),
    "v4e": (-0.5, 0.5),
}

# Quadrature of a fit unless the problem sets its own: residuals are price
# gaps over vega, in vol units to first order, so the price tolerances can be
# looser than the defaults.
CALIBRATION_QUADRATURE = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-7)

# The residual evaluations one least-squares run may spend, per stage.
HESTON_MAX_NFEV = 400
MULTISCALE_MAX_NFEV = 600


@dataclass
class CalibProblem:
    """Market data plus the knobs of the least-squares formulation.

    Each price gap weighs 1/vega at its quote's market vol (``weights``,
    next to the quotes' Black-Scholes ``market_prices``, both computed here
    once) and the quote residuals are the whole objective: the Feller
    condition is reported, never enforced.  ``bounds`` maps parameter names
    to (lo, hi) boxes that override ``DEFAULT_BOUNDS``, each with lo < hi
    inside the parameter's open domain: (-1, 1) for ``rho``, (0, inf) for
    the other Heston parameters, and the reals for v2e, v3e and v4e (v1e has
    no box), whose boxes must also contain 0 so that the corrected-model fit
    starts at the baseline optimum.

    Raises
    ------
    ValueError
        If a bound names no fitted parameter or is not such a pair, or if a
        quote's 1/vega is not finite, before any pricing.
    """

    market: VolSurface
    bounds: dict = field(default_factory=dict)
    quadrature: QuadratureSpec = CALIBRATION_QUADRATURE
    market_prices: np.ndarray = field(init=False, compare=False)
    weights: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        for name, pair in self.bounds.items():
            if name not in FIT_NAMES:
                raise ValueError(f"unknown bound bounds.{name}; known: "
                                 f"{', '.join(FIT_NAMES)}")
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(
                    isinstance(v, numbers.Real) and not isinstance(v, bool)
                    for v in pair)):
                raise ValueError(f"bounds.{name} = {pair!r} is not a (lo, hi) "
                                 "pair of numbers")
            lo, hi = pair
            a, b = (-1.0, 1.0) if name == "rho" else (
                (-math.inf, math.inf) if name in GROUP_NAMES else (0.0, math.inf))
            if not a < lo < hi < b:
                raise ValueError(f"bounds.{name} = [{lo}, {hi}] must satisfy "
                                 f"lo < hi inside ({a:g}, {b:g})")
            if name in GROUP_NAMES and not lo <= 0.0 <= hi:
                raise ValueError(f"bounds.{name} = [{lo}, {hi}] must contain 0, "
                                 "where the corrected model is the baseline")
        market, prices, weights = self.market, [], []
        for pt in market.points:
            args = (market.spot, pt.strike, pt.expiry, pt.implied_vol,
                    market.rate(pt.expiry), market.dividend_yield(pt.expiry))
            vega = bs_vega(*args)
            if not (vega > 0.0 and math.isfinite(1.0 / vega)):
                raise ValueError(f"quote at expiry {pt.expiry}, strike {pt.strike}: "
                                 f"vega {vega} at vol {pt.implied_vol} cannot weigh it")
            prices.append(bs_call(*args))
            weights.append(1.0 / vega)
        self.market_prices, self.weights = np.array(prices), np.array(weights)

    def require_enough_quotes(self, n_params: int = len(FIT_NAMES)):
        if self.market.n_points < n_params:
            raise ValueError(
                f"{self.market.n_points} quotes cannot identify "
                f"{n_params} free parameters"
            )


@dataclass(frozen=True)
class CalibResult:
    """A fitted parameter set with its objective and per-expiry diagnostics.

    ``objective`` is the sum of squared quote residuals (price gaps over
    vega, vol units to first order), exactly what ``least_squares``
    minimized, and ``per_expiry_rss`` their mean square per expiry, both
    from the run's final residual vector.
    ``iterations`` is ``least_squares``' nfev: residual evaluations on
    accepted or rejected trust-region steps, each one batched integration
    that also carries the exact price slopes.  ``jacobians`` is its njev:
    each Jacobian is read off the residual evaluation at its x, which
    ``least_squares`` has just made, so it prices nothing.  A run costs nfev
    integrations and inverts no quote.
    ``soft_failures`` counts the run's integrations in which any strip came
    back tagged ``nonconvergence``: their prices are best estimates that
    missed the quadrature tolerance.  ``feller_satisfied`` reports whether
    the fitted point meets the Feller condition, which the fit does not
    enforce.
    """

    heston: HestonParams
    group: GroupParams | None
    objective: float
    per_expiry_rss: tuple
    iterations: int
    jacobians: int
    soft_failures: int
    converged: bool
    feller_satisfied: bool

    def rss_map(self) -> dict:
        return dict(self.per_expiry_rss)


# -- parameter vector ----------------------------------------------------------


def _pack(p: HestonParams, v: GroupParams | None) -> np.ndarray:
    vals = [getattr(p, n) for n in HESTON_NAMES]
    if v is not None:
        vals += [getattr(v, n) for n in FIT_NAMES[5:]]
    return np.array(vals, dtype=float)


def _unpack(x: np.ndarray, r: float):
    """(p, v) of a 5- or 8-entry ``FIT_NAMES`` vector; v is None for 5."""
    p = HestonParams(**{n: float(val) for n, val in zip(HESTON_NAMES, x)}, r=r)
    return p, (GroupParams(0.0, *map(float, x[5:])) if len(x) > 5 else None)


def _box(bounds: dict, multiscale: bool):
    """(lo, hi) arrays: ``bounds`` over ``DEFAULT_BOUNDS``, in ``_pack`` order."""
    names = FIT_NAMES if multiscale else HESTON_NAMES
    return np.array([bounds.get(n, DEFAULT_BOUNDS[n]) for n in names], dtype=float).T


# -- objective -----------------------------------------------------------------


def _strips(p: HestonParams, v, market: VolSurface) -> list:
    """One call strip per expiry of ``market`` at (p, v), in market order."""
    strips = []
    for expiry in market.expiries():
        rate = market.rate(expiry)
        spot_eff = market.spot * math.exp(-market.dividend_yield(expiry) * expiry)
        p_exp = p if p.r == rate else p.replace(r=rate)
        strips.append((market.strikes(expiry), expiry, spot_eff, p_exp, v))
    return strips


def objective_heston(p: HestonParams, prob: CalibProblem) -> np.ndarray:
    """Per-quote residual vector of the baseline model at ``p``."""
    return objective_multiscale((p, None), prob)


def objective_multiscale(phi, prob: CalibProblem) -> np.ndarray:
    """Per-quote residual vector (P_mkt - P_model) / vega(sigma_mkt) of the
    corrected model at the (p, v) pair ``phi``."""
    strips = _strips(*phi, prob.market)
    prices = [bd.total for strip in price_strips(strips, prob.quadrature) for bd in strip]
    return (prob.market_prices - prices) * prob.weights


def _per_expiry_rss(residuals, market: VolSurface) -> tuple:
    """Mean squared residual per expiry (the marginal report)."""
    expiries = market.expiries()
    edges = np.cumsum([0] + [len(market.strikes(expiry)) for expiry in expiries])
    return tuple((expiry, float(np.mean(residuals[lo:hi] ** 2)))
                 for expiry, lo, hi in zip(expiries, edges, edges[1:]))


def _linearize(x, prob: CalibProblem):
    """Residuals at ``x``, their Jacobian, and whether any strip came back
    tagged ``nonconvergence``, from one integration.

    Every column is exact and rides on the mesh that the prices at ``x``
    choose: ``price_slopes`` gives the slope of each total price in every
    entry of ``x``, Heston parameters and v2e..v4e alike.  A residual is its
    price gap times the quote's constant weight, so its row is minus that
    weight times the price slopes, and nothing is inverted.
    """
    market = prob.market
    p, v = _unpack(x, market.rate(market.expiries()[0]))
    wrt = HESTON_NAMES if v is None else FIT_NAMES
    breakdowns, slopes = price_slopes(_strips(p, v, market), wrt, prob.quadrature)
    priced = [bd for strip in breakdowns for bd in strip]
    residuals = (prob.market_prices - [bd.total for bd in priced]) * prob.weights
    tagged = any("nonconvergence" in bd.warnings for bd in priced)
    return residuals, -(np.hstack(slopes) * prob.weights).T, tagged


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``; SciPy loads when a fit first runs."""
    from scipy.optimize import least_squares
    return least_squares(*args, **kwargs)


def _fit(prob, x0, lo, hi) -> CalibResult:
    """One least-squares run from ``x0``, over 5 or 8 parameters.

    SciPy's TRF keeps every iterate strictly inside the box [lo, hi] and
    accepts a step only when the cost falls, so the run never ends above its
    start.  Its trust region is scaled by the Jacobian's column norms, since
    the parameters' natural units differ by orders of magnitude.  Each
    residual evaluation is one ``_linearize`` pass, which inverts nothing and
    keeps its Jacobian: ``least_squares`` asks for the Jacobian only at the
    x it has just evaluated, so a run costs nfev integrations.
    """
    rate = prob.market.rate(prob.market.expiries()[0])
    soft = []  # per integration: did any strip come back tagged?
    last = []  # the x of the last pass and its Jacobian

    def fun(x):
        residuals, jacobian, tagged = _linearize(x, prob)
        soft.append(tagged)
        last[:] = [x.copy(), jacobian]
        return residuals

    def jac(x):
        if not np.array_equal(x, last[0]):
            fun(x)
        return last[1]

    # SciPy's default 1e-8 tolerances: the residuals carry the quadrature's
    # error, so tighter ones only cycle through rejected trust-region steps
    # at the cost's noise floor
    fit = least_squares(
        fun,
        x0,
        jac=jac,
        bounds=(lo, hi),
        method="trf",
        x_scale="jac",
        max_nfev=MULTISCALE_MAX_NFEV if len(x0) > 5 else HESTON_MAX_NFEV,
    )
    p, v = _unpack(fit.x, rate)
    return CalibResult(
        heston=p,
        group=v,
        objective=float(fit.fun @ fit.fun),
        per_expiry_rss=_per_expiry_rss(fit.fun, prob.market),
        iterations=int(fit.nfev),
        jacobians=int(fit.njev),
        soft_failures=sum(soft),
        converged=bool(fit.status > 0),
        feller_satisfied=p.feller_satisfied,
    )


def calibrate_heston(prob: CalibProblem, start: HestonParams) -> CalibResult:
    """Fit the five baseline parameters by trust-region least squares.

    One run from ``start``, which must lie inside the bounds: a
    ``ValueError`` names the first parameter that does not.  The Jacobian is
    exact on the residual pass's mesh: each column integrates the kernel's
    derivative d(C + z*D) in its parameter, with no difference step.
    Deterministic for fixed inputs.
    """
    prob.require_enough_quotes(len(HESTON_NAMES))
    x0 = _pack(start, None)
    lo, hi = _box(prob.bounds, multiscale=False)
    for name, x, b_lo, b_hi in zip(HESTON_NAMES, x0, lo, hi):
        if not b_lo <= x <= b_hi:
            raise ValueError(f"start {name} = {x} violates "
                             f"bounds.{name} = [{b_lo}, {b_hi}]")
    return _fit(prob, x0, lo, hi)


def calibrate_multiscale(prob: CalibProblem, heston_result: CalibResult) -> CalibResult:
    """Two-stage corrected-model fit seeded from the baseline stage.

    Fits the eight ``FIT_NAMES``, so the result's v1e is 0.  The start point
    is the baseline stage's final parameters, converged or not, with v2e..v4e
    at zero (inside their boxes, which ``CalibProblem`` requires to contain
    0), so the starting objective equals the baseline objective and the fit
    can only improve on it (up to solver tolerance).
    """
    prob.require_enough_quotes()
    x0 = _pack(heston_result.heston, GroupParams.zero())
    lo, hi = _box(prob.bounds, multiscale=True)
    return _fit(prob, np.clip(x0, lo, hi), lo, hi)


# -- reporting -----------------------------------------------------------------


def residual_ratio_report(
    heston_result: CalibResult,
    multiscale_result: CalibResult,
    prob: CalibProblem,
) -> list:
    """Side-by-side per-expiry residuals of the two fits plus their ratio.

    The ratio is ``None`` where the multiscale mean square is 0.
    """
    h_map = heston_result.rss_map()
    m_map = multiscale_result.rss_map()
    rows = []
    for expiry in prob.market.expiries():
        h, mval = h_map[expiry], m_map[expiry]
        rows.append(
            {
                "days": round(expiry * 365.0),
                "expiry_years": expiry,
                "n_quotes": len(prob.market.strikes(expiry)),
                "heston_mean_sq": h,
                "multiscale_mean_sq": mval,
                "ratio": h / mval if mval > 0 else None,
            }
        )
    return rows


def format_residual_table(rows: list) -> str:
    """Fixed-width rendering of a residual-ratio report."""
    header = f"{'days':>6} {'n':>4} {'heston_msr':>14} {'multiscale_msr':>14} {'ratio':>8}"
    lines = [header]
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.2f}"
        lines.append(
            f"{row['days']:>6d} {row['n_quotes']:>4d} "
            f"{row['heston_mean_sq']:>14.6e} {row['multiscale_mean_sq']:>14.6e} "
            f"{ratio:>8}"
        )
    return "\n".join(lines)
