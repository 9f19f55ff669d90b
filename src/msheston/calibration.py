"""Constrained nonlinear least squares against market implied vols.

Two nested fits share one machinery: the baseline fit over
``(kappa, rho, sigma, theta, z)`` and the corrected-model fit that appends
the four correction coefficients, seeded from the baseline optimum with the
coefficients at zero (the corrected model embeds the baseline at v = 0, so
its fitted objective can only improve).  A fit minimizes the implied-vol
quote residuals and nothing else: the Feller condition is reported
(``CalibResult.feller_satisfied``), never enforced.

A fit runs in natural units, (kappa, rho, sigma, theta, z, v1e..v4e),
inside the box of ``DEFAULT_BOUNDS`` overridden by ``CalibProblem.bounds``:
SciPy's trust-region reflective method keeps every iterate strictly inside
it.

Each stage is one ``least_squares`` run from its start point.  Each
residual evaluation prices every expiry in one ``price_slopes`` call and
inverts the quotes once; the Jacobian at that x is read off the same pass,
so a run costs nfev integrations.  Every column of both stages is exact,
with no difference step: the slope of each total price in each parameter,
riding on the mesh that the prices choose, over vega at the model vol.  The
reported objective and per-expiry residuals are read off the run's final
residual vector.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergence, OutOfBand
from .kernel import HestonParams
from .pricer import GROUP_NAMES, HESTON_NAMES, GroupParams, price_slopes, price_strips
from .quadrature import QuadratureSpec
from .vol_surface import VolSurface, bs_vega, implied_vol

DEFAULT_BOUNDS = {
    "kappa": (1e-3, 50.0),
    "rho": (-0.999, 0.999),
    "sigma": (1e-3, 5.0),
    "theta": (1e-4, 4.0),
    "z": (1e-4, 4.0),
    "v1e": (-0.5, 0.5),
    "v2e": (-0.5, 0.5),
    "v3e": (-0.5, 0.5),
    "v4e": (-0.5, 0.5),
}

# Residual assigned to a quote whose model price cannot be inverted; large in
# vol units yet finite, so the search is steered away without blowing up.
OUT_OF_BAND_RESIDUAL = 1.0


# Quadrature of a fit unless the problem sets its own: residuals are compared
# in implied vol, so the price tolerances can be looser than the defaults.
CALIBRATION_QUADRATURE = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-7)

# The residual evaluations one least-squares run may spend, per stage.
HESTON_MAX_NFEV = 400
MULTISCALE_MAX_NFEV = 600


@dataclass
class CalibProblem:
    """Market data plus the knobs of the least-squares formulation.

    Every quote weighs the same and the quote residuals are the whole
    objective: the Feller condition is reported, never enforced.  ``bounds``
    maps parameter names to (lo, hi) boxes that override ``DEFAULT_BOUNDS``,
    each with lo < hi inside the parameter's open domain: (-1, 1) for
    ``rho``, (0, inf) for the other Heston parameters, and the reals for the
    correction coefficients, whose boxes must also contain 0 so that the
    corrected-model fit starts at the baseline optimum.

    Raises
    ------
    ValueError
        If a bound names no parameter or is not such a pair, before any
        pricing.
    """

    market: VolSurface
    bounds: dict = field(default_factory=dict)
    quadrature: QuadratureSpec = CALIBRATION_QUADRATURE

    def __post_init__(self):
        for name, pair in self.bounds.items():
            if name not in DEFAULT_BOUNDS:
                raise ValueError(f"unknown bound bounds.{name}; known: "
                                 f"{', '.join(DEFAULT_BOUNDS)}")
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

    def require_enough_quotes(self, n_params: int):
        if self.market.n_points < n_params:
            raise ValueError(
                f"{self.market.n_points} quotes cannot identify "
                f"{n_params} free parameters"
            )


@dataclass(frozen=True)
class CalibResult:
    """A fitted parameter set with its objective and per-expiry diagnostics.

    ``objective`` is the sum of squared implied-vol quote residuals, exactly
    what ``least_squares`` minimized, and ``per_expiry_rss`` their mean
    square per expiry, both from the run's final residual vector.
    ``iterations`` is ``least_squares``' nfev: residual evaluations on
    accepted or rejected trust-region steps, each one batched integration
    that also carries the exact price slopes.  ``jacobians`` is its njev:
    each Jacobian is read off the residual evaluation at its x, which
    ``least_squares`` has just made, so it neither prices nor inverts.  A
    run costs nfev integrations.
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
        vals += [getattr(v, n) for n in GROUP_NAMES]
    return np.array(vals, dtype=float)


def _unpack(x: np.ndarray, r: float):
    """(p, v) of a 5- or 9-entry parameter vector; v is None for 5."""
    p = HestonParams(**{n: float(val) for n, val in zip(HESTON_NAMES, x)}, r=r)
    return p, (GroupParams(*(float(val) for val in x[5:])) if len(x) > 5 else None)


def _box(bounds: dict, multiscale: bool):
    """(lo, hi) arrays: ``bounds`` over ``DEFAULT_BOUNDS``, in ``_pack`` order."""
    names = HESTON_NAMES + (GROUP_NAMES if multiscale else ())
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


def _vol_residuals(prices, market: VolSurface):
    """Residuals sigma_mkt - sigma_model of a price row, and d sigma_model / dP;
    a price with no implied vol gets ``OUT_OF_BAND_RESIDUAL`` and slope 0."""
    residuals = np.full(len(prices), OUT_OF_BAND_RESIDUAL)
    slopes = np.zeros(len(prices))
    for i, (pt, price) in enumerate(zip(market.points, prices)):
        rate, q = market.rate(pt.expiry), market.dividend_yield(pt.expiry)
        try:
            vol = implied_vol(price, market.spot, pt.strike, pt.expiry, rate, q)
        except (OutOfBand, NonConvergence):
            continue
        residuals[i] = pt.implied_vol - vol
        slopes[i] = 1.0 / bs_vega(market.spot, pt.strike, pt.expiry, vol, rate, q)
    return residuals, slopes


def objective_heston(p: HestonParams, prob: CalibProblem) -> np.ndarray:
    """Per-quote residual vector of the baseline model at ``p``.

    Total by construction: uninvertible model points contribute the finite
    out-of-band penalty residual.
    """
    return objective_multiscale((p, None), prob)


def objective_multiscale(phi, prob: CalibProblem) -> np.ndarray:
    """Per-quote residual vector of the corrected model at the (p, v) pair ``phi``."""
    strips = _strips(*phi, prob.market)
    prices = [bd.total for strip in price_strips(strips, prob.quadrature) for bd in strip]
    return _vol_residuals(prices, prob.market)[0]


def _per_expiry_rss(residuals, market: VolSurface) -> tuple:
    """Mean squared residual per expiry (the marginal report)."""
    rows = []
    idx = 0
    for expiry in market.expiries():
        n = len(market.strikes(expiry))
        block = residuals[idx : idx + n]
        rows.append((expiry, float(np.mean(block**2))))
        idx += n
    return tuple(rows)


def _linearize(x, prob: CalibProblem):
    """Residuals at ``x``, their Jacobian, and whether any strip came back
    tagged ``nonconvergence``, from one integration.

    Every column is exact and rides on the mesh that the prices at ``x``
    choose: ``price_slopes`` gives the slope of each total price in every
    entry of ``x``, Heston parameters and correction coefficients alike.
    Price slopes become vol slopes through 1/vega at the model vol of ``x``,
    so only the quotes of ``x`` are inverted; a quote with no implied vol
    keeps its constant residual and gets a zero row.
    """
    market = prob.market
    p, v = _unpack(x, market.rate(market.expiries()[0]))
    wrt = HESTON_NAMES if v is None else HESTON_NAMES + GROUP_NAMES
    breakdowns, slopes = price_slopes(_strips(p, v, market), wrt, prob.quadrature)
    priced = [bd for strip in breakdowns for bd in strip]
    residuals, dvol = _vol_residuals([bd.total for bd in priced], market)
    tagged = any("nonconvergence" in bd.warnings for bd in priced)
    return residuals, -(np.hstack(slopes) * dvol).T, tagged


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``; SciPy loads when a fit first runs."""
    from scipy.optimize import least_squares
    return least_squares(*args, **kwargs)


def _fit(prob, x0, lo, hi) -> CalibResult:
    """One least-squares run from ``x0``, over 5 or 9 parameters.

    SciPy's TRF keeps every iterate strictly inside the box [lo, hi] and
    accepts a step only when the cost falls, so the run never ends above its
    start.  Its trust region is scaled by the Jacobian's column norms, since
    the parameters' natural units differ by orders of magnitude.  Each
    residual evaluation is one ``_linearize`` pass, which inverts the quotes
    once and keeps its Jacobian: ``least_squares`` asks for the Jacobian only
    at the x it has just evaluated, so a run costs nfev integrations.
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
    prob.require_enough_quotes(5)
    x0 = _pack(start, None)
    lo, hi = _box(prob.bounds, multiscale=False)
    for name, x, b_lo, b_hi in zip(HESTON_NAMES, x0, lo, hi):
        if not b_lo <= x <= b_hi:
            raise ValueError(f"start {name} = {x} violates "
                             f"bounds.{name} = [{b_lo}, {b_hi}]")
    return _fit(prob, x0, lo, hi)


def calibrate_multiscale(prob: CalibProblem, heston_result: CalibResult) -> CalibResult:
    """Two-stage corrected-model fit seeded from the baseline stage.

    The start point is the baseline stage's final parameters, converged or
    not, with all four correction coefficients at zero (inside their boxes,
    which ``CalibProblem`` requires to contain 0), so the starting objective
    equals the baseline objective and the fit can only improve on it (up to
    solver tolerance).
    """
    prob.require_enough_quotes(9)
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
