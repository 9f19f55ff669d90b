"""European option prices: Heston baseline plus the fast-factor correction.

Prices are assembled from three raw contour integrals,

    total = exp(-r*tau)/(2*pi) * (p00 + kappa*theta*p10 + z*p11),

with ``p00`` the baseline transform integral and ``p10``/``p11`` the
correction integrals (the correction coefficients carry their own amplitude
scaling).  The correction's time integrals have closed forms
(``kernel._f_hats``), so each of the three is a single integral over the
contour: the integrand of ``p00`` times 1, f0_hat(tau, k) or f1_hat(tau, k).
All three are evaluated on the half line ``k_r > 0`` (conjugate symmetry
folds the full line into twice the real part) after the substitution
``k_r = -log(u)/c`` mapping the half line onto the unit interval.  The scale
``c`` is the kernel's exponential decay rate ``c_infinity``, capped at
``4*sqrt(V)`` with ``V`` the expected integrated variance: below
``|k| ~ 1/sigma`` the kernel decays like the Black-Scholes Gaussian
``exp(-V*k**2/2)``, which at small sigma sets in long before the exponential
tail that ``c_infinity ~ 1/sigma`` describes.

A list of strips (strike lists, each with its own expiry, spot, parameters
and correction coefficients) is priced by one adaptive integration whose
integrand stacks the rows of every strike of every strip: the ``p00`` row,
plus the ``p10`` and ``p11`` rows where the strip's coefficients are
nonzero.  Each strip evaluates its kernel once per node on its own map scale
and hands it to its strikes, and all rows share the refinement, so a
calibration residual pass or Jacobian, or a whole surface, costs one
integration.

Quadrature trouble never aborts a price: each breakdown of a strip whose own
integrals miss their tolerance carries a ``nonconvergence:<components>``
warning and the best available estimate, with the error bound inflated
accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import ContourViolation, NonConvergence
from .kernel import HestonParams, _cd_of, _f_hats
from .quadrature import QuadratureSpec, integrate_adaptive

DEFAULT_CALL_CONTOUR = 1.5
DEFAULT_PUT_CONTOUR = -0.5


@dataclass(frozen=True)
class GroupParams:
    """The four correction coefficients, amplitude scaling included.

    No sign constraint; calibrated values may take either sign.  All four
    zero reproduces the pure Heston price exactly.
    """

    v1e: float
    v2e: float
    v3e: float
    v4e: float

    def __post_init__(self):
        if not all(
            np.isfinite(x) for x in (self.v1e, self.v2e, self.v3e, self.v4e)
        ):
            raise ValueError("correction coefficients must be finite")

    @classmethod
    def zero(cls) -> "GroupParams":
        return cls(0.0, 0.0, 0.0, 0.0)

    @property
    def is_zero(self) -> bool:
        return self.v1e == self.v2e == self.v3e == self.v4e == 0.0


@dataclass(frozen=True)
class OptionSpec:
    """One European option: strike, expiry (years from now) and spot."""

    strike: float
    expiry: float
    spot: float
    payoff_kind: str = "call"

    def __post_init__(self):
        if not self.strike > 0:
            raise ValueError("strike must be positive")
        if not self.spot > 0:
            raise ValueError("spot must be positive")
        if not self.expiry > 0:
            raise ValueError("expiry must be positive")
        if self.payoff_kind not in ("call", "put"):
            raise ValueError(f"unsupported payoff_kind {self.payoff_kind!r}")


@dataclass(frozen=True)
class PriceBreakdown:
    """A price with its raw integral components and a quadrature error bound."""

    p_heston: float
    p_correction: float
    p00: float
    p10: float
    p11: float
    quadrature_error: float
    warnings: tuple = field(default_factory=tuple)

    @property
    def total(self) -> float:
        return self.p_heston + self.p_correction


def c_infinity(tau: float, p: HestonParams) -> float:
    """Decay scale of the transform kernel along the contour."""
    return math.sqrt(1.0 - p.rho**2) / p.sigma * (p.z + p.kappa * p.theta * tau)


def _payoff_transform(k, log_k, q):
    """exp(-i k q) times the payoff transform K^(1+ik) / (ik - k^2).

    One exp keeps the strike power and the contour phase from over- or
    underflowing separately.  Calls need k_i > 1, puts k_i < 0.
    """
    return np.exp(1j * k * (log_k - q) + log_k) / (1j * k - k * k)


def _columns(objs, names):
    """The fields ``names`` of ``objs`` as (n, 1) column arrays."""
    return SimpleNamespace(**{
        name: np.array([getattr(o, name) for o in objs], dtype=float)[:, None]
        for name in names
    })


def _strip_integrals(strips, spec, k_i):
    """Raw integrals (p00, p10, p11) of a list of strips and their error bounds.

    ``strips`` holds validated ``(strikes, tau, spot, p, v, scale)`` tuples.
    One adaptive integration over u covers them all: each strip maps u to
    its own ``k = -log(u)/scale + i*k_i`` and evaluates its kernel once per
    node, with its parameters held as column arrays, and a row-to-strip index
    gathers that kernel into the rows ``static`` of its strikes.  Strips with
    a nonzero ``v`` add the rows ``static*f0_hat`` and ``static*f1_hat``; the
    correction integrals of the others are exactly 0.  Returns per strip the
    (3, n_strikes) raw values, their bounds and the strip's warnings.
    """
    sizes = [len(s[0]) for s in strips]
    row_strip = np.repeat(np.arange(len(strips)), sizes)
    log_k = np.log(np.concatenate([s[0] for s in strips]))[:, None]
    q = np.array([s[3].r * s[1] + math.log(s[2]) for s in strips])[row_strip, None]
    tau = np.array([s[1] for s in strips])[:, None]
    scale = np.array([s[5] for s in strips])[:, None]
    p = _columns([s[3] for s in strips], ("kappa", "theta", "sigma", "rho", "z"))
    corrected = np.array([s[4] is not None for s in strips])
    corr_strips = np.flatnonzero(corrected)
    corr_rows = np.flatnonzero(corrected[row_strip])
    # each corrected row's strip, counted among the corrected strips
    corr_of_row = np.searchsorted(corr_strips, row_strip[corr_rows])
    v = _columns([strips[i][4] for i in corr_strips], ("v1e", "v2e", "v3e", "v4e"))

    def integrand(us):
        k = -np.log(us) / scale + 1j * k_i
        c_val, big_d_val, parts = _cd_of(tau, k, p)
        kernel = np.exp(c_val + p.z * big_d_val) / (us * scale)
        static = _payoff_transform(k[row_strip], log_k, q) * kernel[row_strip]
        if not corr_strips.size:
            return static
        f0, f1 = _f_hats(
            tau[corr_strips], k[corr_strips], v, [x[corr_strips] for x in parts]
        )
        own = static[corr_rows]
        return np.concatenate((static, own * f0[corr_of_row], own * f1[corr_of_row]))

    try:
        value, err = integrate_adaptive(integrand, 0.0, 1.0, spec)
    except NonConvergence as exc:
        # quadrature trouble never aborts a price: keep the best estimate
        value, err = np.asarray(exc.estimate), np.asarray(exc.error_bound)
    # integrand row -> (integral, strike row): the p00 rows of every strike,
    # then the p10 and the p11 rows of the corrected strikes
    n_rows, n_corr = row_strip.size, corr_rows.size
    comp = np.repeat([0, 1, 2], [n_rows, n_corr, n_corr])
    col = np.concatenate((np.arange(n_rows), corr_rows, corr_rows))
    raw = np.zeros((3, n_rows))
    raw_err = np.zeros((3, n_rows))
    raw[comp, col] = 2.0 * value.real
    raw_err[comp, col] = 2.0 * err
    missed = err > np.maximum(spec.abs_tol, spec.rel_tol * np.abs(value))
    strip_missed = np.zeros(len(strips), dtype=bool)
    np.logical_or.at(strip_missed, row_strip[col], missed)
    edges = np.cumsum(sizes)[:-1]
    return [
        (values, bounds, (f"nonconvergence:{tag}",) if missed_i else ())
        for values, bounds, missed_i, tag in zip(
            np.split(raw, edges, axis=1),
            np.split(raw_err, edges, axis=1),
            strip_missed,
            np.where(corrected, "p00,p10,p11", "p00"),
        )
    ]


def _assemble(
    strikes, tau, spot, p, payoff, raw, raw_err, base_warnings
) -> list[PriceBreakdown]:
    prefactor = math.exp(-p.r * tau) / (2.0 * math.pi)
    p00_val, p10_val, p11_val = raw
    p00_err, p10_err, p11_err = raw_err
    results = []
    for i, strike in enumerate(strikes):
        p_heston = prefactor * float(p00_val[i])
        correction = prefactor * (
            p.kappa * p.theta * float(p10_val[i]) + p.z * float(p11_val[i])
        )
        err = prefactor * (
            float(p00_err[i])
            + p.kappa * p.theta * float(p10_err[i])
            + p.z * float(p11_err[i])
        )
        warnings = list(base_warnings)
        total = p_heston + correction
        if total < 0.0:
            warnings.append("negative_total")
        if payoff == "call":
            lower = max(spot - strike * math.exp(-p.r * tau), 0.0)
            upper = spot
        else:
            lower = max(strike * math.exp(-p.r * tau) - spot, 0.0)
            upper = strike * math.exp(-p.r * tau)
        slack = max(10.0 * err, 1e-9 * spot)
        if not (lower - slack <= total <= upper + slack):
            warnings.append("outside_no_arbitrage_band")
        results.append(
            PriceBreakdown(
                p_heston=p_heston,
                p_correction=correction,
                p00=float(p00_val[i]),
                p10=float(p10_val[i]),
                p11=float(p11_val[i]),
                quadrature_error=err,
                warnings=tuple(warnings),
            )
        )
    return results


def price_strips(
    strips,
    spec: QuadratureSpec | None = None,
    k_i: float | None = None,
    payoff: str = "call",
) -> list[list[PriceBreakdown]]:
    """Price several strike strips in one adaptive integration.

    Each strip is a tuple ``(strikes, expiry, spot, p, v)``: a strike list
    with its own expiry, spot, HestonParams and GroupParams (None or zero
    for the baseline).  All strips share the contour, the payoff and the
    refinement; a strip is tagged ``nonconvergence:...`` only if one of its
    own integrals misses its tolerance.  Returns one list of breakdowns per
    strip, in order; each strip agrees with its own ``price_strikes`` call
    within both quadrature bounds.
    """
    if spec is None:
        spec = QuadratureSpec()
    if k_i is None:
        k_i = DEFAULT_CALL_CONTOUR if payoff == "call" else DEFAULT_PUT_CONTOUR
    k_i = float(k_i)
    if payoff == "call" and not k_i > 1.0:
        raise ContourViolation(f"call contour requires k_i > 1, got k_i={k_i}")
    if payoff == "put" and not k_i < 0.0:
        raise ContourViolation(f"put contour requires k_i < 0, got k_i={k_i}")
    prepared = []
    for strikes, expiry, spot, p, v in strips:
        if not expiry > 0:
            raise ValueError("expiry must be positive")
        strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
        if not strikes.size or np.any(strikes <= 0):
            raise ValueError("strikes must be nonempty and positive")
        tau = float(expiry)
        c_inf = c_infinity(tau, p)
        if not c_inf > 0:
            raise ValueError(
                "c_infinity must be strictly positive, which needs |rho| < 1"
            )
        variance = (
            p.theta * tau - (p.z - p.theta) * math.expm1(-p.kappa * tau) / p.kappa
        )
        scale = min(c_inf, 4.0 * math.sqrt(variance))
        if v is not None and v.is_zero:
            v = None
        prepared.append((strikes, tau, float(spot), p, v, scale))
    if not prepared:
        return []
    return [
        _assemble(strikes, tau, spot, p, payoff, raw, raw_err, warnings)
        for (strikes, tau, spot, p, _, _), (raw, raw_err, warnings) in zip(
            prepared, _strip_integrals(prepared, spec, k_i)
        )
    ]


def price_strikes(
    strikes,
    expiry: float,
    spot: float,
    p: HestonParams,
    v: GroupParams | None = None,
    spec: QuadratureSpec | None = None,
    k_i: float | None = None,
    payoff: str = "call",
) -> list[PriceBreakdown]:
    """Price a strip of strikes sharing one expiry, spot, and contour.

    The one-strip case of ``price_strips``: strike-independent kernel work
    is shared across the strip.
    """
    return price_strips([(strikes, expiry, spot, p, v)], spec, k_i, payoff)[0]


def price_heston(
    opt: OptionSpec,
    p: HestonParams,
    spec: QuadratureSpec | None = None,
    k_i: float | None = None,
) -> PriceBreakdown:
    """Baseline Heston price; the correction fields of the breakdown are zero."""
    return price_strikes(
        [opt.strike],
        opt.expiry,
        opt.spot,
        p,
        v=None,
        spec=spec,
        k_i=k_i,
        payoff=opt.payoff_kind,
    )[0]


def price_corrected(
    opt: OptionSpec,
    p: HestonParams,
    v: GroupParams,
    spec: QuadratureSpec | None = None,
    k_i: float | None = None,
) -> PriceBreakdown:
    """Corrected price; with v = 0 this reproduces ``price_heston`` exactly."""
    return price_strikes(
        [opt.strike],
        opt.expiry,
        opt.spot,
        p,
        v=v,
        spec=spec,
        k_i=k_i,
        payoff=opt.payoff_kind,
    )[0]
