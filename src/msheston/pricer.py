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

A strip of strikes at one expiry is priced by one adaptive integration whose
integrand stacks the three rows of every strike, so the strike-independent
kernel work and the refinement are shared.  A baseline strip integrates the
``p00`` rows only.

Quadrature trouble never aborts a price: each breakdown of the strip carries a
``nonconvergence:<components>`` warning and the best available estimate, with
the error bound inflated accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    def scaled(self, c: float) -> "GroupParams":
        return GroupParams(c * self.v1e, c * self.v2e, c * self.v3e, c * self.v4e)

    def as_array(self) -> np.ndarray:
        return np.array([self.v1e, self.v2e, self.v3e, self.v4e])


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


def _strip_integrals(strikes, tau, spot, p, v, spec, k_i, scale):
    """Raw integrals (p00, p10, p11) of a strike strip and their error bounds.

    One adaptive integration over u; the integrand stacks the rows ``static``,
    ``static*f0_hat`` and ``static*f1_hat`` per strike, so all three share one
    refinement.  ``v = None`` integrates the baseline rows only.
    """
    n_k = len(strikes)
    q = p.r * tau + math.log(spot)
    log_k = np.log(strikes)[:, None]

    def integrand(us):
        k = -np.log(us) / scale + 1j * k_i
        c_val, big_d_val, parts = _cd_of(tau, k, p)
        kernel = np.exp(c_val + p.z * big_d_val)
        transform = _payoff_transform(k[None, :], log_k, q)
        static = transform * (kernel / (us * scale))[None, :]
        if v is None:
            return static
        f0, f1 = _f_hats(tau, k, v, parts)
        return np.concatenate((static, static * f0, static * f1))

    warnings = ()
    try:
        value, err = integrate_adaptive(integrand, 0.0, 1.0, spec)
    except NonConvergence as exc:
        # quadrature trouble never aborts a price: keep the best estimate
        value, err = np.asarray(exc.estimate), np.asarray(exc.error_bound)
        tag = "p00" if v is None else "p00,p10,p11"
        warnings = (f"nonconvergence:{tag}",)
    raw = 2.0 * value.real.reshape(-1, n_k)
    raw_err = 2.0 * err.reshape(-1, n_k)
    if v is None:
        zeros = np.zeros((2, n_k))
        raw = np.concatenate((raw, zeros))
        raw_err = np.concatenate((raw_err, zeros))
    return raw, raw_err, warnings


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

    Strike-independent kernel work is shared across the strip, so this is the
    fast path for surfaces and calibration objectives.  Each breakdown agrees
    with a solo ``price_corrected`` call to within both quadrature bounds.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not expiry > 0:
        raise ValueError("expiry must be positive")
    if k_i is None:
        k_i = DEFAULT_CALL_CONTOUR if payoff == "call" else DEFAULT_PUT_CONTOUR
    strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
    if not strikes.size or np.any(strikes <= 0):
        raise ValueError("strikes must be nonempty and positive")
    k_i = float(k_i)
    if payoff == "call" and not k_i > 1.0:
        raise ContourViolation(f"call contour requires k_i > 1, got k_i={k_i}")
    if payoff == "put" and not k_i < 0.0:
        raise ContourViolation(f"put contour requires k_i < 0, got k_i={k_i}")
    tau = float(expiry)
    c_inf = c_infinity(tau, p)
    if not c_inf > 0:
        raise ValueError(
            "c_infinity must be strictly positive, which needs |rho| < 1"
        )
    variance = p.theta * tau - (p.z - p.theta) * math.expm1(-p.kappa * tau) / p.kappa
    scale = min(c_inf, 4.0 * math.sqrt(variance))
    spot = float(spot)
    if v is not None and v.is_zero:
        v = None
    raw, raw_err, warnings = _strip_integrals(
        strikes, tau, spot, p, v, spec, k_i, scale
    )
    return _assemble(strikes, tau, spot, p, payoff, raw, raw_err, warnings)


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
