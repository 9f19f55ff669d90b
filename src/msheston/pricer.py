"""European option prices: Heston baseline plus the fast-factor correction.

A price is two contour integrals of the same transform,

    p_heston     = exp(-r*tau)/(2*pi) * int static,
    p_correction = exp(-r*tau)/(2*pi) * int static * (kappa*theta*f0_hat + z*f1_hat),

with ``static`` the payoff transform times the Heston kernel and
``f0_hat``/``f1_hat`` the closed-form time integrals of the correction
(``kernel._f_hats``; the correction coefficients carry their own amplitude
scaling).  Both are evaluated on the half line ``k_r > 0`` (conjugate
symmetry folds the full line into twice the real part) after the
substitution ``k_r = -log(u)/c`` mapping the half line onto the unit
interval; the integration starts from a mesh graded towards ``u = 0``,
where the map puts ``k_r = infinity``, and towards ``u = 1``, where it puts
``k_r = 0``: the payoff transform's poles at ``k = i`` and ``k = 0`` lie
``min(|k_i - 1|, |k_i|)`` off the contour there, about ``c`` times that
from ``u = 1``, and the smallest scale of the strips sets how finely the
start panels approach 1.

The scale follows the kernel's decay, with ``V`` the expected integrated
variance.  Where the exponential decay rate ``c_infinity`` is at most
``4*sqrt(V)``, the kernel's tail ``exp(-c_infinity*k_r)`` times the map's
Jacobian ``1/(c*u)`` is ``u**(c_infinity/c - 1)``, so ``c = c_infinity/2``
leaves an integrand that vanishes like ``u`` at ``u = 0`` (order 1), and
the start mesh's tail is half as deep.  Elsewhere, at short and very long
expiries and at small sigma, ``c = 4*sqrt(V)`` (order 0): the kernel
decays like the Black-Scholes Gaussian ``exp(-V*k**2/2)`` for as long as
``|d|*tau`` stays small, with ``d`` the kernel's square root (see
``kernel``).  At large ``|k|``, ``|d| ~ sigma*sqrt(1 - rho**2)*|k|``, so
the Gaussian holds up to ``|k| ~ 1/(sigma*sqrt(1 - rho**2)*tau)``, far
beyond ``1/sigma`` at short expiries, and governs the whole tail before
the exponential rate ``c_infinity`` is reached.  A batch's tail is as deep
as its strip of lowest order needs.

The contour is fixed per payoff, inside the payoff transform's strip of
convergence: calls integrate on ``Im k = DEFAULT_CALL_CONTOUR`` (any
``k_i > 1`` is valid) and puts on ``Im k = DEFAULT_PUT_CONTOUR`` (any
``k_i < 0``).  The price does not depend on the choice.

A list of strips (strike lists, each with its own expiry, spot, parameters
and correction coefficients) is priced by one adaptive integration.  Its
integrand has one price row per strike of every strip, the only rows that
steer the refinement: ``static``, or, when some strip carries a correction,
the total ``static*(1 + F)`` with F = kappa*theta*f0_hat + z*f1_hat.  The
correction row ``static*F``, exactly 0 for the strips without one, then
rides on the mesh the price rows choose, and ``p_heston`` is the total
minus the correction.  Each strip evaluates its
kernel once per node on its own map scale and hands it to its strikes, and
all rows share the refinement, so a calibration residual pass, or a whole
surface, costs one integration.  A strip's breakdowns discount its own
slice of the integral's strike columns.

``price_slopes`` adds further riding rows: the exact slopes of each total
price in named parameters.  The price rows, their error bounds and the
integrand calls stay those of ``price_strips``.

Quadrature trouble never aborts a price: each breakdown of a strip whose own
price rows miss their tolerance carries a ``nonconvergence`` warning and the
best available estimate, with the error bound inflated accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import require_finite
from .kernel import HestonParams, _cd_of, _exponent_slopes, _f_hats, _part_slopes
from .quadrature import QuadratureSpec, integrate_adaptive

DEFAULT_CALL_CONTOUR = 1.5
DEFAULT_PUT_CONTOUR = -0.5

# The parameters a price has exact slopes in, in the order of
# ``kernel._exponent_slopes`` and of the GroupParams fields
HESTON_NAMES = ("kappa", "rho", "sigma", "theta", "z")
GROUP_NAMES = ("v1e", "v2e", "v3e", "v4e")


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
        require_finite(v1e=self.v1e, v2e=self.v2e, v3e=self.v3e, v4e=self.v4e)

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
        require_finite(positive=True, strike=self.strike, spot=self.spot,
                       expiry=self.expiry)
        if self.payoff_kind not in ("call", "put"):
            raise ValueError(f"unsupported payoff_kind {self.payoff_kind!r}")


@dataclass(frozen=True)
class PriceBreakdown:
    """A price, its Heston and correction parts and a quadrature error bound.

    ``quadrature_error`` bounds the total, on which the quadrature converges.
    """

    p_heston: float
    p_correction: float
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


# one unit correction coefficient per leading row: the correction row at
# these coefficients is its exact slope in each, since it is linear in v
_UNIT_V = SimpleNamespace(**{
    name: row[:, None, None] for name, row in zip(GROUP_NAMES, np.eye(4))
})


def _strip_integrals(strips, edges, spec, payoff, wrt=()):
    """Integrals of a list of strips on the payoff's contour, with error bounds.

    ``strips`` holds validated ``(strikes, tau, spot, p, v, scale, order)``
    tuples, and strip ``j`` owns the strike columns ``edges[j]:edges[j + 1]``.
    One adaptive integration over u covers them all: each strip maps u to
    its own ``k = -log(u)/scale + i*k_i`` and evaluates its kernel once per
    node, with its parameters held as column arrays, and hands it to the
    price rows of its strikes.  Only the price rows steer the refinement.
    If any strip's ``v`` is nonzero, the price row of each strike is its
    total ``static*(1 + F)`` with F = kappa*theta*f0_hat + z*f1_hat, exactly
    0 where ``v`` is, and the correction row ``static*F`` rides; otherwise
    the price row is ``static`` and there is no correction row.

    Each name in ``wrt`` adds a riding row per strike, the slope of its
    total: with E = C + z*D, ``static*(E'*(1 + F) + F')`` for a Heston
    parameter and ``static*F`` at that unit coefficient for a correction
    coefficient.  All rows are written into one array per integrand call.

    Returns the doubled real Heston parts and corrections, shape
    (2, strikes), the doubled bounds on the totals, whether each total missed
    its tolerance, and the doubled real slopes, shape (len(wrt), strikes).
    """
    n = edges[-1]
    corrected = not all(s[4].is_zero for s in strips)
    log_k = np.log(np.concatenate([s[0] for s in strips]))[:, None]
    q = np.repeat([s[3].r * s[1] + math.log(s[2]) for s in strips],
                  np.diff(edges))[:, None]
    tau = np.array([s[1] for s in strips])[:, None]
    scale = np.array([s[5] for s in strips])[:, None]
    p = _columns([s[3] for s in strips], HESTON_NAMES)
    v = _columns([s[4] for s in strips], GROUP_NAMES)
    k_i = DEFAULT_CALL_CONTOUR if payoff == "call" else DEFAULT_PUT_CONTOUR
    heston_slopes = any(name in HESTON_NAMES for name in wrt)
    group_slopes = any(name in GROUP_NAMES for name in wrt)

    def integrand(us):
        k = -np.log(us) / scale + 1j * k_i
        c_val, big_d_val, parts = _cd_of(tau, k, p)
        kernel = np.exp(c_val + p.z * big_d_val) / (us * scale)
        factors = []
        dparts = _part_slopes(tau, k, p, parts) if heston_slopes else None
        if corrected:
            # (df0_hat, df1_hat) come too when dparts is given
            f0, f1, *df_hats = _f_hats(tau, k, v, parts, dparts)
            factors.append(p.kappa * p.theta * f0 + p.z * f1)
        slopes = {}
        if heston_slopes:
            de = _exponent_slopes(tau, k, p, c_val, big_d_val, parts, dparts)
            if corrected:
                # F' for kappa, rho and sigma, then for theta and z
                df0, df1 = df_hats
                df = np.concatenate((p.kappa * p.theta * df0 + p.z * df1,
                                     [p.kappa * f0, f1]))
                df[0] += p.theta * f0
                de = de * (1.0 + factors[0]) + df
            slopes.update(zip(HESTON_NAMES, de))
        if group_slopes:
            f0, f1 = _f_hats(tau, k, _UNIT_V, parts)
            slopes.update(zip(GROUP_NAMES, p.kappa * p.theta * f0 + p.z * f1))
        factors += [slopes[name] for name in wrt]
        out = np.empty(((1 + len(factors)) * n, us.size), dtype=complex)
        for j, (lo, hi) in enumerate(zip(edges, edges[1:])):
            static = np.multiply(_payoff_transform(k[j], log_k[lo:hi], q[lo:hi]),
                                 kernel[j], out=out[lo:hi])
            for i, factor in enumerate(factors, 1):
                np.multiply(static, factor[j], out=out[lo + i * n:hi + i * n])
        if corrected:
            # the steering row is the price, static*(1 + F)
            out[:n] += out[n:2 * n]
        return out

    # the payoff's poles at k = i and k = 0 lie min(|k_i - 1|, |k_i|) off the
    # contour, about that times the scale from u = 1
    pole_distance = scale.min() * min(abs(k_i - 1.0), abs(k_i))
    value, err, missed = integrate_adaptive(integrand, spec, ride=(corrected + len(wrt)) * n,
                                            pole_distance=pole_distance,
                                            tail_order=min(s[6] for s in strips))
    value = 2.0 * value.real
    # the correction rides; without a corrected strip it is 0
    correction = value[n:2 * n] if corrected else np.zeros(n)
    return (np.vstack((value[:n] - correction, correction)), 2.0 * err, missed,
            value[(1 + corrected) * n:].reshape(len(wrt), n))


def _prepare(strips):
    """Validated ``(strikes, tau, spot, p, v, scale, order)`` tuples of
    ``strips``: the map scale and the order at which the integrand vanishes
    at u = 0."""
    prepared = []
    for strikes, expiry, spot, p, v in strips:
        strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
        if not strikes.size:
            raise ValueError("strikes must be nonempty")
        tau, spot = float(expiry), float(spot)
        for strike in strikes.tolist():
            require_finite(positive=True, strike=strike)
        require_finite(positive=True, expiry=tau, spot=spot)
        variance = p.theta * tau - (p.z - p.theta) * math.expm1(-p.kappa * tau) / p.kappa
        decay, gauss = c_infinity(tau, p), 4.0 * math.sqrt(variance)
        # at half the decay rate the integrand vanishes like u at u = 0
        scale, order = (0.5 * decay, 1) if decay <= gauss else (gauss, 0)
        v = GroupParams.zero() if v is None else v
        prepared.append((strikes, tau, spot, p, v, scale, order))
    return prepared


def price_strips(
    strips,
    spec: QuadratureSpec | None = None,
    payoff: str = "call",
) -> list[list[PriceBreakdown]]:
    """Price several strike strips in one adaptive integration.

    Each strip is a tuple ``(strikes, expiry, spot, p, v)``: a strike list
    with its own expiry, spot, HestonParams and GroupParams (None or zero
    for the baseline).  Strikes, expiry and spot must be finite and
    positive; a ValueError names the first that is not.  All strips share
    the payoff, its contour and the refinement, which only the price rows,
    one per strike, steer; the correction rows ride.  A strip is tagged
    ``nonconvergence`` only if one of its own prices misses its tolerance.  A
    price is tagged ``outside_no_arbitrage_band`` if it leaves the band by
    more than a slack of max(10 bounds, 1e-9*S), or if that slack is as wide
    as the band, min(S, K*exp(-r*tau)), and so would admit any price.
    Returns one list of breakdowns per strip, in order; each strip agrees
    with its own ``price_strikes`` call within both quadrature bounds.
    A payoff other than ``"call"`` or ``"put"`` raises a ValueError.
    """
    if payoff not in ("call", "put"):
        raise ValueError(f"unsupported payoff {payoff!r}")
    return _priced(_prepare(strips), spec, payoff, ())[0]


def price_slopes(strips, wrt, spec: QuadratureSpec | None = None):
    """Call prices of ``strips`` and the exact slopes of their totals in the
    parameters ``wrt`` names (of ``HESTON_NAMES`` and ``GROUP_NAMES``), from
    one adaptive integration.

    The mesh and the breakdowns are those of ``price_strips(strips, spec)``,
    bit for bit: the slope rows ride.  Returns the breakdowns of each strip
    and one (len(wrt), strikes) array of discounted slopes per strip.  A
    ValueError names an unknown parameter.
    """
    for name in wrt:
        if name not in HESTON_NAMES + GROUP_NAMES:
            raise ValueError(f"no slope in {name!r}; known: "
                             f"{', '.join(HESTON_NAMES + GROUP_NAMES)}")
    return _priced(_prepare(strips), spec, "call", tuple(wrt))


def _priced(prepared, spec, payoff, wrt):
    """Breakdowns and slopes of ``prepared`` strips; see ``price_slopes``."""
    if spec is None:
        spec = QuadratureSpec()
    if not prepared:
        return [], []
    edges = np.cumsum([0] + [len(s[0]) for s in prepared]).tolist()
    values, errors, missed, slopes = _strip_integrals(prepared, edges, spec, payoff, wrt)
    results, strip_slopes = [], []
    for (strikes, tau, spot, p, *_), lo, hi in zip(prepared, edges, edges[1:]):
        discount = math.exp(-p.r * tau)
        scale = discount / (2.0 * math.pi)
        # this strip's price, correction and bound rows, discounted
        rows = scale * np.vstack((values[:, lo:hi], errors[lo:hi]))
        strip_slopes.append(scale * slopes[:, lo:hi])
        base = ("nonconvergence",) if missed[lo:hi].any() else ()
        strip = []
        for strike, h, c, err in zip(strikes, *rows.tolist()):
            discounted = strike * discount
            lower, upper = ((spot - discounted, spot) if payoff == "call"
                            else (discounted - spot, discounted))
            # a slack as wide as the band itself would admit any price
            slack = max(10.0 * err, 1e-9 * spot)
            floor = max(lower, 0.0)
            inside = slack < upper - floor and floor - slack <= h + c <= upper + slack
            tags = base if inside else base + ("outside_no_arbitrage_band",)
            strip.append(PriceBreakdown(h, c, err, tags))
        results.append(strip)
    return results, strip_slopes


def price_strikes(
    strikes,
    expiry: float,
    spot: float,
    p: HestonParams,
    v: GroupParams | None = None,
    spec: QuadratureSpec | None = None,
    payoff: str = "call",
) -> list[PriceBreakdown]:
    """Price a strip of strikes sharing one expiry, spot, and contour.

    The one-strip case of ``price_strips``: strike-independent kernel work
    is shared across the strip.
    """
    return price_strips([(strikes, expiry, spot, p, v)], spec, payoff)[0]


def price_heston(
    opt: OptionSpec,
    p: HestonParams,
    spec: QuadratureSpec | None = None,
) -> PriceBreakdown:
    """Baseline Heston price; the correction part of the breakdown is zero."""
    return price_corrected(opt, p, None, spec)


def price_corrected(
    opt: OptionSpec,
    p: HestonParams,
    v: GroupParams | None,
    spec: QuadratureSpec | None = None,
) -> PriceBreakdown:
    """Corrected price; with v None or zero this is ``price_heston`` exactly."""
    return price_strikes(
        [opt.strike], opt.expiry, opt.spot, p, v=v, spec=spec, payoff=opt.payoff_kind
    )[0]
