"""Complex-valued building blocks of the variance-kernel transform layer.

Everything here is a pure function of a complex wavenumber ``k`` evaluated on
a horizontal contour ``k = k_r + i*k_i`` and of the observable Heston
parameters.  The log-bearing quantities are computed from the rotation-safe
representation (the ``zeta`` form), which keeps them continuous in ``k_r``
along the contour instead of jumping by multiples of ``2*pi*kappa*theta /
sigma**2`` when a naive complex log crosses its branch cut.

Conventions used throughout:

* ``M(k) = kappa + i*rho*sigma*k``
* ``d(k)`` is the principal square root of ``sigma^2*(k^2 - i k) + M(k)^2``,
  so ``Re(d) >= 0`` and every exponential below decays.
* ``zeta(t, k) = 1 + (M - d) * (1 - exp(-t*d)) / (2*d)``, an algebraic
  rearrangement of the textbook ratio form that never divides by the
  near-singular ``g`` and has a removable limit at ``d -> 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchCrossing, NearSingular

# Relative floor under which a kernel denominator counts as singular.
NEAR_SINGULAR_FLOOR = 1e-12

# Below this |t*d| the factor (1 - exp(-t*d))/d switches to its Taylor series;
# the direct form loses ~|t*d|^-1 * eps digits to cancellation there.
_SERIES_CUTOFF = 1e-4

# Below this |x| the two log ratios of the closed-form correction transform
# switch to their power series (coefficients highest power first, as polyval
# takes them): sixteen terms truncate at |x|**16 = 1e-16, and just above the
# cutoff the direct forms lose at most eps/|x|**2 = 2.2e-14 relative.
_LOG_SERIES_CUTOFF = 0.1
_LOG_RATIO_SERIES = np.array([(-1.0) ** n / (n + 1) for n in range(15, -1, -1)])
_M2_SERIES = np.array([(-1.0) ** n * (n + 1) / (n + 2) for n in range(15, -1, -1)])


@dataclass(frozen=True)
class HestonParams:
    """Observable-market Heston parameters plus the risk-free rate.

    ``rho`` is the effective spot/variance correlation (already averaged over
    any fast volatility factor), ``z`` the current instantaneous variance.
    The Feller condition ``2*kappa*theta >= sigma**2`` is enforced unless
    ``allow_feller_violation`` is set, which calibration uses to explore
    near-boundary fits.
    """

    kappa: float
    theta: float
    sigma: float
    rho: float
    z: float
    r: float
    allow_feller_violation: bool = False

    def __post_init__(self):
        for name in ("kappa", "theta", "sigma", "z"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not np.isfinite(self.r):
            raise ValueError("r must be finite")
        if self.rho * self.rho > 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if not self.feller_satisfied and not self.allow_feller_violation:
            raise ValueError(
                "Feller condition 2*kappa*theta >= sigma**2 violated "
                f"(2*kappa*theta={2 * self.kappa * self.theta:.6g}, "
                f"sigma**2={self.sigma ** 2:.6g}); pass "
                "allow_feller_violation=True to permit this"
            )

    @property
    def feller_satisfied(self) -> bool:
        return 2.0 * self.kappa * self.theta >= self.sigma**2

    def replace(self, **kwargs) -> "HestonParams":
        from dataclasses import replace

        return replace(self, **kwargs)


@dataclass(frozen=True)
class Wavenumber:
    """A point on the shifted integration contour, ``k = k_r + i*k_i``.

    ``k_i`` is held fixed along a contour; call payoff transforms require
    ``k_i > 1`` (checked where the transform is evaluated, not here).
    """

    k_r: float
    k_i: float

    def __complex__(self) -> complex:
        return complex(self.k_r, self.k_i)


def _as_complex(k) -> complex:
    return complex(k)


def _group_values(v):
    """Accept a GroupParams-like object or a length-4 sequence."""
    try:
        return v.v1e, v.v2e, v.v3e, v.v4e
    except AttributeError:
        v1, v2, v3, v4 = v
        return v1, v2, v3, v4


# ----------------------------------------------------------------------
# Array-level primitives.  These are total on valid parameters and accept
# scalars or ndarrays of complex k; the public scalar API below adds the
# contract checks that raise.
# ----------------------------------------------------------------------


def _m_of(k, p: HestonParams):
    return p.kappa + 1j * p.rho * p.sigma * k


def _d_of(k, p: HestonParams):
    """Principal square root; nonnegative real part, ties toward +i."""
    m = _m_of(k, p)
    return np.sqrt(p.sigma**2 * (k * k - 1j * k) + m * m), m


def _w_factor(t, d):
    """(1 - exp(-t*d)) / d with a series fallback near t*d = 0."""
    x = np.asarray(t * d)
    small = np.abs(x) < _SERIES_CUTOFF
    d_safe = np.where(small, 1.0, d)
    series = t * (1.0 - x / 2.0 + x * x / 6.0 - x * x * x / 24.0)
    return np.where(small, series, (1.0 - np.exp(-x)) / d_safe)


def _zeta_log(w, d, m):
    """zeta = 1 + (M - d) * w / 2 and its principal log, rejecting the cut."""
    zeta = 1.0 + (m - d) * w / 2.0
    z_arr = np.asarray(zeta)
    if np.any((z_arr.imag == 0.0) & (z_arr.real <= 0.0)):
        raise BranchCrossing(
            "zeta landed exactly on the negative real axis; "
            "the contour log would be discontinuous here"
        )
    return zeta, np.log(zeta)


def _cd_of(tau, k, p: HestonParams, d=None, m=None):
    """The exponent pair (C, D) of the transform kernel, zeta form."""
    if d is None:
        d, m = _d_of(k, p)
    w = _w_factor(tau, d)
    zeta, log_zeta = _zeta_log(w, d, m)
    c_val = p.kappa * p.theta / p.sigma**2 * ((m - d) * tau - 2.0 * log_zeta)
    d_val = -(k * k - 1j * k) * w / (2.0 * zeta)
    return c_val, d_val, log_zeta


def _b_coeffs(k, v):
    """(B0, B1, B2) of the correction source b = B0 + B1*D + B2*D**2; linear in v."""
    v1, v2, v3, v4 = _group_values(v)
    k2 = k * k
    return -v3 * (1j * k2 * k + k2), v1 * (k2 - 1j * k) + v4 * k2, 1j * k * v2


def _b_of(big_d_val, k, v):
    """Source polynomial of the correction ODE; linear in the coefficients."""
    b0, b1, b2 = _b_coeffs(k, v)
    return b0 + big_d_val * (b1 + big_d_val * b2)


def _f_hats(tau, k, p: HestonParams, v, d=None, m=None):
    """Correction transforms (f0_hat, f1_hat) at time tau, in closed form.

    f1_hat(tau) = int_0^tau b(s) exp(A(tau, k, s)) ds solves the correction
    ODE and f0_hat(tau) = int_0^tau f1_hat(t) dt.  Both zeta and D*zeta are
    linear in E = exp(-s*d), so zeta^2 * b = q0 + q1*E + q2*E^2 and the two
    time integrals are elementary; the only log is the rotation-safe log
    zeta of ``_cd_of``.
    """
    if d is None:
        d, m = _d_of(k, p)
    a = -(k * k - 1j * k) / 2.0
    beta = (m - d) / 2.0
    c = (m + d) / 2.0
    # expm1 keeps w to full relative precision at short tau, where the q0
    # and q1 brackets of f0 cancel down to O(tau^2); d = 0 is excluded anyway
    # by the 1/d^2 of the q's
    w = -np.expm1(-tau * d) / d
    e = np.exp(-tau * d)
    zeta, log_zeta = _zeta_log(w, d, m)
    b0, b1, b2 = _b_coeffs(k, v)
    d2 = d * d
    q0 = (b0 * c * c + b1 * a * c + b2 * a * a) / d2
    q1 = -(2.0 * b0 * c * beta + b1 * a * (c + beta) + 2.0 * b2 * a * a) / d2
    q2 = (b0 * beta * beta + b1 * a * beta + b2 * a * a) / d2
    f1 = (q0 * w + q1 * tau * e + q2 * e * w) / (zeta * zeta)
    # log(1 + x)/x and (log(1 + x) + 1/(1 + x) - 1)/x^2 at x = beta*w, with
    # 1 + x = zeta; the direct forms cancel to eps/|x| and eps/|x|^2
    x = beta * w
    small = np.abs(x) < _LOG_SERIES_CUTOFF
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(
            small, np.polyval(_LOG_RATIO_SERIES, x), log_zeta / x
        )
        m2 = np.where(
            small,
            np.polyval(_M2_SERIES, x),
            (log_zeta + 1.0 / zeta - 1.0) / (x * x),
        )
    # x * log_ratio is log1p(x), which the O(tau^2) q0 bracket needs: log
    # zeta itself carries an absolute eps that the bracket divides by c^2
    f0 = (
        q0 * ((d * tau + x * log_ratio) / (c * c) - w / (c * zeta))
        + q1 * (tau * w / zeta - tau / c + w * log_ratio / c)
        + q2 * w * w * m2
    )
    return f0, f1


# ----------------------------------------------------------------------
# Public scalar operations.
# ----------------------------------------------------------------------


def d(k, p: HestonParams) -> complex:
    """Discriminant root d(k) = sqrt(sigma^2 (k^2 - ik) + (kappa + i rho k sigma)^2).

    Principal branch: Re(d) >= 0, with the tie at Re(d) = 0 broken toward
    nonnegative imaginary part.
    """
    kc = _as_complex(k)
    val, _ = _d_of(kc, p)
    return complex(val)


def g(k, p: HestonParams) -> complex:
    """Ratio g(k) = (M + d) / (M - d) with M = kappa + i rho k sigma.

    Raises
    ------
    NearSingular
        If |M - d| falls below the relative floor; the caller should skip or
        perturb the contour point rather than abort a whole evaluation.
    """
    kc = _as_complex(k)
    d_val, m = _d_of(kc, p)
    den = m - d_val
    if abs(den) < NEAR_SINGULAR_FLOOR * (abs(m) + abs(d_val)):
        raise NearSingular(f"g(k) denominator vanishes at k={kc}", k=kc)
    return complex((m + d_val) / den)


def big_d(tau: float, k, p: HestonParams) -> complex:
    """Variance-slope exponent D(tau, k); D(0, k) = 0."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    kc = _as_complex(k)
    _, d_val, _ = _cd_of(tau, kc, p)
    return complex(d_val)


def big_c(tau: float, k, p: HestonParams) -> complex:
    """Level exponent C(tau, k) via the rotation-safe zeta representation.

    Continuous in k_r along a fixed-k_i contour; C(0, k) = 0.

    Raises
    ------
    BranchCrossing
        If zeta lands exactly on the negative real axis (diagnostic; not
        expected for admissible parameters under the principal-branch root).
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    kc = _as_complex(k)
    c_val, _, _ = _cd_of(tau, kc, p)
    return complex(c_val)


def g_hat(tau: float, k, p: HestonParams) -> complex:
    """Transform kernel G_hat(tau, k, z) = exp(C + z*D); equals 1 at tau=0 or k=0."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    kc = _as_complex(k)
    c_val, d_val, _ = _cd_of(tau, kc, p)
    return complex(np.exp(c_val + p.z * d_val))


def b_source(tau: float, k, p: HestonParams, v) -> complex:
    """Correction source b(tau, k); linear in the coefficients, zero when v = 0."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    kc = _as_complex(k)
    _, dd, _ = _cd_of(tau, kc, p)
    return complex(_b_of(dd, kc, v))
