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
* ``w(t, k) = (1 - exp(-t*d)) / d``, evaluated as ``-expm1(-t*d) / d`` at
  every ``t``, which keeps full relative precision down to ``t*d -> 0``
  without a series branch.  Both roots of ``d**2`` in ``k`` lie on the
  imaginary axis, so ``d = 0`` only at ``k_r = 0``, which the open quadrature
  rule never evaluates.
* ``zeta(t, k) = 1 + (M - d) * w / 2``, an algebraic rearrangement of the
  textbook ratio form that never divides by the near-singular ``g``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchCrossing, require_finite

# Below this |x| the second log ratio of the closed-form correction
# transform switches to its power series (coefficients highest power first,
# as polyval takes them): sixteen terms truncate at |x|**16 = 1e-16, and just
# above the cutoff the direct form loses at most eps/|x| = 2.2e-15 relative.
_LOG_SERIES_CUTOFF = 0.1
_M2_SERIES = np.array([(-1.0) ** n * (n + 1) / (n + 2) for n in range(15, -1, -1)])
_DM2_SERIES = np.polyder(_M2_SERIES)


@dataclass(frozen=True)
class HestonParams:
    """Observable-market Heston parameters plus the risk-free rate.

    ``rho`` is the effective spot/variance correlation (already averaged over
    any fast volatility factor), ``z`` the current instantaneous variance.
    Construction admits exactly the parameters the program prices: kappa,
    theta, sigma and z finite and strictly positive, r finite and |rho| < 1.
    The Feller condition ``2*kappa*theta >= sigma**2`` is reported by
    ``feller_satisfied``, never enforced: the pricer, the correction and the
    full-truncation Monte Carlo all handle a variance that can reach zero.
    """

    kappa: float
    theta: float
    sigma: float
    rho: float
    z: float
    r: float

    def __post_init__(self):
        require_finite(positive=True, kappa=self.kappa, theta=self.theta,
                       sigma=self.sigma, z=self.z)
        require_finite(r=self.r)
        if not self.rho * self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")

    @property
    def feller_satisfied(self) -> bool:
        return 2.0 * self.kappa * self.theta >= self.sigma**2

    def replace(self, **kwargs) -> "HestonParams":
        from dataclasses import replace

        return replace(self, **kwargs)


def _d_of(k, p: HestonParams):
    """d(k) and M(k); d is the principal root, nonnegative real part, ties toward +i."""
    m = p.kappa + 1j * p.rho * p.sigma * k
    return np.sqrt(p.sigma**2 * (k * k - 1j * k) + m * m), m


def _log1p(x):
    """Principal log(1 + x), to full precision relative to |x| as x -> 0.

    NumPy's complex log1p loses the real part at small |x|.
    """
    a, b = x.real, x.imag
    return 0.5 * np.log1p(a * (2.0 + a) + b * b) + 1j * np.arctan2(b, 1.0 + a)


def _cd_of(tau, k, p: HestonParams):
    """The exponent pair (C, D) of the transform kernel, zeta form.

    The third value is the tuple (d, M - d, M + d, w, zeta, log zeta) at each
    point, which ``_f_hats`` takes so that the correction transforms reuse
    it.  ``tau``, ``k`` and the fields of ``p`` may be arrays that broadcast
    together.
    """
    d, m = _d_of(k, p)
    kk = k * k - 1j * k
    # (M - d)(M + d) = -sigma^2 (k^2 - ik): the larger of the two is formed
    # directly and the smaller as that product over it, so neither cancels
    # (M - d is O(sigma^2) at small sigma)
    plus = m.real * d.real + m.imag * d.imag >= 0.0
    big = np.where(plus, m + d, m - d)
    small = -(p.sigma**2) * kk / big
    m_minus_d = np.where(plus, small, big)
    m_plus_d = np.where(plus, big, small)
    w = -np.expm1(-tau * d) / d
    x = m_minus_d * w / 2.0
    zeta = 1.0 + x
    z_arr = np.asarray(zeta)
    if np.any((z_arr.imag == 0.0) & (z_arr.real <= 0.0)):
        raise BranchCrossing(
            "zeta landed exactly on the negative real axis; "
            "the contour log would be discontinuous here"
        )
    log_zeta = _log1p(x)
    c_val = p.kappa * p.theta / p.sigma**2 * (m_minus_d * tau - 2.0 * log_zeta)
    d_val = -kk * w / (2.0 * zeta)
    return c_val, d_val, (d, m_minus_d, m_plus_d, w, zeta, log_zeta)


def _part_slopes(tau, k, p: HestonParams, parts):
    """d(d, M - d, M + d, w, zeta)/d(kappa, rho, sigma) of ``parts``, the third
    value of ``_cd_of``, each stacked on a new first axis.

    With M' the slope of M and s' = 1 for sigma, 0 otherwise,
    d' = (M*M' + sigma*s'*(k^2 - ik)) / d and (M -+ d)' = -+(M'*(M -+ d) +
    sigma*s'*(k^2 - ik)) / d, which does not cancel where M - d is O(sigma^2).
    """
    d, m_minus_d, m_plus_d, w, _, _ = parts
    kk = k * k - 1j * k
    m = p.kappa + 1j * p.rho * p.sigma * k
    # M' for kappa, rho and sigma, and the sigma^2 (k^2 - ik) term's slope
    dm = np.stack(np.broadcast_arrays(1.0 + 0j, 1j * p.sigma * k, 1j * p.rho * k))
    ds = np.stack(np.broadcast_arrays(0j, 0j, p.sigma * kk))
    dd = (m * dm + ds) / d
    dmd = -(dm * m_minus_d + ds) / d
    dpd = (dm * m_plus_d + ds) / d
    dw = dd * (tau * np.exp(-tau * d) - w) / d
    return dd, dmd, dpd, dw, (dmd * w + m_minus_d * dw) / 2.0


def _exponent_slopes(tau, k, p: HestonParams, c_val, d_val, parts, dparts):
    """d(C + z*D)/d(kappa, rho, sigma, theta, z), stacked on a new first axis.

    ``c_val``, ``d_val`` and ``parts`` are the three values of
    ``_cd_of(tau, k, p)``, and ``dparts`` is ``_part_slopes`` of them.  C is
    linear in theta, and z multiplies D.
    """
    _, m_minus_d, _, w, zeta, _ = parts
    _, dmd, _, dw, dzeta = dparts
    kk = k * k - 1j * k
    # C = kappa*theta/sigma^2 * G: the prefactor's own slopes are C/kappa,
    # 0 and -2C/sigma
    dpre = np.stack(np.broadcast_arrays(c_val / p.kappa, 0j, -2.0 * c_val / p.sigma))
    dc = dpre + p.kappa * p.theta / p.sigma**2 * (dmd * tau - 2.0 * dzeta / zeta)
    dbig_d = -kk * (dw - w * dzeta / zeta) / (2.0 * zeta)
    return np.concatenate((dc + p.z * dbig_d, (c_val / p.theta)[None], d_val[None]))


def _b_coeffs(k, v):
    """(B0, B1, B2) of the correction source b = B0 + B1*D + B2*D**2; linear in v."""
    k2 = k * k
    return (
        -v.v3e * (1j * k2 * k + k2),
        v.v1e * (k2 - 1j * k) + v.v4e * k2,
        1j * k * v.v2e,
    )


def _series_below_cutoff(x, direct, series):
    """``direct``, but ``polyval(series, x)`` where |x| < the cutoff."""
    direct = np.asarray(direct)
    small = np.abs(x) < _LOG_SERIES_CUTOFF
    if np.any(small):
        direct[small] = np.polyval(series, x[small])
    return direct


def _f_hats(tau, k, v, parts, dparts=None):
    """Correction transforms (f0_hat, f1_hat) at time tau, in closed form.

    f1_hat(tau) = int_0^tau b(s) exp(A(tau, k, s)) ds solves the correction
    ODE and f0_hat(tau) = int_0^tau f1_hat(t) dt.  Both zeta and D*zeta are
    linear in E = exp(-s*d), so zeta^2 * b = q0 + q1*E + q2*E^2 and the two
    time integrals are elementary.  ``parts`` is the third value of
    ``_cd_of(tau, k, p)``: the only log is its rotation-safe log zeta, which
    carries full precision relative to beta*w = zeta - 1, as the O(tau^2) q0
    and q1 brackets of f0 need at short tau.

    With ``dparts``, the ``_part_slopes`` of ``parts``, it also returns
    d(f0_hat, f1_hat)/d(kappa, rho, sigma), each stacked on a new first axis:
    the closed forms differentiated term by term (theta and z do not enter
    them).  (beta*c)' is beta*c*(beta'/beta + c'/c), and below the cutoff m2
    takes its series' slope.
    """
    d, m_minus_d, m_plus_d, w, zeta, log_zeta = parts
    a, beta, c = -(k * k - 1j * k) / 2.0, m_minus_d / 2.0, m_plus_d / 2.0
    e = np.exp(-tau * d)
    b0, b1, b2 = _b_coeffs(k, v)
    d2 = d * d
    q0 = (b0 * c * c + b1 * a * c + b2 * a * a) / d2
    q1 = -(2.0 * b0 * c * beta + b1 * a * (c + beta) + 2.0 * b2 * a * a) / d2
    q2 = (b0 * beta * beta + b1 * a * beta + b2 * a * a) / d2
    num = q0 * w + q1 * tau * e + q2 * e * w
    f1 = num / (zeta * zeta)
    # (log(1 + x) + 1/(1 + x) - 1)/x^2 at x = beta*w, with 1 + x = zeta; the
    # direct form cancels to eps/|x|, so the nodes below the cutoff (x = 0
    # included) take the series instead
    x = np.asarray(beta * w)
    with np.errstate(divide="ignore", invalid="ignore"):
        m2 = _series_below_cutoff(x, (log_zeta - x / zeta) / (x * x), _M2_SERIES)
    # w * log(zeta) / x = log(zeta) / beta, and beta * c = a * sigma^2 / 2
    # never vanishes on the contour
    f0 = (
        q0 * ((d * tau + log_zeta) / (c * c) - w / (c * zeta))
        + q1 * (tau * w / zeta - tau / c + log_zeta / (beta * c))
        + q2 * w * w * m2
    )
    if dparts is None:
        return f0, f1

    dd, dmd, dpd, dw, dzeta = dparts
    dbeta, dc, de = dmd / 2.0, dpd / 2.0, -tau * dd * e
    # each q is a bracket over d^2: the bracket's slope, less q * 2d'/d
    dlog_d2 = 2.0 * dd / d
    dq0 = (2.0 * b0 * c + b1 * a) * dc / d2 - q0 * dlog_d2
    dq1 = -(2.0 * b0 * (dc * beta + c * dbeta) + b1 * a * (dc + dbeta)) / d2 - q1 * dlog_d2
    dq2 = (2.0 * b0 * beta + b1 * a) * dbeta / d2 - q2 * dlog_d2
    dnum = (dq0 * w + q0 * dw + tau * (dq1 * e + q1 * de)
            + dq2 * e * w + q2 * (de * w + e * dw))
    df1 = (dnum - 2.0 * num * dzeta / zeta) / (zeta * zeta)
    with np.errstate(divide="ignore", invalid="ignore"):
        dm2 = _series_below_cutoff(x, (1.0 / (zeta * zeta) - 2.0 * m2) / x, _DM2_SERIES)
    dlog, dc_c = dzeta / zeta, dc / c
    df0 = (
        dq0 * ((d * tau + log_zeta) / (c * c) - w / (c * zeta))
        + q0 * ((dd * tau + dlog - 2.0 * dc_c * (d * tau + log_zeta)) / (c * c)
                - (dw - w * (dc_c + dlog)) / (c * zeta))
        + dq1 * (tau * w / zeta - tau / c + log_zeta / (beta * c))
        + q1 * (tau * (dw - w * dlog) / zeta + tau * dc / (c * c)
                + (dlog - log_zeta * (dbeta / beta + dc_c)) / (beta * c))
        + dq2 * w * w * m2
        + q2 * w * (2.0 * dw * m2 + w * dm2 * dzeta)
    )
    return f0, f1, df0, df1
