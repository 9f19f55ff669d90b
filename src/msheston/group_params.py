"""Effective correlation and correction coefficients from full-model dynamics.

The fast volatility factor is an OU-like process with invariant distribution
N(m, nu^2).  Averaging the full dynamics over that distribution yields the
effective spot/variance correlation ``rho = rho_xz * <f>`` and four group
coefficients, each an average of a volatility-factor function against the
derivative of a Poisson-equation solution:

    L0 phi = (f^2 - <f^2>) / 2,    L0 psi = f - <f>,

    V1 = rho_yz * sigma * nu * sqrt(2) * <phi'>
    V2 = rho_xz * rho_yz * sigma^2 * nu * sqrt(2) * <psi'>
    V3 = rho_xy * nu * sqrt(2) * <f phi'>
    V4 = rho_xy * rho_xz * sigma * nu * sqrt(2) * <f psi'>

with ``L0 = nu^2 d^2/dy^2 + (m - y) d/dy``.  The returned coefficients carry
the sqrt(epsilon) amplitude scaling, which is what the pricer consumes.

For the exponential-OU factor f(y) = exp(y - m - nu^2), normalized so that
<f^2> = 1, every average has a closed form independent of m (Fouque,
Papanicolaou, Sircar & Solna, *Multiscale Stochastic Volatility for Equity,
Interest-Rate and Credit Derivatives*, 2011):

    <f>      = exp(-nu^2 / 2)
    <phi'>   = -1
    <psi'>   = -exp(-nu^2 / 2)
    <f phi'> = -exp(3 nu^2 / 2) * (1 - exp(-2 nu^2)) / (2 nu^2)
    <f psi'> = -(1 - exp(-nu^2)) / nu^2

The differences 1 - exp(-x) are evaluated with ``expm1`` so the small-nu
limits keep full precision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, require_finite
from .kernel import HestonParams
from .pricer import GroupParams


@dataclass(frozen=True)
class FullModelParams:
    """Complete two-factor dynamics for the Monte Carlo oracle.

    ``heston.rho`` holds the *raw* spot/variance correlation rho_xz; the
    effective correlation of the averaged model is derived, not stored.  The
    fast factor is exponential-OU (``volatility_factor``), with epsilon and
    nu finite and strictly positive and m and y0 finite.

    Correlations are admissible when c^2 = 1 - (a^2 + b^2) > 0 in the Cholesky
    factor of their matrix in the order (y, z, x), whose closed form is
    l10 = rho_yz, l11 = sqrt(1 - rho_yz^2), a = rho_xy, b = (rho_xz - a l10) / l11;
    the Monte Carlo loads its normals on it (``brownian_loadings``).
    """

    heston: HestonParams
    epsilon: float
    m: float
    nu: float
    rho_xy: float
    rho_yz: float
    y0: float

    def __post_init__(self):
        require_finite(positive=True, epsilon=self.epsilon, nu=self.nu)
        require_finite(m=self.m, y0=self.y0)
        # HestonParams already holds rho_xz = heston.rho inside (-1, 1)
        for name, val in (("rho_xy", self.rho_xy), ("rho_yz", self.rho_yz)):
            if not val * val < 1.0:
                raise ValueError(f"{name}**2 must be strictly below 1")
        self._loadings()

    def _loadings(self) -> tuple[float, float, float, float, float]:
        """(l10, l11, a, b, c); raises ValueError unless c^2 > 0."""
        l11 = math.sqrt(1.0 - self.rho_yz * self.rho_yz)
        a = self.rho_xy
        b = (self.rho_xz - a * self.rho_yz) / l11
        c2 = 1.0 - (a * a + b * b)
        if not c2 > 0.0:
            raise ValueError(
                "correlations do not form a positive-definite Brownian "
                f"covariance (c^2 = 1 - (rho_xy^2 + b^2) = {c2:.6g} <= 0)"
            )
        return self.rho_yz, l11, a, b, math.sqrt(c2)

    @property
    def brownian_loadings(self) -> tuple[float, float, float, float, float]:
        """(l10, l11, a, b, c), the loadings of W^z and W^x on e1, e2, e3."""
        return self._loadings()

    @property
    def rho_xz(self) -> float:
        return self.heston.rho

    @property
    def rho_effective(self) -> float:
        """The averaged model's spot/variance correlation rho_xz * <f>."""
        return self.rho_xz * math.exp(-0.5 * (self.nu * self.nu))


def volatility_factor(fm: FullModelParams):
    """The multiplicative volatility factor f(y), normalized so <f^2> = 1.

    ``f(y, out)`` writes f(y) into the array ``out`` when one is given.
    """
    shift = fm.m + fm.nu * fm.nu

    def f(y, out=None):
        return np.exp(np.subtract(y, shift, out=out), out=out)

    return f


def _expm1_ratio(x: float) -> float:
    """expm1(x) / x, continued by its limit 1 where x underflows to 0."""
    return math.expm1(x) / x if x else 1.0


def compute_group_params(fm: FullModelParams) -> tuple[float, GroupParams]:
    """Effective correlation and amplitude-scaled correction coefficients.

    Returns ``(rho_effective, GroupParams)`` where each coefficient already
    carries the ``sqrt(epsilon)`` scaling.  ``rho_effective**2 < 1`` always,
    since ``|<f>| <= 1``.

    Raises
    ------
    NonFinite
        If ``exp(3 nu^2 / 2)`` overflows, which happens above nu ~ 21.75.
    """
    nu = fm.nu
    nu2 = nu * nu
    sigma = fm.heston.sigma
    # one test for both ways exp overflows: raising, and returning inf once
    # nu^2 itself is infinite (nu above 1.3e154)
    if 1.5 * nu2 > math.log(sys.float_info.max):
        raise NonFinite(
            f"<f phi'> overflows at nu = {nu!r}: exp(3 nu^2 / 2) is not "
            "representable"
        )
    growth = math.exp(1.5 * nu2)

    phi_p_bar = -1.0
    psi_p_bar = -math.exp(-0.5 * nu2)
    f_phi_p_bar = -growth * _expm1_ratio(-2.0 * nu2)
    f_psi_p_bar = -_expm1_ratio(-nu2)

    root2nu = math.sqrt(2.0) * nu
    v1 = fm.rho_yz * sigma * root2nu * phi_p_bar
    v2 = fm.rho_xz * fm.rho_yz * sigma**2 * root2nu * psi_p_bar
    v3 = fm.rho_xy * root2nu * f_phi_p_bar
    v4 = fm.rho_xy * fm.rho_xz * sigma * root2nu * f_psi_p_bar

    amp = math.sqrt(fm.epsilon)
    return fm.rho_effective, GroupParams(amp * v1, amp * v2, amp * v3, amp * v4)
