"""Independent oracles the tests check the library against.

Everything here deliberately avoids the library's own evaluation paths:
arbitrary-precision direct formula evaluation (mpmath), a Gil-Pelaez Heston
pricer on scipy's QUADPACK, an ODE-system route to the corrected price
(scipy DOP853), and the closed forms the exponential-OU volatility factor
admits for the averaged quantities.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.stats import norm

# ----------------------------------------------------------------------
# Arbitrary-precision direct evaluation of the kernel formulas.
# ----------------------------------------------------------------------


def mp_d(k, p, dps: int = 50):
    """Direct high-precision d(k) = sqrt(sigma^2 (k^2 - ik) + (kappa + i rho k sigma)^2)."""
    with mp.workdps(dps):
        kc = mp.mpc(complex(k))
        m = p.kappa + 1j * p.rho * p.sigma * kc
        val = mp.sqrt(p.sigma**2 * (kc * kc - 1j * kc) + m * m)
        return complex(val)


def mp_g(k, p, dps: int = 50):
    with mp.workdps(dps):
        kc = mp.mpc(complex(k))
        m = p.kappa + 1j * p.rho * p.sigma * kc
        d = mp.sqrt(p.sigma**2 * (kc * kc - 1j * kc) + m * m)
        return complex((m + d) / (m - d))


def mp_big_a(tau, k, s, p, dps: int = 60):
    """High-precision A via the pointwise-log zeta representation."""
    with mp.workdps(dps):
        kc = mp.mpc(complex(k))
        m = p.kappa + 1j * p.rho * p.sigma * kc
        d = mp.sqrt(p.sigma**2 * (kc * kc - 1j * kc) + m * m)

        def log_zeta(t):
            zeta = 1 + (m - d) * (1 - mp.e**(-t * d)) / (2 * d)
            return mp.log(zeta)

        val = -d * (tau - s) - 2 * (log_zeta(tau) - log_zeta(s))
        return complex(val)


def mp_f1_hat(tau, k, p, v, dps: int = 30):
    """Definition of the inner correction transform by tanh-sinh quadrature:
    the integral over s in (0, tau) of b(s, k) exp(A(tau, k, s))."""
    vs = (v.v1e, v.v2e, v.v3e, v.v4e)
    with mp.workdps(dps):
        kc = mp.mpc(complex(k))
        m = p.kappa + 1j * p.rho * p.sigma * kc
        d = mp.sqrt(p.sigma**2 * (kc * kc - 1j * kc) + m * m)

        def source(s):
            w = (1 - mp.e ** (-s * d)) / d
            big_d = -(kc * kc - 1j * kc) * w / (2 * (1 + (m - d) * w / 2))
            return -(
                vs[0] * big_d * (-kc * kc + 1j * kc)
                + vs[1] * big_d * big_d * (-1j * kc)
                + vs[2] * (1j * kc**3 + kc * kc)
                + vs[3] * big_d * (-kc * kc)
            )

        def integrand(s):
            return source(s) * mp.e ** mp.mpc(mp_big_a(tau, kc, s, p, dps))

        return complex(mp.quad(integrand, [0, tau]))


def mp_payoff_transform(k, strike, dps: int = 50):
    with mp.workdps(dps):
        kc = mp.mpc(complex(k))
        return complex(mp.e ** ((1 + 1j * kc) * mp.log(strike)) / (1j * kc - kc * kc))


def mp_bs_call(spot, strike, expiry, vol, rate, dps: int = 50):
    """Black-Scholes through mpmath's erfc, no scipy involvement."""
    with mp.workdps(dps):
        s, k, t, v, r = (mp.mpf(repr(x)) for x in (spot, strike, expiry, vol, rate))
        d1 = (mp.log(s / k) + (r + v * v / 2) * t) / (v * mp.sqrt(t))
        d2 = d1 - v * mp.sqrt(t)
        cdf = lambda x: mp.erfc(-x / mp.sqrt(2)) / 2
        return float(s * cdf(d1) - k * mp.e ** (-r * t) * cdf(d2))


# ----------------------------------------------------------------------
# Naive (branch-unsafe) representations, valid before any crossing.
# ----------------------------------------------------------------------


def naive_big_c(tau, k, p):
    """Textbook log-of-ratio form with the growing exponential."""
    kc = complex(k)
    m = p.kappa + 1j * p.rho * p.sigma * kc
    d = np.sqrt(p.sigma**2 * (kc * kc - 1j * kc) + m * m)
    g = (m + d) / (m - d)
    e = np.exp(tau * d)
    return (
        p.kappa
        * p.theta
        / p.sigma**2
        * ((m + d) * tau - 2.0 * np.log((1.0 - g * e) / (1.0 - g)))
    )


# ----------------------------------------------------------------------
# Independent Heston pricer: Gil-Pelaez probabilities on scipy QUADPACK.
# ----------------------------------------------------------------------


def gil_pelaez_heston_call(spot, strike, rate, expiry, p):
    def cf(u):
        b = p.kappa - p.rho * p.sigma * 1j * u
        d = np.sqrt(b * b + p.sigma**2 * (1j * u + u * u))
        g = (b - d) / (b + d)
        e = np.exp(-d * expiry)
        c_val = rate * 1j * u * expiry + p.kappa * p.theta / p.sigma**2 * (
            (b - d) * expiry - 2.0 * np.log((1.0 - g * e) / (1.0 - g))
        )
        d_val = (b - d) / p.sigma**2 * (1.0 - e) / (1.0 - g * e)
        return np.exp(c_val + d_val * p.z + 1j * u * math.log(spot))

    ln_k = math.log(strike)
    i1 = quad(
        lambda u: (np.exp(-1j * u * ln_k) * cf(u - 1j) / (1j * u * cf(-1j))).real,
        1e-12,
        300,
        limit=500,
    )[0]
    i2 = quad(
        lambda u: (np.exp(-1j * u * ln_k) * cf(u) / (1j * u)).real,
        1e-12,
        300,
        limit=500,
    )[0]
    p1 = 0.5 + i1 / math.pi
    p2 = 0.5 + i2 / math.pi
    return spot * p1 - strike * math.exp(-rate * expiry) * p2


# ----------------------------------------------------------------------
# ODE-system route to the corrected price: integrate the exponent pair and
# the two correction transforms from their defining ODEs, then invert.
# ----------------------------------------------------------------------


def ode_transforms(tau, k, p, v):
    """(D, C, f1_hat, f0_hat) at time tau from their defining ODEs (DOP853)."""
    vs = (v.v1e, v.v2e, v.v3e, v.v4e)
    m = p.kappa + 1j * p.rho * p.sigma * k

    def rhs(t, y):
        big_d, big_c, f1, f0 = y
        d_dot = (
            0.5 * p.sigma**2 * big_d * big_d
            - m * big_d
            + 0.5 * (-k * k + 1j * k)
        )
        c_dot = p.kappa * p.theta * big_d
        b = -(
            vs[0] * big_d * (-k * k + 1j * k)
            + vs[1] * big_d * big_d * (-1j * k)
            + vs[2] * (1j * k**3 + k * k)
            + vs[3] * big_d * (-k * k)
        )
        f1_dot = (p.sigma**2 * big_d - m) * f1 + b
        return [d_dot, c_dot, f1_dot, f1]

    sol = solve_ivp(
        rhs,
        [0.0, tau],
        [0j, 0j, 0j, 0j],
        method="DOP853",
        rtol=1e-11,
        atol=1e-12,
    )
    return sol.y[:, -1]


def ode_corrected_price(spot, strike, expiry, p, v, k_i=1.5, k_cut=60.0):
    q = p.r * expiry + math.log(spot)

    def integrand(kr):
        k = kr + 1j * k_i
        big_d, big_c, f1, f0 = ode_transforms(expiry, k, p, v)
        h_hat = strike ** (1 + 1j * k) / (1j * k - k * k)
        base = np.exp(-1j * k * q) * np.exp(big_c + p.z * big_d) * h_hat
        return np.array(
            [base.real, ((p.kappa * p.theta * f0 + p.z * f1) * base).real]
        )

    p00 = 2.0 * quad(lambda kr: integrand(kr)[0], 0, k_cut, limit=300)[0]
    pc = 2.0 * quad(lambda kr: integrand(kr)[1], 0, k_cut, limit=300, epsabs=1e-9)[0]
    pref = math.exp(-p.r * expiry) / (2.0 * math.pi)
    return pref * p00, pref * p00 + pref * pc


# ----------------------------------------------------------------------
# Exponential-OU closed forms for the averaged quantities.
# ----------------------------------------------------------------------


def exp_ou_f_bar(nu: float) -> float:
    return math.exp(-nu * nu / 2.0)


def exp_ou_phi_prime(y, m, nu):
    """Closed form for the derivative of the variance-source solution."""
    w = (np.asarray(y, dtype=float) - m) / nu
    return (norm.cdf(w - 2.0 * nu) - norm.cdf(w)) / (2.0 * nu * norm.pdf(w))


def exp_ou_psi_prime(y, m, nu):
    w = (np.asarray(y, dtype=float) - m) / nu
    return (
        math.exp(-nu * nu / 2.0)
        * (norm.cdf(w - nu) - norm.cdf(w))
        / (nu * norm.pdf(w))
    )


def exp_ou_brackets(nu: float) -> dict:
    """The four averaged quantities entering the correction coefficients."""
    return {
        "phi_prime": -1.0,
        "psi_prime": -math.exp(-nu * nu / 2.0),
        "f_phi_prime": -(math.exp(1.5 * nu * nu) - math.exp(-0.5 * nu * nu))
        / (2.0 * nu * nu),
        "f_psi_prime": -(1.0 - math.exp(-nu * nu)) / (nu * nu),
    }


def exp_ou_unit_v(sigma, nu, rho_xy, rho_xz, rho_yz) -> np.ndarray:
    br = exp_ou_brackets(nu)
    root2nu = math.sqrt(2.0) * nu
    return np.array(
        [
            rho_yz * sigma * root2nu * br["phi_prime"],
            rho_xz * rho_yz * sigma**2 * root2nu * br["psi_prime"],
            rho_xy * root2nu * br["f_phi_prime"],
            rho_xy * rho_xz * sigma * root2nu * br["f_psi_prime"],
        ]
    )
