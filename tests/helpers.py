"""Independent oracles the tests check the library against.

Everything here deliberately avoids the library's own evaluation paths:
arbitrary-precision direct formula evaluation (mpmath), a Gil-Pelaez Heston
pricer on scipy's QUADPACK, an ODE-system route to the corrected price
(scipy DOP853), the closed forms the exponential-OU volatility factor
admits for the averaged quantities, and two Monte Carlo simulators: the
plain payoff estimator, which draws the spot's own normal, and a plain Euler
fast-factor update of the path sums (which shares only the Monte Carlo's
random streams).  Both load their normals on NumPy's Cholesky factor of
``correlation_matrix``, not on the closed-form loadings of ``FullModelParams``.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.stats import norm

from msheston import mc
from msheston.group_params import volatility_factor


def group_array(v) -> np.ndarray:
    """The correction coefficients (v1e, v2e, v3e, v4e) of ``v`` as an array."""
    return np.array([v.v1e, v.v2e, v.v3e, v.v4e])


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


def _mp_cd(t, kc, kappa, theta, sigma, rho):
    """(C, D) at the current mpmath precision from mpf/mpc inputs."""
    m = kappa + 1j * rho * sigma * kc
    d = mp.sqrt(sigma**2 * (kc * kc - 1j * kc) + m * m)
    w = (1 - mp.exp(-t * d)) / d
    zeta = 1 + (m - d) * w / 2
    big_c = kappa * theta / sigma**2 * ((m - d) * t - 2 * mp.log(zeta))
    big_d = -(kc * kc - 1j * kc) * w / (2 * zeta)
    return big_c, big_d


def mp_cd(tau, k, p, dps: int = 50):
    """Direct high-precision exponent pair (C, D) of the transform kernel.

    The parameters and tau enter as the exact values of their doubles, and
    (1 - exp(-tau*d)) / d is formed directly: 50 digits leave over 40 after
    its cancellation at tau*d ~ 1e-9.
    """
    with mp.workdps(dps):
        big_c, big_d = _mp_cd(mp.mpf(tau), mp.mpc(complex(k)), *(
            mp.mpf(x) for x in (p.kappa, p.theta, p.sigma, p.rho)))
        return complex(big_c), complex(big_d)


def mp_cd_slopes(tau, k, p, dps: int = 50) -> np.ndarray:
    """d(C + z*D)/d(kappa, rho, sigma, theta, z) by central differences of
    ``mp_cd``'s formulas at ``dps`` digits.

    The step is 10**(-dps/2.5) relative to each parameter: at 50 digits the
    O(h^2) truncation and the rounding over h both sit near 1e-30.
    """
    names = ("kappa", "rho", "sigma", "theta", "z")
    with mp.workdps(dps):
        t, kc = mp.mpf(tau), mp.mpc(complex(k))
        x = {name: mp.mpf(getattr(p, name)) for name in names}

        def exponent(y):
            big_c, big_d = _mp_cd(t, kc, y["kappa"], y["theta"], y["sigma"], y["rho"])
            return big_c + y["z"] * big_d

        out = []
        for name in names:
            h = abs(x[name]) * mp.mpf(10) ** (-dps / 2.5)
            up, down = dict(x), dict(x)
            up[name] += h
            down[name] -= h
            out.append(complex((exponent(up) - exponent(down)) / (2 * h)))
        return np.array(out)


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


def mp_bs_vega(spot, strike, expiry, vol, rate, dps: int = 50):
    """Black-Scholes vega through mpmath's normal density."""
    with mp.workdps(dps):
        s, k, t, v, r = (mp.mpf(repr(x)) for x in (spot, strike, expiry, vol, rate))
        d1 = (mp.log(s / k) + (r + v * v / 2) * t) / (v * mp.sqrt(t))
        return float(s * mp.npdf(d1) * mp.sqrt(t))


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


# The Gil-Pelaez integrands decay like the Black-Scholes Gaussian
# exp(-V u^2 / 2), V the expected integrated variance, until the exponential
# tail sets in; the cut max(300, GP_DECAY / sqrt(V)) leaves exp(-50) of it.
# It moves past 300 only below V = 1.1e-3: at one day on Figure-1 values
# (V = 1.1e-4) a fixed cut at 300 left prices 6.5e-4 off.
GP_DECAY = 10.0


def gil_pelaez_heston_call(spot, strike, rate, expiry, p):
    variance = p.theta * expiry - (p.z - p.theta) * math.expm1(-p.kappa * expiry) / p.kappa
    cut = max(300.0, GP_DECAY / math.sqrt(variance))

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
        cut,
        limit=500,
    )[0]
    i2 = quad(
        lambda u: (np.exp(-1j * u * ln_k) * cf(u) / (1j * u)).real,
        1e-12,
        cut,
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

    # both quad calls below evaluate it; each node's ODE system is solved once
    @functools.cache
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


def _norm_cdf_diff(a, b):
    """Phi(a) - Phi(b), taken from the upper tail when the pair lies mostly
    above the median, so that the two terms do not round to 1 and cancel."""
    return np.where(a + b > 0.0, norm.sf(b) - norm.sf(a), norm.cdf(a) - norm.cdf(b))


def exp_ou_phi_prime(y, m, nu):
    """Closed form for the derivative of the variance-source solution."""
    w = (np.asarray(y, dtype=float) - m) / nu
    return _norm_cdf_diff(w - 2.0 * nu, w) / (2.0 * nu * norm.pdf(w))


def exp_ou_psi_prime(y, m, nu):
    w = (np.asarray(y, dtype=float) - m) / nu
    return (
        math.exp(-nu * nu / 2.0)
        * _norm_cdf_diff(w - nu, w)
        / (nu * norm.pdf(w))
    )


def exp_ou_brackets(nu: float) -> dict:
    """The four averaged quantities entering the correction coefficients.

    The differences of exponentials in <f phi'> and <f psi'> are taken with
    expm1, which keeps full relative precision as nu -> 0.
    """
    n2 = nu * nu
    return {
        "phi_prime": -1.0,
        "psi_prime": -math.exp(-n2 / 2.0),
        "f_phi_prime": math.exp(1.5 * n2) * math.expm1(-2.0 * n2) / (2.0 * n2),
        "f_psi_prime": math.expm1(-n2) / n2,
    }


def mp_exp_ou_brackets(nu: float, dps: int = 50) -> dict:
    """The four averages of ``exp_ou_brackets`` in arbitrary precision."""
    with mp.workdps(dps):
        n2 = mp.mpf(nu) ** 2
        return {
            "phi_prime": -1.0,
            "psi_prime": float(-mp.exp(-n2 / 2)),
            "f_phi_prime": float(-mp.exp(-n2 / 2) * mp.expm1(2 * n2) / (2 * n2)),
            "f_psi_prime": float(mp.expm1(-n2) / n2),
        }


def exp_ou_unit_v(sigma, nu, rho_xy, rho_xz, rho_yz, brackets=None) -> np.ndarray:
    """Unit-amplitude (epsilon = 1) V1..V4 from the averages ``brackets``,
    by default the closed forms of ``exp_ou_brackets``."""
    br = exp_ou_brackets(nu) if brackets is None else brackets
    root2nu = math.sqrt(2.0) * nu
    return np.array(
        [
            rho_yz * sigma * root2nu * br["phi_prime"],
            rho_xz * rho_yz * sigma**2 * root2nu * br["psi_prime"],
            rho_xy * root2nu * br["f_phi_prime"],
            rho_xy * rho_xz * sigma * root2nu * br["f_psi_prime"],
        ]
    )


# ----------------------------------------------------------------------
# Monte Carlo oracles: the plain payoff estimator, which draws the spot's own
# normal, and a plain Euler fast-factor update of the path sums.
# ----------------------------------------------------------------------


def correlation_matrix(rho_xy: float, rho_xz: float, rho_yz: float) -> np.ndarray:
    """Brownian correlation matrix for (W^x, W^y, W^z)."""
    return np.array(
        [
            [1.0, rho_xy, rho_xz],
            [rho_xy, 1.0, rho_yz],
            [rho_xz, rho_yz, 1.0],
        ]
    )


def yzx_cholesky(fm) -> np.ndarray:
    """NumPy's lower Cholesky factor of the correlations in the order (y, z, x)."""
    yzx = [1, 2, 0]
    rho = correlation_matrix(fm.rho_xy, fm.rho_xz, fm.rho_yz)
    return np.linalg.cholesky(rho[np.ix_(yzx, yzx)])


def _pair_draws(rng, rows, width):
    """``rows`` rows of ``width`` normals, followed by their mirrors."""
    normals = rng.standard_normal((rows, width))
    return np.concatenate([normals, -normals], axis=1)


def payoff_terminal_prices(fm, horizon, cfg) -> np.ndarray:
    """Terminal prices per unit of spot, with three normals per step.

    The spot takes an exact-in-distribution Euler step of its log given the
    current volatility, the fast factor the exact OU-conditional update of
    ``mc.simulate_paths`` and Z the same full-truncation Euler step; only
    the per-chunk seeding is shared with it.  Path ``i`` and path
    ``n_paths // 2 + i`` form an antithetic pair.
    """
    p = fm.heston
    n_steps = max(1, int(round(horizon / cfg.dt)))
    dt = horizon / n_steps
    sdt = math.sqrt(dt)
    chol = np.linalg.cholesky(correlation_matrix(fm.rho_xy, fm.rho_xz, fm.rho_yz))
    f = volatility_factor(fm)
    n_base = cfg.n_paths // 2
    streams = mc._chunk_streams(cfg.seed, math.ceil(n_base / mc._CHUNK))
    bases, mirrors = [], []
    for chunk, rng in enumerate(streams):
        width = min(n_base - chunk * mc._CHUNK, mc._CHUNK)
        log_x = np.zeros(2 * width)
        y = np.full(2 * width, fm.y0)
        z = np.full(2 * width, p.z)
        for _ in range(n_steps):
            w = chol @ _pair_draws(rng, 3, width)
            z_floor = np.maximum(z, 0.0)
            sig = np.sqrt(z_floor) * f(y)
            log_x += (p.r - 0.5 * sig * sig) * dt + sig * sdt * w[0]
            c = z_floor * (dt / fm.epsilon)
            y = fm.m + (y - fm.m) * np.exp(-c) + fm.nu * np.sqrt(
                -np.expm1(-2.0 * c)
            ) * w[1]
            z = z + p.kappa * (p.theta - z_floor) * dt + p.sigma * np.sqrt(
                z_floor
            ) * sdt * w[2]
        x = np.exp(log_x)
        bases.append(x[:width])
        mirrors.append(x[width:])
    return np.concatenate(bases + mirrors)


def euler_path_sums(fm, horizon, cfg) -> mc.PathSums:
    """``mc.simulate_paths`` with a plain Euler step for Y.

    Draws the same per-chunk normals and loads them on NumPy's Cholesky
    factor, which matches the closed-form loadings to rounding, so the two
    differ only in the fast-factor step.  The Euler step is explosive once
    Z dt / eps nears 2; it is used only at dt <= eps / 50.
    """
    if cfg.dt > fm.epsilon / 50.0:
        raise ValueError("the Euler fast-factor update needs dt <= epsilon / 50")
    p = fm.heston
    n_steps = max(1, int(round(horizon / cfg.dt)))
    dt = horizon / n_steps
    sdt = math.sqrt(dt)
    (_, _, _), (l10, l11, _), (a, b, _) = yzx_cholesky(fm)
    f = volatility_factor(fm)
    n_base = cfg.n_paths // 2
    streams = mc._chunk_streams(cfg.seed, math.ceil(n_base / mc._CHUNK))
    bases, mirrors = [], []
    truncated = 0
    for chunk, rng in enumerate(streams):
        width = min(n_base - chunk * mc._CHUNK, mc._CHUNK)
        y = np.full(2 * width, fm.y0)
        z = np.full(2 * width, p.z)
        sums = np.zeros((4, 2 * width))
        for _ in range(n_steps):
            # simulate_paths fills e1, then e2, from the stream
            e1, e2 = _pair_draws(rng, 1, width)[0], _pair_draws(rng, 1, width)[0]
            truncated += np.count_nonzero(z < 0.0)
            z_floor = np.maximum(z, 0.0)
            sig = np.sqrt(z_floor) * f(y)
            w_z = l10 * e1 + l11 * e2
            sums += [sig * sig * dt, sig * (a * e1 + b * e2) * sdt,
                     z_floor * dt, np.sqrt(z_floor) * w_z * sdt]
            rate = z_floor / fm.epsilon
            y = y + rate * (fm.m - y) * dt + fm.nu * math.sqrt(
                2.0
            ) * np.sqrt(rate) * sdt * e1
            z = z + p.kappa * (p.theta - z_floor) * dt + p.sigma * np.sqrt(
                z_floor
            ) * sdt * w_z
        bases.append(sums[:, :width])
        mirrors.append(sums[:, width:])
    return mc.PathSums(
        *np.concatenate(bases + mirrors, axis=1),
        dt=dt,
        truncation_fraction=truncated / (n_steps * cfg.n_paths),
    )
