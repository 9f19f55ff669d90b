"""Conditional Monte Carlo of the full two-factor dynamics, the pricing oracle.

The spot's Brownian W^x is split along the closed-form loadings that
``FullModelParams.brownian_loadings`` gives for the correlations taken in the
order (y, z, x), the same numbers that decide whether a triple is admissible:

    W^y = e1,    W^z = l10 e1 + l11 e2,    W^x = a e1 + b e2 + c e3.

Only e1 and e2 are drawn.  They drive the fast factor Y and the variance Z,
and each path accumulates four sums:

    I   = int sigma^2 dt,                 M   = int sigma (a e1 + b e2) sqrt(dt),
    I_z = int Z dt,                       M_z = int sqrt(Z) dW^z,

where sigma = sqrt(Z) f(Y).  Given e1 and e2 the log price is Gaussian, so the
full model's call is a Black-Scholes price with spot S0 exp(M - (a^2 + b^2) I / 2)
and total variance c^2 I (Willard 1997; Romano & Touzi 1997): e3 is
integrated out in closed form.  On the same Z path the Heston model with the
effective correlation rho prices as Black-Scholes with spot
S0 exp(rho M_z - rho^2 I_z / 2) and total variance (1 - rho^2) I_z, and the
difference of the two legs estimates the first-order correction.  M and M_z
are martingales with mean exactly 0, so both estimates are regressed on them
as control variates; no analytic price enters.

Z follows a full-truncation Euler step (negative proposals are floored inside
every drift and diffusion evaluation, and the flooring rate is reported as a
diagnostic).  The fast factor takes the exact OU-conditional update

    Y' = m + (Y - m) * exp(-c) + nu * sqrt(1 - exp(-2c)) * e1,   c = Z dt / eps,

which is stable and unbiased-in-law for any step-to-timescale ratio ``c``
(a plain Euler step would be explosive whenever ``c`` approaches 2, which
happens already at ``dt = eps``).

Paths come in antithetic pairs: every draw of normals drives a path and its
mirror.  They are generated in fixed-size chunks, each driven by its own
counter-based substream spawned from the seed.  One helper thread draws the
next step's normals while the calling thread computes the current step: each
step takes one (2, width) block, e1 in row 0 and e2 in row 1, from its chunk's
stream.  Only that thread touches a stream, one block at a time and in step
order, and a C-order fill of the block takes the same normals as two fills of
one row each, so the sums are bit-identical to a serial loop over the steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StepExplosion, require_finite
from .group_params import FullModelParams, volatility_factor

_CHUNK = 1 << 16
_FINITE_CHECK_EVERY = 64
# The most steps one simulation may take; a horizon that needs more is
# refused before anything is drawn.
MAX_STEPS = 10**7
# Share of Z step states floored at zero above which a sample is flagged.
MAX_TRUNCATION_FRACTION = 1e-3


@dataclass(frozen=True)
class SimConfig:
    """Path count (an even integer of at least 8: four antithetic pairs, one
    more than the three coefficients of the control-variate regression), a
    finite step size and a non-negative integer seed."""

    n_paths: int
    dt: float
    seed: int

    def __post_init__(self):
        n = self.n_paths
        if not (isinstance(n, (int, np.integer)) and n >= 8 and n % 2 == 0):
            raise ValueError(f"n_paths must be an even integer of at least 8, got {n!r}")
        require_finite(positive=True, dt=self.dt)
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo call price and correction with their standard errors.

    ``price`` is the full model's call and ``correction`` the full-model call
    minus the Heston call with the effective correlation on the same variance
    paths, both regressed on the martingales M and M_z.
    ``uncontrolled_std_error`` is the standard error of the price without
    that regression.  ``dt`` is the step the paths took.
    """

    price: float
    std_error: float
    correction: float
    correction_std_error: float
    uncontrolled_std_error: float
    n_paths: int
    dt: float
    truncation_fraction: float
    warnings: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class PathSums:
    """The sums I, M, I_z and M_z of every path, the step dt taken, and diagnostics."""

    variance: np.ndarray
    martingale: np.ndarray
    variance_z: np.ndarray
    martingale_z: np.ndarray
    dt: float
    truncation_fraction: float
    warnings: tuple = field(default_factory=tuple)


def _chunk_streams(seed: int, n_chunks: int):
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    return [np.random.Generator(np.random.Philox(child)) for child in children]


def simulate_paths(fm: FullModelParams, horizon: float, cfg: SimConfig) -> PathSums:
    """The path sums I, M, I_z and M_z over ``horizon`` years.

    Reproducible: identical (fm, horizon, cfg) give bit-identical sums.  Each
    array holds all base paths first and their mirrors after them in the same
    order, so path ``i`` and path ``n_paths // 2 + i`` form a pair.  The
    step taken is ``horizon / max(1, round(horizon / cfg.dt))``; a step
    count above ``MAX_STEPS`` raises a ValueError naming the horizon, dt and
    the count.
    """
    # imported here, not with the module: concurrent.futures loads logging,
    # queue and traceback, which only a simulation needs
    from concurrent.futures import ThreadPoolExecutor

    require_finite(positive=True, horizon=horizon)
    p = fm.heston
    steps = horizon / cfg.dt  # may overflow to inf
    if not steps < MAX_STEPS + 0.5:
        raise ValueError(f"horizon {horizon!r} at dt {cfg.dt!r} takes {steps:.3g} "
                         f"steps, more than {MAX_STEPS}")
    n_steps = max(1, int(round(steps)))
    dt = horizon / n_steps
    warnings = ["fast_factor_step_coarse"] if dt > fm.epsilon else []
    l10, l11, a, b, _ = fm.brownian_loadings
    f = volatility_factor(fm)
    sdt = math.sqrt(dt)
    # W^z comes scaled by the step's shock sigma sqrt(dt), W^x by sqrt(dt)
    z_shock = p.sigma * sdt
    z_pull = -p.kappa * dt
    z_drift = p.kappa * p.theta * dt
    y_rate = -dt / fm.epsilon
    nu2 = fm.nu * fm.nu

    n_base = cfg.n_paths // 2
    n_chunks = math.ceil(n_base / _CHUNK)
    streams = _chunk_streams(cfg.seed, n_chunks)

    bases, mirrors = [], []
    truncated = 0
    # overflow rolls a state to inf; the periodic finite check turns that into
    # a located StepExplosion instead of a numpy warning
    with ThreadPoolExecutor(1) as drawer, np.errstate(over="ignore", invalid="ignore"):
        for chunk_idx in range(n_chunks):
            lo = chunk_idx * _CHUNK
            width = min(n_base, lo + _CHUNK) - lo
            rng = streams[chunk_idx]
            n = 2 * width

            y = np.full(n, fm.y0, dtype=float)
            z = np.full(n, p.z, dtype=float)
            # running sums of sigma^2, sigma dW^x, Z and sqrt(Z) dW^z; the
            # factors dt and 1 / sigma of I, I_z and M_z are applied once at
            # the end
            s_var, s_mart, s_var_z, s_mart_z = np.zeros((4, n))
            e1, w_x, w_z, z_floor, sqrt_z, sig, tmp, em = np.empty((8, n))
            half = np.empty(width)
            # step s reads its (e1, e2) from normals[s % 2] while the drawer
            # fills the other buffer for step s + 1; NumPy's generator
            # releases the GIL while it fills, so the draws overlap this
            # thread's arithmetic
            normals = np.empty((2, 2, width))
            drawn = drawer.submit(rng.standard_normal, out=normals[0])
            for step in range(n_steps):
                drawn.result()
                base, e2 = normals[step % 2]
                if step + 1 < n_steps:
                    drawn = drawer.submit(
                        rng.standard_normal, out=normals[(step + 1) % 2]
                    )
                e1[:width] = base
                np.multiply(e2, z_shock * l11, out=w_z[:width])
                np.multiply(base, z_shock * l10, out=half)
                w_z[:width] += half
                np.multiply(e2, sdt * b, out=w_x[:width])
                np.multiply(base, sdt * a, out=half)
                w_x[:width] += half
                for draws in (e1, w_z, w_x):
                    np.negative(draws[:width], out=draws[width:])

                np.maximum(z, 0.0, out=z_floor)
                truncated += int(np.count_nonzero(z < 0.0))
                np.sqrt(z_floor, out=sqrt_z)
                sig = f(y, out=sig)
                sig *= sqrt_z
                np.multiply(sig, w_x, out=tmp)
                s_mart += tmp
                sig *= sig
                s_var += sig
                s_var_z += z_floor

                w_z *= sqrt_z
                s_mart_z += w_z
                z += w_z
                np.multiply(z_floor, z_pull, out=tmp)
                tmp += z_drift
                z += tmp

                # one expm1 gives the OU decay 1 + em and variance -em (2 + em)
                np.multiply(z_floor, y_rate, out=em)
                np.expm1(em, out=em)
                np.subtract(y, fm.m, out=tmp)
                tmp *= em
                y += tmp
                np.add(em, 2.0, out=tmp)
                em *= -nu2
                tmp *= em
                np.sqrt(tmp, out=tmp)
                tmp *= e1
                y += tmp

                if step % _FINITE_CHECK_EVERY == 0 or step == n_steps - 1:
                    bad = ~(np.isfinite(s_var) & np.isfinite(s_mart)
                            & np.isfinite(y) & np.isfinite(z))
                    if np.any(bad):
                        idx = int(np.argmax(bad))
                        raise StepExplosion(
                            f"non-finite state in chunk {chunk_idx} at step {step}",
                            path_index=lo + (idx % width),
                            step=step,
                        )
            s_var *= dt
            s_var_z *= dt
            s_mart_z *= 1.0 / p.sigma
            sums = (s_var, s_mart, s_var_z, s_mart_z)
            bases.append([s[:width] for s in sums])
            mirrors.append([s[width:] for s in sums])

    frac = truncated / (n_steps * cfg.n_paths)
    if frac > MAX_TRUNCATION_FRACTION:
        warnings.append("truncation_fraction_above_threshold")
    return PathSums(
        *(np.concatenate(parts) for parts in zip(*bases, *mirrors)),
        dt=dt,
        truncation_fraction=frac,
        warnings=tuple(warnings),
    )


# Phi(-y) = exp(-y^2/2) * P(y) / Q(y) for 0 <= y <= 39, P of degree 9 and Q
# of degree 10, lowest degree first.  Derived in mpmath at 40 digits: the
# linearised least-squares fit P - f Q = 0 to f(y) = Phi(-y) exp(y^2/2) on
# 400 Chebyshev points of [0, 39], with Q(0) = 1 and P(0) = 1/2 held, each
# row weighted by 1 / (f Q) of the previous iterate and reweighted by its
# relative error (Lawson's iteration towards the minimax fit), 60 rounds.
# Rounded to doubles, P / Q is within 1.2e-16 of f, relative, on 6,001
# equispaced points of [0, 39]; every coefficient is positive, so Horner's
# rule in y >= 0 adds only a few rounding errors.
_CDF_P = (0.5, 0.7746278127733103, 0.5936831440406729, 0.2890689573008818,
          0.09757899407941453, 0.023584983607230246, 0.004081199016994238,
          0.0004892162743930553, 3.71419710391277e-05, 1.3805167265356197e-06)
_CDF_Q = (1.0, 2.3471401863494794, 2.560113204809812, 1.7132041417164827,
          0.7812894921993889, 0.25463810037018203, 0.06033814965741911,
          0.010323149953871855, 0.0012297437882651256, 9.310111478004323e-05,
          3.460442260345655e-06)
# Phi(-y) is below half the smallest subnormal from about y = 38.48 on
_CDF_ZERO = 38.5
# below this y, Phi(+-y) rounds to 1/2 and y^2 cannot underflow
_CDF_TINY = 1e-20


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF of every element of ``x``, to about 1e-15
    relative everywhere it is a normal double.

    Exactly 0 at and below -38.5 (``-inf`` included), exactly 1 from about
    8.3 up, NaN for NaN, and no floating-point warning for any of them.
    Every array operation runs on all of ``x``, in place on one work block:
    no boolean indexing.
    """
    y, ys, e, q = np.empty((4,) + np.shape(x))
    np.abs(x, out=y)
    far = y >= _CDF_ZERO  # False for NaN, so NaN runs through
    np.copyto(y, 0.0, where=far)
    np.maximum(y, _CDF_TINY, out=y)
    # exp(-y^2/2) = exp(-ys^2/2) exp(-(y - ys)(y + ys)/2) with ys = y rounded
    # to 1/16: ys^2 is exact, so the rounding of y^2 never enters an
    # exponent of up to 741 (Cody 1969, Math. Comp. 23)
    np.multiply(y, 16.0, out=ys)
    np.rint(ys, out=ys)
    ys *= 0.0625
    np.subtract(y, ys, out=e)
    np.add(y, ys, out=q)
    e *= q
    e *= -0.5
    np.exp(e, out=e)
    ys *= ys
    ys *= -0.5
    np.exp(ys, out=ys)
    e *= ys
    tail = ys
    tail.fill(_CDF_P[-1])
    for c in _CDF_P[-2::-1]:
        tail *= y
        tail += c
    q.fill(_CDF_Q[-1])
    for c in _CDF_Q[-2::-1]:
        q *= y
        q += c
    tail /= q
    tail *= e
    np.copyto(tail, 0.0, where=far)
    # tail is Phi(-|x|); x with a clear sign bit takes 1 - tail
    np.copysign(tail, x, out=tail)
    return np.subtract(~np.signbit(x), tail, out=tail)


def _bs_calls(spot: np.ndarray, disc_strike: float, total_var: np.ndarray) -> np.ndarray:
    """Discounted Black-Scholes calls on arrays of spots and total variances,
    with the normal CDF ``_normal_cdf``.

    Where a total variance is 0 the call is the discounted forward intrinsic
    value ``max(spot - disc_strike, 0)``, reached without dividing by 0.
    """
    sd = np.sqrt(total_var)
    live = sd > 0.0
    sd = np.where(live, sd, 1.0)
    d1 = np.log(spot / disc_strike) / sd + 0.5 * sd
    calls = spot * _normal_cdf(d1) - disc_strike * _normal_cdf(d1 - sd)
    return np.where(live, calls, np.maximum(spot - disc_strike, 0.0))


def _regressed(values: np.ndarray, design: np.ndarray) -> tuple[float, float]:
    """Intercept of the least-squares fit of ``values`` on ``design`` and its
    standard error.

    The design is a column of ones and zero-mean controls, so the intercept
    is the mean of ``values`` corrected by the controls' sample means.
    """
    coef = np.linalg.lstsq(design, values, rcond=None)[0]
    resid = values - design @ coef
    n, k = design.shape
    return float(coef[0]), math.sqrt(float(resid @ resid) / (n - k) / n)


def mc_price_call(
    fm: FullModelParams,
    strike: float,
    expiry: float,
    cfg: SimConfig,
    spot: float = 100.0,
) -> McEstimate:
    """Conditional Monte Carlo call price and correction with standard errors.

    Each estimate is taken over the per-pair means, the unbiased estimator
    under mirrored draws, regressed on the per-pair means of M and M_z.
    """
    require_finite(positive=True, strike=strike, expiry=expiry, spot=spot)
    sums = simulate_paths(fm, expiry, cfg)
    _, _, a, b, c = fm.brownian_loadings
    rho = fm.rho_effective
    disc_strike = strike * math.exp(-fm.heston.r * expiry)
    full = _bs_calls(
        spot * np.exp(sums.martingale - 0.5 * (a * a + b * b) * sums.variance),
        disc_strike, c * c * sums.variance,
    )
    heston = _bs_calls(
        spot * np.exp(rho * sums.martingale_z - 0.5 * rho * rho * sums.variance_z),
        disc_strike, (1.0 - rho * rho) * sums.variance_z,
    )

    n_base = cfg.n_paths // 2

    def pairs(x):
        return 0.5 * (x[:n_base] + x[n_base:])

    design = np.column_stack(
        [np.ones(n_base), pairs(sums.martingale), pairs(sums.martingale_z)]
    )
    price, std_error = _regressed(pairs(full), design)
    correction, correction_std_error = _regressed(pairs(full - heston), design)
    return McEstimate(
        price=price,
        std_error=std_error,
        correction=correction,
        correction_std_error=correction_std_error,
        uncontrolled_std_error=float(pairs(full).std(ddof=1) / math.sqrt(n_base)),
        n_paths=cfg.n_paths,
        dt=sums.dt,
        truncation_fraction=sums.truncation_fraction,
        warnings=sums.warnings,
    )
