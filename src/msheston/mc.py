"""Euler Monte Carlo of the full two-factor dynamics, the pricing oracle.

State per path: log price, fast factor Y, variance Z.  Z follows a
full-truncation Euler step (negative proposals are floored inside every
drift and diffusion evaluation, and the flooring rate is reported as a
diagnostic).  The log price is an exact-in-distribution Euler step given the
current volatility.  The fast factor takes the exact OU-conditional update

    Y' = m + (Y - m) * exp(-c) + nu * sqrt(1 - exp(-2c)) * W,   c = Z dt / eps,

which is stable and unbiased-in-law for any step-to-timescale ratio ``c``
(a plain Euler step would be explosive whenever ``c`` approaches 2, which
happens already at ``dt = eps``).

Paths come in antithetic pairs: every draw of normals drives a path and its
mirror.  They are generated in fixed-size chunks, each driven by its own
counter-based substream spawned from the seed, so results are bit-identical
regardless of how chunks would be scheduled across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StepExplosion
from .group_params import FullModelParams, volatility_factor

_CHUNK = 1 << 16
_FINITE_CHECK_EVERY = 64
# Share of Z step states floored at zero above which a sample is flagged.
MAX_TRUNCATION_FRACTION = 1e-3


@dataclass(frozen=True)
class SimConfig:
    """Path count (an even number of at least 4: two antithetic pairs), step
    size and seed."""

    n_paths: int
    dt: float
    seed: int

    def __post_init__(self):
        if self.n_paths < 4 or self.n_paths % 2:
            raise ValueError(
                f"n_paths must be an even number of at least 4, got {self.n_paths}"
            )
        if not self.dt > 0:
            raise ValueError("dt must be strictly positive")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo price with its standard error and positivity diagnostics."""

    price: float
    std_error: float
    n_paths: int
    truncation_fraction: float
    warnings: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class TerminalSample:
    """Terminal prices of a simulation plus diagnostics."""

    x: np.ndarray
    truncation_fraction: float
    warnings: tuple = field(default_factory=tuple)


def correlation_matrix(rho_xy: float, rho_xz: float, rho_yz: float) -> np.ndarray:
    """Brownian correlation matrix for (W^x, W^y, W^z).

    ``FullModelParams`` has already checked that it is positive definite.
    """
    return np.array(
        [
            [1.0, rho_xy, rho_xz],
            [rho_xy, 1.0, rho_yz],
            [rho_xz, rho_yz, 1.0],
        ]
    )


def _chunk_streams(seed: int, n_chunks: int):
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    return [np.random.Generator(np.random.Philox(child)) for child in children]


def simulate_paths(
    fm: FullModelParams, horizon: float, cfg: SimConfig
) -> TerminalSample:
    """Simulate the terminal price over ``horizon`` years.

    The log price is integrated in its exponential form and returned per unit
    of initial price (scale by spot to price).  Reproducible: identical
    (fm, horizon, cfg) give bit-identical samples.  The sample holds all base
    paths first and their mirrors after them in the same order, so path ``i``
    and path ``n_paths // 2 + i`` form a pair.
    """
    if not horizon > 0:
        raise ValueError("horizon must be strictly positive")
    p = fm.heston
    warnings = []
    if cfg.dt > fm.epsilon:
        warnings.append("fast_factor_step_coarse")

    n_steps = max(1, int(round(horizon / cfg.dt)))
    dt = horizon / n_steps
    sdt = math.sqrt(dt)
    chol = np.linalg.cholesky(
        correlation_matrix(fm.rho_xy, fm.rho_xz, fm.rho_yz)
    )
    f = volatility_factor(fm)

    n_base = cfg.n_paths // 2
    n_chunks = math.ceil(n_base / _CHUNK)
    streams = _chunk_streams(cfg.seed, n_chunks)

    bases, mirrors = [], []
    truncated = 0
    for chunk_idx in range(n_chunks):
        lo = chunk_idx * _CHUNK
        width = min(n_base, lo + _CHUNK) - lo
        rng = streams[chunk_idx]

        log_x = np.zeros(2 * width)
        y = np.full(2 * width, fm.y0, dtype=float)
        z = np.full(2 * width, p.z, dtype=float)
        for step in range(n_steps):
            normals = rng.standard_normal((3, width))
            normals = np.concatenate([normals, -normals], axis=1)
            w = chol @ normals

            # overflow rolls a state to inf; the periodic finite check turns
            # that into a located StepExplosion instead of a numpy warning
            with np.errstate(over="ignore", invalid="ignore"):
                z_floor = np.maximum(z, 0.0)
                truncated += int(np.count_nonzero(z < 0.0))
                sig = np.sqrt(z_floor) * f(y)
                log_x += (p.r - 0.5 * sig * sig) * dt + sig * sdt * w[0]

                c = z_floor * (dt / fm.epsilon)
                decay = np.exp(-c)
                y = fm.m + (y - fm.m) * decay + fm.nu * np.sqrt(
                    -np.expm1(-2.0 * c)
                ) * w[1]

                z = z + p.kappa * (p.theta - z_floor) * dt + p.sigma * np.sqrt(
                    z_floor
                ) * sdt * w[2]

            if step % _FINITE_CHECK_EVERY == 0 or step == n_steps - 1:
                bad = ~(np.isfinite(log_x) & np.isfinite(y) & np.isfinite(z))
                if np.any(bad):
                    idx = int(np.argmax(bad))
                    raise StepExplosion(
                        f"non-finite state in chunk {chunk_idx} at step {step}",
                        path_index=lo + (idx % width),
                        step=step,
                    )
        x = np.exp(log_x)
        bases.append(x[:width])
        mirrors.append(x[width:])

    frac = truncated / (n_steps * cfg.n_paths)
    if frac > MAX_TRUNCATION_FRACTION:
        warnings.append("truncation_fraction_above_threshold")
    return TerminalSample(
        x=np.concatenate(bases + mirrors),
        truncation_fraction=frac,
        warnings=tuple(warnings),
    )


def mc_price_call(
    fm: FullModelParams,
    strike: float,
    expiry: float,
    cfg: SimConfig,
    spot: float = 100.0,
) -> McEstimate:
    """Discounted mean call payoff with its standard error.

    The standard error is taken from the per-pair means, which is the
    unbiased estimator under mirrored draws.
    """
    if not strike > 0 or not spot > 0:
        raise ValueError("strike and spot must be positive")
    sample = simulate_paths(fm, expiry, cfg)
    disc = math.exp(-fm.heston.r * expiry)
    payoff = disc * np.maximum(spot * sample.x - strike, 0.0)
    n_base = cfg.n_paths // 2
    pooled = 0.5 * (payoff[:n_base] + payoff[n_base:])
    return McEstimate(
        price=float(pooled.mean()),
        std_error=float(pooled.std(ddof=1) / math.sqrt(n_base)),
        n_paths=cfg.n_paths,
        truncation_fraction=sample.truncation_fraction,
        warnings=sample.warnings,
    )
