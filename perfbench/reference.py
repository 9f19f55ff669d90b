"""Re-measure the rows of ROADMAP.md's baseline table.

    python3 perfbench/reference.py

Times calls into msheston's public functions on the Table-1 parameters
(kappa = 1, theta = z = 0.24, sigma = 0.39, r = 0.05, spot 100) and the
Figure-1 set, and prints one line per row with the median over repeats.
Writes ``perfbench/out/reference.json``.  The Tier-1 wall time is not
measured here; run the suite itself for it.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

import inputs

BLAS_THREADS = inputs.cap_blas_threads()


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def main() -> int:
    try:
        inputs.use_program()
    except inputs.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    from msheston import (CalibProblem, FullModelParams, GroupParams, HestonParams,
                          OptionSpec, QuadratureSpec, SimConfig, compute_group_params,
                          implied_vol, model_surface, objective_heston,
                          objective_multiscale, price_corrected, price_heston,
                          price_strikes, simulate_paths)
    from msheston.vol_surface import VolPoint, VolSurface, bs_call
    from tests.helpers import exp_ou_unit_v

    rho_xz, nu, eps = -0.35, 1.0, 1e-2
    table1 = HestonParams(kappa=1.0, theta=0.24, sigma=0.39,
                          rho=rho_xz * math.exp(-nu * nu / 2), z=0.24, r=0.05)
    v = GroupParams(*(math.sqrt(eps) * exp_ou_unit_v(0.39, nu, -0.35, rho_xz, 0.35)))
    full = FullModelParams(
        heston=HestonParams(kappa=1.0, theta=0.24, sigma=0.39, rho=rho_xz, z=0.24,
                            r=0.05),
        epsilon=eps, m=0.06, nu=nu, rho_xy=-0.35, rho_yz=0.35, y0=0.06)
    spec = QuadratureSpec()
    atm = OptionSpec(strike=100.0, expiry=1.0, spot=100.0)
    strip = list(np.linspace(70.0, 130.0, 25))

    rows = []

    def row(name, seconds, note=""):
        rows.append({"row": name, "seconds": seconds, "note": note})
        print(f"{name:<58} {seconds:10.4f} s  {note}", flush=True)

    row("price_heston, 1 strike",
        _median_time(lambda: price_heston(atm, table1, spec), 21))
    row("price_strikes, baseline, 25 strikes, tau=1",
        _median_time(lambda: price_strikes(strip, 1.0, 100.0, table1, None, spec), 11))
    row("price_corrected, 1 strike",
        _median_time(lambda: price_corrected(atm, table1, v, spec), 5))
    for tau in (0.25, 1.0, 3.0):
        row(f"price_strikes, corrected, 25 strikes, tau={tau:g}",
            _median_time(lambda: price_strikes(strip, tau, 100.0, table1, v, spec), 3))

    quotes = [(k, t, bs_call(100.0, k, t, 0.2 + 0.1 * (k - 100.0) ** 2 / 900.0, 0.05))
              for t in (0.25, 1.0) for k in strip]
    per_call = _median_time(
        lambda: [implied_vol(c, 100.0, k, t, 0.05) for k, t, c in quotes], 5)
    row("implied_vol, per call", per_call / len(quotes), f"over {len(quotes)} quotes")

    row("compute_group_params", _median_time(lambda: compute_group_params(full), 3))

    cfg = SimConfig(n_paths=20_000, dt=1e-3, seed=7)
    mc_s = _median_time(lambda: simulate_paths(full, 1.0, cfg), 3)
    row("MC simulate_paths, 20k paths x 1000 steps", mc_s,
        f"{mc_s * 1e9 / (20_000 * 1000):.1f} ns per path-step")

    fig1 = HestonParams(kappa=3.4, theta=0.024, sigma=0.39, rho=-0.64, z=0.04, r=0.0)
    fig1_v = GroupParams(-0.001, 0.0005, 0.002, -0.0005)
    surf = model_surface([0.25, 0.5, 1.0, 2.0], list(np.linspace(85.0, 115.0, 8)),
                         fig1, None)
    market = VolSurface(
        spot=surf.spot, rates=dict(surf.rates), dividend_yields={},
        points=tuple(VolPoint(p.expiry, p.strike, p.implied_vol, "market")
                     for p in surf.points))
    prob = CalibProblem(market=market)
    row(f"objective_heston, {market.n_points} quotes (fig-1 set)",
        _median_time(lambda: objective_heston(fig1, prob), 5))
    row(f"objective_multiscale, {market.n_points} quotes (fig-1 set)",
        _median_time(lambda: objective_multiscale((fig1, fig1_v), prob), 1))

    out = inputs.ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "reference.json").write_text(json.dumps(
        {"blas_threads": BLAS_THREADS, "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
