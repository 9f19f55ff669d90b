"""Correctness checks run after the timed operations.

Each check compares an output of the last operation against a computation
made apart from the program (the oracles in ``tests/helpers.py``) or against
a property the method must have.  None compares against stored output.
A check returns ``(name, passed, detail)``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import inputs as wl

# |analytic - MC| must lie within this many MC standard errors.  At 4 the
# check fails by chance on about 6 seeds in 100,000 for an unbiased estimator.
MC_STD_ERRORS = 4.0
# Heston-stage recovery of the truth on noise-free pure-Heston quotes:
# relative for kappa, theta, sigma and z, absolute for rho.
RECOVERY_TOL = 1e-3
# Fitted correction coefficients on pure-Heston data; the Table-1 set at
# epsilon = 1e-2 has |v3e| ~ 0.096, so this is 1 % of that scale.
V_NEAR_ZERO = 1e-3
# Error of the DOP853 oracle, in price units at spot 100: scipy's quad
# default absolute tolerance (1.49e-8) on each of its two k-integrals,
# times the 1/pi prefactor, with a factor 2 of headroom for the ODE's
# rtol = 1e-11 and the truncation at k_cut.
ORACLE_ERROR = 2e-8
# The oracle truncates its k-integral at k_cut; the kernel decays like
# exp(-c_infinity * k), so e^-36 ~ 2e-16 is left beyond the cut.
ORACLE_DECAY = 36.0


def _check(name, passed, detail):
    return (name, bool(passed), detail)


def surface(out_dir: Path, seed: int) -> list:
    import numpy as np

    from msheston import GroupParams, HestonParams, QuadratureSpec, price_strikes
    from msheston.pricer import c_infinity
    from msheston.vol_surface import PRICE_TOL, bs_call
    from tests.helpers import ode_corrected_price

    rate = wl.SURFACE_HESTON["rate"]
    p = HestonParams(r=rate, **{k: v for k, v in wl.SURFACE_HESTON.items()
                                if k != "rate"})
    v = GroupParams(**wl.SURFACE_GROUP)
    spec = QuadratureSpec(**wl.SURFACE_QUAD)
    lo, hi, n = wl.SURFACE_STRIKES
    strikes = [float(k) for k in np.linspace(lo, hi, n)]
    with open(out_dir / "surface.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    vols = {(float(r["expiry_years"]), float(r["strike"])): float(r["implied_vol"])
            for r in rows}
    grid = [(t, k) for t in wl.SURFACE_EXPIRIES for k in strikes]
    missing = [pt for pt in grid if pt not in vols]
    checks = [_check("surface.every_point_inverts", not missing and len(rows) == len(grid),
                     f"{len(rows)} of {len(grid)} points, missing {missing}")]

    breakdowns = {}
    for t in wl.SURFACE_EXPIRIES:
        for k, bd in zip(strikes, price_strikes(strikes, t, wl.SPOT, p, v=v, spec=spec)):
            breakdowns[(t, k)] = bd
    worst = max(abs(bs_call(wl.SPOT, k, t, vols[(t, k)], rate) - breakdowns[(t, k)].total)
                for (t, k) in grid if (t, k) in vols)
    checks.append(_check("surface.vols_reprice", worst <= PRICE_TOL,
                         f"max |bs_call(vol) - price| = {worst:.3e} <= {PRICE_TOL:g}"))

    rng = np.random.default_rng(seed)
    for i in sorted(rng.choice(len(grid), wl.SURFACE_ORACLE_SAMPLE, replace=False)):
        t, k = grid[i]
        bd = breakdowns[(t, k)]
        k_cut = ORACLE_DECAY / c_infinity(t, p)
        _, oracle = ode_corrected_price(wl.SPOT, k, t, p, v, k_cut=k_cut)
        gap = abs(bd.total - oracle)
        allowed = bd.quadrature_error + ORACLE_ERROR
        checks.append(_check(f"surface.ode_oracle[T={t:g},K={k:g}]", gap <= allowed,
                             f"|price - ode| = {gap:.3e} <= {allowed:.3e}"))
    return checks


def calibrate(out_dir: Path, seed: int) -> list:
    result = json.loads((out_dir / "calibrate.json").read_text())
    heston, multi = result["heston"], result["multiscale"]
    checks = [_check("calibrate.converged", heston["converged"] and multi["converged"],
                     f"heston {heston['converged']}, multiscale {multi['converged']}")]

    errors = {}
    for name, truth in wl.CALIB_TRUTH.items():
        fitted = heston["params"][name]
        errors[name] = abs(fitted - truth) / (1.0 if name == "rho" else truth)
    worst = max(errors, key=errors.get)
    checks.append(_check("calibrate.heston_recovers_truth",
                         errors[worst] <= RECOVERY_TOL,
                         f"worst {worst} error {errors[worst]:.3e} <= {RECOVERY_TOL:g}"))
    checks.append(_check("calibrate.multiscale_not_worse",
                         multi["objective"] <= heston["objective"],
                         f"{multi['objective']:.3e} <= {heston['objective']:.3e}"))
    v_max = max(abs(x) for x in multi["group"].values())
    checks.append(_check("calibrate.v_near_zero", v_max <= V_NEAR_ZERO,
                         f"max |v| = {v_max:.3e} <= {V_NEAR_ZERO:g}"))

    counts, total = result["filters"]["counts"], result["filters"]["total_rows"]
    n_quotes = len(wl.CALIB_DAYS) * len(wl.CALIB_STRIKES)
    expected = dict(wl.CALIB_FILTERED, passed=n_quotes)
    checks.append(_check("calibrate.filter_counts",
                         sum(counts.values()) == total == sum(expected.values())
                         and counts == expected,
                         f"{counts} over {total} rows"))
    return checks


def validate_mc(out_dir: Path, seed: int) -> list:
    from tests.helpers import exp_ou_unit_v

    fm = wl.MC_FULL_MODEL
    result = json.loads((out_dir / "validate_mc.json").read_text())
    unit = exp_ou_unit_v(fm["sigma"], fm["nu"], fm["rho_xy"], fm["rho_xz"], fm["rho_yz"])
    expected = [float(u) * math.sqrt(fm["epsilon"]) for u in unit]
    got = [result["group_params"][k] for k in ("v1e", "v2e", "v3e", "v4e")]
    worst = max(abs(g - e) / abs(e) for g, e in zip(got, expected))
    checks = [_check("validate_mc.group_params_closed_form", worst <= 1e-8,
                     f"max relative gap {worst:.3e} <= 1e-8")]

    rho_eff = fm["rho_xz"] * math.exp(-fm["nu"] ** 2 / 2.0)
    gap = abs(result["rho_effective"] - rho_eff)
    checks.append(_check("validate_mc.rho_effective", gap <= 1e-10 * abs(rho_eff),
                         f"|rho_eff - rho_xz e^(-nu^2/2)| = {gap:.3e}"))

    gap = abs(result["analytic_corrected"] - result["mc_price"])
    bound = MC_STD_ERRORS * result["mc_std_error"]
    checks.append(_check("validate_mc.analytic_within_mc_error", gap <= bound,
                         f"|analytic - mc| = {gap:.4f} <= {MC_STD_ERRORS:g} se = {bound:.4f}"))
    checks.append(_check("validate_mc.run_as_asked",
                         result["n_paths"] == wl.MC_PATHS and result["seed"] == seed,
                         f"n_paths {result['n_paths']}, seed {result['seed']}"))
    return checks


CHECKS = {"surface": surface, "calibrate": calibrate, "validate_mc": validate_mc}
