"""Command-line surface tying the toolkit together.

Subcommands
-----------
price        one option's corrected price breakdown (JSON or table)
surface      implied-vol surface on an expiry/strike grid, as CSV
sweep        vary one correction coefficient over a range, one smile CSV each
calibrate    two-stage fit to a chain CSV; result JSON plus residual report
validate-mc  analytic-vs-Monte-Carlo comparison row for a full model
group-params effective correlation and correction coefficients

Exit codes: 0 success, 2 parse/data errors, 3 numeric/parameter errors,
4 quadrature or solver nonconvergence.  Identical invocations produce
byte-identical artifacts; no timestamps are embedded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .calibration import (
    CALIBRATION_QUADRATURE,
    CalibProblem,
    calibrate_heston,
    calibrate_multiscale,
    format_residual_table,
    residual_ratio_report,
)
from .errors import (
    BranchCrossing,
    ContourViolation,
    EmptyAfterFilter,
    MsHestonError,
    NonConvergence,
    NonFinite,
    OutOfBand,
    ParseError,
    StepExplosion,
)
from .group_params import FullModelParams, compute_group_params
from .kernel import HestonParams
from .market_io import ChainFilters, load_chain, load_config
from .mc import McEstimate, SimConfig, mc_price_call
from .pricer import GroupParams, OptionSpec, price_corrected
from .quadrature import QuadratureSpec
from .vol_surface import model_surface

_PARSE_EXIT = 2
_NUMERIC_EXIT = 3
_NONCONVERGENCE_EXIT = 4


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _cfg_get(config: dict, section: str, key: str, flag_value, default):
    if flag_value is not None:
        return flag_value
    sect = config.get(section, {})
    if key in sect:
        return sect[key]
    return default


def _heston_from_args(args, config) -> HestonParams:
    def pick(key, default=None):
        return _cfg_get(config, "heston", key, getattr(args, key, None), default)

    missing = [k for k in ("kappa", "theta", "sigma", "rho", "z") if pick(k) is None]
    if missing:
        raise ParseError(
            f"missing Heston parameters: {', '.join(missing)} "
            "(flags or config 'heston' section)",
            0,
        )
    return HestonParams(
        kappa=float(pick("kappa")),
        theta=float(pick("theta")),
        sigma=float(pick("sigma")),
        rho=float(pick("rho")),
        z=float(pick("z")),
        r=float(pick("rate", 0.0) if pick("rate") is not None else 0.0),
        allow_feller_violation=bool(pick("allow_feller_violation", False)),
    )


def _group_from_args(args, config) -> GroupParams:
    vals = [
        float(_cfg_get(config, "group", k, getattr(args, k, None), 0.0))
        for k in ("v1e", "v2e", "v3e", "v4e")
    ]
    return GroupParams(*vals)


_QUADRATURE_KEYS = (
    ("abs_tol", float), ("rel_tol", float), ("max_subdivisions", int)
)


def _quadrature_from_args(args, config, base=QuadratureSpec()) -> QuadratureSpec:
    """``base`` with the settings given by flag or config; flags win."""
    values = {}
    for key, cast in _QUADRATURE_KEYS:
        value = _cfg_get(config, "quadrature", key, getattr(args, key, None), None)
        if value is not None:
            values[key] = cast(value)
    return replace(base, **values)


def _full_model_from_args(args, config) -> FullModelParams:
    def pick(key, default=None):
        return _cfg_get(config, "full_model", key, getattr(args, key, None), default)

    required = ("kappa", "theta", "sigma", "rho_xz", "z", "epsilon", "m", "nu",
                "rho_xy", "rho_yz", "y0")
    missing = [k for k in required if pick(k) is None]
    if missing:
        raise ParseError(
            f"missing full-model parameters: {', '.join(missing)} "
            "(flags or config 'full_model' section)",
            0,
        )
    heston = HestonParams(
        kappa=float(pick("kappa")),
        theta=float(pick("theta")),
        sigma=float(pick("sigma")),
        rho=float(pick("rho_xz")),
        z=float(pick("z")),
        r=float(pick("rate", 0.0) if pick("rate") is not None else 0.0),
    )
    return FullModelParams(
        heston=heston,
        epsilon=float(pick("epsilon")),
        m=float(pick("m")),
        nu=float(pick("nu")),
        rho_xy=float(pick("rho_xy")),
        rho_yz=float(pick("rho_yz")),
        y0=float(pick("y0")),
        f_kind=str(pick("f_kind", "exp_ou")),
    )


def _parse_floats(text: str) -> list:
    """Comma list '1,2,3' or range 'lo:hi:n'."""
    if ":" in text:
        lo, hi, n = text.split(":")
        return [float(x) for x in np.linspace(float(lo), float(hi), int(n))]
    return [float(x) for x in text.split(",")]


def _breakdown_payload(bd) -> dict:
    return {
        "total": bd.total,
        "p_heston": bd.p_heston,
        "p_correction": bd.p_correction,
        "p00": bd.p00,
        "p10": bd.p10,
        "p11": bd.p11,
        "quadrature_error": bd.quadrature_error,
        "warnings": list(bd.warnings),
    }


# -- subcommands ---------------------------------------------------------------


def _cmd_price(args, config):
    p = _heston_from_args(args, config)
    v = _group_from_args(args, config)
    spec = _quadrature_from_args(args, config)
    opt = OptionSpec(
        strike=args.strike, expiry=args.expiry, spot=args.spot,
        payoff_kind=args.payoff,
    )
    bd = price_corrected(opt, p, v, spec)
    if args.format == "json":
        _emit(_json_dumps(_breakdown_payload(bd)), args.output)
    else:
        lines = [f"{k:>18}: {val}" for k, val in _breakdown_payload(bd).items()]
        _emit("\n".join(lines) + "\n", args.output)
    return _NONCONVERGENCE_EXIT if any(
        w.startswith("nonconvergence") for w in bd.warnings
    ) else 0


def _cmd_surface(args, config):
    p = _heston_from_args(args, config)
    v = _group_from_args(args, config)
    spec = _quadrature_from_args(args, config)
    expiries = _parse_floats(args.expiries)
    strikes = _parse_floats(args.strikes)
    surface = model_surface(
        expiries, strikes, p, v, spec, spot=args.spot,
        dividend_yield=args.dividend_yield,
    )
    _emit(surface.to_csv(), args.output)
    return 0


def _cmd_sweep(args, config):
    p = _heston_from_args(args, config)
    base = _group_from_args(args, config)
    spec = _quadrature_from_args(args, config)
    strikes = _parse_floats(args.strikes)
    values = _parse_floats(args.values)
    if args.vary not in ("v1e", "v2e", "v3e", "v4e"):
        raise ParseError(f"--vary must be one of v1e..v4e, got {args.vary}", 0)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for value in values:
        fields = {k: getattr(base, k) for k in ("v1e", "v2e", "v3e", "v4e")}
        fields[args.vary] = value
        v = GroupParams(**fields)
        surface = model_surface(
            [args.expiry], strikes, p, v, spec, spot=args.spot,
            dividend_yield=args.dividend_yield,
        )
        name = f"sweep_{args.vary}_{value:+.6f}.csv"
        (out_dir / name).write_text(surface.to_csv())
        written.append(name)
    sys.stdout.write("\n".join(written) + "\n")
    return 0


def _cmd_calibrate(args, config):
    calib_cfg = config.get("calibration", {})
    start_cfg = calib_cfg.get("start")
    if not start_cfg:
        raise ParseError(
            "config must provide calibration.start with kappa/rho/sigma/theta/z "
            "(the visual-tuning start point is a user judgment)",
            0,
        )
    filters = ChainFilters(**{
        key: int(calib_cfg[key])
        for key in ("min_days", "min_open_interest")
        if key in calib_cfg
    })
    loaded = load_chain(args.chain, filters)
    rate = loaded.surface.rate(loaded.surface.expiries()[0])
    start = HestonParams(
        kappa=float(start_cfg["kappa"]),
        theta=float(start_cfg["theta"]),
        sigma=float(start_cfg["sigma"]),
        rho=float(start_cfg["rho"]),
        z=float(start_cfg["z"]),
        r=rate,
        allow_feller_violation=True,
    )
    prob = CalibProblem(
        market=loaded.surface,
        bounds={k: tuple(vv) for k, vv in calib_cfg.get("bounds", {}).items()},
        feller_mode=calib_cfg.get("feller_mode", "penalize"),
        quadrature=_quadrature_from_args(args, config, CALIBRATION_QUADRATURE),
    )
    n_restarts = int(calib_cfg.get("multistart", 0))
    h_res = calibrate_heston(prob, start, n_restarts=n_restarts)
    m_res = calibrate_multiscale(prob, h_res, n_restarts=n_restarts)
    rows = residual_ratio_report(h_res, m_res, prob)
    payload = {
        "filters": {"counts": loaded.counts, "total_rows": loaded.total_rows},
        "provenance": {
            "chain_sha256": _sha256_of(args.chain),
            "config_sha256": _sha256_of(args.config) if args.config else None,
        },
        "heston": {
            "params": {k: getattr(h_res.heston, k) for k in
                       ("kappa", "rho", "sigma", "theta", "z", "r")},
            "objective": h_res.objective,
            "iterations": h_res.iterations,
            "converged": h_res.converged,
            "feller_satisfied": h_res.feller_satisfied,
        },
        "multiscale": {
            "params": {k: getattr(m_res.heston, k) for k in
                       ("kappa", "rho", "sigma", "theta", "z", "r")},
            "group": {k: getattr(m_res.group, k) for k in
                      ("v1e", "v2e", "v3e", "v4e")},
            "objective": m_res.objective,
            "iterations": m_res.iterations,
            "converged": m_res.converged,
            "feller_satisfied": m_res.feller_satisfied,
        },
        "per_expiry": rows,
    }
    _emit(_json_dumps(payload), args.output)
    sys.stdout.write(format_residual_table(rows) + "\n")
    if not (h_res.converged and m_res.converged):
        return _NONCONVERGENCE_EXIT
    return 0


def _cmd_validate_mc(args, config):
    fm = _full_model_from_args(args, config)
    spec = _quadrature_from_args(args, config)
    rho_eff, v = compute_group_params(fm)
    p_eff = fm.heston.replace(rho=rho_eff)
    opt = OptionSpec(strike=args.strike, expiry=args.expiry, spot=args.spot)
    bd = price_corrected(opt, p_eff, v, spec)
    sim_cfg = config.get("sim", {})
    cfg = SimConfig(
        n_paths=int(_cfg_get(config, "sim", "n_paths", args.n_paths, 100_000)),
        dt=float(_cfg_get(config, "sim", "dt", args.dt, 1e-4)),
        seed=int(args.seed if args.seed is not None else sim_cfg.get("seed", 0)),
        antithetic=bool(sim_cfg.get("antithetic", True)),
        fast_factor_update=str(sim_cfg.get("fast_factor_update", "exact_ou")),
    )
    est: McEstimate = mc_price_call(fm, args.strike, args.expiry, cfg, spot=args.spot)
    gap = abs(bd.total - est.price)
    payload = {
        "epsilon": fm.epsilon,
        "group_params": {k: getattr(v, k) for k in ("v1e", "v2e", "v3e", "v4e")},
        "rho_effective": rho_eff,
        "analytic_heston": bd.p_heston,
        "analytic_corrected": bd.total,
        "mc_price": est.price,
        "mc_std_error": est.std_error,
        "abs_gap": gap,
        "within_3_std_errors": bool(gap <= 3.0 * est.std_error),
        "truncation_fraction": est.truncation_fraction,
        "n_paths": est.n_paths,
        "dt": cfg.dt,
        "seed": cfg.seed,
        "warnings": list(est.warnings) + list(bd.warnings),
    }
    _emit(_json_dumps(payload), args.output)
    return 0


def _cmd_group_params(args, config):
    fm = _full_model_from_args(args, config)
    rho_eff, v = compute_group_params(fm)
    payload = {
        "epsilon": fm.epsilon,
        "rho_effective": rho_eff,
        "v1e": v.v1e,
        "v2e": v.v2e,
        "v3e": v.v3e,
        "v4e": v.v4e,
    }
    _emit(_json_dumps(payload), args.output)
    return 0


# -- argument wiring -------------------------------------------------------------


def _add_heston_flags(sp):
    for name in ("kappa", "theta", "sigma", "rho", "z", "rate"):
        sp.add_argument(f"--{name}", type=float, default=None)
    sp.add_argument("--allow-feller-violation", dest="allow_feller_violation",
                    action="store_true", default=None)


def _add_group_flags(sp):
    for name in ("v1e", "v2e", "v3e", "v4e"):
        sp.add_argument(f"--{name}", type=float, default=None)


def _add_quadrature_flags(sp):
    sp.add_argument("--abs-tol", type=float, default=None)
    sp.add_argument("--rel-tol", type=float, default=None)
    sp.add_argument("--max-subdivisions", type=int, default=None)


def _add_full_model_flags(sp):
    for name in ("kappa", "theta", "sigma", "z", "rate", "epsilon", "m", "nu",
                 "y0"):
        sp.add_argument(f"--{name}", type=float, default=None)
    sp.add_argument("--rho-xy", dest="rho_xy", type=float, default=None)
    sp.add_argument("--rho-xz", dest="rho_xz", type=float, default=None)
    sp.add_argument("--rho-yz", dest="rho_yz", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msheston",
        description="Multi-scale Heston pricing, calibration, and validation",
    )
    parser.add_argument("--config", default=None,
                        help="JSON config path (default: $MSHESTON_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("price", help="price one option")
    sp.add_argument("--spot", type=float, required=True)
    sp.add_argument("--strike", type=float, required=True)
    sp.add_argument("--expiry", type=float, required=True)
    sp.add_argument("--payoff", choices=("call", "put"), default="call")
    sp.add_argument("--format", choices=("json", "table"), default="json")
    sp.add_argument("--output", default=None)
    _add_heston_flags(sp)
    _add_group_flags(sp)
    _add_quadrature_flags(sp)
    sp.set_defaults(func=_cmd_price)

    sp = sub.add_parser("surface", help="implied-vol surface CSV")
    sp.add_argument("--spot", type=float, required=True)
    sp.add_argument("--expiries", required=True,
                    help="comma list or lo:hi:n range, in years")
    sp.add_argument("--strikes", required=True,
                    help="comma list or lo:hi:n range")
    sp.add_argument("--dividend-yield", type=float, default=0.0)
    sp.add_argument("--output", default=None)
    _add_heston_flags(sp)
    _add_group_flags(sp)
    _add_quadrature_flags(sp)
    sp.set_defaults(func=_cmd_surface)

    sp = sub.add_parser("sweep", help="vary one correction coefficient")
    sp.add_argument("--spot", type=float, required=True)
    sp.add_argument("--expiry", type=float, required=True)
    sp.add_argument("--strikes", required=True)
    sp.add_argument("--vary", required=True, help="one of v1e..v4e")
    sp.add_argument("--values", required=True, help="comma list or lo:hi:n")
    sp.add_argument("--dividend-yield", type=float, default=0.0)
    sp.add_argument("--output-dir", required=True)
    _add_heston_flags(sp)
    _add_group_flags(sp)
    _add_quadrature_flags(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("calibrate", help="two-stage fit to a chain CSV")
    sp.add_argument("--chain", required=True)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_calibrate)

    sp = sub.add_parser("validate-mc", help="analytic vs Monte Carlo row")
    sp.add_argument("--spot", type=float, required=True)
    sp.add_argument("--strike", type=float, required=True)
    sp.add_argument("--expiry", type=float, required=True)
    sp.add_argument("--n-paths", dest="n_paths", type=int, default=None)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--output", default=None)
    _add_full_model_flags(sp)
    _add_quadrature_flags(sp)
    sp.set_defaults(func=_cmd_validate_mc)

    sp = sub.add_parser("group-params", help="effective correlation and coefficients")
    sp.add_argument("--output", default=None)
    _add_full_model_flags(sp)
    sp.set_defaults(func=_cmd_group_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except (ParseError, EmptyAfterFilter, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _PARSE_EXIT
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NONCONVERGENCE_EXIT
    except (
        ValueError,
        NonFinite,
            StepExplosion,
        OutOfBand,
            BranchCrossing,
        ContourViolation,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT
    except MsHestonError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
