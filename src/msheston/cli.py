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
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .calibration import (CALIBRATION_QUADRATURE, DEFAULT_BOUNDS, CalibProblem,
                          calibrate_heston, calibrate_multiscale,
                          format_residual_table, residual_ratio_report)
from .errors import EmptyAfterFilter, MsHestonError, NonConvergence, ParseError
from .group_params import FullModelParams, compute_group_params
from .kernel import HestonParams
from .market_io import ChainFilters, config_path, load_chain, load_config
from .mc import SimConfig, mc_price_call
from .pricer import GROUP_NAMES, HESTON_NAMES, GroupParams, OptionSpec, price_corrected
from .quadrature import QuadratureSpec
from .vol_surface import model_surface

_PARSE_EXIT = 2
_NUMERIC_EXIT = 3
_NONCONVERGENCE_EXIT = 4


# -- settings ------------------------------------------------------------------

# Default of a setting that must be given by flag or config.  A setting whose
# default is None and that neither sets is left out, so the library default
# applies; any other default is the command line's own.
_REQUIRED = object()


def _keys(names, kind, default):
    return {name: (kind, default) for name in names}


# Each config section's keys as (kind, default).  A kind is a type, a tuple of
# types (a JSON list of that length) or a nested table (a JSON object).
_SETTINGS = {
    "heston": {
        **_keys(("kappa", "theta", "sigma", "rho", "z"), float, _REQUIRED),
        "rate": (float, 0.0),
    },
    "group": _keys(GROUP_NAMES, float, 0.0),
    "quadrature": {
        **_keys(("abs_tol", "rel_tol"), float, None),
        "max_subdivisions": (int, None),
    },
    "full_model": {
        **_keys(("kappa", "theta", "sigma", "z"), float, _REQUIRED),
        "rate": (float, 0.0),
        **_keys(("epsilon", "m", "nu", "y0", "rho_xy", "rho_xz", "rho_yz"),
                float, _REQUIRED),
    },
    "sim": {
        "n_paths": (int, 100_000),
        "dt": (float, 1e-4),
        "seed": (int, 0),
    },
    "calibration": {
        # the start point is a user judgment, typically from visually tuning
        # the baseline surface
        "start": (_keys(HESTON_NAMES, float, _REQUIRED), _REQUIRED),
        "bounds": (_keys(DEFAULT_BOUNDS, (float, float), None), None),
        **_keys(("min_days", "min_open_interest"), int, None),
    },
}

_KIND_NAMES = {float: "a number", int: "an integer"}


def _typed(kind, value, where: str):
    """``value`` read as ``kind``; ParseError naming ``where`` otherwise."""
    if isinstance(kind, dict):
        return _resolve(kind, value, where)
    if isinstance(kind, tuple):
        if not (isinstance(value, list) and len(value) == len(kind)):
            raise ParseError(
                f"config {where} must be a list of {len(kind)}, got {value!r}", 0
            )
        return tuple(_typed(k, v, f"{where}[{i}]")
                     for i, (k, v) in enumerate(zip(kind, value)))
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    ok = ok and (kind is float or isinstance(value, int) or value.is_integer())
    if not ok:
        raise ParseError(f"config {where} must be {_KIND_NAMES[kind]}, got {value!r}", 0)
    return kind(value)


def _resolve(table: dict, values, where: str, flags=None) -> dict:
    """The keys of ``table`` set by flag or in ``values``; the flag wins.

    Each is cast to its kind.  A key set by neither takes its default, or is
    left out where the default is None.  Raises ParseError naming the key for
    a section that is not an object, an unknown key, a value of the wrong type
    (checked also where a flag overrides it) and a missing required key.
    """
    if not isinstance(values, dict):
        raise ParseError(f"config {where} must be an object, got {values!r}", 0)
    resolved, missing = {}, []
    for key, value in values.items():
        if key not in table:
            raise ParseError(f"unknown config key {where}.{key}", 0)
        resolved[key] = _typed(table[key][0], value, f"{where}.{key}")
    for key, (_, default) in table.items():
        flag = getattr(flags, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key not in resolved and default is _REQUIRED:
            missing.append(f"{where}.{key}")
        elif key not in resolved and default is not None:
            resolved[key] = default
    if missing:
        raise ParseError(f"missing {', '.join(missing)} (flag or config)", 0)
    return resolved


def _settings(section: str, args, config: dict) -> dict:
    """The settings of one config section, from flags over the config."""
    for name in config:
        if name not in _SETTINGS:
            raise ParseError(f"unknown config section {name}", 0)
    return _resolve(_SETTINGS[section], config.get(section, {}), section, args)


def _subset(values: dict, *keys) -> dict:
    return {key: values[key] for key in keys if key in values}


def _pricing_inputs(args, config):
    """Heston parameters, correction coefficients and quadrature of a command."""
    heston = _settings("heston", args, config)
    return (
        HestonParams(r=heston.pop("rate"), **heston),
        GroupParams(**_settings("group", args, config)),
        QuadratureSpec(**_settings("quadrature", args, config)),
    )


def _full_model(args, config) -> FullModelParams:
    model = _settings("full_model", args, config)
    heston = HestonParams(
        rho=model.pop("rho_xz"), r=model.pop("rate"),
        **{key: model.pop(key) for key in ("kappa", "theta", "sigma", "z")},
    )
    return FullModelParams(heston=heston, **model)


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dumps(payload) -> str:
    # a non-finite number raises: NaN and Infinity are not JSON
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _sha256_of(path) -> str:
    # imported here, not with the module: hashlib loads OpenSSL, which only
    # calibrate's provenance hashes need
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _parse_floats(text: str, flag: str) -> list:
    """Comma list '1,2,3' or range 'lo:hi:n' with n >= 1; ParseError naming ``flag``."""
    try:
        if ":" in text:
            lo, hi, n = text.split(":")
            if int(n) < 1:
                raise ValueError
            return [float(x) for x in np.linspace(float(lo), float(hi), int(n))]
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ParseError(
            f"{flag} must be a comma list or lo:hi:n with n >= 1, got {text!r}", 0
        ) from None


def _report_points(surface, where: str = "") -> bool:
    """One stderr line per grid point that ``surface`` could not invert and
    per point priced beyond the quadrature tolerance; True if any was."""
    for expiry, strike, kind, message in surface.errors:
        print(f"warning: {where}dropped expiry {expiry!r} strike {strike!r}: "
              f"{kind}: {message}", file=sys.stderr)
    for expiry, strike in surface.soft_failures:
        print(f"warning: {where}expiry {expiry!r} strike {strike!r}: "
              "nonconvergence: price missed its quadrature tolerance", file=sys.stderr)
    return bool(surface.soft_failures)


def _breakdown_payload(bd) -> dict:
    return {
        "total": bd.total,
        "p_heston": bd.p_heston,
        "p_correction": bd.p_correction,
        "quadrature_error": bd.quadrature_error,
        "warnings": list(bd.warnings),
    }


# -- subcommands ---------------------------------------------------------------


def _cmd_price(args, config):
    p, v, spec = _pricing_inputs(args, config)
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
    return _NONCONVERGENCE_EXIT if "nonconvergence" in bd.warnings else 0


def _cmd_surface(args, config):
    p, v, spec = _pricing_inputs(args, config)
    expiries = _parse_floats(args.expiries, "--expiries")
    strikes = _parse_floats(args.strikes, "--strikes")
    surface = model_surface(
        expiries, strikes, p, v, spec, spot=args.spot,
        dividend_yield=args.dividend_yield,
    )
    soft = _report_points(surface)
    _emit(surface.to_csv(), args.output)
    return _NONCONVERGENCE_EXIT if soft else 0


def _cmd_sweep(args, config):
    p, base, spec = _pricing_inputs(args, config)
    strikes = _parse_floats(args.strikes, "--strikes")
    values = _parse_floats(args.values, "--values")
    if args.vary not in GROUP_NAMES:
        raise ParseError(f"--vary must be one of v1e..v4e, got {args.vary}", 0)
    names = [f"sweep_{args.vary}_{value:+.6f}.csv" for value in values]
    if len(set(names)) < len(names):
        raise ParseError(
            f"--values {args.values!r} gives two files the same name "
            "(names keep 6 decimals)", 0
        )
    # every value is refused or admitted before the first file is written
    groups = [replace(base, **{args.vary: value}) for value in values]
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    soft = False
    for group, name in zip(groups, names):
        surface = model_surface(
            [args.expiry], strikes, p, group, spec,
            spot=args.spot, dividend_yield=args.dividend_yield,
        )
        soft = _report_points(surface, f"{name}: ") or soft
        (out_dir / name).write_text(surface.to_csv())
    sys.stdout.write("\n".join(names) + "\n")
    return _NONCONVERGENCE_EXIT if soft else 0


def _stage_payload(res) -> dict:
    """One stage's ``CalibResult`` as a block of the ``calibrate`` JSON;
    ``group`` when it has one."""
    group = {} if res.group is None else {
        "group": {k: getattr(res.group, k) for k in GROUP_NAMES}}
    return {
        "params": {k: getattr(res.heston, k) for k in
                   ("kappa", "rho", "sigma", "theta", "z", "r")},
        **group,
        "objective": res.objective,
        "iterations": res.iterations,
        "jacobians": res.jacobians,
        "soft_failures": res.soft_failures,
        "converged": res.converged,
        "feller_satisfied": res.feller_satisfied,
    }


def _cmd_calibrate(args, config):
    calib = _settings("calibration", args, config)
    quadrature = replace(CALIBRATION_QUADRATURE, **_settings("quadrature", args, config))
    filters = ChainFilters(**_subset(calib, "min_days", "min_open_interest"))
    loaded = load_chain(args.chain, filters)
    rate = loaded.surface.rate(loaded.surface.expiries()[0])
    start = HestonParams(**calib["start"], r=rate)
    prob = CalibProblem(
        market=loaded.surface, quadrature=quadrature, **_subset(calib, "bounds")
    )
    # refuse a chain too short for the multiscale stage before fitting either
    prob.require_enough_quotes()
    h_res = calibrate_heston(prob, start)
    m_res = calibrate_multiscale(prob, h_res)
    rows = residual_ratio_report(h_res, m_res, prob)
    payload = {
        "filters": {"counts": loaded.counts, "total_rows": loaded.total_rows},
        "provenance": {
            "chain_sha256": _sha256_of(args.chain),
            "config_sha256": _sha256_of(args.config) if args.config else None,
        },
        "heston": _stage_payload(h_res),
        "multiscale": _stage_payload(m_res),
        "per_expiry": rows,
    }
    _emit(_json_dumps(payload), args.output)
    sys.stdout.write(format_residual_table(rows) + "\n")
    # a stage that stopped short or fitted best estimates beyond tolerance
    if not all(res.converged and not res.soft_failures for res in (h_res, m_res)):
        return _NONCONVERGENCE_EXIT
    return 0


def _cmd_validate_mc(args, config):
    fm = _full_model(args, config)
    spec = QuadratureSpec(**_settings("quadrature", args, config))
    cfg = SimConfig(**_settings("sim", args, config))
    rho_eff, v = compute_group_params(fm)
    p_eff = fm.heston.replace(rho=rho_eff)
    opt = OptionSpec(strike=args.strike, expiry=args.expiry, spot=args.spot)
    bd = price_corrected(opt, p_eff, v, spec)
    est = mc_price_call(fm, args.strike, args.expiry, cfg, spot=args.spot)
    gap = abs(bd.total - est.price)
    payload = {
        "epsilon": fm.epsilon,
        "group_params": {k: getattr(v, k) for k in GROUP_NAMES},
        "rho_effective": rho_eff,
        "analytic_heston": bd.p_heston,
        "analytic_corrected": bd.total,
        "mc_price": est.price,
        "mc_std_error": est.std_error,
        "mc_uncontrolled_std_error": est.uncontrolled_std_error,
        "mc_correction": est.correction,
        "mc_correction_std_error": est.correction_std_error,
        "abs_gap": gap,
        "within_3_std_errors": bool(gap <= 3.0 * est.std_error),
        "truncation_fraction": est.truncation_fraction,
        "n_paths": est.n_paths,
        "dt": est.dt,
        "seed": cfg.seed,
        "warnings": list(est.warnings) + list(bd.warnings),
    }
    _emit(_json_dumps(payload), args.output)
    if "nonconvergence" in bd.warnings:
        print("warning: the analytic price missed its quadrature tolerance",
              file=sys.stderr)
        return _NONCONVERGENCE_EXIT
    return 0


def _cmd_group_params(args, config):
    fm = _full_model(args, config)
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


def _add_flags(sp, section: str, keys=None):
    """A ``--key`` flag for each setting of ``section``, or for ``keys`` of it."""
    table = _SETTINGS[section]
    for key in keys or table:
        sp.add_argument("--" + key.replace("_", "-"), type=table[key][0], default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process and shared by every
    call: parsing leaves it as it was, and callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="msheston",
        description="Multi-scale Heston pricing, calibration, and validation",
    )
    parser.add_argument("--config", default=None,
                        help="JSON config path (default: $MSHESTON_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    price = sub.add_parser("price", help="price one option")
    price.add_argument("--spot", type=float, required=True)
    price.add_argument("--strike", type=float, required=True)
    price.add_argument("--expiry", type=float, required=True)
    price.add_argument("--payoff", choices=("call", "put"), default="call")
    price.add_argument("--format", choices=("json", "table"), default="json")
    price.add_argument("--output", default=None)

    surface = sub.add_parser("surface", help="implied-vol surface CSV")
    surface.add_argument("--spot", type=float, required=True)
    surface.add_argument("--expiries", required=True,
                         help="comma list or lo:hi:n range, in years")
    surface.add_argument("--strikes", required=True,
                         help="comma list or lo:hi:n range")
    surface.add_argument("--dividend-yield", type=float, default=0.0)
    surface.add_argument("--output", default=None)

    sweep = sub.add_parser("sweep", help="vary one correction coefficient")
    sweep.add_argument("--spot", type=float, required=True)
    sweep.add_argument("--expiry", type=float, required=True)
    sweep.add_argument("--strikes", required=True)
    sweep.add_argument("--vary", required=True, help="one of v1e..v4e")
    sweep.add_argument("--values", required=True, help="comma list or lo:hi:n")
    sweep.add_argument("--dividend-yield", type=float, default=0.0)
    sweep.add_argument("--output-dir", required=True)

    for sp, func in ((price, _cmd_price), (surface, _cmd_surface),
                     (sweep, _cmd_sweep)):
        for section in ("heston", "group", "quadrature"):
            _add_flags(sp, section)
        sp.set_defaults(func=func)

    sp = sub.add_parser("calibrate", help="two-stage fit to a chain CSV")
    sp.add_argument("--chain", required=True)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_calibrate)

    sp = sub.add_parser("validate-mc", help="analytic vs Monte Carlo row")
    sp.add_argument("--spot", type=float, required=True)
    sp.add_argument("--strike", type=float, required=True)
    sp.add_argument("--expiry", type=float, required=True)
    _add_flags(sp, "sim", ("n_paths", "dt", "seed"))
    sp.add_argument("--output", default=None)
    _add_flags(sp, "full_model")
    _add_flags(sp, "quadrature")
    sp.set_defaults(func=_cmd_validate_mc)

    sp = sub.add_parser("group-params", help="effective correlation and coefficients")
    sp.add_argument("--output", default=None)
    _add_flags(sp, "full_model")
    sp.set_defaults(func=_cmd_group_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the file actually read, which calibrate's provenance hashes
    args.config = config_path(args.config)
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except (ParseError, EmptyAfterFilter, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _PARSE_EXIT
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NONCONVERGENCE_EXIT
    except (ValueError, MsHestonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
