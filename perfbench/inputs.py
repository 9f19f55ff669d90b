"""Seeded inputs of the three benchmark workloads, and the set-up probe.

Every input a workload hands to ``msheston`` is generated here from the
workload seed and written into one directory: ``argv.json`` holds the
``msheston`` command line, and the calibrate workload adds its chain CSV and
config JSON.  The program receives nothing else.

Rebuild every workload's inputs from scratch::

    python3 perfbench/inputs.py --seed 1 --out perfbench/out/inputs

With ``--workload NAME --time-setup`` the script builds one workload's
inputs and prints the seconds from before ``import msheston`` to the last
file written; ``run.py`` runs it as a fresh process to measure ``setup_s``.
Module level imports only the standard library, so that the probe's clock
starts before NumPy, SciPy and ``msheston`` load.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from datetime import date, timedelta  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("surface", "calibrate", "validate_mc")
SPOT = 100.0

# surface: the Figure-1 parameter set.  The coefficients are nonzero but
# small enough that every wing point still inverts; at v3e = 0.0096 the
# short-expiry wing prices go negative and come back as OutOfBand.
SURFACE_HESTON = {"kappa": 3.4, "theta": 0.024, "sigma": 0.39, "rho": -0.64,
                  "z": 0.04, "rate": 0.0}
SURFACE_GROUP = {"v1e": -0.001, "v2e": 0.0005, "v3e": 0.002, "v4e": -0.0005}
SURFACE_EXPIRIES = (0.25, 0.5, 1.0, 2.0)
SURFACE_STRIKES = (75.0, 125.0, 11)  # lo:hi:n, as the CLI range syntax
SURFACE_QUAD = {"abs_tol": 1e-9, "rel_tol": 1e-8, "max_subdivisions": 512}
SURFACE_ORACLE_SAMPLE = 2

# calibrate: pure-Heston quotes at the Table-1 parameters (effective
# correlation rho_xz * exp(-nu^2 / 2) with rho_xz = -0.35, nu = 1).
CALIB_TRUTH = {"kappa": 1.0, "theta": 0.24, "sigma": 0.39,
               "rho": -0.35 * math.exp(-0.5), "z": 0.24}
CALIB_RATE = 0.05
CALIB_DAYS = (91, 182, 365)
CALIB_STRIKES = (80.0, 90.0, 100.0, 110.0, 120.0)
CALIB_START = {"kappa": 1.2, "theta": 0.2, "sigma": 0.45, "rho": -0.3, "z": 0.2}
CALIB_QUAD_TOL = 1e-5
QUOTE_DATE = date(2024, 1, 2)
# rows each filter must reject, by the bucket load_chain counts them under
CALIB_FILTERED = {"not_call": 3, "maturity_too_short": 1,
                  "open_interest_too_low": 3, "mid_out_of_band": 1}

# validate_mc: the Table-1 full model at epsilon = 1e-4 (the README example),
# one at-the-money strike, 500 time steps.
MC_FULL_MODEL = {"kappa": 1.0, "theta": 0.24, "sigma": 0.39, "rho_xz": -0.35,
                 "z": 0.24, "rate": 0.05, "epsilon": 1e-4, "m": 0.06, "nu": 1.0,
                 "rho_xy": -0.35, "rho_yz": 0.35, "y0": 0.06}
MC_STRIKE = 100.0
MC_EXPIRY = 1.0
MC_PATHS = 40_000
MC_DT = 2e-3


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; call before NumPy loads.

    Child processes inherit the cap through the environment.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


class MissingProgram(RuntimeError):
    """The checkout lacks the package or the test oracles the benchmark drives."""


def use_program(root: Path = ROOT) -> None:
    """Put the checkout's ``src/`` and its root first on ``sys.path``.

    The root makes ``tests.helpers`` (the independent oracles) importable.
    Raises MissingProgram when either is absent, so that the benchmark never
    falls back to some other installed ``msheston``.
    """
    for need in (root / "src" / "msheston" / "__init__.py",
                 root / "tests" / "helpers.py"):
        if not need.is_file():
            raise MissingProgram(f"{need.relative_to(root)} not found under {root}")
    for entry in (str(root), str(root / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _flags(params: dict) -> list:
    out = []
    for key, value in params.items():
        out += ["--" + key.replace("_", "-"), repr(value)]
    return out


def _surface_argv(out_dir: Path, seed: int) -> list:
    lo, hi, n = SURFACE_STRIKES
    return (["surface", "--spot", repr(SPOT),
             "--expiries", ",".join(repr(t) for t in SURFACE_EXPIRIES),
             "--strikes", f"{lo!r}:{hi!r}:{n}",
             "--output", str(out_dir / "surface.csv")]
            + _flags(SURFACE_HESTON) + _flags(SURFACE_GROUP) + _flags(SURFACE_QUAD))


def _validate_mc_argv(out_dir: Path, seed: int) -> list:
    return (["validate-mc", "--spot", repr(SPOT), "--strike", repr(MC_STRIKE),
             "--expiry", repr(MC_EXPIRY), "--n-paths", str(MC_PATHS),
             "--dt", repr(MC_DT), "--seed", str(seed),
             "--output", str(out_dir / "validate_mc.json")]
            + _flags(MC_FULL_MODEL))


def _spread_around(mid: float, rng) -> tuple:
    """Bid and ask whose mean is exactly ``mid``, with a seeded half-spread."""
    while True:
        half = int(rng.integers(1, 65)) / 512.0
        bid, ask = mid - half, mid + half
        if bid > 0.0 and 0.5 * (bid + ask) == mid:
            return bid, ask


def _chain_rows(seed: int) -> list:
    import numpy as np

    from msheston import HestonParams
    from msheston.market_io import OptionChainRow
    from tests.helpers import gil_pelaez_heston_call

    rng = np.random.default_rng(seed)
    truth = HestonParams(r=CALIB_RATE, **CALIB_TRUTH)

    def row(days, strike, kind, bid, ask, open_interest):
        return OptionChainRow(QUOTE_DATE, QUOTE_DATE + timedelta(days=days),
                              strike, kind, bid, ask, open_interest, SPOT,
                              CALIB_RATE, 0.0)

    rows = []
    for days in CALIB_DAYS:
        for strike in CALIB_STRIKES:
            mid = gil_pelaez_heston_call(SPOT, strike, CALIB_RATE, days / 365.0, truth)
            oi = int(rng.integers(101, 5000))
            rows.append(row(days, strike, "call", *_spread_around(mid, rng), oi))
        # one put and one thinly traded call per expiry, both filtered out
        rows.append(row(days, 100.0, "put", *_spread_around(5.0, rng), 1000))
        rows.append(row(days, 105.0, "call", *_spread_around(8.0, rng),
                        int(rng.integers(0, 101))))
    # too short a maturity, and a mid below the call's intrinsic value
    rows.append(row(30, 100.0, "call", *_spread_around(4.0, rng), 1000))
    rows.append(row(182, 70.0, "call", *_spread_around(30.0, rng), 1000))
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def _calibrate_argv(out_dir: Path, seed: int) -> list:
    from msheston.market_io import write_chain

    chain = out_dir / "chain.csv"
    config = out_dir / "config.json"
    write_chain(chain, _chain_rows(seed))
    config.write_text(json.dumps({
        "calibration": {"start": CALIB_START},
        "quadrature": {"abs_tol": CALIB_QUAD_TOL, "rel_tol": CALIB_QUAD_TOL},
    }, indent=2) + "\n")
    return ["--config", str(config), "calibrate", "--chain", str(chain),
            "--output", str(out_dir / "calibrate.json")]


_WRITERS = {"surface": _surface_argv, "calibrate": _calibrate_argv,
             "validate_mc": _validate_mc_argv}


def build(workload: str, seed: int, out_dir: Path) -> None:
    """Write one workload's inputs, ``argv.json`` included, into ``out_dir``."""
    import msheston  # noqa: F401  (part of the measured set-up)

    out_dir.mkdir(parents=True, exist_ok=True)
    argv = _WRITERS[workload](out_dir, seed)
    (out_dir / "argv.json").write_text(json.dumps(argv, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True,
                        help="directory; one subdirectory per workload")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="build only this workload, directly into --out")
    parser.add_argument("--time-setup", action="store_true",
                        help="print the set-up seconds as JSON")
    args = parser.parse_args(argv)
    try:
        use_program()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    if args.workload:
        build(args.workload, args.seed, out)
    else:
        for name in WORKLOADS:
            build(name, args.seed, out / name)
    if args.time_setup:
        print(json.dumps({"setup_s": time.perf_counter() - _T_START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
