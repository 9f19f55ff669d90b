"""Multi-scale Heston option pricing, calibration, and Monte Carlo validation.

Only NumPy loads with the package.  The calibration and Monte Carlo names
load their modules, and with them SciPy, on first access.
"""

import importlib

from . import errors
from .group_params import (
    FullModelParams,
    compute_group_params,
    volatility_factor,
)
from .kernel import HestonParams
from .market_io import ChainFilters, ChainLoadResult, OptionChainRow, load_chain
from .pricer import (
    GroupParams,
    OptionSpec,
    PriceBreakdown,
    price_corrected,
    price_heston,
    price_strikes,
)
from .quadrature import QuadratureSpec
from .vol_surface import VolPoint, VolSurface, bs_call, implied_vol, model_surface

# name -> the module that defines it, imported when the name is first read
_DEFERRED = {
    **dict.fromkeys(
        ("CalibProblem", "CalibResult", "calibrate_heston", "calibrate_multiscale",
         "objective_heston", "objective_multiscale", "residual_ratio_report"),
        "calibration"),
    **dict.fromkeys(("McEstimate", "SimConfig", "mc_price_call", "simulate_paths"), "mc"),
}


def __getattr__(name):
    if name in _DEFERRED:
        return getattr(importlib.import_module(f".{_DEFERRED[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "errors",
    "HestonParams",
    "GroupParams",
    "OptionSpec",
    "PriceBreakdown",
    "QuadratureSpec",
    "FullModelParams",
    "SimConfig",
    "McEstimate",
    "CalibProblem",
    "CalibResult",
    "ChainFilters",
    "ChainLoadResult",
    "OptionChainRow",
    "VolPoint",
    "VolSurface",
    "price_heston",
    "price_corrected",
    "price_strikes",
    "compute_group_params",
    "volatility_factor",
    "simulate_paths",
    "mc_price_call",
    "bs_call",
    "implied_vol",
    "model_surface",
    "calibrate_heston",
    "calibrate_multiscale",
    "objective_heston",
    "objective_multiscale",
    "residual_ratio_report",
    "load_chain",
]

__version__ = "0.1.0"
