"""Multi-scale Heston option pricing, calibration, and Monte Carlo validation.

Only NumPy loads with the package: the fit imports SciPy's optimizer where
it calls it, and nothing else imports SciPy; the Monte Carlo prices its
paths with a normal CDF written in NumPy.
"""

from . import errors
from .calibration import (
    CalibProblem,
    CalibResult,
    calibrate_heston,
    calibrate_multiscale,
    objective_heston,
    objective_multiscale,
    residual_ratio_report,
)
from .group_params import (
    FullModelParams,
    compute_group_params,
    volatility_factor,
)
from .kernel import HestonParams
from .market_io import ChainFilters, ChainLoadResult, OptionChainRow, load_chain
from .mc import McEstimate, SimConfig, mc_price_call, simulate_paths
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
