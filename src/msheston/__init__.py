"""Multi-scale Heston option pricing, calibration, and Monte Carlo validation."""

from . import errors
from .calibration import (
    CalibProblem,
    CalibResult,
    calibrate_heston,
    calibrate_multiscale,
    objective_heston,
    objective_multiscale,
    residual_ratio_report,
    residual_report,
)
from .group_params import (
    FullModelParams,
    compute_group_params,
    volatility_factor,
)
from .kernel import HestonParams, Wavenumber
from .market_io import ChainFilters, ChainLoadResult, OptionChainRow, load_chain
from .mc import McEstimate, SimConfig, correlate_brownians, mc_price_call, simulate_paths
from .pricer import (
    GroupParams,
    OptionSpec,
    PriceBreakdown,
    f1_hat,
    payoff_transform_call,
    payoff_transform_put,
    price_corrected,
    price_grid,
    price_heston,
    price_strikes,
)
from .quadrature import (
    IntegralEstimate,
    QuadratureSpec,
    halfline_via_u,
    integrate_unit,
)
from .vol_surface import VolPoint, VolSurface, bs_call, implied_vol, model_surface

__all__ = [
    "errors",
    "HestonParams",
    "Wavenumber",
    "GroupParams",
    "OptionSpec",
    "PriceBreakdown",
    "QuadratureSpec",
    "IntegralEstimate",
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
    "price_grid",
    "payoff_transform_call",
    "payoff_transform_put",
    "f1_hat",
    "integrate_unit",
    "halfline_via_u",
    "compute_group_params",
    "volatility_factor",
    "correlate_brownians",
    "simulate_paths",
    "mc_price_call",
    "bs_call",
    "implied_vol",
    "model_surface",
    "calibrate_heston",
    "calibrate_multiscale",
    "objective_heston",
    "objective_multiscale",
    "residual_report",
    "residual_ratio_report",
    "load_chain",
]

__version__ = "0.1.0"
