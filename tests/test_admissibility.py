"""Every parameter type refuses a value outside its domain by name.

Each numeric field is finite, and strictly positive where the type says so;
the first field that is not is named in the ValueError, before anything is
priced or simulated.
"""

import math
import re

import pytest

from msheston.group_params import FullModelParams
from msheston.kernel import HestonParams
from msheston.mc import SimConfig
from msheston.pricer import GroupParams, OptionSpec
from msheston.quadrature import QuadratureSpec
from msheston.vol_surface import VolPoint, VolSurface

HESTON = dict(kappa=1.0, theta=0.24, sigma=0.39, rho=-0.35, z=0.24, r=0.05)


def _full_model(**kwargs):
    return FullModelParams(**{
        "heston": HestonParams(**HESTON), "epsilon": 0.01, "m": 0.06, "nu": 1.0,
        "rho_xy": -0.35, "rho_yz": 0.35, "y0": 0.06, **kwargs})


# (name, constructor, admissible keyword arguments, positive fields,
#  finite-only fields)
TYPES = [
    ("HestonParams", HestonParams, HESTON, ("kappa", "theta", "sigma", "z"), ("r",)),
    ("FullModelParams", _full_model, {}, ("epsilon", "nu"), ("m", "y0")),
    ("OptionSpec", OptionSpec, dict(strike=100.0, expiry=1.0, spot=100.0),
     ("strike", "expiry", "spot"), ()),
    ("QuadratureSpec", QuadratureSpec, {}, ("abs_tol", "rel_tol"), ()),
    ("VolPoint", VolPoint,
     dict(expiry=1.0, strike=100.0, implied_vol=0.2, source="market"),
     ("expiry", "strike", "implied_vol"), ()),
    ("GroupParams", GroupParams, dict(v1e=0.0, v2e=0.0, v3e=0.0, v4e=0.0), (),
     ("v1e", "v2e", "v3e", "v4e")),
    ("SimConfig", SimConfig, dict(n_paths=16, dt=1e-3, seed=1), ("dt",), ()),
    ("VolSurface", VolSurface, dict(spot=100.0, points=(), rates={}, dividend_yields={}),
     ("spot",), ()),
]

NON_FINITE = [math.inf, -math.inf, math.nan]


def _cases(positive):
    for name, make, kwargs, pos_fields, fin_fields in TYPES:
        for field in pos_fields if positive else fin_fields:
            for value in NON_FINITE + ([0.0, -1.0] if positive else []):
                yield pytest.param(make, kwargs, field, value,
                                   id=f"{name}.{field}-{value}")


@pytest.mark.parametrize("make, kwargs, field, value", _cases(positive=True))
def test_positive_field_refused_by_name(make, kwargs, field, value):
    message = f"{field} must be finite and positive, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(**{**kwargs, field: value})


@pytest.mark.parametrize("make, kwargs, field, value", _cases(positive=False))
def test_finite_field_refused_by_name(make, kwargs, field, value):
    message = f"{field} must be finite, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(**{**kwargs, field: value})


@pytest.mark.parametrize("make, kwargs, field", [
    pytest.param(make, kwargs, field, id=f"{name}.{field}")
    for name, make, kwargs, _, fin_fields in TYPES for field in fin_fields
])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_finite_field_admits_zero_and_negative(make, kwargs, field, value):
    assert getattr(make(**{**kwargs, field: value}), field) == value


def test_first_bad_field_is_named():
    with pytest.raises(ValueError, match="^kappa must"):
        HestonParams(**{**HESTON, "kappa": math.nan, "z": math.inf})
