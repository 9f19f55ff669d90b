import numpy as np
import pytest

from msheston import FullModelParams, GroupParams, HestonParams

# Benchmark parameter set used throughout: variance starts at its long-run
# level, fast factor has unit dispersion.  The derived effective correlation
# is rho_xz * exp(-nu^2 / 2).
TABLE1_NU = 1.0
TABLE1_RHO_XZ = -0.35
TABLE1_FBAR = float(np.exp(-TABLE1_NU**2 / 2))


TABLE1_HESTON = HestonParams(
    kappa=1.0,
    theta=0.24,
    sigma=0.39,
    rho=TABLE1_RHO_XZ * TABLE1_FBAR,
    z=0.24,
    r=0.05,
)


@pytest.fixture(scope="session")
def table1_heston() -> HestonParams:
    return TABLE1_HESTON


@pytest.fixture(scope="session")
def table1_full_model() -> FullModelParams:
    return FullModelParams(
        heston=HestonParams(
            kappa=1.0, theta=0.24, sigma=0.39, rho=TABLE1_RHO_XZ, z=0.24, r=0.05
        ),
        epsilon=1e-2,
        m=0.06,
        nu=TABLE1_NU,
        rho_xy=-0.35,
        rho_yz=0.35,
        y0=0.06,
    )


# Closed-form unit correction coefficients for the exp-OU factor at the
# benchmark correlations (amplitude scaling excluded); see tests/helpers.py
# for the derivation oracles.
TABLE1_V_UNIT = np.array(
    [
        -0.19304015126392748,
        0.015982071145559130,
        0.95905277661386420,
        -0.042708626902656100,
    ]
)


@pytest.fixture(scope="session")
def table1_v_unit() -> np.ndarray:
    return TABLE1_V_UNIT.copy()


def group_at_epsilon(eps: float) -> GroupParams:
    return GroupParams(*(np.sqrt(eps) * TABLE1_V_UNIT))


def d_zero_call_contour(p: HestonParams) -> float:
    """The k_i > 1 at which d(i*k_i) = 0: sigma^2 (k_i - k_i^2) + (kappa - rho sigma k_i)^2."""
    s2 = p.sigma**2
    a2, b2, c2 = s2 * (p.rho**2 - 1.0), s2 - 2.0 * p.kappa * p.rho * p.sigma, p.kappa**2
    return float(max(np.roots([a2, b2, c2]).real))


# Edge regimes of the correction checks, on otherwise Table-1-like values.
EDGE_HESTON = {
    "feller_violated": HestonParams(
        kappa=0.5, theta=0.02, sigma=0.5, rho=-0.5, z=0.05, r=0.0
    ),
    "rho_plus_099": HestonParams(
        kappa=1.0, theta=0.24, sigma=0.39, rho=0.99, z=0.24, r=0.05
    ),
    "rho_minus_099": HestonParams(
        kappa=1.0, theta=0.24, sigma=0.39, rho=-0.99, z=0.24, r=0.05
    ),
}


# Smile-sweep benchmark: short-vol regime with strong negative skew.
FIGURE1_HESTON = HestonParams(
    kappa=3.4, theta=0.024, sigma=0.39, rho=-0.64, z=0.04, r=0.0
)


@pytest.fixture(scope="session")
def figure1_heston() -> HestonParams:
    return FIGURE1_HESTON
