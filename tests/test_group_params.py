import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from msheston.errors import NonFinite
from msheston.group_params import (
    FullModelParams,
    compute_group_params,
    volatility_factor,
)
from msheston.kernel import HestonParams

from .helpers import (
    correlation_matrix,
    exp_ou_brackets,
    exp_ou_f_bar,
    exp_ou_phi_prime,
    exp_ou_psi_prime,
    exp_ou_unit_v,
    group_array,
    mp_exp_ou_brackets,
    yzx_cholesky,
)

# Gram value 0.9999999999999999 < 1, yet the Cholesky factor's c^2 rounds to 0
BOUNDARY_TRIPLE = {"rho_xy": -0.22, "rho_xz": -0.9816607981044054, "rho_yz": 0.03}


def _full_model(**overrides):
    defaults = dict(
        heston=HestonParams(
            kappa=1.0, theta=0.24, sigma=0.39, rho=-0.35, z=0.24, r=0.05
        ),
        epsilon=1e-4,
        m=0.06,
        nu=1.0,
        rho_xy=-0.35,
        rho_yz=0.35,
        y0=0.06,
    )
    defaults.update(overrides)
    return FullModelParams(**defaults)


def _gaussian_quad(g, m, nu):
    """E[g(Y)] for Y ~ N(m, nu^2) by QUADPACK.  The window reaches 15 nu past
    m + 3 nu^2, where the exp-OU tilt of f * phi' puts its mass."""
    value, _ = quad(
        lambda y: float(g(y)) * norm.pdf(y, loc=m, scale=nu),
        m - 15.0 * nu,
        m + (3.0 * nu + 15.0) * nu,
        points=[m, m + nu * nu, m + 3.0 * nu * nu],
        epsabs=0.0,
        epsrel=1e-12,
        limit=500,
    )
    return value


class TestFullModelValidation:
    def test_rejects_unit_correlation(self):
        with pytest.raises(ValueError):
            _full_model(rho_xy=1.0)

    def test_rejects_indefinite_correlation_triple(self):
        # each pairwise correlation is fine, but jointly they are infeasible
        with pytest.raises(ValueError, match="positive-definite"):
            _full_model(rho_xy=0.9, rho_yz=-0.9,
                        heston=HestonParams(kappa=1.0, theta=0.24, sigma=0.39,
                                            rho=0.9, z=0.24, r=0.05))

    def test_rejects_the_boundary_triple_that_lapack_rejects(self):
        t = BOUNDARY_TRIPLE
        rho = correlation_matrix(t["rho_xy"], t["rho_xz"], t["rho_yz"])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(rho)
        with pytest.raises(ValueError, match="positive-definite"):
            _full_model(rho_xy=t["rho_xy"], rho_yz=t["rho_yz"],
                        heston=HestonParams(kappa=1.0, theta=0.24, sigma=0.39,
                                            rho=t["rho_xz"], z=0.24, r=0.05))

    def test_rejects_bad_epsilon_and_nu(self):
        with pytest.raises(ValueError):
            _full_model(epsilon=0.0)
        with pytest.raises(ValueError):
            _full_model(nu=-1.0)

    def test_factor_is_second_moment_normalized(self):
        fm = _full_model(nu=0.7, m=-0.3)
        f = volatility_factor(fm)
        val = _gaussian_quad(lambda y: f(y) ** 2, fm.m, fm.nu)
        assert val == pytest.approx(1.0, abs=1e-10)


def _triple_model(rho_xy, rho_xz, rho_yz):
    return _full_model(rho_xy=rho_xy, rho_yz=rho_yz,
                       heston=HestonParams(kappa=1.0, theta=0.24, sigma=0.39,
                                           rho=rho_xz, z=0.24, r=0.05))


_GRID = [-0.999, -0.9, -0.7, -0.5, -0.3, 0.0, 0.3, 0.5, 0.7, 0.9, 0.999]


def _grid_models():
    """The admissible triples of a grid with |rho| up to 0.999."""
    models = []
    for triple in [(xy, xz, yz) for xy in _GRID for xz in _GRID for yz in _GRID]:
        try:
            models.append(_triple_model(*triple))
        except ValueError:
            pass
    return models


def _near_boundary_models():
    """Triples whose rho_xz lies 1e-6 of its admissible half-width inside
    either end of the admissible range, at each (rho_xy, rho_yz) of the grid."""
    models = []
    for xy in _GRID:
        for yz in _GRID:
            half = (1.0 - 1e-6) * math.sqrt((1.0 - xy * xy) * (1.0 - yz * yz))
            models += [_triple_model(xy, xy * yz + sign * half, yz) for sign in (1, -1)]
    return models


class TestBrownianLoadings:
    def test_match_numpy_cholesky(self):
        grid = _grid_models()
        assert len(grid) > len(_GRID) ** 3 // 4
        for fm in grid + _near_boundary_models():
            l10, l11, a, b, c = fm.brownian_loadings
            lapack = yzx_cholesky(fm)
            np.testing.assert_allclose(
                [l10, l11, a, b, c * c],
                [lapack[1, 0], lapack[1, 1], lapack[2, 0], lapack[2, 1],
                 lapack[2, 2] ** 2],
                rtol=0, atol=1e-15,
            )

    def test_bit_equal_to_numpy_at_the_benchmark_correlations(self, table1_full_model):
        lapack = yzx_cholesky(table1_full_model)
        assert table1_full_model.brownian_loadings == (
            lapack[1, 0], lapack[1, 1], lapack[2, 0], lapack[2, 1], lapack[2, 2]
        )


class TestGaussianAverage:
    """The averages the coefficients are built from, by QUADPACK against the
    closed-form Poisson solutions of ``tests/helpers.py``."""

    def test_second_moment_of_factor(self):
        fm = _full_model()
        f = volatility_factor(fm)
        val = _gaussian_quad(lambda y: f(y) ** 2, fm.m, fm.nu)
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("nu", [0.2, 1.0, 2.0, 3.0])
    def test_brackets_by_quadrature(self, nu):
        fm = _full_model(nu=nu, m=-0.4, epsilon=1e-2, rho_xy=-0.2, rho_yz=0.55)
        m = fm.m
        f = volatility_factor(fm)
        phi_p = lambda y: exp_ou_phi_prime(y, m, nu)
        psi_p = lambda y: exp_ou_psi_prime(y, m, nu)
        brackets = {
            "phi_prime": _gaussian_quad(phi_p, m, nu),
            "psi_prime": _gaussian_quad(psi_p, m, nu),
            "f_phi_prime": _gaussian_quad(lambda y: f(y) * phi_p(y), m, nu),
            "f_psi_prime": _gaussian_quad(lambda y: f(y) * psi_p(y), m, nu),
        }
        rho_eff, v = compute_group_params(fm)
        unit = exp_ou_unit_v(
            fm.heston.sigma, nu, fm.rho_xy, fm.rho_xz, fm.rho_yz, brackets
        )
        np.testing.assert_allclose(
            group_array(v), math.sqrt(fm.epsilon) * unit, rtol=1e-9, atol=0.0
        )
        assert rho_eff == pytest.approx(
            fm.rho_xz * _gaussian_quad(f, m, nu), rel=1e-9
        )


class TestOracleBrackets:
    """The closed forms of ``tests/helpers.py`` against 50-digit mpmath."""

    @pytest.mark.parametrize("nu", [1e-6, 1e-4, 1e-2, 1.0, 3.0])
    def test_against_mpmath(self, nu):
        got = exp_ou_brackets(nu)
        for name, ref in mp_exp_ou_brackets(nu).items():
            assert got[name] == pytest.approx(ref, rel=1e-13, abs=0.0), name


class TestPoissonSolver:
    """The closed-form Poisson solutions of ``tests/helpers.py`` against the
    equation nu^2 chi'' + (m - y) chi' = source itself."""

    @staticmethod
    def _max_residual(cp, src, m, nu):
        # chi'' by central differences with Richardson extrapolation to kill
        # the h^2 term
        ys = np.linspace(m - 5 * nu, m + 5 * nu, 21)

        def second(y, h):
            return (cp(y + h) - cp(y - h)) / (2 * h)

        h = 1e-4
        chi2 = (4.0 * second(ys, h) - second(ys, 2 * h)) / 3.0
        resid = nu**2 * chi2 + (m - ys) * cp(ys) - src(ys)
        scale = 1.0 + np.abs(src(ys)) + np.abs(cp(ys))
        return np.max(np.abs(resid) / scale)

    def test_variance_source_ode_residual(self):
        fm = _full_model()
        m, nu = fm.m, fm.nu
        f = volatility_factor(fm)
        src = lambda y: 0.5 * (f(y) ** 2 - 1.0)
        cp = lambda y: exp_ou_phi_prime(y, m, nu)
        assert self._max_residual(cp, src, m, nu) < 1e-8

    def test_mean_source_ode_residual(self):
        fm = _full_model()
        m, nu = fm.m, fm.nu
        f = volatility_factor(fm)
        src = lambda y: f(y) - exp_ou_f_bar(nu)
        cp = lambda y: exp_ou_psi_prime(y, m, nu)
        assert self._max_residual(cp, src, m, nu) < 1e-8


class TestGroupParams:
    def test_zero_when_cross_correlations_vanish(self):
        fm = _full_model(rho_xy=0.0, rho_yz=0.0)
        _, v = compute_group_params(fm)
        assert v.is_zero or max(abs(x) for x in group_array(v)) < 1e-12

    @pytest.mark.parametrize(
        "eps,v3_expected",
        [(1e-4, 0.0096), (1e-3, 0.0303), (1e-2, 0.0959), (1e-1, 0.3033)],
    )
    def test_benchmark_v3_column(self, eps, v3_expected):
        fm = _full_model(epsilon=eps)
        _, v = compute_group_params(fm)
        assert v.v3e == pytest.approx(v3_expected, abs=1e-4)

    def test_matches_closed_forms(self):
        fm = _full_model(epsilon=1e-2, nu=1.3, m=-0.4, rho_xy=-0.2, rho_yz=0.55)
        rho_eff, v = compute_group_params(fm)
        unit = exp_ou_unit_v(
            fm.heston.sigma, fm.nu, fm.rho_xy, fm.rho_xz, fm.rho_yz
        )
        np.testing.assert_allclose(
            group_array(v), math.sqrt(fm.epsilon) * unit, rtol=1e-9, atol=1e-13
        )
        assert rho_eff == pytest.approx(
            fm.rho_xz * exp_ou_f_bar(fm.nu), rel=1e-10
        )

    def test_effective_correlation_bounded(self):
        for nu in (0.2, 1.0, 2.5):
            fm = _full_model(nu=nu)
            rho_eff, _ = compute_group_params(fm)
            assert rho_eff * rho_eff <= 1.0

    def test_sqrt_epsilon_scaling(self):
        _, v1 = compute_group_params(_full_model(epsilon=1e-3))
        _, v4 = compute_group_params(_full_model(epsilon=4e-3))
        np.testing.assert_allclose(
            group_array(v4), 2.0 * group_array(v1), rtol=1e-12
        )

    @pytest.mark.parametrize("m", [0.0, 0.06, 1.0])
    def test_translation_invariance_in_m(self, m):
        _, v_ref = compute_group_params(_full_model(m=0.06))
        _, v = compute_group_params(_full_model(m=m))
        np.testing.assert_allclose(group_array(v), group_array(v_ref), rtol=1e-8)

    # at nu = 1e-200, nu^2 underflows to 0 in double precision
    @pytest.mark.parametrize("nu", [1e-200, 1e-6, 1e-2, 1.0, 3.0, 10.0, 21.0])
    def test_against_mpmath(self, nu):
        fm = _full_model(nu=nu, epsilon=1e-2, rho_xy=-0.2, rho_yz=0.55)
        rho_eff, v = compute_group_params(fm)
        unit = exp_ou_unit_v(
            fm.heston.sigma, nu, fm.rho_xy, fm.rho_xz, fm.rho_yz,
            mp_exp_ou_brackets(nu),
        )
        np.testing.assert_allclose(
            group_array(v), math.sqrt(fm.epsilon) * unit, rtol=1e-13, atol=0.0
        )
        with mpmath.workdps(50):
            rho_ref = float(fm.rho_xz * mpmath.exp(-mpmath.mpf(nu) ** 2 / 2))
        assert rho_eff == pytest.approx(rho_ref, rel=1e-13)

    # exp(3 nu^2 / 2) leaves the double range just above nu = 21.75; at
    # nu = 1e200 already nu^2 is infinite
    @pytest.mark.parametrize("nu", [22.0, 1e200])
    def test_overflow_is_nonfinite(self, nu):
        with pytest.raises(NonFinite, match="overflows"):
            compute_group_params(_full_model(nu=nu))
