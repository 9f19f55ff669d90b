import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from msheston.errors import NonConvergence
from msheston.quadrature import (
    QuadratureSpec,
    halfline_via_u,
    integrate_adaptive,
    integrate_interval,
    integrate_unit,
)


class TestSpecValidation:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)
        with pytest.raises(ValueError):
            QuadratureSpec(c_infinity=0.0)


class TestUnitInterval:
    def test_constant(self):
        value, err = integrate_unit(lambda u: np.ones_like(u), QuadratureSpec())
        assert value == pytest.approx(1.0, abs=1e-12)
        assert err < 1e-9

    def test_log_endpoint_singularity(self):
        value, _ = integrate_unit(lambda u: -np.log(u), QuadratureSpec())
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_inverse_sqrt_endpoint_singularity(self):
        spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=400)
        value, err = integrate_unit(lambda u: u**-0.5, spec)
        assert value == pytest.approx(2.0, abs=5e-9)

    def test_nonconvergence_carries_estimate(self):
        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=4)
        with pytest.raises(NonConvergence) as excinfo:
            integrate_unit(lambda u: np.sin(50 * u) / np.sqrt(u), spec)
        assert excinfo.value.estimate is not None
        assert excinfo.value.error_bound is not None

    def test_complex_integrand(self):
        value, _ = integrate_unit(
            lambda u: np.exp(2j * np.pi * u), QuadratureSpec()
        )
        assert abs(value) < 1e-10

    def test_vector_integrand(self):
        def f(u):
            return np.stack([u, u * u, np.sin(u)])

        value, err = integrate_adaptive(f, 0.0, 1.0, QuadratureSpec())
        np.testing.assert_allclose(
            value, [0.5, 1.0 / 3.0, 1.0 - math.cos(1.0)], atol=1e-10
        )
        assert err.shape == (3,)


class TestHalfLine:
    def test_pure_exponential(self):
        for c_inf in (0.3, 1.0, 3.1):
            spec = QuadratureSpec(c_infinity=c_inf)
            value, _ = halfline_via_u(lambda k: np.exp(-k * c_inf), spec)
            assert value == pytest.approx(1.0 / c_inf, rel=1e-9)

    def test_gaussian_against_cutoff_quadrature(self):
        spec = QuadratureSpec(c_infinity=0.8)
        value, _ = halfline_via_u(lambda k: np.exp(-(k**2)), spec)
        ref = quad(lambda k: math.exp(-(k**2)), 0, 50)[0]
        assert value == pytest.approx(ref, rel=1e-9)
        assert value == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-9)

    def test_folded_pricing_integrand_against_trapezoid(self, table1_heston):
        # brute-force oracle: fixed-step trapezoid with a far cutoff
        from msheston.kernel import _cd_of
        from msheston.pricer import c_infinity

        p = table1_heston
        tau, spot, strike, k_i = 1.0, 100.0, 100.0, 1.5
        q = p.r * tau + math.log(spot)

        def integrand(kr):
            k = np.asarray(kr) + 1j * k_i
            c_val, d_val, _ = _cd_of(tau, k, p)
            h_hat = strike ** (1 + 1j * k) / (1j * k - k * k)
            return (np.exp(-1j * k * q) * np.exp(c_val + p.z * d_val) * h_hat).real

        spec = QuadratureSpec(c_infinity=c_infinity(tau, p))
        value, _ = halfline_via_u(integrand, spec)

        grid = np.arange(0.0, 500.0 + 1e-3, 1e-3)
        ref = np.trapezoid(integrand(grid), grid)
        assert value == pytest.approx(ref, rel=1e-6)


class TestErrorEstimates:
    @given(
        a=st.floats(-2.0, 2.0),
        b=st.floats(-2.0, 2.0),
        c=st.floats(0.1, 3.0),
        n=st.integers(0, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_error_bound_holds_for_poly_exp(self, a, b, c, n):
        # closed form: integral of x^n * exp(-c x) + (a + b x) over (0, 1)
        spec = QuadratureSpec()

        def f(x):
            return x**n * np.exp(-c * x) + a + b * x

        value, err = integrate_unit(f, spec)
        from scipy.special import gammainc, gamma

        exact = (
            gamma(n + 1) * gammainc(n + 1, c) / c ** (n + 1) + a + b / 2.0
        )
        assert abs(value - exact) <= max(err, 5e-13 * max(1.0, abs(exact)))

    def test_doubling_budget_never_increases_error(self):
        def f(u):
            return np.sin(40 * u) / np.sqrt(u + 1e-12)

        errs = []
        for budget in (8, 16, 32, 64):
            spec = QuadratureSpec(
                abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=budget
            )
            try:
                _, err = integrate_unit(f, spec)
            except NonConvergence as exc:
                err = float(np.max(exc.error_bound))
            errs.append(err)
        assert all(e2 <= e1 * (1 + 1e-12) for e1, e2 in zip(errs, errs[1:]))

    def test_interval_wrapper_returns_floats(self):
        value, err = integrate_interval(lambda x: np.exp(x), 0.0, 1.0, QuadratureSpec())
        assert isinstance(value, float)
        assert value == pytest.approx(math.e - 1.0, rel=1e-12)
