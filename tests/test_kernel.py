import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import dblquad

from msheston.kernel import (
    _LOG_SERIES_CUTOFF,
    HestonParams,
    _b_coeffs,
    _cd_of,
    _d_of,
    _exponent_slopes,
    _f_hats,
    _log1p,
    _part_slopes,
)
from msheston.pricer import GroupParams

from .conftest import (
    EDGE_HESTON,
    TABLE1_HESTON,
    d_zero_call_contour,
    group_at_epsilon,
)
from .helpers import mp_cd, mp_cd_slopes, mp_d, naive_big_c, ode_transforms

# At sigma = 1e-3 and one day beta*w ~ 1e-9: f0_hat then needs log zeta to
# full precision relative to beta*w, and its second log ratio cancels to
# nothing unless it takes the series branch.  M - d is O(sigma^2), so C
# loses eps*kappa*theta*tau/sigma^2 if M - d is formed by subtraction.
_SMALL_SIGMA = HestonParams(
    kappa=1.0, theta=0.24, sigma=1e-3, rho=-0.5, z=0.24, r=0.05
)
_MP_SETS = {
    "table1": TABLE1_HESTON,
    **EDGE_HESTON,
    "sigma_1e-3": _SMALL_SIGMA,
    "sigma_1e-4": _SMALL_SIGMA.replace(sigma=1e-4),
}
_ODE_CASES = [
    pytest.param(p, tau, kr, ki, id=f"{name}-tau{tau:.3g}-kr{kr:g}-ki{ki:g}")
    for name, p, taus in [
        *((name, p, (1 / 365, 10.0)) for name, p in EDGE_HESTON.items()),
        ("sigma_1e-3", _SMALL_SIGMA, (1 / 365,)),
    ]
    for tau in taus
    for kr in (0.0, 40.0)
    for ki in (1.5, -0.5)
] + [
    # next to d = 0 the q's grow like 1/d^2 and f0_hat needs log zeta to
    # full relative precision at short tau
    pytest.param(
        TABLE1_HESTON, 1 / 365, 0.01, d_zero_call_contour(TABLE1_HESTON),
        id="table1-tau0.00274-kr0.01-d_zero_contour",
    )
]


def d(k, p):
    """Discriminant root d(k) at one contour point."""
    return complex(_d_of(complex(k), p)[0])


def big_c(tau, k, p):
    return complex(_cd_of(tau, complex(k), p)[0])


def big_d(tau, k, p):
    return complex(_cd_of(tau, complex(k), p)[1])


def g_hat(tau, k, p):
    """Transform kernel exp(C + z*D)."""
    c_val, d_val, _ = _cd_of(tau, complex(k), p)
    return complex(np.exp(c_val + p.z * d_val))


def f_hats(tau, k, p, v):
    """(f0_hat, f1_hat) at one contour point, from the kernel's own bundle."""
    return _f_hats(tau, k, v, _cd_of(tau, k, p)[2])


def b_source(tau, k, p, v):
    """Correction source b = B0 + B1*D + B2*D**2 from the kernel's coefficients."""
    b0, b1, b2 = _b_coeffs(k, v)
    d_val = big_d(tau, k, p)
    return complex(b0 + d_val * (b1 + d_val * b2))


class TestHestonParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HestonParams(kappa=-1, theta=0.2, sigma=0.3, rho=0.0, z=0.1, r=0.0)
        with pytest.raises(ValueError):
            HestonParams(kappa=1, theta=0.2, sigma=0.0, rho=0.0, z=0.1, r=0.0)

    def test_rejects_rho_outside_unit(self):
        with pytest.raises(ValueError):
            HestonParams(kappa=1, theta=0.2, sigma=0.3, rho=1.5, z=0.1, r=0.0)

    def test_feller_reported_not_enforced(self):
        p = HestonParams(kappa=0.5, theta=0.02, sigma=0.5, rho=0.0, z=0.1, r=0.0)
        assert not p.feller_satisfied


class TestDiscriminantRoot:
    def test_at_k_equal_i_collapses(self, table1_heston):
        # k^2 - ik vanishes at k = i, leaving |kappa - rho*sigma|
        p = table1_heston
        expected = p.kappa - p.rho * p.sigma
        assert d(1j, p) == pytest.approx(expected, abs=1e-14)
        assert d(1j, p).imag == pytest.approx(0.0, abs=1e-14)

    def test_at_zero(self, table1_heston):
        assert d(0j, table1_heston) == pytest.approx(table1_heston.kappa)

    def test_against_high_precision(self, table1_heston):
        val = d(1 + 2j, table1_heston)
        ref = mp_d(1 + 2j, table1_heston)
        assert val == pytest.approx(ref, rel=1e-14)

    def test_principal_branch(self, table1_heston):
        ks = np.array([0.3 + 1.5j, -4 + 1.5j, 10 + 1.5j, 200 + 1.5j])
        for k in ks:
            assert d(k, table1_heston).real >= 0.0


class TestBigD:
    def test_zero_at_tau_zero(self, table1_heston):
        assert big_d(0.0, 0.5 + 1.5j, table1_heston) == 0.0

    @pytest.mark.parametrize("p", _MP_SETS.values(), ids=_MP_SETS.keys())
    def test_against_mpmath(self, p):
        # tau from 1e-9 to ten years, dense around |tau*d| = 1e-4, where a
        # Taylor switch for w cost D up to 7e-13.  C is checked absolute,
        # since C = O(tau^2) cancels at short tau: |C| reaches 1.7e3 here and
        # is met to 2.3e-13, where M - d by subtraction missed it by 3.8e-10
        # at sigma = 1e-3 and 2.8e-8 at sigma = 1e-4
        for tau in (1e-9, 1e-6, 3e-5, 1e-4, 2e-4, 1e-3, 1 / 365, 0.1, 1.0, 10.0):
            for kr in (0.01, 0.5, 3.0, 40.0):
                for ki in (1.5, -0.5):
                    k = complex(kr, ki)
                    ref_c, ref_d = mp_cd(tau, k, p)
                    assert abs(big_d(tau, k, p) - ref_d) <= 1e-14 * abs(ref_d), (
                        tau, k)
                    assert abs(big_c(tau, k, p) - ref_c) <= 1e-12, (tau, k)

    def test_log1p_against_mpmath(self):
        # log zeta = log1p(beta*w); NumPy's complex log1p returns a real part
        # of 1.000089e-12 at the first point
        for x in (1e-12 + 1e-13j, -1e-9 + 3e-5j, 0.3 - 0.2j, -0.5 + 1e-17j):
            ref = complex(mp.log1p(mp.mpc(x)))
            assert abs(complex(_log1p(np.asarray(x))) - ref) <= 4e-16 * abs(ref)

    def test_riccati_residual(self, table1_heston):
        p = table1_heston
        k = 0.5 + 1.5j
        tau, h = 1.0, 1e-5
        lhs = (big_d(tau + h, k, p) - big_d(tau - h, k, p)) / (2 * h)
        dd = big_d(tau, k, p)
        m = p.kappa + 1j * p.rho * p.sigma * k
        rhs = 0.5 * p.sigma**2 * dd * dd - m * dd + 0.5 * (-k * k + 1j * k)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))

    def test_linear_growth_bound(self, table1_heston):
        # |D| <= C (1 + |k|) along the contour; fit C on a coarse grid and
        # check it holds with margin on a fine one
        p = table1_heston
        taus = np.linspace(0.05, 1.0, 5)
        kr = np.linspace(-50, 50, 101)
        ks = kr + 1.5j
        coarse = max(
            abs(big_d(t, k, p)) / (1 + abs(k)) for t in taus for k in ks[::10]
        )
        fine = max(abs(big_d(t, k, p)) / (1 + abs(k)) for t in taus for k in ks)
        assert fine <= 2.0 * coarse


_SLOPE_SETS = {
    "table1": TABLE1_HESTON,
    "feller_violated": EDGE_HESTON["feller_violated"],
    "rho_plus_0999": TABLE1_HESTON.replace(rho=0.999),
    "rho_minus_0999": TABLE1_HESTON.replace(rho=-0.999),
    # M - d is O(sigma^2) along the whole contour
    "sigma_1e-2": TABLE1_HESTON.replace(sigma=1e-2),
    "sigma_1e-3": _SMALL_SIGMA,
}


def exponent_slopes(tau, k, p):
    k = np.asarray(k)
    c_val, d_val, parts = _cd_of(tau, k, p)
    return _exponent_slopes(tau, k, p, c_val, d_val, parts, _part_slopes(tau, k, p, parts))


def f_hat_slopes(tau, k, p, v):
    """d(f0_hat, f1_hat)/d(kappa, rho, sigma), shape (2, 3, ...)."""
    k = np.asarray(k)
    parts = _cd_of(tau, k, p)[2]
    return np.array(_f_hats(tau, k, v, parts, _part_slopes(tau, k, p, parts))[2:])


def ode_f_hat_slopes(tau, k, p, v):
    """d(f0_hat, f1_hat)/d(kappa, rho, sigma), shape (2, 3), by central
    differences of the ODE route: steps of 1e-4 relative, absolute in rho."""
    cols = []
    for name in ("kappa", "rho", "sigma"):
        x = getattr(p, name)
        h = 1e-4 if name == "rho" else 1e-4 * x
        up = ode_transforms(tau, k, p.replace(**{name: x + h}), v)
        down = ode_transforms(tau, k, p.replace(**{name: x - h}), v)
        cols.append((up[[3, 2]] - down[[3, 2]]) / (2.0 * h))
    return np.array(cols).T


class TestExponentSlopes:
    """d(C + z*D)/d(kappa, rho, sigma, theta, z) against 50-digit central
    differences of the mpmath kernel."""

    @pytest.mark.parametrize("p", _SLOPE_SETS.values(), ids=_SLOPE_SETS.keys())
    def test_against_mpmath(self, p):
        # tau from 2 days to 10 years, k_r from 1e-8 to 100 on both contours:
        # met to 5.3e-13 of max(1, |slope|), the worst at sigma = 1e-3
        for tau in (2 / 365, 0.25, 1.0, 10.0):
            for kr in (1e-8, 0.5, 20.0, 100.0):
                for ki in (1.5, -0.5):
                    k = complex(kr, ki)
                    ref = mp_cd_slopes(tau, k, p)
                    err = np.abs(exponent_slopes(tau, k, p) - ref)
                    assert np.all(err <= 1e-11 * np.maximum(1.0, np.abs(ref))), (tau, k)

    def test_next_to_d_zero(self, table1_heston):
        # on the contour through d = 0 the slope of w loses eps/(tau*|d|):
        # 4.0e-13 at k_r = 1e-3 and tau = 1, 5.9e-10 at k_r = 1e-6
        ki = d_zero_call_contour(table1_heston)
        for tau in (2 / 365, 1.0, 10.0):
            for kr in (1e-3, 0.01, 1.0):
                k = complex(kr, ki)
                ref = mp_cd_slopes(tau, k, table1_heston)
                err = np.abs(exponent_slopes(tau, k, table1_heston) - ref)
                assert np.all(err <= 1e-11 * np.maximum(1.0, np.abs(ref))), (tau, k)

    def test_broadcasts_like_the_kernel(self, table1_heston):
        # one leading row per parameter over the kernel's own shape
        k = np.linspace(0.1, 30.0, 12).reshape(3, 4) + 1.5j
        slopes = exponent_slopes(0.5, k, table1_heston)
        assert slopes.shape == (5, 3, 4)
        assert slopes[3] == pytest.approx(
            _cd_of(0.5, k, table1_heston)[0] / table1_heston.theta, rel=1e-15)
        assert np.all(slopes[4] == _cd_of(0.5, k, table1_heston)[1])


class TestFHatSlopes:
    """d(f0_hat, f1_hat)/d(kappa, rho, sigma) against central differences of
    the DOP853 ODE route (rtol 1e-11).  Its error over the step is about
    1e-7 of |f_hat|, which can far exceed a small slope, so the error is
    measured against max(|slope|, |f_hat|)."""

    @staticmethod
    def _check(tau, k, p, v):
        got = f_hat_slopes(tau, k, p, v)
        ref = ode_f_hat_slopes(tau, k, p, v)
        f = np.abs(np.array(f_hats(tau, k, p, v), dtype=complex))[:, None]
        err = np.abs(got - ref)
        assert np.all(err <= 3e-6 * np.maximum(np.abs(ref), f)), (tau, k, err)

    @pytest.mark.parametrize("p", _SLOPE_SETS.values(), ids=_SLOPE_SETS.keys())
    def test_against_ode(self, p):
        # tau from 2 days to 10 years, k_r from 1e-3 to 20 on both contours:
        # met to 9.4e-7, the worst at sigma = 1e-3, where every node takes
        # the series of m2
        v = group_at_epsilon(1e-2)
        for tau in (2 / 365, 1.0, 10.0):
            for kr in (1e-3, 3.0, 20.0):
                for ki in (1.5, -0.5):
                    self._check(tau, complex(kr, ki), p, v)

    def test_across_the_series_cutoff(self, table1_heston):
        # at tau = 0.25 on the call contour |beta*w| crosses the cutoff
        # between k_r = 4.44 and 4.46: the slope of m2's direct form and
        # that of its series meet the ODE alike
        tau, v = 0.25, group_at_epsilon(1e-2)
        sides = []
        for kr in (4.44, 4.46):
            k = complex(kr, 1.5)
            _, m_minus_d, _, w, _, _ = _cd_of(tau, k, table1_heston)[2]
            sides.append(abs(m_minus_d * w / 2.0) < _LOG_SERIES_CUTOFF)
            self._check(tau, k, table1_heston, v)
        assert sides == [True, False]

    def test_broadcasts_like_the_kernel(self, table1_heston):
        # one leading row per parameter over the kernel's own shape, node by
        # node the scalar values (to 1.2e-13: the array and scalar exp and
        # log can differ in the last bit); zero coefficients give zero slopes
        k = np.linspace(0.1, 30.0, 12).reshape(3, 4) + 1.5j
        v = GroupParams(0.01, -0.001, -0.004, 0.0015)
        slopes = f_hat_slopes(0.5, k, table1_heston, v)
        assert slopes.shape == (2, 3, 3, 4)
        for idx in np.ndindex(k.shape):
            node = f_hat_slopes(0.5, k[idx], table1_heston, v)
            assert np.allclose(slopes[(...,) + idx], node, rtol=1e-12, atol=0.0)
        assert np.all(f_hat_slopes(0.5, k, table1_heston, GroupParams.zero()) == 0.0)


class TestBigC:
    def test_zero_at_tau_zero(self, table1_heston):
        assert big_c(0.0, 0.5 + 1.5j, table1_heston) == 0.0

    def test_matches_naive_form_before_crossing(self, table1_heston):
        # at short maturity the growing-exponential form has not yet crossed
        # a branch; the two algebraically equal forms must agree
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = rng.uniform(0.1, 20.0) + 1.5j
            mine = big_c(0.25, k, table1_heston)
            naive = naive_big_c(0.25, k, table1_heston)
            assert mine == pytest.approx(naive, abs=1e-10, rel=1e-10)

    def test_ode_residual(self, table1_heston):
        p = table1_heston
        k = 0.5 + 1.5j
        tau, h = 1.0, 1e-5
        lhs = (big_c(tau + h, k, p) - big_c(tau - h, k, p)) / (2 * h)
        rhs = p.kappa * p.theta * big_d(tau, k, p)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


class TestGHat:
    def test_one_at_tau_zero(self, table1_heston):
        assert g_hat(0.0, 3.0 + 0j, table1_heston) == pytest.approx(1.0)

    def test_bounded_on_real_axis(self, table1_heston):
        for k in (0.5, 3.0, 10.0, 40.0):
            assert abs(g_hat(1.0, k + 0j, table1_heston)) <= 1.0 + 1e-12

    def test_identity_at_k_zero(self, table1_heston):
        for tau in (0.1, 1.0, 5.0):
            assert g_hat(tau, 0j, table1_heston) == pytest.approx(1.0, abs=1e-14)


class TestCorrectionTransforms:
    @pytest.mark.parametrize("p, tau, kr, ki", _ODE_CASES)
    def test_against_ode(self, p, tau, kr, ki):
        k = complex(kr, ki)
        v = group_at_epsilon(1e-2)
        f0, f1 = f_hats(tau, k, p, v)
        _, _, ode_f1, ode_f0 = ode_transforms(tau, k, p, v)
        assert complex(f1) == pytest.approx(ode_f1, rel=1e-10, abs=0.0)
        assert complex(f0) == pytest.approx(ode_f0, rel=1e-10, abs=0.0)

    def test_f0_against_triangle_dblquad(self, table1_heston):
        # f0_hat by its definition: b(s) exp(A(t, s)) over 0 <= s <= t <= tau,
        # with A in the pointwise-log zeta form
        p = table1_heston
        k = 1.3 + 1.5j
        tau = 1.0
        v = GroupParams(0.1, -0.05, 0.3, 0.02)
        d_val = d(k, p)
        m = p.kappa + 1j * p.rho * p.sigma * k

        def log_zeta(t):
            w = (1.0 - np.exp(-t * d_val)) / d_val
            return np.log(1.0 + (m - d_val) * w / 2.0)

        def f(t, s):
            a_val = -d_val * (t - s) - 2.0 * (log_zeta(t) - log_zeta(s))
            return b_source(s, k, p, v) * np.exp(a_val)

        ref_re = dblquad(
            lambda s, t: f(t, s).real, 0, tau, 0, lambda t: t, epsabs=1e-10
        )[0]
        ref_im = dblquad(
            lambda s, t: f(t, s).imag, 0, tau, 0, lambda t: t, epsabs=1e-10
        )[0]
        f0, _ = f_hats(tau, k, p, v)
        assert complex(f0) == pytest.approx(complex(ref_re, ref_im), abs=1e-9)


class TestBSource:
    def test_zero_coefficients(self, table1_heston):
        v = GroupParams.zero()
        for tau, kr in ((0.0, 0.5), (1.0, 3.0), (2.0, 10.0)):
            assert b_source(tau, kr + 1.5j, table1_heston, v) == 0.0

    def test_boundary_value_only_v3_survives(self, table1_heston):
        k = 1.2 + 1.5j
        v = GroupParams(0.3, -0.2, 0.7, 0.1)
        expected = -0.7 * (1j * k**3 + k * k)
        assert b_source(0.0, k, table1_heston, v) == pytest.approx(expected)

    def test_additivity(self, table1_heston):
        k = 2.0 + 1.5j
        tau = 0.8
        b1 = b_source(tau, k, table1_heston, GroupParams(1, 0, 0, 0))
        b2 = b_source(tau, k, table1_heston, GroupParams(0, 1, 0, 0))
        b12 = b_source(tau, k, table1_heston, GroupParams(1, 1, 0, 0))
        assert b12 == pytest.approx(b1 + b2, rel=1e-14)


class TestContourContinuity:
    @pytest.mark.parametrize("tau", [0.1, 1.0, 3.0])
    def test_no_branch_jumps_in_c(self, table1_heston, tau):
        kr = np.arange(0.0, 50.0, 0.01)
        c_val, _, _ = _cd_of(tau, kr + 1.5j, table1_heston)
        jumps = np.abs(np.diff(c_val))
        # a crossing would jump by ~2*pi*kappa*theta/sigma^2
        scale = 2 * np.pi * table1_heston.kappa * table1_heston.theta / table1_heston.sigma**2
        assert jumps.max() < 0.1 * scale
        neighbor = np.maximum(np.roll(jumps, 1), np.roll(jumps, -1))[1:-1]
        assert np.all(jumps[1:-1] <= 10.0 * neighbor + 1e-9)

    def test_conjugate_symmetry_of_kernel(self, table1_heston):
        kr = np.array([0.4, 2.2, 9.7, 31.0])
        c_pos, d_pos, _ = _cd_of(0.7, kr + 1.5j, table1_heston)
        c_neg, d_neg, _ = _cd_of(0.7, -kr + 1.5j, table1_heston)
        np.testing.assert_allclose(c_neg, np.conj(c_pos), rtol=1e-12)
        np.testing.assert_allclose(d_neg, np.conj(d_pos), rtol=1e-12)
