import numpy as np
import pytest
from scipy.integrate import dblquad

from msheston.errors import NearSingular
from msheston.kernel import (
    HestonParams,
    Wavenumber,
    _f_hats,
    b_source,
    big_c,
    big_d,
    d,
    g,
    g_hat,
)
from msheston.pricer import GroupParams

from .conftest import (
    EDGE_HESTON,
    TABLE1_HESTON,
    d_zero_call_contour,
    group_at_epsilon,
)
from .helpers import mp_d, mp_g, naive_big_c, ode_transforms

# At sigma = 1e-3 and one day beta*w ~ 1e-9, where the direct log ratios of
# the closed-form f0_hat cancel to nothing; only their series branch passes.
_SMALL_SIGMA = HestonParams(
    kappa=1.0, theta=0.24, sigma=1e-3, rho=-0.5, z=0.24, r=0.05
)
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


class TestHestonParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HestonParams(kappa=-1, theta=0.2, sigma=0.3, rho=0.0, z=0.1, r=0.0)
        with pytest.raises(ValueError):
            HestonParams(kappa=1, theta=0.2, sigma=0.0, rho=0.0, z=0.1, r=0.0)

    def test_rejects_rho_outside_unit(self):
        with pytest.raises(ValueError):
            HestonParams(kappa=1, theta=0.2, sigma=0.3, rho=1.5, z=0.1, r=0.0)

    def test_feller_enforced_with_opt_out(self):
        with pytest.raises(ValueError, match="Feller"):
            HestonParams(kappa=0.5, theta=0.02, sigma=0.5, rho=0.0, z=0.1, r=0.0)
        p = HestonParams(
            kappa=0.5, theta=0.02, sigma=0.5, rho=0.0, z=0.1, r=0.0,
            allow_feller_violation=True,
        )
        assert not p.feller_satisfied

    def test_wavenumber_complex(self):
        assert complex(Wavenumber(1.0, 1.5)) == 1.0 + 1.5j


class TestDiscriminantRoot:
    def test_at_k_equal_i_collapses(self, table1_heston):
        # k^2 - ik vanishes at k = i, leaving |kappa - rho*sigma|
        p = table1_heston
        expected = p.kappa - p.rho * p.sigma
        assert d(1j, p) == pytest.approx(expected, abs=1e-14)
        assert d(Wavenumber(0.0, 1.0), p).imag == pytest.approx(0.0, abs=1e-14)

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


class TestG:
    def test_near_singular_at_k_equal_i(self, table1_heston):
        with pytest.raises(NearSingular):
            g(1j, table1_heston)

    def test_finite_value_against_oracle(self, table1_heston):
        val = g(2j, table1_heston)
        assert val == pytest.approx(mp_g(2j, table1_heston), rel=1e-13)

    def test_conjugate_symmetry_on_contour(self, table1_heston):
        for kr in (0.3, 1.7, 8.0, 33.0):
            left = g(-kr + 1.5j, table1_heston)
            right = g(kr + 1.5j, table1_heston)
            assert left == pytest.approx(np.conj(right), rel=1e-12)


class TestBigD:
    def test_zero_at_tau_zero(self, table1_heston):
        assert big_d(0.0, 0.5 + 1.5j, table1_heston) == 0.0

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
        f0, f1 = _f_hats(tau, k, p, v)
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
        f0, _ = _f_hats(tau, k, p, v)
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
        from msheston.kernel import _cd_of

        kr = np.arange(0.0, 50.0, 0.01)
        c_val, _, _ = _cd_of(tau, kr + 1.5j, table1_heston)
        jumps = np.abs(np.diff(c_val))
        # a crossing would jump by ~2*pi*kappa*theta/sigma^2
        scale = 2 * np.pi * table1_heston.kappa * table1_heston.theta / table1_heston.sigma**2
        assert jumps.max() < 0.1 * scale
        neighbor = np.maximum(np.roll(jumps, 1), np.roll(jumps, -1))[1:-1]
        assert np.all(jumps[1:-1] <= 10.0 * neighbor + 1e-9)

    def test_conjugate_symmetry_of_kernel(self, table1_heston):
        from msheston.kernel import _cd_of

        kr = np.array([0.4, 2.2, 9.7, 31.0])
        c_pos, d_pos, _ = _cd_of(0.7, kr + 1.5j, table1_heston)
        c_neg, d_neg, _ = _cd_of(0.7, -kr + 1.5j, table1_heston)
        np.testing.assert_allclose(c_neg, np.conj(c_pos), rtol=1e-12)
        np.testing.assert_allclose(d_neg, np.conj(d_pos), rtol=1e-12)
