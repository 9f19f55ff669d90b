import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import msheston.pricer as pricer
from msheston.quadrature import QuadratureSpec, integrate_adaptive

from .conftest import group_at_epsilon


def integrate_unit(f, spec, **kwargs):
    """Integral over the open unit interval and its bound, asserting that it
    converged; f is never evaluated at 0 or 1."""
    value, err, missed = integrate_adaptive(f, spec, **kwargs)
    assert not missed.any()
    return value, err


def halfline_via_u(f, c_inf, spec):
    """Integral of f over k_r in (0, inf) by the pricer's substitution
    k_r = -log(u)/c_inf, whose Jacobian is 1/(u c_inf)."""
    return integrate_unit(lambda u: f(-np.log(u) / c_inf) / (u * c_inf), spec)


def counting(f):
    """``f`` recording the size of each call, asserting the open rule."""
    sizes = []

    def g(u):
        assert np.all((u > 0.0) & (u < 1.0))
        sizes.append(u.size)
        return f(u)

    return g, sizes


def panels(sizes):
    """Panels held at the end of a run on (0, 1) that made the calls ``sizes``.

    The first call evaluates the start panels; each later round replaces a
    panel by its two children, one more panel per pair of evaluations.
    """
    return sizes[0] // 15 + sum(sizes[1:]) // 30


class TestSpecValidation:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)
        # a float budget would build and then fail inside the rounds as a
        # slice index
        for budget in (100.0, 80.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="max_subdivisions must be an integer"):
                QuadratureSpec(max_subdivisions=budget)


class TestUnitInterval:
    @pytest.mark.parametrize("abs_tol", [1e-9, 10.0])
    def test_constant(self, abs_tol):
        # abs_tol above the interval's width starts from the one panel (0, 1)
        g, sizes = counting(np.ones_like)
        value, err = integrate_unit(g, QuadratureSpec(abs_tol=abs_tol))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert err < 1e-9
        assert sizes[0] == (15 if abs_tol > 1.0 else 15 * 31)

    def test_log_endpoint_singularity(self):
        value, _ = integrate_unit(lambda u: -np.log(u), QuadratureSpec())
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_inverse_sqrt_endpoint_singularity(self):
        spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=400)
        value, err = integrate_unit(lambda u: u**-0.5, spec)
        assert value == pytest.approx(2.0, abs=5e-9)

    @pytest.mark.parametrize("max_subdivisions", [1, 4, 24])
    def test_nonconvergence_carries_estimate(self, max_subdivisions):
        # the graded start at 1e-14 would take 48 panels: it is clamped to
        # the budget, which no round then exceeds
        spec = QuadratureSpec(
            abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=max_subdivisions
        )
        g, sizes = counting(lambda u: np.sin(50 * u) / np.sqrt(u))
        value, err, missed = integrate_adaptive(g, spec)
        assert sizes[0] == 15 * max_subdivisions
        assert panels(sizes) <= max_subdivisions
        assert np.isfinite(value)
        assert err > spec.abs_tol
        assert missed

    def test_complex_integrand(self):
        value, _ = integrate_unit(
            lambda u: np.exp(2j * np.pi * u), QuadratureSpec()
        )
        assert abs(value) < 1e-10

    def test_vector_integrand(self):
        def f(u):
            return np.stack([u, u * u, np.sin(u)])

        value, err = integrate_unit(f, QuadratureSpec())
        np.testing.assert_allclose(
            value, [0.5, 1.0 / 3.0, 1.0 - math.cos(1.0)], atol=1e-10
        )
        assert err.shape == (3,)


class TestPoleNearOne:
    """A pole ``pole_distance`` from u = 1 grades the start mesh towards 1."""

    @staticmethod
    def _lorentzian(d):
        # poles at u = 1 +- i*d; the integral over (0, 1) is atan(1/d)
        return lambda u: np.stack([d / ((1.0 - u) ** 2 + d * d)])

    @pytest.mark.parametrize("d", [0.3, 0.06, 0.01, 1e-4])
    def test_one_call_instead_of_a_walk(self, d):
        # from [1/2, 1] the rounds bisect towards the pole one level per call
        calls = []
        for kwargs in ({}, {"pole_distance": d}):
            g, sizes = counting(self._lorentzian(d))
            value, err = integrate_unit(g, QuadratureSpec(), **kwargs)
            assert abs(value - math.atan(1.0 / d)) <= err
            calls.append(len(sizes))
        assert calls[1] == 1 < calls[0]

    @pytest.mark.parametrize("abs_tol", [1e-5, 1e-9])
    def test_start_fits_the_budget(self, abs_tol):
        # the tail keeps its depth m = ceil(log2(1/abs_tol) / (1 + order))
        # and its clamp; the h = 6 head levels of a pole 0.01 from 1 take
        # only the budget that is left
        for order in (0, 1):
            m = math.ceil(math.log2(1.0 / abs_tol) / (1 + order))
            for budget in range(1, 41):
                spec = QuadratureSpec(abs_tol=abs_tol, rel_tol=abs_tol,
                                      max_subdivisions=budget)
                g, sizes = counting(self._lorentzian(0.01))
                integrate_adaptive(g, spec, pole_distance=0.01, tail_order=order)
                assert sizes[0] == 15 * min(budget, m + 1 + 6), (order, budget)
                assert panels(sizes) <= budget, (order, budget)

    def test_pole_at_floating_point_resolution(self):
        # the head stops at h = 45 levels, a panel of width 2**-46 touching 1,
        # whose nodes are still all below 1
        g, sizes = counting(self._lorentzian(1e-300))
        integrate_adaptive(g, QuadratureSpec(max_subdivisions=100), pole_distance=1e-300)
        assert sizes[0] == 15 * (31 + 45)

    def test_no_near_pole_keeps_the_tail_mesh(self):
        # without the argument, or with the pole 1/2 or more from 1, the
        # start is the m + 1 = 31 panels [0, 2**-30], ..., [1/2, 1], and
        # every call and result is the same, bit for bit; so at tail order 0
        runs = []
        for kwargs in ({}, {"pole_distance": 0.5}, {"pole_distance": 2.0},
                       {"pole_distance": math.inf}, {"tail_order": 0}):
            seen = []

            def f(u):
                seen.append(u.copy())
                return self._lorentzian(0.06)(u)

            value, err, missed = integrate_adaptive(f, QuadratureSpec(), **kwargs)
            runs.append([value.tobytes(), err.tobytes(), missed.tolist()]
                        + [u.tobytes() for u in seen])
        assert all(run == runs[0] for run in runs)
        assert len(runs[0]) > 4
        edges = np.append(0.0, 2.0 ** -np.arange(30, -1, -1.0))
        centres = np.frombuffer(runs[0][3]).reshape(-1, 15)[:, 7]
        assert centres.tobytes() == (0.5 * (edges[:-1] + edges[1:])).tobytes()

    def test_rounds_keep_nodes_off_one(self):
        # the head's last panel is 2**-46 wide; bisecting it would round a
        # Kronrod node of the child touching 1 onto 1, where this integrand
        # is infinite, so the rounds refuse that split and miss, finitely
        g, sizes = counting(lambda u: np.stack([(1.0 - u) ** -0.9]))
        value, err, missed = integrate_adaptive(
            g, QuadratureSpec(max_subdivisions=200), pole_distance=1e-300)
        assert len(sizes) > 1
        assert np.isfinite(value).all() and np.isfinite(err).all()
        assert missed.all()


class TestTailOrder:
    """An integrand bounded by u**tail_order near u = 0 starts from a tail
    of depth ceil(log2(1 / abs_tol) / (1 + tail_order))."""

    @pytest.mark.parametrize("abs_tol, full, half", [(1e-5, 17, 9), (1e-9, 30, 15)])
    def test_order_one_halves_the_depth(self, abs_tol, full, half):
        # u*cos(3u) vanishes like u at 0; its integral over (0, 1) is
        # (cos 3 + 3 sin 3 - 1) / 9
        spec = QuadratureSpec(abs_tol=abs_tol, rel_tol=abs_tol)
        exact = (math.cos(3.0) + 3.0 * math.sin(3.0) - 1.0) / 9.0
        for order, depth in ((0, full), (1, half)):
            seen = []

            def f(u):
                seen.append(u.copy())
                return np.stack([u * np.cos(3.0 * u)])

            value, err = integrate_unit(counting(f)[0], spec, tail_order=order)
            assert abs(value[0] - exact) <= err[0] <= abs_tol
            edges = np.append(0.0, 2.0 ** -np.arange(depth, -1, -1.0))
            centres = seen[0].reshape(-1, 15)[:, 7]
            assert centres.tobytes() == (0.5 * (edges[:-1] + edges[1:])).tobytes()


class TestRidingRows:
    """Rows that ride are integrated on the mesh the other rows choose and
    change nothing of theirs."""

    @staticmethod
    def _steering(u):
        # an endpoint singularity and an oscillation: several rounds
        return np.stack([np.log(u), np.cos(40.0 * u)])

    @staticmethod
    def _with_riders(u):
        # a rider that alone would need far more refinement than the mesh
        # gets, and one the mesh integrates to the last digits
        return np.concatenate([TestRidingRows._steering(u),
                               np.stack([np.sin(400.0 * u), u * u])])

    @pytest.mark.parametrize("max_subdivisions", [512, 6])
    def test_steering_rows_bit_identical(self, max_subdivisions):
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12,
                              max_subdivisions=max_subdivisions)
        results = []
        for f, ride in ((self._steering, 0), (self._with_riders, 2)):
            g, sizes = counting(f)
            results.append((*integrate_adaptive(g, spec, ride=ride), sizes))
        (value, err, missed, sizes), (ridden, ridden_err, ridden_missed,
                                      ridden_sizes) = results
        assert ridden_sizes == sizes
        assert ridden[:2].tobytes() == value.tobytes()
        assert ridden_err.tobytes() == err.tobytes()
        assert ridden_missed.tolist() == missed.tolist()
        assert ridden.shape == (4,) and ridden_err.shape == ridden_missed.shape == (2,)
        if max_subdivisions == 512:
            assert len(sizes) > 1
            assert not missed.any()
            assert ridden[3] == pytest.approx(1.0 / 3.0, abs=1e-15)
        else:  # the start mesh fills the budget: the estimate, in one call
            assert err[0] > spec.abs_tol
            assert missed[0]

    def test_riders_on_a_pricing_integration(self, table1_heston):
        # the slope rows of all nine parameters, on a corrected strip and a
        # baseline strip, leave the strips' breakdowns, bounds and tags
        # bit-identical, in the same integrand calls; at 10 y 4*sqrt(V) sets
        # the scale and the rounds walk the tail, so there are several calls
        strips = [(np.linspace(80.0, 120.0, 5), 0.5, 100.0, table1_heston,
                   group_at_epsilon(1e-2)),
                  ([100.0], 10.0, 100.0, table1_heston, None)]
        spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)
        calls = {}
        for key, price in (
            ("plain", lambda: pricer.price_strips(strips, spec)),
            ("ridden", lambda: pricer.price_slopes(
                strips, pricer.HESTON_NAMES + pricer.GROUP_NAMES, spec)[0]),
        ):
            sizes = []
            original = pricer.integrate_adaptive

            def counted(f, *args, **kwargs):
                g, seen = counting(f)
                try:
                    return original(g, *args, **kwargs)
                finally:
                    sizes.extend(seen)

            pricer.integrate_adaptive = counted
            try:
                calls[key] = (repr(price()), sizes)
            finally:
                pricer.integrate_adaptive = original
        assert calls["ridden"] == calls["plain"]
        assert len(calls["plain"][1]) > 1

    def test_missed_is_the_strips_tags(self, table1_heston, monkeypatch):
        # on a budget-starved batch, ``missed`` holds one entry per price
        # row, the steering rows, whatever rides, and a strip is tagged
        # nonconvergence exactly where one of its entries is set
        verdicts = []

        def recording(f, spec, ride=0, **kwargs):
            value, err, missed = integrate_adaptive(f, spec, ride=ride, **kwargs)
            verdicts.append((ride, missed.tolist()))
            return value, err, missed

        monkeypatch.setattr(pricer, "integrate_adaptive", recording)
        v = group_at_epsilon(1e-2)
        strips = [(np.linspace(80.0, 120.0, 3), 1.0 / 365.0, 100.0, table1_heston, v),
                  ([100.0, 110.0], 1.0, 100.0, table1_heston, None),
                  ([90.0], 10.0, 100.0, table1_heston, v)]
        spec = QuadratureSpec(max_subdivisions=35)
        edges = [0, 3, 5, 6]
        wrt = pricer.HESTON_NAMES + pricer.GROUP_NAMES
        for price, ride in ((lambda: pricer.price_strips(strips, spec), 6),
                            (lambda: pricer.price_slopes(strips, wrt, spec)[0], 60)):
            verdicts.clear()
            priced = price()
            [(seen_ride, missed)] = verdicts
            assert seen_ride == ride and len(missed) == 6
            assert missed == [True] * 3 + [False] * 2 + [True]
            for strip, lo, hi in zip(priced, edges, edges[1:]):
                for bd in strip:
                    assert ("nonconvergence" in bd.warnings) == any(missed[lo:hi])

    def test_at_least_one_row_steers(self):
        with pytest.raises(ValueError, match="ride = 2 must leave at least one row"):
            integrate_adaptive(lambda u: np.stack([u, u]), QuadratureSpec(), ride=2)


class TestHalfLine:
    def test_pure_exponential(self):
        for c_inf in (0.3, 1.0, 3.1):
            value, _ = halfline_via_u(
                lambda k: np.exp(-k * c_inf), c_inf, QuadratureSpec()
            )
            assert value == pytest.approx(1.0 / c_inf, rel=1e-9)

    def test_gaussian_against_cutoff_quadrature(self):
        value, _ = halfline_via_u(lambda k: np.exp(-(k**2)), 0.8, QuadratureSpec())
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

        value, _ = halfline_via_u(integrand, c_infinity(tau, p), QuadratureSpec())

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
            _, err, _ = integrate_adaptive(f, spec)
            errs.append(err)
        assert all(e2 <= e1 * (1 + 1e-12) for e1, e2 in zip(errs, errs[1:]))


class TestRounds:
    @staticmethod
    def _pricer_calls(monkeypatch):
        """The sizes of the integrand calls of the pricer's integrations."""
        sizes = []

        def counted(f, spec, **kwargs):
            g, seen = counting(f)
            try:
                return integrate_adaptive(g, spec, **kwargs)
            finally:
                sizes.extend(seen)

        monkeypatch.setattr(pricer, "integrate_adaptive", counted)
        return sizes

    @pytest.mark.parametrize("max_subdivisions", [512, 24])
    def test_corrected_strip_one_call_per_round(
        self, monkeypatch, table1_heston, max_subdivisions
    ):
        sizes = self._pricer_calls(monkeypatch)
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12,
                              max_subdivisions=max_subdivisions)
        strikes = np.linspace(30.0, 300.0, 25)
        bds = pricer.price_strikes(
            strikes, 1.0, 100.0, table1_heston, v=group_at_epsilon(1e-2), spec=spec
        )
        # c_infinity sets the scale at 1 y, so the map at c_infinity/2 makes
        # the integrand vanish like u at u = 0: the graded start has depth
        # ceil(log2(1e12) / 2) = 20, and the payoff pole 0.5*scale from
        # u = 1 adds h head levels; 22 panels fit both budgets
        scale = 0.5 * pricer.c_infinity(1.0, table1_heston)
        h = math.ceil(-math.log2(0.5 * scale)) - 1
        assert h == 1
        assert sizes[0] == 15 * (20 + 1 + h)
        assert len(sizes) > 1
        assert all(n % 30 == 0 for n in sizes[1:])
        assert panels(sizes) <= max_subdivisions
        failed = "nonconvergence" in bds[0].warnings
        assert failed == (max_subdivisions == 24)
        if failed:
            assert panels(sizes) == max_subdivisions

    @pytest.mark.parametrize("tol", [1e-5, 1e-9])
    @pytest.mark.parametrize("tau", [0.25, 1.0])
    def test_baseline_strip_in_two_calls(self, monkeypatch, table1_heston, tau, tol):
        # the graded start already holds the tail's geometric mesh; from one
        # panel the rounds bisect towards u = 0 one level per call
        sizes = self._pricer_calls(monkeypatch)
        spec = QuadratureSpec(abs_tol=tol, rel_tol=tol)
        strikes = np.linspace(80.0, 120.0, 11)
        bds = pricer.price_strikes(strikes, tau, 100.0, table1_heston, spec=spec)
        assert all(bd.warnings == () for bd in bds)
        assert len(sizes) <= 2

    @pytest.mark.parametrize("tau", [0.25, 1.0])
    def test_corrected_strip_in_baseline_calls(self, monkeypatch, table1_heston, tau):
        # the price row steers and the correction rides, so a corrected
        # 25-strike strip takes no more integrand calls than its baseline
        # strip (one each at these expiries)
        sizes = self._pricer_calls(monkeypatch)
        strikes = np.linspace(75.0, 125.0, 25)
        calls = []
        for v in (None, group_at_epsilon(1e-2)):
            sizes.clear()
            bds = pricer.price_strikes(strikes, tau, 100.0, table1_heston, v)
            assert not any("nonconvergence" in bd.warnings for bd in bds)
            calls.append(len(sizes))
        baseline, corrected = calls
        assert corrected <= baseline

    def test_surface_batch_in_one_call(self, monkeypatch, figure1_heston):
        # the benchmark's surface: Figure-1 strips at 0.25, 0.5, 1 and 2 y,
        # 11 strikes 75-125 each, in one integration; the start panels
        # graded towards the payoff pole near u = 1 take it in the first call
        sizes = self._pricer_calls(monkeypatch)
        v = pricer.GroupParams(-0.001, 0.0005, 0.002, -0.0005)
        strips = [(np.linspace(75.0, 125.0, 11), tau, 100.0, figure1_heston, v)
                  for tau in (0.25, 0.5, 1.0, 2.0)]
        spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8, max_subdivisions=512)
        priced = pricer.price_strips(strips, spec)
        assert not any("nonconvergence" in bd.warnings for strip in priced for bd in strip)
        # c_infinity sets every scale, so the map at c_infinity/2 halves the
        # tail to depth 15; the smallest scale, 0.06 at 0.25 y, puts the
        # pole 0.03 from u = 1 and adds 5 head levels: 21 panels
        assert sizes == [15 * (15 + 1 + 5)]

    @pytest.mark.parametrize("payoff", ["call", "put"])
    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("tau", [0.25, 1.0])
    def test_figure1_strip_in_one_call(self, monkeypatch, figure1_heston, tau,
                                       corrected, payoff):
        # Figure-1's scales at 0.25 and 1 y, c_infinity/2 = 0.06 and 0.12,
        # put the payoff pole 0.03 and 0.06 from u = 1: one call, where a
        # start that ends in [1/2, 1] takes 5 and 4
        sizes = self._pricer_calls(monkeypatch)
        v = group_at_epsilon(1e-2) if corrected else None
        bds = pricer.price_strikes(np.linspace(75.0, 125.0, 25), tau, 100.0,
                                   figure1_heston, v, payoff=payoff)
        assert not any("nonconvergence" in bd.warnings for bd in bds)
        assert len(sizes) == 1

    @pytest.mark.parametrize("payoff", ["call", "put"])
    def test_no_node_on_one(self, monkeypatch, table1_heston, payoff):
        # at tau = 1e-35, 4*sqrt(V) squeezes the integrand within float
        # resolution of u = 1; the rounds refine towards it without ever
        # evaluating u = 1 (``counting`` asserts the open rule), and the
        # prices say that they failed
        sizes = self._pricer_calls(monkeypatch)
        bds = pricer.price_strikes([90.0, 100.0, 110.0], 1e-35, 100.0,
                                   table1_heston, payoff=payoff)
        assert len(sizes) > 1
        for bd in bds:
            assert {"nonconvergence", "outside_no_arbitrage_band"} & set(bd.warnings)

    def test_interior_singularity_misses(self):
        def f(u):
            return np.stack([1.0 / np.abs(u - 1.0 / 3.0), u])

        g, sizes = counting(f)
        spec = QuadratureSpec(max_subdivisions=40)
        value, err, missed = integrate_adaptive(g, spec)
        assert len(sizes) <= spec.max_subdivisions
        assert panels(sizes) <= spec.max_subdivisions
        assert np.shape(value) == np.shape(err) == (2,)
        assert err[0] > spec.abs_tol
        # the singular row misses; the smooth one converges on its mesh
        assert missed.tolist() == [True, False]
