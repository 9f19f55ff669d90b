"""Adaptive quadrature for the pricer's contour integrals.

The workhorse is a globally adaptive Gauss-Kronrod (7, 15) pair rule that
integrates vector-valued (optionally complex) integrands: the integrand
receives an ndarray of abscissae and returns ``(..., n)`` stacked component
values.  All components share the subdivision so that a whole strip of
strikes rides one refinement.  Refinement runs in rounds, and each round
evaluates all the panels it creates in one integrand call, so the kernel work
is vectorized over panels as well as over components.

The rule is open (no endpoint evaluations), which matters because the
pricer's half-line substitution ``k_r = -log(u) / c`` maps infinity to
``u = 0``.  The integrand's tail needs a geometric mesh there, so an
integration of (0, 1) starts from panels that halve towards ``u = 0`` down
to a depth set by ``abs_tol`` and by the order at which the integrand
vanishes there: ``ceil(log2(1 / abs_tol) / (1 + order))`` levels, 17 at
1e-5 and 30 at 1e-9 for an integrand that stays O(1), 9 and 15 for one
that vanishes like ``u`` (the pricer's map at half the kernel's decay
rate), instead of the single panel ``(0, 1)``.  At the other end the map
puts ``k_r = 0`` at ``u = 1``, and a pole of the integrand a distance
``delta`` off the contour there sits about ``c * delta`` from ``u = 1``;
given that distance, the start panels also halve towards ``u = 1`` until
the panel touching 1 is no wider than it.  A pricing integration then
converges in one or two integrand calls instead of one round per bisection
towards either end.  The rounds never split a panel whose children would
round a node onto an end.  An integration returns its verdict, which
components missed their tolerance, with the estimate, so a spent budget is
never an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import require_finite

_EPS = np.finfo(float).eps

# Gauss-Kronrod (7, 15): Kronrod abscissae (positive half, descending) and
# weights, plus the embedded 7-point Gauss weights.  QUADPACK dqk15 values.
_XGK_HALF = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK_HALF = (
    0.0229353220105292,
    0.0630920926299785,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
)
_WGK_CENTER = 0.2094821410847278
_WG_HALF = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
)
_WG_CENTER = 0.4179591836734694

_NODES = np.array(
    [-x for x in _XGK_HALF] + [0.0] + [x for x in reversed(_XGK_HALF)]
)
_WK = np.array(
    list(_WGK_HALF) + [_WGK_CENTER] + list(reversed(_WGK_HALF))
)
_WG = np.zeros(15)
_WG[1:14:2] = list(_WG_HALF) + [_WG_CENTER] + list(reversed(_WG_HALF))


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for one adaptive integration: finite positive
    tolerances and a panel budget that is an integer of at least 1."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    max_subdivisions: int = 512

    def __post_init__(self):
        require_finite(positive=True, abs_tol=self.abs_tol, rel_tol=self.rel_tol)
        n = self.max_subdivisions
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ValueError(f"max_subdivisions must be an integer of at least 1, got {n!r}")


def _open(lo, hi):
    """Whether every GK15 node of each panel (lo[j], hi[j]) lies strictly
    inside it, in the arithmetic of ``_panels``."""
    centre, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (centre - hw * _XGK_HALF[0] > lo) & (centre + hw * _XGK_HALF[0] < hi)


def _panels(f, lo, hi, ride):
    """GK15 on every panel (lo[j], hi[j]) through one call of ``f``.

    Returns the Kronrod values of all components and the errors of all but
    the last ``ride`` rows of the first axis, shapes ``(..., n_panels)``.
    The integrand's array is overwritten.
    """
    hw = 0.5 * (hi - lo)
    xs = (0.5 * (lo + hi))[:, None] + hw[:, None] * _NODES
    vals = np.asarray(f(xs.ravel()))
    if vals.shape[-1] != xs.size:
        raise ValueError("integrand must return (..., n) for n abscissae")
    if not 0 <= ride < (len(vals) if vals.ndim > 1 else 1):
        raise ValueError(f"ride = {ride} must leave at least one row to steer")
    vals = vals.reshape(vals.shape[:-1] + xs.shape)
    steer = vals[: len(vals) - ride]
    resk = steer @ _WK
    resg = steer @ _WG
    value = resk * hw
    if ride:
        value = np.concatenate((value, (vals[len(vals) - ride:] @ _WK) * hw))
    raw = np.abs(resk - resg) * hw
    # one real scratch array serves |vals| and |vals - mean|, the latter
    # formed in place
    scratch = np.abs(steer)
    resabs = scratch @ _WK
    steer -= (resk * 0.5)[..., None]
    asc = (np.abs(steer, out=scratch) @ _WK) * hw
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(
            (asc > 0.0) & (raw > 0.0),
            asc * np.minimum(1.0, (200.0 * raw / np.where(asc > 0, asc, 1.0)) ** 1.5),
            raw,
        )
    err = np.maximum(scaled, 50.0 * _EPS * resabs * np.abs(hw))
    return value, err


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec,
    ride: int = 0,
    pole_distance: float = math.inf,
    tail_order: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Globally adaptive GK15 over (0, 1) for a vector-valued integrand.

    ``f`` maps an ``(n,)`` array of abscissae to ``(..., n)`` float or
    complex component values, a new array on each call: the rule overwrites
    it.  The last ``ride`` rows of its first axis ride: they are integrated
    on the mesh that the other rows, the steering rows, choose, and neither
    refine it nor count towards convergence, so the steering rows' values,
    their error bounds and the calls of ``f`` are the same as without the
    riding rows.

    The start mesh is graded towards ``u = 0``, where the pricer's map puts
    ``k = infinity``: the ``m + 1`` panels
    ``[0, 2**-m], [2**-m, 2**(1-m)], ..., [1/2, 1]``.  ``tail_order`` is
    the order at which the integrand vanishes at 0, bounded by
    ``u**tail_order`` there.  The depth
    ``m = ceil(log2(1 / abs_tol) / (1 + tail_order))``, at which the panel
    touching 0 holds less than ``abs_tol`` of such an integrand, is clamped
    to ``[0, max_subdivisions - 1]`` so that the start fits the panel
    budget.  At the default order 0 the integrand is only taken to be
    O(1), and ``m = ceil(log2(1 / abs_tol))``.
    ``pole_distance`` is how far the integrand's nearest singularity lies
    from ``u = 1``.  Below 1/2 the last panel is graded towards 1 as well:
    ``[1/2, 3/4], [3/4, 7/8], ..., [1 - 2**-(h+1), 1]`` with
    ``h = ceil(log2(1 / pole_distance)) - 1`` levels, the fewest that make
    the panel touching 1 no wider than ``pole_distance``.  ``h`` is clamped
    to the budget that ``m`` leaves, so the start never exceeds
    ``max_subdivisions`` panels, and to 45, beyond which the panel touching
    1 is too narrow for the open rule: some of its nodes round to 1.
    Without the argument, or at 1/2 and above, the start is the ``m + 1``
    panels alone.  All start panels are evaluated in the first call of
    ``f``.

    Refinement then runs in rounds shared by all components: a round
    bisects every panel whose error, in the worst component, exceeds its
    equal share ``tol / n_panels`` of that component's tolerance
    ``tol = max(abs_tol, rel_tol * |component|)`` (worst panels first, up
    to ``max_subdivisions`` panels in all) and evaluates all the children in
    one call of ``f``.

    Returns ``(value, bound, missed)`` once every steering row's summed
    error meets its tolerance, or once no panel may be split (the budget is
    spent, or the panels that need it are at floating-point resolution:
    a split is refused where a child's Kronrod node would round onto one of
    its ends, so ``f`` never sees 0 or 1).
    ``value`` holds every row, ``bound`` the error bound of each steering
    row and ``missed`` whether that bound is not within the row's
    tolerance; riding rows are never counted.
    """
    m = min(math.ceil(math.log2(max(1.0 / spec.abs_tol, 1.0)) / (1 + tail_order)),
            spec.max_subdivisions - 1)
    # below 2**-46 wide, the panel touching 1 rounds Kronrod nodes to 1
    h = min(math.ceil(-math.log2(min(pole_distance, 0.5))) - 1, 45,
            spec.max_subdivisions - 1 - m)
    edges = np.concatenate(([0.0], 2.0 ** -np.arange(m, 0, -1.0),
                            1.0 - 2.0 ** -np.arange(2.0, h + 2.0), [1.0]))
    lo, hi = edges[:-1], edges[1:]
    value, err = _panels(f, lo, hi, ride)
    while True:
        total, bound = value.sum(axis=-1), err.sum(axis=-1)
        steered = total[: len(total) - ride] if ride else total
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(steered))
        missed = ~(bound <= tol)  # a NaN bound misses
        if not missed.any():
            return total, bound, missed
        n = lo.size
        mid = 0.5 * (lo + hi)
        # each panel's worst component error over its share tol / n; a panel
        # whose children would round a node onto an end is never split
        share = (err / tol[..., None]).reshape(-1, n).max(axis=0) * n
        share[~(_open(lo, mid) & _open(mid, hi))] = 0.0
        order = np.argsort(-share, kind="stable")
        split = order[share[order] > 1.0][: spec.max_subdivisions - n]
        if not split.size:
            return total, bound, missed
        new_lo = np.concatenate((lo[split], mid[split]))
        new_hi = np.concatenate((mid[split], hi[split]))
        new_value, new_err = _panels(f, new_lo, new_hi, ride)
        lo = np.concatenate((np.delete(lo, split), new_lo))
        hi = np.concatenate((np.delete(hi, split), new_hi))
        value = np.concatenate((np.delete(value, split, axis=-1), new_value), axis=-1)
        err = np.concatenate((np.delete(err, split, axis=-1), new_err), axis=-1)
