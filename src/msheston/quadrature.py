"""Adaptive quadrature for the pricer's contour integrals.

The workhorse is a globally adaptive Gauss-Kronrod (7, 15) pair rule that
integrates vector-valued (optionally complex) integrands: the integrand
receives an ndarray of abscissae and returns ``(..., n)`` stacked component
values.  All components share the subdivision so that a whole strip of
strikes, or a batch of time nodes, rides one refinement.

The rule is open (no endpoint evaluations), which matters because the
pricer's half-line substitution ``k_r = -log(u) / C_inf`` maps infinity to
``u = 0``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergence

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
    """Tolerances and budget for one adaptive integration."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    max_subdivisions: int = 512

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


def _panel_apply(f, a: float, b: float):
    """Evaluate one GK15 panel; returns (value, error) per component."""
    hw = 0.5 * (b - a)
    xs = 0.5 * (a + b) + hw * _NODES
    vals = np.asarray(f(xs))
    if vals.shape[-1] != 15:
        raise ValueError("integrand must return (..., n) for n abscissae")
    resk = vals @ _WK
    resg = vals @ _WG
    value = resk * hw
    raw = np.abs(resk - resg) * hw
    resabs = np.abs(vals) @ _WK
    mean = resk * 0.5
    asc = (np.abs(vals - mean[..., None]) @ _WK) * hw
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(
            (asc > 0.0) & (raw > 0.0),
            asc * np.minimum(1.0, (200.0 * raw / np.where(asc > 0, asc, 1.0)) ** 1.5),
            raw,
        )
    err = np.maximum(scaled, 50.0 * _EPS * resabs * abs(hw))
    return value, err


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Globally adaptive GK15 over (a, b) for a vector-valued integrand.

    ``f`` maps an ``(n,)`` array of abscissae to ``(..., n)`` component
    values (real or complex).  Subdivision is worst-panel-first and shared by
    all components; convergence requires every component's accumulated error
    to satisfy ``max(abs_tol, rel_tol * |component|)``.  Returns the
    per-component ``(value, error)`` pair.

    Raises
    ------
    NonConvergence
        When the subdivision budget is exhausted; carries the best estimate
        and its error bound.
    """
    value, err = _panel_apply(f, a, b)
    panels = {0: (a, b, value, err)}
    heap = [(-float(np.max(err)), 0)]
    next_id = 1
    totals = np.array(value, copy=True)
    tot_err = np.array(err, copy=True)

    def _converged():
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(totals))
        return np.all(tot_err <= tol)

    while not _converged():
        if len(panels) >= spec.max_subdivisions or not heap:
            totals, tot_err = _resum(panels)
            if _converged():
                break
            raise NonConvergence(
                f"quadrature did not converge in {len(panels)} panels "
                f"(max error {float(np.max(tot_err)):.3e})",
                estimate=totals,
                error_bound=tot_err,
            )
        _, pid = heapq.heappop(heap)
        pa, pb, pval, perr = panels.pop(pid)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            # interval at floating-point resolution; keep it as-is
            panels[pid] = (pa, pb, pval, perr)
            continue
        for (ca, cb) in ((pa, mid), (mid, pb)):
            cval, cerr = _panel_apply(f, ca, cb)
            panels[next_id] = (ca, cb, cval, cerr)
            heapq.heappush(heap, (-float(np.max(cerr)), next_id))
            next_id += 1
            totals = totals + cval
            tot_err = tot_err + cerr
        totals = totals - pval
        tot_err = tot_err - perr

    return _resum(panels)


def _resum(panels):
    vals = [v for (_, _, v, _) in panels.values()]
    errs = [e for (_, _, _, e) in panels.values()]
    return np.sum(vals, axis=0), np.sum(errs, axis=0)
