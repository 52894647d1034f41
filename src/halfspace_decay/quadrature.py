"""Composite Simpson quadrature with an a-posteriori error estimate.

The verification inequalities are exact in the continuum; all discrete slack
must be budgeted explicitly.  Every integral therefore comes with a Richardson
error estimate from a stride-2 coarsening, and a resolution-adequacy gate
refuses to produce a verdict when the estimated change under grid doubling
exceeds 1e-6 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridError, ResolutionError

GATE_RTOL = 1e-6


@lru_cache(maxsize=8)
def uniform_grid(t_end: float, n_points: int) -> np.ndarray:
    """n_points equally spaced points on [0, t_end]; cached, so read-only."""
    if n_points < 5:
        raise GridError("need at least 5 grid points")
    t = np.linspace(0.0, t_end, n_points)
    t.flags.writeable = False
    return t


def grid_step(t: np.ndarray) -> float:
    """The step h[0] of a grid of finite points, strictly increasing and uniform to 1e-9 relative.

    One difference pass, then its min and max: max |h_i - h_0| is max(hi - h_0, h_0 - lo),
    bit for bit, because rounding is monotone.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite difference is refused below
        h = t[1:] - t[:-1]
    if h.size == 0:
        raise GridError("grid must be strictly increasing")
    lo, hi = float(h.min()), float(h.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise GridError("grid points and their spacing must be finite")
    if lo <= 0:
        raise GridError("grid must be strictly increasing")
    if max(hi - h[0], h[0] - lo) > 1e-9 * max(abs(t[-1]), 1.0):
        raise GridError("grid must be uniform")
    return float(h[0])


@lru_cache(maxsize=8)
def simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, ..., 4, 1 (no h/3 factor); cached, so read-only."""
    if n < 3 or n % 2 == 0:
        raise GridError("Simpson rule needs an odd number of points (even intervals)")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w.flags.writeable = False
    return w


def composite_simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule; requires an even number of intervals."""
    return float(h / 3.0 * np.dot(simpson_weights(y.shape[-1]), y))


@dataclass(frozen=True)
class Integral:
    value: float
    err_estimate: float
    coarse_value: float


def simpson_with_error(y: np.ndarray, h: float) -> Integral:
    """Simpson value plus a conservative Richardson error estimate.

    The dominant discretisation error in the verification pipeline is second
    order (finite differences inside the integrand), so the estimate uses the
    order-2 Richardson factor |I_h - I_2h|/3 rather than the order-4 one.
    Requires the interval count divisible by 4 so the coarse grid is valid.
    """
    n = y.shape[-1]
    if (n - 1) % 4 != 0:
        raise GridError("error estimate needs point count n with (n-1) divisible by 4")
    fine = composite_simpson(y, h)
    coarse = composite_simpson(y[::2], 2.0 * h)
    return Integral(value=fine, err_estimate=abs(fine - coarse) / 3.0, coarse_value=coarse)


def check_resolution(*integrals: Integral, what: str = "integral", gate_rtol: float = GATE_RTOL) -> None:
    """Refuse to emit a verdict if grid doubling would move any integral.

    The change from h to h/2 is estimated as |I_h - I_2h| / 4 (order-2
    dominant error); it must stay below ``gate_rtol`` relative (1e-6 default).
    """
    for integ in integrals:
        scale = max(abs(integ.value), 1e-300)
        predicted_change = abs(integ.value - integ.coarse_value) / 4.0
        if predicted_change > gate_rtol * scale:
            raise ResolutionError(
                f"{what}: resolution gate failed "
                f"(predicted relative change {predicted_change / scale:.3e} > {gate_rtol:g}); "
                "refine the t-grid"
            )


def window_integral(t: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    """Trapezoid integral of samples y(t) over [lo, hi].

    Window edges falling between grid points are handled by linear
    interpolation, so windows need not be grid-aligned.
    """
    if hi <= lo:
        raise GridError("window must have positive length")
    lo = max(lo, float(t[0]))
    hi = min(hi, float(t[-1]))
    if hi <= lo:
        return 0.0
    inside = (t > lo) & (t < hi)
    ts = np.concatenate(([lo], t[inside], [hi]))
    ys = np.concatenate(([np.interp(lo, t, y)], y[inside], [np.interp(hi, t, y)]))
    return float(np.trapezoid(ys, ts))
