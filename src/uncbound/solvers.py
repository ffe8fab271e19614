"""Root finding from a seed and an exact slope.

``seeded_root`` finds the package's increasing roots (the purity cutoff,
the interpolation root, the thermal mean occupation) in one loop to the
solver contract: relative 1e-12, at most _MAX_ITER evaluations once the
bracket is set.
"""

import math
import sys
from dataclasses import dataclass

__all__ = ["SolverError", "RootResult", "seeded_root"]

_MAX_ITER = 200
# half the width, relative to x, of a closed bracket: 1e-12 in all, plus ulps
_XTOL = 2.0 * sys.float_info.epsilon + 0.5e-12
# each Newton step moves ln x by at most ln 2
_NEWTON_CLAMP = math.log(2.0)


class SolverError(RuntimeError):
    """A root finder or optimizer failed to converge; message carries diagnostics."""


@dataclass(frozen=True)
class RootResult:
    x: float
    residual: float
    iterations: int


def seeded_root(f, lo, f_lo, seed, log_slope, ftol=0.0):
    """Root above lo > 0 of f, increasing through zero, from the estimate ``seed``.

    f(lo) = f_lo < 0 is given, so it costs no evaluation; a seed at or below
    lo starts the search at lo itself.  ``log_slope(x)`` is the exact
    df/d(ln x) at lo or at a point x where f has been evaluated.  Each step
    starts from the newest point x.  It is a Newton step in ln x, clamped to
    ln 2, where the slope is positive, the step lands strictly inside the
    bracket found so far, and x is no Newton point or one whose step cut |f|
    at least twofold.  Otherwise, while every point lies below the root, lo
    doubles (past the float range that calls f at inf, where f must raise);
    inside a bracket, the step is false position in ln x if x came from a
    step that was none of Newton's and halved the bracket's width in ln x,
    else bisection in ln x.  The search returns the first point with
    |f| <= ``ftol``; the end with the smaller |f| once the bracket is within
    _XTOL x of its midpoint; or, where a Newton step below _XTOL x follows
    one that cut |f| twofold, the one of its two points with the smaller |f|.
    ``iterations`` counts every evaluation of f, and ``residual`` is |f| at
    the returned point.
    """
    x = max(seed, lo)
    f_x = f(x) if x > lo else f_lo
    evals = int(x > lo)
    hi, f_hi = math.inf, math.nan
    # |f| where the Newton step that gave x started (inf: x is no Newton point),
    # the bracket's width in ln x before x, and the evaluations once bracketed
    last = width = math.inf
    bracketed = 0
    while abs(f_x) > ftol:
        if f_x < 0.0:
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
        tol = _XTOL * x
        if hi - lo <= 2.0 * tol:
            return RootResult(*min((lo, -f_lo), (hi, f_hi), key=lambda end: end[1]), evals)
        converging = abs(f_x) <= 0.5 * last < math.inf
        point = math.nan
        slope = log_slope(x) if last == math.inf or converging else math.nan
        if slope > 0.0:
            point = x * math.exp(min(max(-f_x / slope, -_NEWTON_CLAMP), _NEWTON_CLAMP))
            if converging and abs(point - x) <= tol:  # converged: one last point
                f_point = f(point) if point != x else f_x
                best = min((x, abs(f_x)), (point, abs(f_point)), key=lambda end: end[1])
                return RootResult(*best, evals + (point != x))
        span = (hi - lo) / lo  # ln(hi/lo) to full precision, also past the float range
        new_width = math.log1p(span) if span < math.inf else math.log(hi) - math.log(lo)
        if lo < point < hi:
            last = abs(f_x)
        elif hi == math.inf:
            last, point = math.inf, 2.0 * lo
        else:
            halved = last == math.inf and new_width <= 0.5 * width
            last = math.inf
            point = lo * math.exp(f_lo / (f_lo - f_hi) * new_width)  # false position
            if not (halved and lo < point < hi):
                point = lo * math.exp(0.5 * new_width)
        width = new_width
        bracketed += hi < math.inf
        if bracketed > _MAX_ITER:
            raise SolverError(f"root search did not converge in {_MAX_ITER} evaluations "
                              f"after bracketing: [{lo}, {hi}], f = {f_lo}, {f_hi}")
        x, f_x = point, f(point)
        evals += 1
    return RootResult(x, abs(f_x), evals)
