"""Bracketed root finding by Brent's method.

``brent_root`` closes a sign-change bracket whose ends, and the function
values there, come from the caller.  ``seeded_root`` finds the package's
increasing roots from an estimate of the root and the exact slope: Newton
steps while they converge, then a bracket doubled or halved from the
points to ratio 2 for ``brent_root``.  Tolerances follow the package-wide
solver contract: relative 1e-12, and at most _MAX_ITER steps once the
bracket is set.
"""

import math
import sys
from dataclasses import dataclass

__all__ = ["SolverError", "RootResult", "brent_root", "seeded_root"]

_EPS = sys.float_info.epsilon
_MAX_ITER = 200
_RTOL = 1e-12
# seeded_root's steps on an exact slope: each moves ln x by at most ln 2, and
# they go on while each cuts |f| at least tenfold
_NEWTON_CLAMP = math.log(2.0)
_NEWTON_CUT = 10.0


class SolverError(RuntimeError):
    """A root finder or optimizer failed to converge; message carries diagnostics."""


@dataclass(frozen=True)
class RootResult:
    x: float
    residual: float
    iterations: int


def brent_root(f, a, b, fa, fb, ftol=0.0):
    """Find x between a and b with f(x) = 0, given f(a) and f(b) of opposite sign.

    Brent's zeroin: inverse quadratic interpolation or a secant step when it
    stays well inside the bracket, bisection otherwise, so the bracket
    always shrinks.  Stops when the bracket is below 1e-12 relative (plus a
    few ulps), so a root at 0 bisects down to ulps of 0.  The first point with
    |f| <= ``ftol`` (an end, then each evaluation) is returned at once; the
    default 0.0 stops only on an exact zero.  ``iterations`` counts the
    evaluations of f, and ``residual`` is |f| at the returned point.
    """
    if abs(fa) <= ftol:
        return RootResult(a, abs(fa), 0)
    if abs(fb) <= ftol:
        return RootResult(b, abs(fb), 0)
    if (fa > 0.0) == (fb > 0.0):
        raise SolverError(f"no bracket: f({a}) = {fa} and f({b}) = {fb}")
    c, fc = a, fa
    d = e = b - a
    for evals in range(_MAX_ITER + 1):
        if (fb > 0.0) == (fc > 0.0):  # keep the root between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b is the best point so far
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = (2.0 * _EPS + 0.5 * _RTOL) * abs(b)
        half = 0.5 * (c - b)
        if abs(half) <= tol or abs(fb) <= ftol:
            return RootResult(b, abs(fb), evals)
        if evals == _MAX_ITER:
            break
        step = half  # bisection unless interpolation is safe
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, t = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - t) - (b - a) * (t - 1.0))
                q = (q - 1.0) * (t - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                step = p / q
                e, d = d, step
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += step if abs(step) > tol else math.copysign(tol, half)
        fb = f(b)
    raise SolverError(
        f"Brent iteration did not converge in {_MAX_ITER} evaluations: "
        f"bracket [{b}, {c}], f = {fb}, {fc}"
    )


def seeded_root(f, lo, f_lo, seed, log_slope, ftol=0.0):
    """Root above lo > 0 of f, increasing through zero, from the estimate ``seed``.

    f(lo) = f_lo < 0 is given, so it costs no evaluation; a seed at or below
    lo starts the search at lo itself.  ``log_slope(x)`` is the exact
    df/d(ln x) at a point x where f has been evaluated.  From the seed,
    Newton steps in ln x, each clamped to _NEWTON_CLAMP = ln 2 and taken
    only strictly inside the bracket found so far, go on while each cuts
    |f| at least _NEWTON_CUT times (none from lo, and none where the slope
    is not positive).  Then :func:`brent_root` closes the tightest sign
    change among lo and the points.  Only if every point lies below the
    root does the upper end double until f turns positive, and a bracket
    wider than ratio 2 is first halved down to ratio 2.  Doubling past the
    float range calls f at inf, so f must raise there.  A point is returned
    at once where |f| <= ``ftol``, and ``ftol`` goes on to
    :func:`brent_root`.  ``iterations`` counts every evaluation of f,
    bracketing included.
    """
    x = max(seed, lo)
    f_x = f(x) if x > lo else f_lo
    evals = int(x > lo)
    hi, f_hi = math.inf, math.nan
    while abs(f_x) > ftol:
        if f_x < 0.0:
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
        if not evals or evals > 1 and abs(f_x) > last / _NEWTON_CUT:
            break  # no slope at lo, or the last step cut |f| too little
        slope = log_slope(x)
        if not slope > 0.0:
            break
        point = x * math.exp(min(max(-f_x / slope, -_NEWTON_CLAMP), _NEWTON_CLAMP))
        if not lo < point < hi:
            break
        last, x, f_x = abs(f_x), point, f(point)
        evals += 1
    else:
        return RootResult(x, abs(f_x), evals)
    while hi == math.inf:  # the root lies above every point: double
        point = 2.0 * lo
        f_point = f(point)
        evals += 1
        if f_point < 0.0:
            lo, f_lo = point, f_point
        else:
            hi, f_hi = point, f_point
    while hi > 2.0 * lo:  # a wide bracket: halve down to ratio 2
        mid = 0.5 * hi
        f_mid = f(mid)
        evals += 1
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    root = brent_root(f, lo, hi, f_lo, f_hi, ftol=ftol)
    return RootResult(root.x, root.residual, evals + root.iterations)
