"""Bracketed root finding by Brent's method.

``brent_root`` closes a sign-change bracket whose ends, and the function
values there, come from the caller.  ``seeded_root`` builds that bracket
for the package's increasing roots from an estimate of the root and of
the slope there: the estimate and one Newton step from it straddle the
root, or the bracket doubles or halves from them to ratio 2.  Tolerances
follow the package-wide solver contract: relative 1e-12 unless stated
otherwise, and at most _MAX_ITER steps once the bracket is set.
"""

import math
import sys
from dataclasses import dataclass

__all__ = ["SolverError", "RootResult", "brent_root", "seeded_root"]

_EPS = sys.float_info.epsilon
_MAX_ITER = 200
# seeded_root lengthens its Newton step by this factor, so that a slope
# estimate a little too steep still carries the step across the root
_OVERSHOOT = 1.25
_MAX_LOG_STEP = 709.0  # e^709.78 is the largest float


class SolverError(RuntimeError):
    """A root finder or optimizer failed to converge; message carries diagnostics."""


@dataclass(frozen=True)
class RootResult:
    x: float
    residual: float
    iterations: int


def brent_root(f, a, b, fa, fb, rtol=1e-12, atol=0.0):
    """Find x between a and b with f(x) = 0, given f(a) and f(b) of opposite sign.

    Brent's zeroin: inverse quadratic interpolation or a secant step when it
    stays well inside the bracket, bisection otherwise, so the bracket
    always shrinks.  Stops when the bracket is below ``rtol`` relative (plus
    a few ulps) or below ``atol``, whichever is wider; a root near 0 needs
    ``atol``, or the bracket shrinks to ulps of 0.  ``iterations`` counts
    the evaluations of f, and ``residual`` is |f| at the returned point.
    """
    if fa == 0.0:
        return RootResult(a, 0.0, 0)
    if fb == 0.0:
        return RootResult(b, 0.0, 0)
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
        tol = max((2.0 * _EPS + 0.5 * rtol) * abs(b), 0.5 * atol)
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
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


def seeded_root(f, lo, f_lo, seed, log_slope):
    """Root above lo > 0 of f, increasing through zero, from the estimate ``seed``.

    f(lo) = f_lo < 0 is given, so it costs no evaluation; a seed at or below
    lo starts the search at lo itself.  ``log_slope`` > 0 estimates
    df/d(ln x) near the root.  After f at the seed, one Newton step in ln x,
    lengthened by a quarter, gives a second point, which lands across the
    root when the estimate holds; it is kept within [lo, largest float].
    :func:`brent_root` closes the tightest sign change among lo and the two
    points.  Only if both points lie below the root does the upper end
    double until f turns positive, and a bracket wider than ratio 2 is first
    halved down to ratio 2.  Doubling past the float range calls f at inf,
    so f must raise there.  ``iterations`` counts every evaluation of f,
    bracketing included.
    """
    x = max(seed, lo)
    f_x = f(x) if x > lo else f_lo
    evals = int(x > lo)
    if f_x == 0.0:
        return RootResult(x, 0.0, evals)
    step = min(-_OVERSHOOT * f_x / log_slope, _MAX_LOG_STEP)
    newton = min(x * math.exp(step), sys.float_info.max)
    f_newton = f(newton) if newton > lo else f_lo
    evals += int(newton > lo)
    if f_newton == 0.0:
        return RootResult(newton, 0.0, evals)
    hi, f_hi = math.inf, math.nan
    for point, f_point in ((x, f_x), (newton, f_newton)):
        if f_point < 0.0:
            if point > lo:
                lo, f_lo = point, f_point
        elif point < hi:
            hi, f_hi = point, f_point
    while hi == math.inf:  # the root lies above both points: double
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
    root = brent_root(f, lo, hi, f_lo, f_hi)
    return RootResult(root.x, root.residual, evals + root.iterations)
