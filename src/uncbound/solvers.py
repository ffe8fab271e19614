"""Bracketed root finders: bisection and Brent's method.

Both solvers work on a sign-change bracket: the bisection expands its upper
end geometrically until the sign changes, Brent's method expects the
bracket, with the function values at its ends, from the caller (see
bounds.purity_bound for the bracketing loop).  Tolerances follow the
package-wide solver contract: relative 1e-12 unless stated otherwise, and
at most _MAX_ITER steps once the bracket is set.
"""

import math
import sys
from dataclasses import dataclass

__all__ = ["SolverError", "RootResult", "bisect_root", "brent_root"]

_EPS = sys.float_info.epsilon
_MAX_ITER = 200


class SolverError(RuntimeError):
    """A root finder or optimizer failed to converge; message carries diagnostics."""


@dataclass(frozen=True)
class RootResult:
    x: float
    residual: float
    iterations: int


def bisect_root(f, lo, hi, rtol=1e-12, expand=True):
    """Find x in [lo, hi] with f(x) = 0 for f decreasing through zero.

    If ``expand`` is set and f(hi) is still positive, the upper end is
    doubled until the sign changes; a root beyond the float range raises
    ValueError.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return RootResult(lo, 0.0, 0)
    if flo < 0.0:
        raise SolverError(f"no bracket: f({lo}) = {flo} < 0 at lower end")
    expansions = 0
    while fhi > 0.0:
        if not expand:
            raise SolverError(f"no bracket: f({hi}) = {fhi} > 0 at upper end")
        lo, flo = hi, fhi
        hi *= 2.0
        if hi == math.inf:
            raise ValueError(f"no root below the float range: f({lo}) = {flo} > 0")
        fhi = f(hi)
        expansions += 1
    iters = expansions
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # exhausted float resolution
            break
        fmid = f(mid)
        iters += 1
        if fmid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * max(abs(lo), abs(hi)):
            break
    x = 0.5 * (lo + hi)
    return RootResult(x, abs(f(x)), iters)


def brent_root(f, a, b, fa, fb, rtol=1e-12):
    """Find x between a and b with f(x) = 0, given f(a) and f(b) of opposite sign.

    Brent's zeroin: inverse quadratic interpolation or a secant step when it
    stays well inside the bracket, bisection otherwise, so the bracket
    always shrinks.  Stops when the bracket is below ``rtol`` relative (plus
    a few ulps).  ``iterations`` counts the evaluations of f, and
    ``residual`` is |f| at the returned point.
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
        tol = (2.0 * _EPS + 0.5 * rtol) * abs(b)
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
