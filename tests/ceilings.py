"""Ceilings on the purity bound from feasible states, in floats.

The bound is a minimum over every state of purity mu^(r), so the energy of
any one such state is a ceiling on it.  ``thermal_ceiling(mu, n, r)`` is
the per-dimension product (1 + x)/(1 - x) of the thermal product state:
per mode xi_m = (1 - x) x^m, x = e^y, each mode at purity mu^(1/n), since
generalized purities multiply over a product.  With q = 1/(r - 1) and
p = 1 + q,

    ln sum_m xi_m^p = q ln(-expm1(y)) - log1p(x expm1(qy)/expm1(y)),

two terms of one sign, so nothing cancels; the naive p ln(1 - x)
- ln(1 - x^p) does, and gave false ceilings up to 7e-9 low at r from 4e4
to 1e6.  The mode's y solves (r - 1) ln sum xi^p = ln(mu)/n, by bisection
in ln(-y) to the last bit.
"""

import math


def log_mode_purity(y, r):
    """ln mu^(r) of one thermal mode, xi_m = (1 - x) x^m with x = e^y, y < 0."""
    drop = math.exp(y) * math.expm1(y / (r - 1.0)) / math.expm1(y)
    return math.log(-math.expm1(y)) - (r - 1.0) * math.log1p(drop)


def thermal_ceiling(mu, n, r):
    """Per-dimension product of the n-mode thermal product state of purity mu^(r) = mu.

    The mode's ln purity rises with ln(-y): it lies below ln(-y) = -700
    at that end and is 0 at ln(-y) = 10, which brackets every mu^(1/n) in
    [1e-300, 1).  The bisection runs to the last bit of ln(-y); the ceiling
    then agrees with a 60-digit mpmath root to 3.1e-14 or better (spot
    checks at n <= 64, r in [1.05, 1e9], mu in [1e-250, 0.9]).
    """
    target = math.log(mu) / n
    low, high = -700.0, 10.0  # ln(-y)
    while True:
        mid = 0.5 * (low + high)
        if mid in (low, high):
            break
        if log_mode_purity(-math.exp(mid), r) <= target:
            low = mid
        else:
            high = mid
    y = -math.exp(low)
    return (1.0 + math.exp(y)) / -math.expm1(y)
