"""Adaptive quadrature of the cutoff integral, the tests' reference for the
closed forms of ``bounds.B_asymptotic`` and ``oracle.beta_integral_B``."""

import math

from scipy.integrate import quad

from uncbound.special_fn import check_dimension


def quadrature_B(M, n, r) -> float:
    """Adaptive integration of m^(n-1) (M-m)^r / (n-1)! over [0, M]."""
    n = check_dimension(n)
    M = float(M)
    r = float(r)
    if not M > 0.0:
        raise ValueError(f"M must be > 0, got {M}")
    value, _ = quad(
        lambda m: m ** (n - 1) * (M - m) ** r, 0.0, M,
        epsabs=0.0, epsrel=1e-12, limit=200,
    )
    return value / math.factorial(n - 1)
