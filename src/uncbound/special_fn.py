"""Fock-level degeneracy counts and log-sum-exp.

A level with total excitation number k in n dimensions contains
(k+n-1)! / (k! (n-1)!) basis states.  The exact count is an arbitrary
precision integer, so it never wraps; converting a too-large count to a
float raises ``OverflowError``, which is why every floating-point consumer
in this package works with :func:`log_degeneracy` instead.

:func:`logsumexp` is the package's one log-sum-exp: a numpy max shift with
the largest term split off into ``log1p``, so a sum dominated by one term
keeps its small remainder.
"""

import math

import numpy as np

__all__ = [
    "DIMENSION_CEILING",
    "check_dimension",
    "check_level",
    "degeneracy",
    "log_degeneracy",
    "log_degeneracy_array",
    "logsumexp",
]

# Documented ceiling on the number of position/momentum pairs.  Bound
# computations for larger n would have to run entirely in log space and are
# outside the supported range.
DIMENSION_CEILING = 64


def check_dimension(n) -> int:
    """Validate a dimension count, returning it as a plain int."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"dimension must be an integer, got {n!r}")
    n = int(n)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n > DIMENSION_CEILING:
        raise ValueError(
            f"dimension {n} exceeds the supported ceiling {DIMENSION_CEILING}"
        )
    return n


def check_level(k) -> int:
    """Validate a total excitation number, returning it as a plain int."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"level index must be an integer, got {k!r}")
    k = int(k)
    if k < 0:
        raise ValueError(f"level index must be >= 0, got {k}")
    return k


def degeneracy(k, n) -> int:
    """Number of n-dimensional oscillator states with total excitation k.

    Parameters
    ----------
    k : int
        Total excitation number (sum of the per-mode indices), k >= 0.
    n : int
        Number of dimensions, 1 <= n <= DIMENSION_CEILING.

    Returns
    -------
    int
        Exact count (k+n-1)! / (k! (n-1)!).
    """
    k = check_level(k)
    n = check_dimension(n)
    return math.comb(k + n - 1, n - 1)


def log_degeneracy(k, n) -> float:
    """Natural log of :func:`degeneracy`, relative error below 1e-12.

    Evaluated as sum_j ln((k+j)/j) over j < n: a short all-positive sum,
    which keeps full relative precision even where the ln-gamma difference
    would cancel (k huge, n small).
    """
    k = check_level(k)
    n = check_dimension(n)
    if n == 1 or k == 0:
        return 0.0
    return math.fsum(math.log((k + j) / j) for j in range(1, n))


def log_degeneracy_array(levels, n) -> np.ndarray:
    """Vectorized :func:`log_degeneracy` over an array of level indices."""
    n = check_dimension(n)
    levels = np.asarray(levels, dtype=float)
    if np.any(levels < 0):
        raise ValueError("level indices must be >= 0")
    out = np.zeros_like(levels)
    for j in range(1, n):
        out += np.log((levels + j) / j)
    return out


def logsumexp(values) -> float:
    """ln sum_i exp(values_i); -inf for an empty or all -inf input."""
    a = np.asarray(values, dtype=float)
    if not a.size:
        return -math.inf
    top = int(np.argmax(a))
    if not np.isfinite(a[top]):
        return float(a[top])
    scaled = np.exp(a - a[top])
    scaled[top] = 0.0  # the largest term is log1p's 1
    return float(a[top] + np.log1p(scaled.sum()))
