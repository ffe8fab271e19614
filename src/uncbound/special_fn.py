"""Fock-level degeneracy counts, input checks and log-sum-exp.

A level with total excitation number k in n dimensions contains
(k+n-1)! / (k! (n-1)!) basis states.  The exact count is an arbitrary
precision integer, so it never wraps; converting a too-large count to a
float raises ``OverflowError``, which is why every floating-point consumer
in this package works with :func:`log_degeneracy` instead.  The ``check_*``
functions are the package's one domain check per kind of input.
``_level_table`` keeps the levels 0, 1, 2, ... and their ln g per n, grown
by doubling on demand, for the cutoff sums, which read them at every cutoff.

:func:`logsumexp` is the package's one log-sum-exp kernel.  It reduces
along the last axis, row by row: one max shift per row, one exp pass over
all rows, and each row's largest term split off into ``log1p``, so a sum
dominated by one term keeps its small remainder.
"""

import math

import numpy as np

__all__ = [
    "DIMENSION_CEILING",
    "check_cutoff",
    "check_dimension",
    "check_exponent",
    "check_level",
    "check_purity",
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


def check_purity(mu) -> float:
    """Validate a purity in (0, 1], returning it as a float."""
    mu = float(mu)
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must be in (0, 1], got {mu}")
    return mu


def check_exponent(r, low) -> float:
    """Validate a finite exponent, ``low`` ">= 1" or "> 1"; returns it as a float."""
    r = float(r)
    if not (1.0 < r < math.inf or r == 1.0 and low == ">= 1"):
        raise ValueError(f"exponent r must be {'finite' if r > 1 else low}, got {r}")
    return r


def check_cutoff(M, low) -> float:
    """Validate a finite cutoff, ``low`` ">= 0" or "> 0"; returns it as a float."""
    M = float(M)
    if not (0.0 < M < math.inf or M == 0.0 and low == ">= 0"):
        raise ValueError(f"cutoff M must be {'finite' if M > 0 else low}, got {M}")
    return M


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
    return _log_g(levels, n)


def _log_g(levels, n):
    # log_degeneracy_array without its checks; elementwise, so an entry
    # does not depend on the array it sits in
    out = np.zeros_like(levels)
    for j in range(1, n):
        out += np.log((levels + j) / j)
    return out


# _level_table's cache: the levels 0..K-1 as floats, and ln g over them per n;
# all read-only, and replaced, never written, when a caller needs more levels
_LEVELS = np.zeros(0)
_LOG_G = {}


def _level_table(count, n):
    """(levels 0..count-1 as floats, their ln g), read-only views of a cache.

    ``n`` must be a valid dimension.  The cache holds one ln g array per n;
    one that is too short is rebuilt at twice its length, or more if
    ``count`` needs it.  Every entry is computed on its own, so the views
    equal ``log_degeneracy_array(np.arange(count), n)`` bit for bit.
    """
    global _LEVELS
    log_g = _LOG_G.get(n)
    if log_g is None or log_g.size < count:
        size = max(1024, 2 * (0 if log_g is None else log_g.size))
        while size < count:
            size *= 2
        if _LEVELS.size < size:
            _LEVELS = np.arange(size, dtype=float)
            _LEVELS.setflags(write=False)
        log_g = _log_g(_LEVELS[:size], n)
        log_g.setflags(write=False)
        _LOG_G[n] = log_g
    return _LEVELS[:count], log_g[:count]


def _logsumexp_rows(a):
    """ln sum exp along axis 1 of a 2-d float array, overwriting the array.

    A row whose largest entry is not finite returns that entry: -inf for an
    empty sum, +inf or nan as they came.
    """
    count, width = a.shape
    if not width:
        return np.full(count, -np.inf)
    top = a.argmax(axis=1)
    top += np.arange(0, a.size, width)  # flat index of each row's largest entry
    peak = a.take(top)
    # a row whose peak is not finite is left unshifted, and returns its peak;
    # the peaks are checked as Python floats, cheaper than a numpy pass
    finite = None if all(map(math.isfinite, peak.tolist())) else np.isfinite(peak)
    shift = peak if finite is None else np.where(finite, peak, 0.0)
    a -= shift[:, None]
    np.exp(a, out=a)
    a.put(top, 0.0)  # the largest term is log1p's 1
    sums = np.log1p(np.add.reduce(a, axis=1))
    sums += shift
    return sums if finite is None else np.where(finite, sums, peak)


def logsumexp(values):
    """ln sum_i exp(values_i) along the last axis; -inf for an empty sum.

    A 1-d input gives a float, a larger one an array of its leading shape.
    The input is never written to.
    """
    a = np.array(values, dtype=float, ndmin=1)
    sums = _logsumexp_rows(a.reshape(math.prod(a.shape[:-1]), a.shape[-1]))
    return float(sums[0]) if a.ndim == 1 else sums.reshape(a.shape[:-1])
