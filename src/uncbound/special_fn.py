"""Fock-level degeneracy counts and input checks, in plain Python.

A level with total excitation number k in n dimensions contains
(k+n-1)! / (k! (n-1)!) basis states.  The exact count is an arbitrary
precision integer, so it never wraps; converting a too-large count to a
float raises ``OverflowError``, which is why every floating-point consumer
in this package works with :func:`log_degeneracy` instead (its array form
is ``purity._log_g``), and every integer count comes from
:func:`degeneracy`.  The ``check_*`` functions are the package's one domain
check per kind of input, and the caps bound the inputs the package accepts.
"""

import math
import numbers

__all__ = [
    "DIMENSION_CEILING",
    "MAX_LEMMA_DIM",
    "check_beta",
    "check_cutoff",
    "check_dimension",
    "check_entropy",
    "check_exponent",
    "check_level",
    "check_purity",
    "degeneracy",
    "log_degeneracy",
]

# Documented ceiling on the number of position/momentum pairs.  The direct
# cutoff sums take exp of ln g + (r - 2) ln q with no shift, which stays
# finite only below about 709: at their 2e4-level limit ln g is 423 at
# n = 64, 622 at n = 100 and 767 at n = 128.  Larger n needs a shift, or a
# lower direct limit, in ``bounds._log_B_pair``.
DIMENSION_CEILING = 64

# Largest lemma trial of ``oracle.lemma_margins``, in states: its dim x dim
# complex matrices take 16 MiB each, and the CLI's default is 30.
MAX_LEMMA_DIM = 1024


def check_dimension(n) -> int:
    """Validate a dimension count, returning it as a plain int."""
    # int is tried first: the Integral check alone costs ~0.3 us, on every bound
    if not isinstance(n, (int, numbers.Integral)) or isinstance(n, bool):
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
    if not isinstance(k, (int, numbers.Integral)) or isinstance(k, bool):
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


def check_entropy(S) -> float:
    """Validate an entropy S >= 0, returning it as a float; inf passes."""
    S = float(S)
    if not S >= 0.0:
        raise ValueError(f"entropy must be >= 0, got {S}")
    return S


def check_beta(beta) -> float:
    """Validate an inverse temperature beta > 0, returning it as a float; inf passes."""
    beta = float(beta)
    if not beta > 0.0:
        raise ValueError(f"beta must be > 0, got {beta}")
    return beta


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
