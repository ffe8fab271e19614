"""Generalized purity measures for density-matrix spectra.

The family mu^(r) = [sum_m rho_m^(r/(r-1))]^(r-1) runs along one order
axis, 1 <= r <= inf, from the largest eigenvalue (r = 1, "superpurity") to
exp(-S) built from the von Neumann entropy (r = inf).  It is non-increasing
in r, so the two ends bracket every member of the family.  Spectra grouped
per Fock level (weight xi_k spread over g_k degenerate states) carry the one
formula; a raw spectrum is the n = 1 grouping.  The bound on the same axis,
``bounds.purity_bound``, takes 1 < r <= inf; r = 1 raises.
"""

import math
from dataclasses import dataclass

import numpy as np

from uncbound.special_fn import check_dimension, log_degeneracy_array, logsumexp

__all__ = [
    "GroupedSpectrum",
    "PurityOrder",
    "Spectrum",
    "entropy_from_grouped",
    "purity_from_grouped",
    "purity_from_spectrum",
]

_SUM_TOL = 1e-10
_SORT_TOL = 1e-12
_NEG_TOL = 1e-12
_MAX_LEN = 10**7


def _clean_weights(values, what):
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"{what} must be a nonempty 1-d sequence")
    if values.size > _MAX_LEN:
        raise ValueError(f"{what} longer than {_MAX_LEN} entries is not supported")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} contains non-finite entries")
    if np.any(values < -_NEG_TOL):
        raise ValueError(f"{what} contains negative entries")
    values = np.where(values < 0.0, 0.0, values)
    total = float(values.sum())
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"{what} sum to {total!r}, expected 1 within {_SUM_TOL}")
    return values


@dataclass(frozen=True)
class Spectrum:
    """Density-matrix eigenvalues, nonnegative, unit trace, nonincreasing.

    Inputs mis-ordered by at most 1e-12 (rounding noise from files) are
    re-sorted silently; larger disorder is rejected.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        values = _clean_weights(self.eigenvalues, "eigenvalues")
        rises = np.diff(values)
        if rises.size and rises.max() > _SORT_TOL:
            raise ValueError(
                "eigenvalues must be nonincreasing "
                f"(largest ascending step {rises.max():.3e})"
            )
        if rises.size and rises.max() > 0.0:
            values = np.sort(values)[::-1].copy()
        object.__setattr__(self, "eigenvalues", values)

    def __len__(self):
        return self.eigenvalues.size


@dataclass(frozen=True)
class GroupedSpectrum:
    """Per-Fock-level weights xi_k for an n-dimensional spectrum.

    Level k holds degeneracy(k, n) underlying states, each carrying the
    per-state weight theta_k = xi_k / degeneracy(k, n).
    """

    n: int
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", check_dimension(self.n))
        values = _clean_weights(self.weights, "weights")
        object.__setattr__(self, "weights", values)

    def __len__(self):
        return self.weights.size


@dataclass(frozen=True)
class PurityOrder:
    """One member of the generalized purity family: its order r, 1 <= r <= inf.

    r = 1 is the superpurity (the largest per-state weight) and r = inf is
    exp(-S), the von Neumann end.  The finite-r formula is unstable at both
    ends, so :func:`purity_from_grouped` takes each as its limit.
    """

    r: float

    def __post_init__(self):
        r = float(self.r)
        if not r >= 1.0:
            raise ValueError(f"purity order requires 1 <= r <= inf, got {self.r!r}")
        object.__setattr__(self, "r", r)

    @classmethod
    def finite(cls, r) -> "PurityOrder":
        if not 1.0 < r < math.inf:
            raise ValueError(f"finite purity order requires r > 1, got {r!r}")
        return cls(r)

    @classmethod
    def superpurity(cls) -> "PurityOrder":
        return cls(1.0)

    @classmethod
    def entropy(cls) -> "PurityOrder":
        return cls(math.inf)


def _support(g: GroupedSpectrum):
    """(xi_k, ln g_k, ln theta_k) on the levels with xi_k > 0."""
    pos = g.weights > 0.0
    xi = g.weights[pos]
    log_g = log_degeneracy_array(np.arange(len(g)), g.n)[pos]
    return xi, log_g, np.log(xi) - log_g


def purity_from_spectrum(s: Spectrum, order: PurityOrder) -> float:
    """Generalized purity of a raw spectrum: its n = 1 grouping, where g = 1."""
    return purity_from_grouped(GroupedSpectrum(1, s.eigenvalues), order)


def purity_from_grouped(g: GroupedSpectrum, order: PurityOrder) -> float:
    """Generalized purity of a grouped spectrum; value in (0, 1]."""
    r = order.r
    if r == math.inf:
        return math.exp(-entropy_from_grouped(g))
    xi, log_g, log_theta = _support(g)
    if r == 1.0:
        return float(np.exp(log_theta.max()))
    p = r / (r - 1.0)
    log_sum = logsumexp(log_g + p * log_theta)
    if abs(log_sum) < 1.0:
        # r - 1 would multiply this sum's rounding; as 1 + sum xi (theta^(1/(r-1)) - 1)
        # every term is <= 0, so none cancel
        drop = np.dot(xi, np.expm1(log_theta / (r - 1.0)))
        log_sum = math.log1p(float(drop))
    return float(min(np.exp((r - 1.0) * log_sum), 1.0))


def entropy_from_grouped(g: GroupedSpectrum) -> float:
    """Von Neumann entropy of a grouped spectrum, with 0 ln 0 = 0."""
    xi, _, log_theta = _support(g)
    return float(max(-np.sum(xi * log_theta), 0.0))
