"""Generalized purity measures for density-matrix spectra.

The family mu^(r) = [sum_m rho_m^(r/(r-1))]^(r-1) interpolates between the
largest eigenvalue (r -> 1, "superpurity") and exp(-S) built from the von
Neumann entropy (r -> infinity).  It is non-increasing in r, so the two
limits bracket every member of the family.  Both raw spectra and spectra
grouped per Fock level (weight xi_k spread over g_k degenerate states)
are supported.
"""

from dataclasses import dataclass, field

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
    total = values.sum()
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"{what} sums to {total!r}, expected 1 within {_SUM_TOL}")
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

    def log_degeneracies(self) -> np.ndarray:
        return log_degeneracy_array(np.arange(len(self)), self.n)

    def log_theta(self) -> np.ndarray:
        """ln theta_k on the support; -inf where xi_k = 0."""
        out = np.full(len(self), -np.inf)
        pos = self.weights > 0.0
        out[pos] = np.log(self.weights[pos]) - self.log_degeneracies()[pos]
        return out


@dataclass(frozen=True)
class PurityOrder:
    """Selects one member of the generalized purity family.

    variant "finite" carries r > 1; "superpurity" and "entropy" are the
    r -> 1 and r -> infinity limits, handled as separate code paths because
    the finite-r formula is numerically unstable at both ends.
    """

    variant: str
    r: float | None = field(default=None)

    _VARIANTS = ("finite", "superpurity", "entropy")

    def __post_init__(self):
        if self.variant not in self._VARIANTS:
            raise ValueError(f"unknown purity variant {self.variant!r}")
        if self.variant == "finite":
            if self.r is None or not np.isfinite(self.r) or self.r <= 1.0:
                raise ValueError(f"finite purity order requires r > 1, got {self.r!r}")
            object.__setattr__(self, "r", float(self.r))
        elif self.r is not None:
            raise ValueError(f"variant {self.variant!r} takes no r value")

    @classmethod
    def finite(cls, r) -> "PurityOrder":
        return cls("finite", r)

    @classmethod
    def superpurity(cls) -> "PurityOrder":
        return cls("superpurity")

    @classmethod
    def entropy(cls) -> "PurityOrder":
        return cls("entropy")


def purity_from_spectrum(s: Spectrum, order: PurityOrder) -> float:
    """Generalized purity of a raw spectrum; value in (0, 1]."""
    rho = s.eigenvalues
    pos = rho[rho > 0.0]
    if order.variant == "superpurity":
        return float(rho[0])
    if order.variant == "entropy":
        return float(np.exp(np.sum(pos * np.log(pos))))
    r = order.r
    p = r / (r - 1.0)
    log_mu = (r - 1.0) * logsumexp(p * np.log(pos))
    return float(min(np.exp(log_mu), 1.0))


def purity_from_grouped(g: GroupedSpectrum, order: PurityOrder) -> float:
    """Generalized purity of a grouped spectrum; value in (0, 1]."""
    xi = g.weights
    pos = xi > 0.0
    log_theta = g.log_theta()[pos]
    if order.variant == "superpurity":
        return float(np.exp(log_theta.max()))
    if order.variant == "entropy":
        return float(np.exp(np.sum(xi[pos] * log_theta)))
    r = order.r
    p = r / (r - 1.0)
    log_g = g.log_degeneracies()[pos]
    log_mu = (r - 1.0) * logsumexp(log_g + p * log_theta)
    return float(min(np.exp(log_mu), 1.0))


def entropy_from_grouped(g: GroupedSpectrum) -> float:
    """Von Neumann entropy of a grouped spectrum, with 0 ln 0 = 0."""
    xi = g.weights
    pos = xi > 0.0
    return float(max(-np.sum(xi[pos] * g.log_theta()[pos]), 0.0))
