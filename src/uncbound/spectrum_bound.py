"""Uncertainty bound of a state given its full eigenspectrum.

Sorted eigenvalues are packed greedily into Fock levels (largest weights
into the cheapest levels); the bound is then the level-energy average
(1/n) sum_k (2k + n) xi_k.  Greedy packing is optimal: any other unitary
mixing of sorted weights onto nondecreasing level energies can only raise
the average (see oracle.lemma_trial for the Monte-Carlo check).
"""

import dataclasses
import math

import numpy as np

from uncbound.purity import GroupedSpectrum, Spectrum
from uncbound.special_fn import check_dimension

__all__ = [
    "BoundResult",
    "bound_from_grouped",
    "bound_from_spectrum",
    "group_spectrum",
    "volume_of",
]

_FLOOR_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class BoundResult:
    """A normalized uncertainty bound plus solver diagnostics.

    per_dim_product is (Delta X)(Delta P) in units of hbar/2 per dimension,
    a finite float that never drops below the pure-state floor of 1; volume
    is its n-th power, inf where that overflows.  aux carries the solver's
    auxiliary parameter (cutoff M, interpolation root L, or thermal beta)
    when one exists.
    """

    per_dim_product: float
    n: int
    method: str
    aux: float | None = None
    residual: float = 0.0
    iterations: int = 0

    def __post_init__(self):
        object.__setattr__(self, "per_dim_product", float(self.per_dim_product))
        object.__setattr__(self, "n", check_dimension(self.n))
        if self.aux is not None:
            object.__setattr__(self, "aux", float(self.aux))
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "iterations", int(self.iterations))
        if not self.per_dim_product >= 1.0 - _FLOOR_TOL:
            raise ValueError(
                f"bound {self.per_dim_product!r} is below the pure-state floor"
            )
        if not math.isfinite(self.per_dim_product):
            raise ValueError(
                f"{self.method} bound {self.per_dim_product!r} is beyond the "
                "float range"
            )

    @property
    def volume(self) -> float:
        return volume_of(self.per_dim_product, self.n)


def volume_of(per_dim, n) -> float:
    """per_dim ** n, or inf where that power overflows a float."""
    try:
        return per_dim ** int(n)
    except OverflowError:
        return math.inf


def group_spectrum(s: Spectrum, n) -> GroupedSpectrum:
    """Pack sorted eigenvalues greedily into Fock levels of dimension n.

    Level k receives the next degeneracy(k, n) eigenvalues; xi_k is their
    sum.  Trailing all-zero levels are dropped.
    """
    n = check_dimension(n)
    rho = s.eigenvalues
    if n == 1:
        weights = rho
    else:
        sums = []
        consumed = 0
        k = 0
        block = 1  # degeneracy(k, n), updated by the recurrence below
        while consumed < rho.size:
            take = min(block, rho.size - consumed)
            sums.append(float(rho[consumed : consumed + take].sum()))
            consumed += take
            k += 1
            block = block * (k + n - 1) // k
        weights = np.array(sums)
    nonzero = np.nonzero(weights)[0]
    last = nonzero[-1] if nonzero.size else 0
    return GroupedSpectrum(n=n, weights=weights[: last + 1])


def bound_from_grouped(g: GroupedSpectrum) -> BoundResult:
    """Minimal per-dimension uncertainty product of a grouped spectrum."""
    levels = np.arange(len(g), dtype=float)
    per_dim = 1.0 + (2.0 / g.n) * float(np.dot(levels, g.weights))
    return BoundResult(per_dim, g.n, method="grouped-sum")


def bound_from_spectrum(s: Spectrum, n) -> BoundResult:
    """Minimal per-dimension uncertainty product of a raw spectrum."""
    result = bound_from_grouped(group_spectrum(s, n))
    return dataclasses.replace(result, method="spectrum-sum")
