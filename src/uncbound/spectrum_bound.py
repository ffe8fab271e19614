"""Uncertainty bound of a state given its full eigenspectrum.

Sorted eigenvalues are packed greedily into Fock levels (largest weights
into the cheapest levels); the bound is then the level-energy average
(1/n) sum_k (2k + n) xi_k.  Greedy packing is optimal: any other unitary
mixing of sorted weights onto nondecreasing level energies can only raise
the average (see oracle.lemma_margins for the Monte-Carlo check).
"""

import dataclasses

import numpy as np

from uncbound.closed_forms import BoundResult
from uncbound.purity import GroupedSpectrum, Spectrum
from uncbound.special_fn import check_dimension, degeneracy

__all__ = [
    "bound_from_grouped",
    "bound_from_spectrum",
    "group_spectrum",
]


def group_spectrum(s: Spectrum, n) -> GroupedSpectrum:
    """Pack sorted eigenvalues greedily into Fock levels of dimension n.

    Level k receives the next degeneracy(k, n) eigenvalues; xi_k is their
    sum, all levels' in one ``np.add.reduceat``.  Trailing all-zero levels
    are dropped.
    """
    n = check_dimension(n)
    rho = s.eigenvalues
    if n == 1:
        weights = rho
    else:
        starts = []
        start = k = 0
        while start < rho.size:
            starts.append(start)
            start += degeneracy(k, n)
            k += 1
        weights = np.add.reduceat(rho, starts)
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
