"""Lower bounds of the n-dimensional position-momentum uncertainty product.

The uncertainty product of a mixed quantum state, in units of hbar/2 per
dimension, is bounded below by quantities that depend only on the spectrum
of the density matrix.  This package computes those bounds three ways:

* from a full eigenspectrum (or its per-Fock-level grouping),
* from a generalized purity value mu^(r): purities take 1 <= r <= infinity,
  ``purity_bound`` takes 1 < r <= infinity (r = 1 raises, and r = infinity
  is the entropy bound at S = -ln mu),
* from a von Neumann entropy S,

and ships independent brute-force and Monte-Carlo oracles (``oracle``)
that check the closed forms used along the way.
"""

from uncbound.special_fn import degeneracy, log_degeneracy
from uncbound.purity import (
    GroupedSpectrum,
    PurityOrder,
    Spectrum,
    entropy_from_grouped,
    purity_from_grouped,
    purity_from_spectrum,
)
from uncbound.spectrum_bound import (
    BoundResult,
    bound_from_grouped,
    bound_from_spectrum,
    group_spectrum,
)
from uncbound.bounds import (
    B_asymptotic,
    B_exact,
    asymptotic_C,
    entropy_bound,
    holder_bracket,
    interpolated_bound_r2,
    purity_bound,
)
from uncbound.solvers import SolverError

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "B_asymptotic",
    "B_exact",
    "GroupedSpectrum",
    "PurityOrder",
    "SolverError",
    "Spectrum",
    "asymptotic_C",
    "bound_from_grouped",
    "bound_from_spectrum",
    "degeneracy",
    "entropy_bound",
    "entropy_from_grouped",
    "group_spectrum",
    "holder_bracket",
    "interpolated_bound_r2",
    "log_degeneracy",
    "purity_bound",
    "purity_from_grouped",
    "purity_from_spectrum",
]
