"""Lower bounds of the n-dimensional position-momentum uncertainty product.

The uncertainty product of a mixed quantum state, in units of hbar/2 per
dimension, is bounded below by quantities that depend only on the spectrum
of the density matrix.  This package computes those bounds three ways:

* from a full eigenspectrum (or its per-Fock-level grouping), given as an
  array or read from a text file (``read_spectrum_file``),
* from a generalized purity value mu^(r): purities take 1 <= r <= infinity,
  ``purity_bound`` takes 1 < r <= infinity (r = 1 raises, and r = infinity
  is the entropy bound at S = -ln mu),
* from a von Neumann entropy S,

and ships independent brute-force and Monte-Carlo oracles (``oracle``)
that check the closed forms used along the way.

The exports below are loaded on first use, so ``import uncbound`` loads no
submodule, and the scalar closed forms run without numpy.
"""

import importlib

__version__ = "0.1.0"

# each export -> the submodule that defines it
_EXPORTS = {
    "BoundResult": "closed_forms",
    "B_asymptotic": "closed_forms",
    "B_exact": "bounds",
    "GroupedSpectrum": "purity",
    "PurityOrder": "purity",
    "SolverError": "solvers",
    "Spectrum": "purity",
    "asymptotic_C": "closed_forms",
    "bound_from_grouped": "spectrum_bound",
    "bound_from_spectrum": "spectrum_bound",
    "degeneracy": "special_fn",
    "entropy_bound": "closed_forms",
    "entropy_from_grouped": "purity",
    "group_spectrum": "spectrum_bound",
    "holder_bracket": "bounds",
    "interpolated_bound_r2": "closed_forms",
    "log_degeneracy": "special_fn",
    "purity_bound": "bounds",
    "purity_from_grouped": "purity",
    "purity_from_spectrum": "purity",
    "read_spectrum_file": "spectrum_bound",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import an export's submodule on first use (PEP 562), then keep it."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
