"""Uncertainty bound of a state given its full eigenspectrum.

Sorted eigenvalues are packed greedily into Fock levels (largest weights
into the cheapest levels); the bound is then the level-energy average
(1/n) sum_k (2k + n) xi_k.  Greedy packing is optimal: any other unitary
mixing of sorted weights onto nondecreasing level energies can only raise
the average (see oracle.lemma_margins for the Monte-Carlo check).
``read_spectrum_file`` reads a spectrum from a text file of eigenvalues,
as ``uncbound bound spectrum --input`` does.
"""

import dataclasses
import warnings

import numpy as np

from uncbound.closed_forms import BoundResult
from uncbound.purity import GroupedSpectrum, Spectrum
from uncbound.special_fn import check_dimension, degeneracy

__all__ = [
    "bound_from_grouped",
    "bound_from_spectrum",
    "group_spectrum",
    "read_spectrum_file",
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


def _first_bad_line(path, detail) -> ValueError:
    """The error for a file numpy's reader refused, naming its first bad line.

    loadtxt counts data rows rather than file lines, so the file is scanned
    again under the same rules: a line is UTF-8, text after '#' is dropped,
    a line holds one number, and a number is what float() takes, written in
    ASCII without '_' separators.  Bytes that are not UTF-8 are kept as
    escapes until their line is decoded, so the error names that line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_number, line in enumerate(handle, 1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                return ValueError(f"{path}:{line_number}: {exc}")
            text = line.split("#", 1)[0].strip()
            fields = text.split()
            if not fields:
                continue
            if len(fields) > 1:
                return ValueError(
                    f"{path}:{line_number}: {text!r} holds {len(fields)} "
                    "numbers; expected one eigenvalue per line"
                )
            try:
                if text.isascii() and "_" not in text:
                    float(text)
                    continue
            except ValueError:
                pass
            return ValueError(f"{path}:{line_number}: {text!r} is not a number")
    return ValueError(f"{path}: {detail}")


def read_spectrum_file(path):
    """Parse a file of eigenvalues, one number per line, into a ``Spectrum``.

    '#' starts a comment anywhere on a line and blank lines are skipped.
    numpy's C text reader parses the numbers to the same doubles as Python
    float(); a line with more than one number, or with text that is not a
    number, is rejected with its file line.  Sums within 1e-6 of 1 are
    normalized; anything further off is rejected.
    """
    try:
        with warnings.catch_warnings():
            # a file of comments and blanks is reported below, not warned about
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            table = np.loadtxt(path, dtype=float, comments="#", ndmin=2,
                               encoding="utf-8")
    except ValueError as exc:
        raise _first_bad_line(path, exc) from None
    if table.shape[1] != 1:
        raise _first_bad_line(path, f"{table.shape[1]} numbers per line")
    if table.size == 0:
        raise ValueError(f"{path}: no eigenvalues found")
    array = table.ravel()
    if not np.isfinite(array).all():
        raise ValueError(f"{path}: non-finite eigenvalues present")
    if np.any(array < 0):
        raise ValueError(f"{path}: negative eigenvalues present")
    total = float(array.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(
            f"{path}: eigenvalues sum to {total!r}; refusing to normalize "
            "anything further than 1e-6 from 1"
        )
    return Spectrum(array / total)
