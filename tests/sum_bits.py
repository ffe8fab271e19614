"""The float.hex pins of the cutoff sums, and how to record them again.

``cutoff_sum_bits.json`` pins the pair (ln(B_r/M^r), ln(B_{r-1}/M^(r-1)))
of ``bounds._log_B_pair`` on both branches, and ``tail_sum_bits.json`` the
same pair from ``bounds._log_B_tail``, by ``float.hex``.  The tail file
holds 64 rows at large orders, r in [100, 1e7] with n <= 64 and M in
[4096, 1e12], where panels are dropped and split, then 60 where no panel
splits, as at the cutoffs ``purity_bound`` reaches: n in {1, 2, 3, 6, 32,
64}, r in [1.05, 100] and M from 4096 to 1e300, among them cutoffs within
1e-9 of an integer and above 2^53.  ``moved_rows`` takes a filter on
(M, n, r), so a test can check each group on its own.
Both take the pair from the pass that sums the order r - 2 as well, as
``purity_bound`` does; that third sum is not pinned.
Each file keeps the environment it was recorded in beside its rows: the
last bits of numpy's log, log1p and exp can differ with the CPU's SIMD
targets or the numpy build, so a test that finds moved bits names both
environments.  ``PYTHONPATH=src python tests/sum_bits.py`` records both
files again from the current kernel, on the rows they already hold; a
change that does so shows, against ``hurwitz.log_B_ref``, how far each
re-recorded row lies from the exact sum.
"""

import json
import platform
from pathlib import Path

import numpy as np

from uncbound import bounds

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

HERE = Path(__file__).parent
PAIRS = {
    "cutoff_sum_bits.json": lambda M, n, r: bounds._log_B_pair(M, n, r)[:2],
    "tail_sum_bits.json": lambda M, n, r: bounds._log_B_tail(M, n, (r, r - 1.0, r - 2.0))[:2],
}


def environment():
    """numpy version, machine and the SIMD targets numpy dispatches to, as in np.show_runtime()."""
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "simd_baseline": list(_umath.__cpu_baseline__),
        "simd_found": [f for f in _umath.__cpu_dispatch__ if _umath.__cpu_features__[f]],
    }


def bits(name, M, n, r):
    return [float(x).hex() for x in PAIRS[name](M, n, r)]


def moved_rows(name, select=lambda M, n, r: True):
    """(the pinned file with the selected rows, the (M, n, r) of every one whose bits moved)."""
    pinned = json.loads((HERE / name).read_text())
    pinned["rows"] = [row for row in pinned["rows"] if select(*row[:3])]
    return pinned, [(M, n, r) for M, n, r, *hexes in pinned["rows"] if bits(name, M, n, r) != hexes]


def record(name):
    rows = json.loads((HERE / name).read_text())["rows"]
    rows = [[M, n, r, *bits(name, M, n, r)] for M, n, r, *_ in rows]
    lines = ",\n".join("    " + json.dumps(row) for row in rows)
    env = json.dumps(environment())
    (HERE / name).write_text(f'{{\n  "environment": {env},\n  "rows": [\n{lines}\n  ]\n}}\n')


if __name__ == "__main__":
    for name in PAIRS:
        record(name)
