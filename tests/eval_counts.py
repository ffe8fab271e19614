"""How many evaluations the package's roots take: the cutoff sums of
``purity_bound`` on five grids, and the closed-form roots on four.

Each grid is a seeded list of (mu, n, r):

* ``budget``  -- shaped like the purity-sweep benchmark pool: n in {1, 2, 3},
  r log-uniform in [1.5, 10], mu log-uniform in [1e-7, 0.5];
* ``large-n`` -- n in {12, 32, 64}, where every root lies at a small cutoff
  and the seed falls far below it;
* ``near-r1`` -- n <= 4, r in [1.0001, 1.2], where h has kinks at integers;
* ``large-r`` -- n <= 3, r in [10, 1e6] and mu down to 1e-300;
* ``low-r``   -- n <= 3, r in [1.05, 2].

The closed-form grids hold (mu, n) for ``interpolated_bound_r2`` and
(S, n) for ``entropy_bound``:

* ``interpolated`` -- n = 1..6, mu = 10^(-7 + k/8) for k = 0..56;
* ``thermal``      -- n in {1, 4}, S = 1/8, 2/8, ..., 49.875 and 271
  log-spaced points from 1e-280 to 1e-10;
* ``thermal-wide`` -- 900 seeded points, n <= 64 and S/n up to 710;
* ``thermal-2ln2`` -- n = 1, S within 40 steps of 2e-16 of 2 ln 2, where
  the mean occupation is 1.

``KINKS`` lists (n, r, mu) of cutoff roots at or near an integer, where a
level enters h with an infinite slope: the seven rows of ROADMAP item 3
and the two M = 1 rows of ``test_optimizer_reaches_supremum_in_few_evaluations``.

``PYTHONPATH=src python tests/eval_counts.py`` prints, per grid, the mean
and largest ``iterations`` of the result; for the cutoff sums also the
evaluations per point that took the tail branch (cutoffs above
``bounds._DIRECT_TERM_LIMIT``) and the largest r |h| at the returned
cutoff, r ``residual``: how far the family's ln mu(M) is from ln mu; and
for each kink its evaluations, r ``residual`` and cutoff.
Every count is deterministic.  The tests take their grids from here.
"""

import math

import numpy as np

from uncbound import bounds
from uncbound.bounds import purity_bound
from uncbound.closed_forms import entropy_bound, interpolated_bound_r2
from uncbound.purity import PurityOrder


def _log_uniform(rng, low, high):
    return float(np.exp(rng.uniform(np.log(low), np.log(high))))


def _grid(seed, size, dims, r_range, mu_range):
    rng = np.random.default_rng(seed)
    return [(_log_uniform(rng, *mu_range), int(rng.choice(dims)), _log_uniform(rng, *r_range))
            for _ in range(size)]


def budget():
    rng = np.random.default_rng(10)
    points = []
    for _ in range(600):
        n = int(rng.integers(1, 4))
        r = _log_uniform(rng, 1.5, 10.0)
        points.append((_log_uniform(rng, 1e-7, 0.5), n, r))
    return points


GRIDS = {
    "budget": budget,
    "large-n": lambda: _grid(11, 300, (12, 32, 64), (1.5, 10.0), (1e-7, 0.5)),
    "near-r1": lambda: _grid(12, 200, (1, 2, 3, 4), (1.0001, 1.2), (1e-6, 0.5)),
    "large-r": lambda: _grid(13, 300, (1, 2, 3), (10.0, 1e6), (1e-300, 0.9)),
    "low-r": lambda: _grid(14, 300, (1, 2, 3), (1.05, 2.0), (1e-7, 0.5)),
}


def thermal_wide():
    rng = np.random.default_rng(80)
    per_dim = np.concatenate([np.exp(rng.uniform(math.log(1e-280), math.log(710.0), 450)),
                              rng.uniform(1.0, 710.0, 450)])
    return [(s1 * n, n) for s1, n in zip(per_dim.tolist(),
                                         rng.integers(1, 65, per_dim.size).tolist())]


ENTROPY_GRID = [i / 8.0 for i in range(1, 400)] + np.logspace(-280, -10, 271).tolist()

CLOSED_FORM_GRIDS = {
    "interpolated": (interpolated_bound_r2,
                     lambda: [(10.0 ** (-7.0 + k / 8.0), n) for n in range(1, 7)
                              for k in range(57)]),
    "thermal": (entropy_bound, lambda: [(S, n) for S in ENTROPY_GRID for n in (1, 4)]),
    "thermal-wide": (entropy_bound, thermal_wide),
    "thermal-2ln2": (entropy_bound,
                     lambda: [(2.0 * math.log(2.0) + k * 2e-16, 1) for k in range(-40, 41)]),
}


KINKS = [(3, 1.634, 0.2588), (2, 1.3, 0.3), (4, 1.1166, 2.05e-3), (1, 1.0001, 0.5),
         (1, 1.01, 1e-3), (3, 1.513, 0.1064), (2, 3.0, 1e-4), (1, 1.01, 0.9), (2, 1.01, 0.9)]


def results(points):
    return [purity_bound(mu, n, PurityOrder.finite(r)) for mu, n, r in points]


def results_and_tail_calls(points):
    """(:func:`results`, how many evaluations of the sums took the tail branch)."""
    tail, calls = bounds._log_B_tail, []

    def counted(M, n, orders):
        calls.append(M)
        return tail(M, n, orders)

    bounds._log_B_tail = counted
    try:
        return results(points), len(calls)
    finally:
        bounds._log_B_tail = tail


if __name__ == "__main__":
    print(f"{'grid':8} {'points':>6} {'mean':>6} {'max':>4} {'tail/pt':>7} {'max r|h|':>9}")
    for name, grid in GRIDS.items():
        points = grid()
        found, tail_calls = results_and_tail_calls(points)
        evals = [res.iterations for res in found]
        worst = max(r * res.residual for (mu, n, r), res in zip(points, found))
        print(f"{name:8} {len(points):6} {np.mean(evals):6.2f} {max(evals):4} "
              f"{tail_calls / len(points):7.3f} {worst:9.2e}")
    print(f"\n{'root':12} {'points':>6} {'mean':>6} {'max':>4}")
    for name, (bound, grid) in CLOSED_FORM_GRIDS.items():
        evals = [bound(*point).iterations for point in grid()]
        print(f"{name:12} {len(evals):6} {np.mean(evals):6.2f} {max(evals):4}")
    print(f"\n{'kink (n, r, mu)':22} {'evals':>5} {'r|h|':>9} {'cutoff':>20}")
    for (n, r, mu), res in zip(KINKS, results([(mu, n, r) for n, r, mu in KINKS])):
        print(f"{str((n, r, mu)):22} {res.iterations:5} {r * res.residual:9.2e} {res.aux!r:>20}")
