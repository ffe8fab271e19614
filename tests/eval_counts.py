"""How many evaluations of the cutoff sums ``purity_bound`` takes, on five grids.

Each grid is a seeded list of (mu, n, r):

* ``budget``  -- shaped like the purity-sweep benchmark pool: n in {1, 2, 3},
  r log-uniform in [1.5, 10], mu log-uniform in [1e-7, 0.5];
* ``large-n`` -- n in {12, 32, 64}, where every root lies at a small cutoff
  and the seed falls far below it;
* ``near-r1`` -- n <= 4, r in [1.0001, 1.2], where h has kinks at integers;
* ``large-r`` -- n <= 3, r in [10, 1e6] and mu down to 1e-300;
* ``low-r``   -- n <= 3, r in [1.05, 2].

``PYTHONPATH=src python tests/eval_counts.py`` prints, per grid, the mean
and largest ``iterations`` of the result, the evaluations per point that
took the tail branch (cutoffs above ``bounds._DIRECT_TERM_LIMIT``) and the
largest r |h| at the returned cutoff, r ``residual``: how far the family's
ln mu(M) is from ln mu.  Every count is deterministic.  The tests take
their grids from here.
"""

import numpy as np

from uncbound import bounds
from uncbound.bounds import purity_bound
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
