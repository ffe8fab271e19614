import math

import pytest

import uncbound.solvers as solvers
from uncbound.solvers import SolverError, brent_root, seeded_root


def test_brent_finds_smooth_root():
    f = lambda x: x**3 - 2.0 * x - 5.0
    res = brent_root(f, 2.0, 3.0, f(2.0), f(3.0))
    assert res.x == pytest.approx(2.0945514815423265, rel=1e-12)
    assert res.residual == abs(f(res.x))
    assert res.iterations <= 10


def test_brent_handles_steep_monotone_step():
    # nearly a step at x = 1: interpolation fails, bisection must take over
    f = lambda x: math.copysign(abs(x - 1.0) ** 0.01, x - 1.0)
    res = brent_root(f, 0.0, 3.0, f(0.0), f(3.0))
    assert res.x == pytest.approx(1.0, abs=1e-11)


def test_brent_accepts_root_at_an_end():
    assert brent_root(math.sin, 0.0, 1.0, 0.0, math.sin(1.0)).x == 0.0
    assert brent_root(math.sin, -1.0, 0.0, math.sin(-1.0), 0.0).x == 0.0


def test_brent_reports_no_convergence(monkeypatch):
    # a budget too small for the 1e-12 contract ends in SolverError, not a
    # silently loose root
    monkeypatch.setattr(solvers, "_MAX_ITER", 3)
    with pytest.raises(SolverError, match="did not converge in 3 evaluations"):
        brent_root(lambda x: x**3 - 2.0, 0.0, 2.0, -2.0, 6.0)


def test_brent_absolute_tolerance_for_a_root_near_zero():
    # f steps by ulps of 1 near its sign change at x ~ 1.1e-16, so a
    # tolerance relative to |x| alone bisects down to ulps of 1e-16; atol
    # ends the search at the requested width, and atol = 0 keeps the bits
    f = lambda x: (math.exp(x) - 1.0) - 2.0 ** -53
    strict = brent_root(f, -1.0, 1.0, f(-1.0), f(1.0))
    loose = brent_root(f, -1.0, 1.0, f(-1.0), f(1.0), atol=1e-15)
    assert strict.iterations > 40
    assert loose.iterations <= 10
    assert abs(loose.x - strict.x) <= 1e-15
    g = lambda x: x**3 - 2.0 * x - 5.0
    assert (brent_root(g, 2.0, 3.0, g(2.0), g(3.0), atol=0.0)
            == brent_root(g, 2.0, 3.0, g(2.0), g(3.0)))


def test_brent_requires_sign_change():
    with pytest.raises(SolverError):
        brent_root(math.exp, 0.0, 1.0, 1.0, math.e)


def test_seeded_root_counts_every_evaluation():
    calls = []

    def f(x):
        calls.append(x)
        return math.log(x) - 10.0  # root e^10 ~ 22026, slope 1 in ln x

    for seed in (0.5, 1.0, 1e3, 3e4, 1e9):  # at or below lo, below the root, above it
        calls.clear()
        res = seeded_root(f, 1.0, -10.0, seed, 1.0)
        assert res.x == pytest.approx(math.exp(10.0), rel=1e-12)
        assert res.iterations == len(calls)
        assert 1.0 not in calls  # f(lo) is given


def test_seeded_root_newton_step_straddles_the_root():
    calls = []

    def f(x):
        calls.append(x)
        return 2.0 * math.log(x) - 20.0

    res = seeded_root(f, 1.0, -20.0, 2e4, 2.0)
    assert res.x == pytest.approx(math.exp(10.0), rel=1e-12)
    assert res.iterations == len(calls)
    lo, hi = sorted(calls[:2])  # the seed and its Newton point
    assert (lo, hi) == (2e4, pytest.approx(2e4 * (math.exp(10.0) / 2e4) ** 1.25))
    assert all(lo <= x <= hi for x in calls)


@pytest.mark.parametrize("log_slope", [1e6, 1e-6])
@pytest.mark.parametrize("seed", [0.5, 1e3, 1e9])
def test_seeded_root_survives_a_wrong_slope(seed, log_slope):
    # 1e6: the Newton point stays on the seed's side, and the doubling or
    # halving fallback takes over; 1e-6: it lands far across the root
    calls = []

    def f(x):
        calls.append(x)
        return math.log(x) - 10.0

    res = seeded_root(f, 1.0, -10.0, seed, log_slope)
    assert res.x == pytest.approx(math.exp(10.0), rel=1e-12)
    assert res.iterations == len(calls)
    assert 1.0 not in calls


def test_seeded_root_leaves_the_float_range_to_f():
    def f(x):
        if not x < math.inf:
            raise ValueError("no root below the float range")
        return -1.0

    with pytest.raises(ValueError, match="float range"):
        seeded_root(f, 1.0, -1.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="float range"):
        seeded_root(f, 1.0, -1.0, math.inf, 1.0)
