import math

import pytest

from uncbound.solvers import SolverError, brent_root


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


def test_brent_requires_sign_change():
    with pytest.raises(SolverError):
        brent_root(math.exp, 0.0, 1.0, 1.0, math.e)
