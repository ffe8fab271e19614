import math

import pytest

import uncbound.solvers as solvers
from uncbound.solvers import SolverError, seeded_root


def _unit_slope(x):
    # the exact slope in ln x of ln x - 10, most tests' f
    return 1.0


def _counted(f):
    calls = []

    def wrapped(x):
        value = f(x)
        calls.append((x, value))
        return value
    return wrapped, calls


_CUBIC = lambda x: x**3 - 2.0 * x - 5.0
_STEP = lambda x: math.copysign(abs(x - 1.0) ** 0.01, x - 1.0)
_NEAR_ZERO = lambda x: (math.exp(x) - 1.0) - 2.0 ** -53
_LOG = lambda x: math.log(x) - 10.0
# the exact slopes in ln x of the first two
_CUBIC_SLOPE = lambda x: x * (3.0 * x * x - 2.0)
_STEP_SLOPE = lambda x: 0.01 * x * abs(x - 1.0) ** -0.99


def test_seeded_root_finds_smooth_root():
    for seed in (2.0, 2.1, 3.0):  # at lo, near the root, above it
        res = seeded_root(_CUBIC, 2.0, -1.0, seed, _CUBIC_SLOPE)
        assert res.x == pytest.approx(2.0945514815423265, rel=1e-12)
        assert res.residual == abs(_CUBIC(res.x))
        assert res.iterations <= 7


def test_seeded_root_handles_steep_monotone_step():
    # nearly a step at x = 1, where the slope is infinite: Newton steps stall,
    # and false position and bisection in ln x must take over
    res = seeded_root(_STEP, 0.5, _STEP(0.5), 3.0, _STEP_SLOPE)
    assert res.x == pytest.approx(1.0, abs=1e-11)


def test_seeded_root_accepts_an_exact_zero():
    # the search ends at the first exact zero, at the seed or at a Newton point
    assert seeded_root(lambda x: x - 3.0, 1.0, -2.0, 3.0, lambda x: x) == \
        solvers.RootResult(3.0, 0.0, 1)
    res = seeded_root(lambda x: math.log2(x) - 2.0, 1.0, -2.0, 2.0,
                      lambda x: 1.0 / math.log(2.0))
    assert res == solvers.RootResult(4.0, 0.0, 2)


def test_seeded_root_reports_no_convergence(monkeypatch):
    # a budget too small for the 1e-12 contract ends in SolverError, not a
    # silently loose root; it counts the evaluations made once the bracket is
    # set, here by the seed, which is not one of them
    monkeypatch.setattr(solvers, "_MAX_ITER", 3)
    f, calls = _counted(_STEP)
    with pytest.raises(SolverError, match="did not converge in 3 evaluations"):
        seeded_root(f, 0.5, _STEP(0.5), 3.0, _STEP_SLOPE)
    assert len(calls) == 4


def test_seeded_root_counts_every_evaluation():
    calls = []

    def f(x):
        calls.append(x)
        return math.log(x) - 10.0  # root e^10 ~ 22026, slope 1 in ln x

    for seed in (0.5, 1.0, 1e3, 3e4, 1e9):  # at or below lo, below the root, above it
        calls.clear()
        res = seeded_root(f, 1.0, -10.0, seed, _unit_slope)
        assert res.x == pytest.approx(math.exp(10.0), rel=1e-12)
        assert res.iterations == len(calls)
        assert 1.0 not in calls  # f(lo) is given


@pytest.mark.parametrize("log_slope", [1e6, 1e-6])
@pytest.mark.parametrize("seed", [0.5, 1e3, 1e9])
def test_seeded_root_survives_a_wrong_slope(seed, log_slope):
    # a slope 1e6 times too steep: the Newton step barely moves, cuts |f| less
    # than twofold, and doubling or false position takes over; 1e6 times too
    # flat: the step is clamped to a factor 2 and cuts |f| too little to go on
    calls = []

    def f(x):
        calls.append(x)
        return math.log(x) - 10.0

    res = seeded_root(f, 1.0, -10.0, seed, lambda x: log_slope)
    assert res.x == pytest.approx(math.exp(10.0), rel=1e-12)
    assert res.iterations == len(calls)
    assert 1.0 not in calls


def test_seeded_root_leaves_the_float_range_to_f():
    # doubling up to inf takes 1024 evaluations, none of them counted
    # against _MAX_ITER, which starts once the bracket is set
    def f(x):
        if not x < math.inf:
            raise ValueError("no root below the float range")
        return -1.0

    with pytest.raises(ValueError, match="float range"):
        seeded_root(f, 1.0, -1.0, 2.0, _unit_slope)
    with pytest.raises(ValueError, match="float range"):
        seeded_root(f, 1.0, -1.0, math.inf, _unit_slope)


def test_seeded_root_ftol_stops_at_the_seed():
    f, calls = _counted(lambda x: math.log(x) - 10.0)
    seed = math.exp(10.0) * (1.0 + 1e-9)
    res = seeded_root(f, 1.0, -10.0, seed, _unit_slope, ftol=1e-8)
    assert len(calls) == 1 and calls[0][0] == seed
    assert res == solvers.RootResult(seed, abs(calls[0][1]), 1)
    # at ftol = 0.0 the same seed goes on to the Newton point
    assert seeded_root(f, 1.0, -10.0, seed, _unit_slope).iterations > 1


def test_seeded_root_ftol_stops_at_the_newton_point():
    # ln x - 10 is linear in ln x, so one Newton step on its slope lands on
    # the root up to rounding
    f, calls = _counted(lambda x: math.log(x) - 10.0)
    res = seeded_root(f, 1.0, -10.0, 2e4, _unit_slope, ftol=1e-12)
    assert len(calls) == 2 and abs(calls[0][1]) > 1e-12 >= abs(calls[1][1])
    assert res == solvers.RootResult(calls[1][0], abs(calls[1][1]), 2)
    assert res.x == pytest.approx(math.exp(10.0), rel=1e-12)


@pytest.mark.parametrize("seed", [1e3, 1e6])  # below the root, then doubling; above it
def test_seeded_root_ftol_stops_at_a_fallback_point(seed):
    # a slope 1e6 times too steep: each Newton step barely moves, and the
    # bisection steps between them find the root; each evaluation is tested
    # as it is made
    f, calls = _counted(lambda x: math.log(x) - 10.0)
    steep = lambda x: 1e6
    strict = seeded_root(f, 1.0, -10.0, seed, steep)
    calls.clear()
    res = seeded_root(f, 1.0, -10.0, seed, steep, ftol=1e-3)
    first = next(i for i, (x, value) in enumerate(calls) if abs(value) <= 1e-3)
    assert first >= 2  # past the seed and its Newton point
    assert res == solvers.RootResult(calls[first][0], abs(calls[first][1]), first + 1)
    assert res.iterations == len(calls) < strict.iterations


def _slope_at(slope, calls, lo=1.0):
    # a log_slope callable that checks it is asked only at lo or where f
    # was evaluated
    def log_slope(x):
        assert x == lo or x in [point for point, value in calls]
        return slope(x)
    return log_slope


def test_seeded_root_newton_on_an_exact_slope():
    # f = (ln x)^3/300 + ln x - 10 curves, so one step does not land on the
    # root: each Newton step on its slope at least squares the error
    log = lambda x: math.log(x)
    f, calls = _counted(lambda x: log(x) ** 3 / 300.0 + log(x) - 10.0)
    slope = _slope_at(lambda x: log(x) ** 2 / 100.0 + 1.0, calls)
    res = seeded_root(f, 1.0, -10.0, 2e3, slope, ftol=1e-13)
    assert res.residual <= 1e-13 and res.iterations == len(calls) <= 5
    errors = [abs(value) for x, value in calls]
    assert all(b <= a / 10.0 for a, b in zip(errors, errors[1:]))


def test_seeded_root_clamps_exact_slope_steps():
    # a slope 1e4 times too small: each step moves x by at most a factor 2,
    # inside the bracket found so far, and the first that fails to cut |f|
    # twofold hands the search to doubling
    f, calls = _counted(lambda x: math.log(x) - 10.0)
    slope = _slope_at(lambda x: 1e-4, calls)
    res = seeded_root(f, 1.0, -10.0, 100.0, slope, ftol=1e-13)
    assert res.x == pytest.approx(math.exp(10.0), rel=1e-12)
    assert res.iterations == len(calls)
    assert calls[1][0] == pytest.approx(200.0, rel=1e-15)  # clamped to a factor 2
    assert calls[2][0] == 400.0  # doubled


def test_seeded_root_stays_inside_the_bracket_on_an_exact_slope():
    # a slope 1e4 times too large from above the root: the step falls short,
    # cuts |f| less than twofold, and the search falls back; no point is
    # ever taken outside the bracket of the points before it
    f, calls = _counted(lambda x: math.log(x) - 10.0)
    slope = _slope_at(lambda x: 1e4, calls)
    res = seeded_root(f, 1.0, -10.0, 1e6, slope)
    assert res.x == pytest.approx(math.exp(10.0), rel=1e-12)
    assert res.iterations == len(calls)
    lo, hi = 1.0, math.inf
    for x, value in calls:
        assert lo < x < hi
        if value < 0.0:
            lo = x
        else:
            hi = x


@pytest.mark.parametrize("slope", [0.0, -1.0, math.nan])
def test_seeded_root_without_a_positive_slope_brackets(slope):
    f, calls = _counted(lambda x: math.log(x) - 10.0)
    res = seeded_root(f, 1.0, -10.0, 1e3, _slope_at(lambda x: slope, calls))
    assert res.x == pytest.approx(math.exp(10.0), rel=1e-12)
    assert [x for x, value in calls[:4]] == [1e3, 2e3, 4e3, 8e3]  # doubling


def test_seeded_root_takes_a_newton_step_from_lo():
    # a seed at or below lo starts from f_lo, and the slope there gives the
    # first Newton step: ln x - 1/2 is linear in ln x, so it lands on e^(1/2)
    f, calls = _counted(lambda x: math.log(x) - 0.5)
    res = seeded_root(f, 1.0, -0.5, 0.5, _slope_at(lambda x: 1.0, calls), ftol=1e-15)
    assert calls[0][0] == pytest.approx(math.exp(0.5), rel=1e-15)
    assert res == solvers.RootResult(calls[0][0], abs(calls[0][1]), 1)


# (x, residual, iterations) of the fixtures above, re-recorded when the
# search became one loop: the cubic and step roots on their exact slopes,
# the near-zero root, whose f is a step in floats, on none, and ln x - 10 on
# constant slopes, exact (1) or off by a factor 1e6 either way
def _seeded(seed, slope):
    return lambda **ftol: seeded_root(_LOG, 1.0, -10.0, seed, lambda x: slope, **ftol)


@pytest.mark.parametrize("call, expected", [
    (lambda **ftol: seeded_root(_CUBIC, 2.0, -1.0, 3.0, _CUBIC_SLOPE, **ftol),
     (2.0945514815423265, 8.881784197001252e-16, 7)),
    (lambda **ftol: seeded_root(_STEP, 0.5, _STEP(0.5), 3.0, _STEP_SLOPE, **ftol),
     (1.0000000000000413, 0.7347837305964561, 42)),
    (lambda **ftol: seeded_root(_NEAR_ZERO, 1e-300, _NEAR_ZERO(1e-300), 1.0, lambda x: 0.0,
                                **ftol),
     (1.1102230246250201e-16, 1.1102230246251565e-16, 59)),
    (_seeded(0.5, 1.0), (22026.46579480673, 0.0, 15)),
    (_seeded(1e3, 1.0), (22026.465794806714, 0.0, 6)),
    (_seeded(3e4, 1.0), (22026.46579480671, 0.0, 2)),
    (_seeded(1e9, 1.0), (22026.465794806718, 0.0, 4)),
    (_seeded(0.5, 1e6), (22026.465794806707, 0.0, 89)),
    (_seeded(1e3, 1e6), (22026.465794806714, 0.0, 70)),
    (_seeded(1e9, 1e6), (22026.46579480671, 0.0, 74)),
    (_seeded(0.5, 1e-6), (22026.46579480671, 0.0, 17)),
    (_seeded(1e9, 1e-6), (22026.465794806714, 0.0, 9)),
], ids=["cubic", "step", "near-zero", "seed-0.5", "seed-1e3", "seed-3e4", "seed-1e9",
        "steep-0.5", "steep-1e3", "steep-1e9", "flat-0.5", "flat-1e9"])
def test_zero_ftol_keeps_the_results(call, expected):
    # ftol = 0.0, the default, stops only on an exact zero, so every bit stays
    assert call(ftol=0.0) == call() == solvers.RootResult(*expected)
