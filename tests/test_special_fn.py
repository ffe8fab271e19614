import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp as scipy_lse

from uncbound.special_fn import (
    DIMENSION_CEILING,
    check_dimension,
    check_level,
    degeneracy,
    log_degeneracy,
    log_degeneracy_array,
    logsumexp,
)


def counts_by_enumeration(n, k_max):
    """Tally n-tuples of nonnegative integers by their sum (brute force)."""
    tally = [0] * (k_max + 1)
    for tup in itertools.product(range(k_max + 1), repeat=n):
        total = sum(tup)
        if total <= k_max:
            tally[total] += 1
    return tally


def test_vacuum_and_one_dimension():
    assert degeneracy(0, 5) == 1
    for k in (0, 1, 7, 100):
        assert degeneracy(k, 1) == 1
    assert degeneracy(2, 3) == 6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_oracle(n):
    tally = counts_by_enumeration(n, 12)
    for k in range(13):
        assert degeneracy(k, n) == tally[k]
        assert math.exp(log_degeneracy(k, n)) == pytest.approx(
            tally[k], rel=1e-12
        )


def test_pascal_recurrence():
    for n in range(2, 31):
        for k in range(1, 31):
            assert degeneracy(k, n) == degeneracy(k - 1, n) + degeneracy(k, n - 1)


def test_hockey_stick_identity():
    for n in range(1, 21):
        for big_k in range(21):
            assert sum(degeneracy(k, n) for k in range(big_k + 1)) == degeneracy(
                big_k, n + 1
            )


def test_log_degeneracy_matches_exact_path():
    for n in (1, 2, 3, 6, 17, 64):
        for k in (0, 1, 2, 10, 500, 10**6):
            expected = degeneracy(k, n)
            got = log_degeneracy(k, n)
            if expected == 1:
                assert got == 0.0
            else:
                # compare in log space; the exact value may not fit a float
                reference = float(mpmath.log(expected))
                assert got == pytest.approx(reference, rel=1e-12)


def test_log_degeneracy_summed_logs_oracle():
    k, n = 1000, 6
    oracle = math.fsum(math.log(k + j) for j in range(1, n)) - math.fsum(
        math.log(j) for j in range(1, n)
    )
    assert log_degeneracy(k, n) == pytest.approx(oracle, rel=1e-12)


def test_log_degeneracy_array_matches_scalar():
    levels = np.array([0, 1, 2, 5, 40, 1000])
    for n in (1, 2, 5):
        vector = log_degeneracy_array(levels, n)
        scalar = [log_degeneracy(int(k), n) for k in levels]
        np.testing.assert_allclose(vector, scalar, rtol=1e-13, atol=1e-13)


def test_validation():
    with pytest.raises(ValueError):
        check_dimension(0)
    with pytest.raises(ValueError):
        check_dimension(DIMENSION_CEILING + 1)
    with pytest.raises(ValueError):
        check_dimension(2.5)
    with pytest.raises(ValueError):
        check_level(-1)
    assert check_dimension(np.int64(3)) == 3


def _lse_inputs():
    rng = np.random.default_rng(5)
    cases = [
        np.array([0.0]),
        np.array([0.0, -40.0]),  # remainder far below one ulp of the lead term
        np.array([3.0, 3.0, 3.0]),
        np.array([-np.inf, 2.0, -np.inf, -1.5]),
        np.array([700.0, 699.0, -700.0]),
        np.array([-750.0, -760.0]),
    ]
    for size in (2, 7, 50, 1000):
        values = rng.normal(0.0, 30.0, size)
        values[rng.random(size) < 0.2] = -np.inf
        cases.append(values)
    return cases


def _assert_log_close(ours, ref):
    if not np.isfinite(ref):
        assert ours == ref
    else:
        assert abs(ours - ref) <= 1e-15 * max(1.0, abs(ref))


def test_logsumexp_matches_scipy():
    for values in _lse_inputs():
        _assert_log_close(logsumexp(values), float(scipy_lse(values)))
    assert logsumexp([]) == -math.inf
    assert logsumexp([-np.inf, -np.inf]) == -math.inf
