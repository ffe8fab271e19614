import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp as scipy_lse

from uncbound import special_fn
from uncbound.special_fn import (
    DIMENSION_CEILING,
    _level_table,
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


def _one_row_lse(values):
    # the one-row log-sum-exp the row-wise kernel replaced, kept as its reference
    a = np.asarray(values, dtype=float)
    if not a.size:
        return -math.inf
    top = int(np.argmax(a))
    if not np.isfinite(a[top]):
        return float(a[top])
    scaled = np.exp(a - a[top])
    scaled[top] = 0.0
    return float(a[top] + np.log1p(scaled.sum()))


def _lse_rows():
    rng = np.random.default_rng(9)
    rows = rng.normal(0.0, 30.0, (8, 37))
    rows[0, [3, 17]] = -np.inf
    rows[1] = -np.inf
    rows[2, 5] = np.inf
    rows[3, 30] = np.nan
    rows[4] = rows[4, 0]  # ties: the first peak is the one split off
    rows[5, :] = 700.0 - np.arange(37.0)
    rows[6:] -= rows[6:].max(axis=1, keepdims=True)  # peak 0: every bit of the sum shows
    return rows


def test_logsumexp_matches_one_row_kernel_bit_for_bit():
    rng = np.random.default_rng(13)
    cases = _lse_inputs()
    for size in (3, 129, 4097):
        values = rng.normal(0.0, 5.0, size)
        cases += [values, values - values.max()]  # peak 0: every bit of the sum shows
    for values in cases:
        assert logsumexp(values).hex() == _one_row_lse(values).hex()


def test_logsumexp_rows_bit_for_bit():
    rows = _lse_rows()
    sums = logsumexp(rows)
    assert sums.shape == (rows.shape[0],)
    for row, got in zip(rows, sums):
        assert float(got).hex() == logsumexp(row).hex() == _one_row_lse(row).hex()
    assert sums[1] == -math.inf and sums[2] == math.inf and math.isnan(sums[3])
    stacked = logsumexp(rows.reshape(2, 4, -1))
    assert stacked.shape == (2, 4)
    np.testing.assert_array_equal(stacked.ravel(), sums)
    np.testing.assert_array_equal(logsumexp(np.zeros((3, 0))), [-np.inf] * 3)


def _numpy_checked_rows_lse(a):
    # the row-wise kernel as it was before its peaks were checked as Python
    # floats and its rows summed by np.add.reduce, kept as its reference
    count, width = a.shape
    top = a.argmax(axis=1)
    top += np.arange(0, a.size, width)
    peak = a.take(top)
    finite = np.isfinite(peak)
    shift = peak if finite.all() else np.where(finite, peak, 0.0)
    a -= shift[:, None]
    np.exp(a, out=a)
    a.put(top, 0.0)
    sums = np.log1p(a.sum(axis=1))
    sums += shift
    return sums if shift is peak else np.where(finite, sums, peak)


def test_logsumexp_rows_match_the_numpy_checked_kernel_bit_for_bit():
    # all-finite peaks take the short path; a row peaking at -inf, +inf or
    # nan sends its whole buffer down the numpy-checked one
    rng = np.random.default_rng(27)
    for trial in range(400):
        rows = rng.normal(0.0, 10.0 ** rng.uniform(-1.0, 2.5), (rng.integers(1, 5), rng.integers(1, 60)))
        if trial % 2:
            row = rng.integers(rows.shape[0])
            peak = rng.choice([-np.inf, np.inf, np.nan])
            if peak == -np.inf:
                rows[row] = -np.inf
            else:
                rows[row, rng.integers(rows.shape[1])] = peak
        got = special_fn._logsumexp_rows(rows.copy())
        expected = _numpy_checked_rows_lse(rows.copy())
        assert [float(x).hex() for x in got] == [float(x).hex() for x in expected], rows


def test_logsumexp_leaves_its_input_alone():
    rows = _lse_rows()
    kept = rows.copy()
    logsumexp(rows)
    logsumexp(rows[0])
    np.testing.assert_array_equal(rows, kept)


def test_level_table_prefixes_bit_for_bit():
    # the table grows by doubling, and every view keeps its entries
    for n in (1, 5, 64):
        for count in (1, 1000, 1025, 5000, 70_000, 3):
            levels, log_g = _level_table(count, n)
            np.testing.assert_array_equal(levels, np.arange(count, dtype=float))
            np.testing.assert_array_equal(
                log_g, log_degeneracy_array(np.arange(count), n))


def test_level_table_is_read_only():
    levels, log_g = _level_table(10, 3)
    with pytest.raises(ValueError):
        levels[0] = 1.0
    with pytest.raises(ValueError):
        log_g[0] = 1.0


def test_level_table_holds_one_array_per_dimension():
    _level_table(3000, 7)
    _level_table(3000, 8)
    held = {n: log_g.nbytes for n, log_g in special_fn._LOG_G.items()}
    for count in range(1, 3001, 7):
        for n in (7, 8):
            assert _level_table(count, n)[1].base is special_fn._LOG_G[n]
    assert {n: log_g.nbytes for n, log_g in special_fn._LOG_G.items()} == held
