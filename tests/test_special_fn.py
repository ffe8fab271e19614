import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp as scipy_lse

from uncbound import bounds
from uncbound.purity import PurityOrder, _log_g, _logsumexp_rows
from uncbound.special_fn import (
    DIMENSION_CEILING,
    check_beta,
    check_dimension,
    check_entropy,
    check_level,
    degeneracy,
    log_degeneracy,
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


def test_log_g_matches_scalar():
    levels = np.array([0, 1, 2, 5, 40, 1000], dtype=float)
    for n in (1, 2, 5):
        vector = _log_g(levels, n)
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
    # any integral type is taken, numpy's included; bools and floats are not
    for check in (check_dimension, check_level):
        for value in (np.int64(3), np.uint16(3)):
            assert check(value) == 3 and type(check(value)) is int
        for value in (True, np.bool_(True), 3.0, np.float64(3.0)):
            with pytest.raises(ValueError, match="must be an integer"):
                check(value)
    # entropy and beta come back as floats, inf included; nan and values
    # below the smallest allowed one are refused
    for check, smallest, message in ((check_entropy, 0.0, "entropy must be >= 0"),
                                     (check_beta, 1e-300, "beta must be > 0")):
        for value in (np.float64(2.5), 3, smallest, math.inf):
            assert check(value) == value and type(check(value)) is float
        for value in (math.nan, -math.inf, -1.0, -1e-300) + ((0.0,) if smallest else ()):
            with pytest.raises(ValueError, match=rf"^{message}, got {value}$"):
                check(value)


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


def _lse(values):
    # the row-wise kernel on a one-row copy of values
    return float(_logsumexp_rows(np.array(values, dtype=float)[None, :])[0])


def test_logsumexp_matches_scipy():
    for values in _lse_inputs():
        _assert_log_close(_lse(values), float(scipy_lse(values)))


def _one_row_lse(values):
    # the one-row log-sum-exp the row-wise kernel replaced, kept as its reference
    a = np.asarray(values, dtype=float)
    top = int(np.argmax(a))
    scaled = np.exp(a - a[top])
    scaled[top] = 0.0
    return float(a[top] + np.log1p(scaled.sum()))


def _lse_rows():
    rng = np.random.default_rng(9)
    rows = rng.normal(0.0, 30.0, (8, 37))
    rows[0, [3, 17]] = -np.inf  # below the peak, they add nothing
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
        assert _lse(values).hex() == _one_row_lse(values).hex()


def test_logsumexp_rows_bit_for_bit():
    rows = _lse_rows()
    sums = _logsumexp_rows(rows.copy())
    assert sums.shape == (rows.shape[0],)
    for row, got in zip(rows, sums):
        assert float(got).hex() == _lse(row).hex() == _one_row_lse(row).hex()


def _numpy_checked_rows_lse(a):
    # the row-wise kernel as it was before its rows were summed by
    # np.add.reduce, on finite peaks, kept as its reference
    count, width = a.shape
    top = a.argmax(axis=1)
    top += np.arange(0, a.size, width)
    peak = a.take(top)
    a -= peak[:, None]
    np.exp(a, out=a)
    a.put(top, 0.0)
    sums = np.log1p(a.sum(axis=1))
    sums += peak
    return sums


def test_logsumexp_rows_match_the_numpy_checked_kernel_bit_for_bit():
    # every other trial puts entries of -inf below each row's peak
    rng = np.random.default_rng(27)
    for trial in range(400):
        rows = rng.normal(0.0, 10.0 ** rng.uniform(-1.0, 2.5), (rng.integers(1, 5), rng.integers(1, 60)))
        if trial % 2:
            low = rng.random(rows.shape) < 0.3
            low[np.arange(rows.shape[0]), rows.argmax(axis=1)] = False
            rows[low] = -np.inf
        got = _logsumexp_rows(rows.copy())
        expected = _numpy_checked_rows_lse(rows.copy())
        assert [float(x).hex() for x in got] == [float(x).hex() for x in expected], rows


def test_level_table_prefixes_bit_for_bit():
    # each entry is ln g of its own level, so a direct sum's prefix of either
    # size is ln g over its own levels
    for n in (1, 5, 64):
        for count in (bounds._TAIL_BLOCK, bounds._DIRECT_TERM_LIMIT):
            levels, log_g = bounds._level_table(count, n)
            np.testing.assert_array_equal(levels, np.arange(count, dtype=float))
            np.testing.assert_array_equal(log_g, _log_g(np.arange(count, dtype=float), n))
            for k in (1, 3, 1000, 1025, 5000):
                if k <= count:
                    np.testing.assert_array_equal(
                        log_g[:k], _log_g(np.arange(k, dtype=float), n))


def test_level_table_is_read_only():
    levels, log_g = bounds._level_table(bounds._TAIL_BLOCK, 3)
    with pytest.raises(ValueError):
        levels[0] = 1.0
    with pytest.raises(ValueError):
        log_g[0] = 1.0


def test_level_table_shares_its_levels_across_n():
    # one levels array per size; each n keeps only its ln g
    for count in (bounds._TAIL_BLOCK, bounds._DIRECT_TERM_LIMIT):
        (levels_2, log_g_2), (levels_5, log_g_5) = (bounds._level_table(count, n)
                                                    for n in (2, 5))
        assert np.shares_memory(levels_2, levels_5)
        assert not np.shares_memory(log_g_2, log_g_5)


def test_level_table_is_built_at_two_sizes(monkeypatch):
    # bounds and sums on direct cutoffs at or below 1024 levels and above,
    # and on tail cutoffs, read the table at its two sizes only
    sizes = set()
    table = bounds._level_table

    def recording(count, n):
        sizes.add(count)
        return table(count, n)

    monkeypatch.setattr(bounds, "_level_table", recording)
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        r = float(rng.uniform(1.5, 10.0))
        bounds.purity_bound(float(np.exp(rng.uniform(np.log(1e-7), np.log(0.5)))), n,
                            PurityOrder.finite(r))
        bounds.log_B_exact(float(np.exp(rng.uniform(0.0, np.log(1e6)))), n, r)
    assert sizes == {bounds._TAIL_BLOCK, bounds._DIRECT_TERM_LIMIT}
