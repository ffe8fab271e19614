import math
import warnings

import mpmath
import numpy as np
import pytest

from uncbound.purity import (
    GroupedSpectrum,
    PurityOrder,
    Spectrum,
    entropy_from_grouped,
    purity_from_grouped,
    purity_from_spectrum,
)
from uncbound.special_fn import degeneracy

ORDERS = [
    PurityOrder.superpurity(),
    PurityOrder.finite(1.4),
    PurityOrder.finite(2.0),
    PurityOrder.finite(5.0),
    PurityOrder.entropy(),
]

# finite orders from near 1 to far past where r - 1 swallows the float sum
LARGE_R_GRID = [1.001, 1.5, 2.0, 10.0, 1e3, 1e6, 1e10, 1e15, 1e16, 1e20, 1e100, 1e300]


def random_grouped(rng):
    n = int(rng.integers(1, 7))
    levels = int(rng.integers(1, 10))
    return GroupedSpectrum(n=n, weights=rng.dirichlet(np.ones(levels + 1)))


class TestSpectrumValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError) as info:
            Spectrum(np.array([0.6, 0.5]))
        assert str(info.value) == "eigenvalues sum to 1.1, expected 1 within 1e-10"

    @pytest.mark.parametrize("bad", [[], [[0.5, 0.5]]])
    def test_rejects_empty_or_2d(self, bad):
        with pytest.raises(ValueError, match="^eigenvalues must be a nonempty 1-d sequence$"):
            Spectrum(np.array(bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="^eigenvalues contains non-finite entries$"):
            Spectrum(np.array([0.5, bad]))

    def test_resorts_rounding_noise(self):
        s = Spectrum(np.array([0.5, 0.5 + 1e-13]))
        assert s.eigenvalues[0] >= s.eigenvalues[1]

    def test_rejects_real_disorder(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([0.4, 0.6]))

    def test_tiny_negative_noise_clamped(self):
        s = Spectrum(np.array([1.0, 1e-14, -1e-14]))
        assert np.all(s.eigenvalues >= 0.0)


class TestGroupedValidation:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError) as info:
            GroupedSpectrum(n=2, weights=np.array([0.5, 0.6]))
        assert str(info.value) == "weights sum to 1.1, expected 1 within 1e-10"

    @pytest.mark.parametrize("bad", [[], [[0.5, 0.5]]])
    def test_rejects_empty_or_2d(self, bad):
        with pytest.raises(ValueError, match="^weights must be a nonempty 1-d sequence$"):
            GroupedSpectrum(n=2, weights=np.array(bad))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            GroupedSpectrum(n=0, weights=np.array([1.0]))


class TestPurityOrder:
    def test_finite_requires_r_above_one(self):
        for bad in (1.0, 0.5, -2.0, math.inf):
            with pytest.raises(ValueError):
                PurityOrder.finite(bad)

    def test_rejects_r_below_one_and_nan(self):
        for bad in (0.999, 0.5, 0.0, -math.inf, math.nan):
            with pytest.raises(ValueError):
                PurityOrder(bad)

    def test_one_axis(self):
        assert PurityOrder.superpurity() == PurityOrder(1.0)
        assert PurityOrder.entropy() == PurityOrder(math.inf)
        assert PurityOrder.finite(2) == PurityOrder(2.0)


class TestSpectrumPurity:
    def test_pure_state_every_order(self):
        s = Spectrum(np.array([1.0]))
        for order in ORDERS:
            assert purity_from_spectrum(s, order) == pytest.approx(1.0, abs=1e-14)

    def test_two_point_uniform(self):
        s = Spectrum(np.array([0.5, 0.5]))
        assert purity_from_spectrum(s, PurityOrder.finite(2.0)) == pytest.approx(0.5)
        assert purity_from_spectrum(s, PurityOrder.entropy()) == pytest.approx(0.5)
        assert purity_from_spectrum(s, PurityOrder.superpurity()) == 0.5

    def test_hand_value(self):
        s = Spectrum(np.array([0.6, 0.4]))
        assert purity_from_spectrum(s, PurityOrder.finite(2.0)) == pytest.approx(
            0.52, rel=1e-13
        )


class TestGroupedPurity:
    def test_matches_raw_for_one_dimension(self):
        s = Spectrum(np.array([0.6, 0.4]))
        g = GroupedSpectrum(n=1, weights=np.array([0.6, 0.4]))
        for order in ORDERS:
            assert purity_from_grouped(g, order) == purity_from_spectrum(s, order)

    def test_degenerate_level_hand_value(self):
        g = GroupedSpectrum(n=2, weights=np.array([1.0, 2.0]) / 3.0)
        assert purity_from_grouped(g, PurityOrder.finite(2.0)) == pytest.approx(
            1.0 / 3.0, rel=1e-13
        )

    def test_vacuum_is_pure(self):
        g = GroupedSpectrum(n=4, weights=np.array([1.0, 0.0, 0.0]))
        for order in ORDERS:
            assert purity_from_grouped(g, order) == pytest.approx(1.0, abs=1e-14)


class TestGroupedEntropy:
    def test_single_nondegenerate_level(self):
        g = GroupedSpectrum(n=3, weights=np.array([1.0]))
        assert entropy_from_grouped(g) == 0.0

    def test_uniform_one_dimension(self):
        for count in (2, 5, 17):
            g = GroupedSpectrum(n=1, weights=np.full(count, 1.0 / count))
            assert entropy_from_grouped(g) == pytest.approx(math.log(count), rel=1e-13)

    def test_three_equal_underlying_states(self):
        g = GroupedSpectrum(n=2, weights=np.array([1.0, 2.0]) / 3.0)
        assert entropy_from_grouped(g) == pytest.approx(math.log(3.0), rel=1e-13)

    def test_entropy_order_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_grouped(rng)
            direct = math.exp(-entropy_from_grouped(g))
            assert purity_from_grouped(g, PurityOrder.entropy()) == pytest.approx(
                direct, rel=1e-12
            )


class TestFamilyProperties:
    def test_nonincreasing_in_order(self):
        # superpurity >= mu^(r) >= mu^(q) >= entropy purity for r < q
        rng = np.random.default_rng(20240810)
        rs = [1.2, 1.7, 2.0, 3.0, 6.0, 15.0, 60.0]
        for _ in range(1000):
            g = random_grouped(rng)
            values = [purity_from_grouped(g, PurityOrder.superpurity())]
            values += [purity_from_grouped(g, PurityOrder.finite(r)) for r in rs]
            values.append(purity_from_grouped(g, PurityOrder.entropy()))
            drops = np.diff(values)
            assert np.all(drops <= 1e-12)

    def test_range_and_purity_one_iff_single_state(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = random_grouped(rng)
            for order in ORDERS:
                value = purity_from_grouped(g, order)
                assert 0.0 < value <= 1.0
        # exactly one underlying state carries all the weight
        solo = GroupedSpectrum(n=3, weights=np.array([0.0, 1.0]))
        assert purity_from_grouped(solo, PurityOrder.superpurity()) < 1.0
        vacuum = GroupedSpectrum(n=3, weights=np.array([1.0]))
        for order in ORDERS:
            assert purity_from_grouped(vacuum, order) == pytest.approx(1.0, abs=1e-14)

    def test_limit_consistency(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            g = random_grouped(rng)
            near_one = purity_from_grouped(g, PurityOrder.finite(1.0 + 1e-6))
            super_p = purity_from_grouped(g, PurityOrder.superpurity())
            assert near_one == pytest.approx(super_p, rel=1e-3)
            near_inf = purity_from_grouped(g, PurityOrder.finite(1e7))
            entropy_p = purity_from_grouped(g, PurityOrder.entropy())
            assert near_inf == pytest.approx(entropy_p, rel=1e-3)


def seeded_spectra():
    # n in {1, 2, 3, 6}; a few levels up to a thousand, weights spread unevenly
    rng = np.random.default_rng(1)
    for n, levels in ((1, 1000), (1, 30), (2, 150), (3, 60), (6, 12), (6, 3)):
        yield GroupedSpectrum(n=n, weights=rng.dirichlet(np.full(levels, 0.5)))


def mpmath_purity(g, r):
    """(sum_k g_k theta_k^p)^(r-1) of the normalized weights, at 30 digits
    beyond the ~log10(r) that p - 1 = 1/(r-1) needs."""
    with mpmath.workdps(30 + max(0, int(math.log10(r)))):
        xi = [mpmath.mpf(float(w)) for w in g.weights]
        total = mpmath.fsum(xi)
        inverse = 1 / (mpmath.mpf(r) - 1)
        power_sum = mpmath.fsum(
            w / total * mpmath.exp(inverse * mpmath.log(w / total / degeneracy(k, g.n)))
            for k, w in enumerate(xi) if w > 0
        )
        return mpmath.exp(mpmath.log(power_sum) / inverse)


class TestLargeOrder:
    def test_matches_mpmath(self):
        # the float sum rounds to 1 within eps, and r - 1 multiplies that
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g in seeded_spectra():
                for r in LARGE_R_GRID:
                    got = purity_from_grouped(g, PurityOrder.finite(r))
                    want = mpmath_purity(g, r)
                    assert abs(got / want - 1) <= 1e-12, (g.n, len(g), r, got)

    def test_falls_to_the_entropy_end(self):
        # non-increasing along the whole axis up to rounding, and never
        # below exp(-S)
        for g in seeded_spectra():
            orders = [PurityOrder.finite(r) for r in LARGE_R_GRID]
            values = [purity_from_grouped(g, order)
                      for order in orders + [PurityOrder.entropy()]]
            for before, after in zip(values, values[1:]):
                assert after <= before * (1.0 + 1e-12)
            assert min(values) >= math.exp(-entropy_from_grouped(g)) * (1.0 - 1e-12)
