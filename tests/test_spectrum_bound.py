import math

import numpy as np
import pytest

from uncbound.bounds import purity_bound, thermal_grouped_spectrum
from uncbound.closed_forms import BoundResult, entropy_bound
from uncbound.oracle import OracleConfig, lemma_margins
from uncbound.purity import (
    GroupedSpectrum,
    PurityOrder,
    Spectrum,
    purity_from_grouped,
    purity_from_spectrum,
)
from uncbound.spectrum_bound import (
    bound_from_grouped,
    bound_from_spectrum,
    group_spectrum,
)


class TestGrouping:
    def test_one_dimension_is_identity(self):
        s = Spectrum(np.array([0.5, 0.3, 0.2]))
        g = group_spectrum(s, 1)
        np.testing.assert_array_equal(g.weights, s.eigenvalues)

    def test_three_equal_weights_two_dims(self):
        s = Spectrum(np.array([1.0, 1.0, 1.0]) / 3.0)
        g = group_spectrum(s, 2)
        np.testing.assert_allclose(g.weights, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-15)

    def test_partially_filled_level(self):
        s = Spectrum(np.array([0.5, 0.5]))
        g = group_spectrum(s, 3)
        np.testing.assert_allclose(g.weights, [0.5, 0.5])

    def test_trailing_zeros_dropped(self):
        s = Spectrum(np.array([0.7, 0.3, 0.0, 0.0]))
        g = group_spectrum(s, 1)
        assert len(g) == 2

    def test_block_sizes_follow_degeneracies(self):
        # 1 + 3 + 6 states fit in the first three levels for n = 3
        s = Spectrum(np.full(10, 0.1))
        g = group_spectrum(s, 3)
        np.testing.assert_allclose(g.weights, [0.1, 0.3, 0.6], rtol=1e-14)


class TestBoundValues:
    def test_pure_state_any_dimension(self):
        s = Spectrum(np.array([1.0]))
        for n in (1, 2, 4, 6):
            assert bound_from_spectrum(s, n).per_dim_product == pytest.approx(
                1.0, abs=1e-14
            )

    def test_one_dim_half_half(self):
        res = bound_from_grouped(GroupedSpectrum(n=1, weights=np.array([0.5, 0.5])))
        assert res.per_dim_product == pytest.approx(2.0, rel=1e-15)

    def test_two_dim_thirds(self):
        s = Spectrum(np.array([1.0, 1.0, 1.0]) / 3.0)
        assert bound_from_spectrum(s, 2).per_dim_product == pytest.approx(
            5.0 / 3.0, rel=1e-14
        )

    def test_volume_is_power(self):
        s = Spectrum(np.array([0.5, 0.25, 0.25]))
        res = bound_from_spectrum(s, 3)
        assert res.volume == pytest.approx(res.per_dim_product**3, rel=1e-14)


class TestBoundResultInvariants:
    def test_floor_enforced(self):
        with pytest.raises(ValueError):
            BoundResult(0.9, 1, method="test")

    def test_volume_overflow_is_inf(self):
        res = BoundResult(1e43, 10, method="test")
        assert res.per_dim_product == 1e43 and res.volume == float("inf")

    def test_non_finite_bound_rejected(self):
        with pytest.raises(ValueError):
            BoundResult(float("inf"), 1, method="test")

    def test_floor_tolerance(self):
        res = BoundResult(1.0 - 1e-13, 1, method="test")
        assert res.per_dim_product < 1.0


class TestMajorization:
    @staticmethod
    def mix_toward_top(spectrum, t):
        # t*e1 + (1-t)*spectrum majorizes spectrum for every t in [0, 1]
        mixed = (1.0 - t) * spectrum
        mixed[0] += t
        return np.sort(mixed)[::-1]

    @staticmethod
    def robin_hood(spectrum, rng):
        # transfer mass from a low entry to a higher one, keeping order
        out = spectrum.copy()
        i, j = sorted(rng.integers(0, out.size, size=2))
        if i == j:
            return out
        delta = rng.uniform(0.0, out[j])
        out[i] += delta
        out[j] -= delta
        return np.sort(out)[::-1]

    def test_majorized_spectra_give_smaller_bounds(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            size = int(rng.integers(2, 51))
            base = np.sort(rng.dirichlet(np.ones(size)))[::-1]
            higher = self.mix_toward_top(base, float(rng.uniform(0.0, 1.0)))
            lower_bound = bound_from_spectrum(Spectrum(higher), n).per_dim_product
            base_bound = bound_from_spectrum(Spectrum(base), n).per_dim_product
            assert lower_bound <= base_bound + 1e-12

            transferred = self.robin_hood(base, rng)
            t_bound = bound_from_spectrum(Spectrum(transferred), n).per_dim_product
            assert t_bound <= base_bound + 1e-12


class TestRearrangementOptimality:
    def test_random_unitary_mixing_never_beats_sorted(self):
        cfg = OracleConfig(seed=2024)
        worst = min(
            lemma_margins(1, int(4 + trial % 36), cfg, range(trial, trial + 1))[0]
            for trial in range(1000)
        )
        assert worst >= -1e-10

    def test_identity_mixing_is_equality(self):
        cfg = OracleConfig(seed=2024)
        assert abs(lemma_margins(1, 39, cfg, range(1), identity=True)[0]) <= 1e-10


class TestCrossRoute:
    """The spectrum route never falls below the purity route at any order."""

    ORDERS = [PurityOrder.finite(1.2), PurityOrder.finite(2.0),
              PurityOrder.finite(7.0), PurityOrder.entropy()]

    def test_spectrum_bound_dominates_purity_bound(self):
        rng = np.random.default_rng(2025)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            size = int(rng.integers(1, 401))
            alpha = float(rng.choice([0.1, 1.0, 10.0]))
            s = Spectrum(np.sort(rng.dirichlet(np.full(size, alpha)))[::-1])
            direct = bound_from_spectrum(s, n).per_dim_product
            for order in self.ORDERS:
                mu = purity_from_spectrum(s, order)
                via_mu = purity_bound(mu, n, order).per_dim_product
                assert direct >= via_mu * (1.0 - 1e-12), (n, size, order.r)

    def test_thermal_states_attain_the_entropy_order(self):
        rng = np.random.default_rng(2026)
        order = PurityOrder.entropy()
        for _ in range(60):
            n = int(rng.integers(1, 7))
            # S/n <= 8 keeps the materialized state under the level cap
            S = float(rng.uniform(0.01, min(25.0, 8.0 * n)))
            g = thermal_grouped_spectrum(entropy_bound(S, n).aux, n)
            via_mu = purity_bound(purity_from_grouped(g, order), n, order).per_dim_product
            assert bound_from_grouped(g).per_dim_product == pytest.approx(via_mu, rel=1e-12)


class TestLinearity:
    def test_bound_linear_in_weights(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            size = int(rng.integers(2, 9))
            first = rng.dirichlet(np.ones(size))
            second = rng.dirichlet(np.ones(size))
            alpha = float(rng.uniform())
            mixed = alpha * first + (1.0 - alpha) * second
            combined = bound_from_grouped(GroupedSpectrum(n=n, weights=mixed))
            parts = alpha * bound_from_grouped(
                GroupedSpectrum(n=n, weights=first)
            ).per_dim_product + (1.0 - alpha) * bound_from_grouped(
                GroupedSpectrum(n=n, weights=second)
            ).per_dim_product
            assert combined.per_dim_product == pytest.approx(parts, rel=1e-13)


def test_overlong_spectrum_rejected():
    values = np.zeros(10_000_001)
    values[0] = 1.0
    with pytest.raises(ValueError):
        Spectrum(values)
