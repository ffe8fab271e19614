import math

import numpy as np
import pytest
from scipy.integrate import quad

from uncbound.bounds import (
    B_asymptotic,
    B_exact,
    HolderParams,
    InterpParam,
    ThermalParams,
    asymptotic_C,
    asymptotic_C_entropy_limit,
    asymptotic_cutoff,
    entropy_bound,
    holder_bracket,
    interpolated_bound_r2,
    log_B_exact,
    purity_bound,
    thermal_beta_from_entropy,
    thermal_entropy,
    thermal_grouped_spectrum,
)
from uncbound.purity import (
    GroupedSpectrum,
    PurityOrder,
    entropy_from_grouped,
    purity_from_grouped,
)
from uncbound.solvers import SolverError
from uncbound.special_fn import degeneracy, log_degeneracy_array
from uncbound.spectrum_bound import bound_from_grouped


class TestParamTypes:
    def test_holder_conjugate_pair(self):
        params = HolderParams(M=3.0, r=2.0)
        assert params.p == 2.0
        with pytest.raises(ValueError):
            HolderParams(M=3.0, r=2.0, p=2.5)
        with pytest.raises(ValueError):
            HolderParams(M=-1.0, r=2.0)

    def test_thermal_and_interp(self):
        with pytest.raises(ValueError):
            ThermalParams(beta=0.0, A=1.0)
        with pytest.raises(ValueError):
            InterpParam(L=0.0)


class TestInterpolatedBound:
    def test_pure_state_root_is_one(self):
        for n in range(1, 7):
            res = interpolated_bound_r2(1.0, n)
            assert res.per_dim_product == 1.0
            assert res.aux == 1.0

    def test_one_dim_highly_mixed(self):
        res = interpolated_bound_r2(1e-6, 1)
        assert 1e-6 * res.per_dim_product == pytest.approx(8.0 / 9.0, rel=0.01)

    def test_two_dim_highly_mixed(self):
        res = interpolated_bound_r2(1e-6, 2)
        assert 1e-6 * res.per_dim_product**2 == pytest.approx(0.75, rel=0.01)

    def test_equation_residual(self):
        for mu in (0.9, 0.5, 0.1, 1e-3, 1e-7):
            for n in (1, 3, 6):
                res = interpolated_bound_r2(mu, n)
                assert res.residual <= 1e-10

    def test_root_solves_equation(self):
        # plug L back into the mu equation with an independent evaluation
        mu, n = 0.37, 2
        L = interpolated_bound_r2(mu, n).aux
        recovered = (
            (n + 2 * L)
            * math.gamma(n + 2.0)
            * math.gamma(L)
            / ((n + 2.0) * math.gamma(L + n + 1.0))
        )
        assert recovered == pytest.approx(mu, rel=1e-10)

    def test_monotone_in_mu(self):
        values = [
            interpolated_bound_r2(mu, 3).per_dim_product
            for mu in np.geomspace(1e-6, 1.0, 25)
        ]
        assert np.all(np.diff(values) <= 1e-12)

    def test_domain(self):
        for bad in (0.0, -0.3, 1.2):
            with pytest.raises(ValueError):
                interpolated_bound_r2(bad, 1)


class TestThermalFamily:
    def test_geometric_entropy_hand_value(self):
        # theta_k = (1/2)^(k+1) gives S = 2 ln 2; invert it
        params = thermal_beta_from_entropy(2.0 * math.log(2.0), 1)
        assert params.beta == pytest.approx(math.log(2.0), rel=1e-12)

    def test_entropy_zero_is_vacuum(self):
        params = thermal_beta_from_entropy(0.0, 4)
        assert math.isinf(params.beta)
        assert entropy_bound(0.0, 4).per_dim_product == 1.0

    def test_roundtrip_closed_form(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            target = float(rng.uniform(1e-3, 50.0))
            params = thermal_beta_from_entropy(target, n)
            assert thermal_entropy(params.beta, n) == pytest.approx(
                target, abs=1e-10
            )

    def test_roundtrip_materialized(self):
        rng = np.random.default_rng(78)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            target = float(rng.uniform(1e-3, 8.0 * n))
            params = thermal_beta_from_entropy(target, n)
            grouped = thermal_grouped_spectrum(params.beta, n)
            assert entropy_from_grouped(grouped) == pytest.approx(target, abs=1e-9)

    def test_normalization_constant(self):
        params = thermal_beta_from_entropy(3.0, 2)
        x = math.exp(-params.beta)
        assert params.A == pytest.approx((1.0 - x) ** 2, rel=1e-12)

    def test_closed_and_grouped_paths_agree(self):
        for n, target in ((1, 5.0), (2, 9.0), (3, 20.0), (4, 30.0)):
            res = entropy_bound(target, n)
            grouped = thermal_grouped_spectrum(res.aux, n)
            other = bound_from_grouped(grouped).per_dim_product
            assert other == pytest.approx(res.per_dim_product, rel=1e-9)

    def test_factorization_exact(self):
        for n in (2, 3, 5):
            for total in (0.3, 4.0, 21.0):
                joint = entropy_bound(total, n).per_dim_product
                single = entropy_bound(total / n, 1).per_dim_product
                assert joint == single

    def test_high_entropy_asymptote(self):
        for n in range(1, 5):
            res = entropy_bound(30.0, n)
            target = math.exp(30.0) * (2.0 / math.e) ** n
            assert res.volume / target == pytest.approx(1.0, rel=0.01)

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy_bound(-1.0, 2)

    def test_float_range_edges(self):
        # 2 e^(S-1) passes the float range at S = 710.09: below it a finite
        # bound, above it a domain error, never a raw arithmetic error
        for s_value in np.arange(700.0, 800.0, 0.25).tolist():
            if s_value <= 710.0:
                assert math.isfinite(entropy_bound(s_value, 1).per_dim_product)
            else:
                with pytest.raises(ValueError):
                    entropy_bound(s_value, 1)
        with pytest.raises(ValueError):
            thermal_beta_from_entropy(760.0, 1)
        res = entropy_bound(1000.0, 10)
        assert math.isfinite(res.per_dim_product) and math.isinf(res.volume)

    def test_unmaterializable_spectrum_is_domain_error(self):
        # mean + 40 sigma is inf here; it must hit the cap, not int()
        with pytest.raises(ValueError, match="above the cap"):
            thermal_grouped_spectrum(1e-308, 1)


def brute_cutoff_sum(M, n, r):
    return math.fsum(
        degeneracy(m, n) * (M - m) ** r for m in range(int(math.floor(M)) + 1)
    )


class TestCutoffSums:
    def test_examples(self):
        assert B_exact(2.0, 1, 1.0) == pytest.approx(3.0, rel=1e-14)
        assert B_exact(2.0, 2, 1.0) == pytest.approx(4.0, rel=1e-14)
        assert B_exact(0.0, 3, 2.0) == 0.0

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            r = float(rng.uniform(1.0, 8.0))
            M = float(rng.uniform(0.1, 80.0))
            assert B_exact(M, n, r) == pytest.approx(
                brute_cutoff_sum(M, n, r), rel=1e-11
            )

    def test_branches_agree(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            r = float(rng.uniform(1.0, 10.0))
            M = float(rng.uniform(5.0, 5000.0))
            direct = log_B_exact(M, n, r, branch="direct")
            tail = log_B_exact(M, n, r, branch="tail")
            assert tail == pytest.approx(direct, rel=1e-11, abs=1e-11)

    def test_integer_cutoff_edge(self):
        # at integer M the newest term vanishes; both branches must agree
        for M in (1.0, 2.0, 7.0):
            for n in (1, 2, 3):
                direct = log_B_exact(M, n, 2.5, branch="direct")
                tail = log_B_exact(M, n, 2.5, branch="tail")
                assert tail == pytest.approx(direct, rel=1e-12)

    def test_asymptotic_closed_form(self):
        assert B_asymptotic(10.0, 2, 2.0) == pytest.approx(1e4 / 12.0, rel=1e-13)
        # n = 1 case equals the exact integral of x^r over [0, M]
        for M, r in ((2.0, 1.0), (7.3, 2.5)):
            assert B_asymptotic(M, 1, r) == pytest.approx(
                M ** (r + 1.0) / (r + 1.0), rel=1e-13
            )

    def test_asymptotic_matches_quadrature(self):
        integral, _ = quad(lambda m: m * (10.0 - m) ** 2, 0.0, 10.0)
        assert B_asymptotic(10.0, 2, 2.0) == pytest.approx(integral, rel=1e-11)

    def test_ratio_tends_to_one(self):
        for n in (1, 2, 3):
            for r in (1.5, 3.0, 5.0):
                drifts = [
                    abs(B_exact(M, n, r) / B_asymptotic(M, n, r) - 1.0)
                    for M in (1e2, 1e3, 1e4)
                ]
                assert drifts[0] > drifts[1] > drifts[2]
                assert drifts[2] < 0.01


class TestHolderBracket:
    def test_zero_cutoff_is_floor(self):
        for n in (1, 2, 5):
            assert holder_bracket(0.0, n, 2.0, 0.5) == 1.0

    def test_pure_state_scan_stays_at_floor(self):
        values = [holder_bracket(M, 2, 2.0, 1.0) for M in np.linspace(0.0, 3.0, 61)]
        assert max(values) <= 1.0 + 1e-12

    def test_stationary_point_recovers_one_dim_asymptote(self):
        res = purity_bound(1e-4, 1, PurityOrder.finite(2.0))
        value = holder_bracket(res.aux, 1, 2.0, 1e-4)
        assert value * 1e-4 == pytest.approx(8.0 / 9.0, rel=0.01)

    def test_empty_tail_sum_raises(self):
        # the tail branch cancels to a non-positive sum here; the bracket
        # must not turn that into the unbounded (2M + n)/n
        assert log_B_exact(1.5e6, 12, 100.0, branch="tail") == -math.inf
        with pytest.raises(SolverError):
            holder_bracket(1.5e6, 12, 100.0, 1e-70)

    def test_domain(self):
        with pytest.raises(ValueError):
            holder_bracket(-1.0, 1, 2.0, 0.5)
        with pytest.raises(ValueError):
            holder_bracket(1.0, 1, 1.0, 0.5)
        with pytest.raises(ValueError):
            holder_bracket(1.0, 1, 2.0, 0.0)


class TestPurityBound:
    def test_pure_state_floor(self):
        for n in (1, 2, 4):
            res = purity_bound(1.0, n, PurityOrder.finite(2.0))
            assert res.per_dim_product == pytest.approx(1.0, abs=1e-6)

    def test_one_dim_asymptote_tight(self):
        res = purity_bound(1e-6, 1, PurityOrder.finite(2.0))
        assert 1e-6 * res.per_dim_product == pytest.approx(8.0 / 9.0, rel=1e-3)

    def test_two_dim_r3_asymptote(self):
        res = purity_bound(1e-6, 2, PurityOrder.finite(3.0))
        assert 1e-6 * res.per_dim_product**2 == pytest.approx(
            asymptotic_C(2, 3.0), rel=5e-3
        )

    def test_supremum_over_sampled_cutoffs(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            r = float(rng.uniform(1.3, 6.0))
            mu = float(rng.uniform(0.01, 1.0))
            res = purity_bound(mu, n, PurityOrder.finite(r))
            scale = max(1.0, res.aux)
            cutoffs = np.concatenate([
                rng.uniform(0.0, 2.5 * scale, size=12),
                [0.0, res.aux * 0.5, res.aux, res.aux + 0.25],
            ])
            for M in cutoffs:
                assert holder_bracket(float(M), n, r, mu) <= (
                    res.per_dim_product + 1e-9
                )

    def test_monotone_in_mu(self):
        for n, r in ((1, 2.0), (2, 3.5)):
            values = [
                purity_bound(mu, n, PurityOrder.finite(r)).per_dim_product
                for mu in np.geomspace(1e-4, 1.0, 12)
            ]
            assert np.all(np.diff(values) <= 1e-9)

    def test_extremal_family_reproduces_bound(self):
        # weights g_m (M - m)^(r-1) on m <= M realize the (mu, bound) pair
        rng = np.random.default_rng(41)
        for _ in range(12):
            n = int(rng.integers(1, 4))
            r = float(rng.uniform(1.3, 5.0))
            mu = float(rng.uniform(0.01, 0.9))
            res = purity_bound(mu, n, PurityOrder.finite(r))
            M = res.aux
            m = np.arange(int(math.floor(M)) + 1, dtype=float)
            raw = np.exp(log_degeneracy_array(m, n)) * (M - m) ** (r - 1.0)
            grouped = GroupedSpectrum(n=n, weights=raw / raw.sum())
            family_mu = purity_from_grouped(grouped, PurityOrder.finite(r))
            family_bound = bound_from_grouped(grouped).per_dim_product
            assert family_mu == pytest.approx(mu, rel=1e-6)
            assert family_bound == pytest.approx(res.per_dim_product, rel=1e-6)

    def test_agrees_with_interpolated_within_measured_gap(self):
        # the two r = 2 routes are distinct bounds on the same family; the
        # interpolating form sags up to ~2% between its exact points
        for n in (1, 2, 3):
            for mu in np.geomspace(1e-6, 1.0, 18):
                interp = interpolated_bound_r2(mu, n).per_dim_product
                holder = purity_bound(mu, n, PurityOrder.finite(2.0)).per_dim_product
                assert holder == pytest.approx(interp, rel=0.025)

    def test_optimizer_reaches_supremum_in_few_evaluations(self):
        rng = np.random.default_rng(2024)
        cases = [
            (int(rng.integers(1, 4)), float(np.exp(rng.uniform(np.log(1.5), np.log(10.0)))),
             float(np.exp(rng.uniform(np.log(1e-7), np.log(0.5)))))
            for _ in range(24)
        ]
        # the optimum sits at the M = 1 kink: the root, ~1e-96 above 1, rounds to 1
        cases += [(1, 1.01, 0.9), (2, 1.01, 0.9)]
        for n, r, mu in cases:
            res = purity_bound(mu, n, PurityOrder.finite(r))
            assert res.method == "holder-root"
            assert res.iterations <= 25
            M = res.aux
            cutoffs = np.concatenate([
                M * (1.0 + np.linspace(-1e-3, 1e-3, 21)),
                M + np.linspace(-1.0, 1.0, 17),
                [math.floor(M), math.ceil(M)],
            ])
            best = max(holder_bracket(float(c), n, r, mu) for c in cutoffs if c >= 0.0)
            assert res.per_dim_product >= best * (1.0 - 1e-12)
            if r > 1.01 and M <= 1e5:
                # the returned cutoff solves the family-purity equation
                m = np.arange(math.ceil(M), dtype=float)
                log_w = log_degeneracy_array(m, n) + (r - 1.0) * np.log(M - m)
                w = np.exp(log_w - log_w.max())
                grouped = GroupedSpectrum(n=n, weights=w / w.sum())
                family_mu = purity_from_grouped(grouped, PurityOrder.finite(r))
                assert family_mu == pytest.approx(mu, rel=1e-9)

    def test_tiny_mu_one_dim_reaches_asymptote(self):
        # the optimal cutoff (~0.9/mu) lies far beyond a doubling search from M = 1
        for mu in (1e-61, 1e-70, 1e-200):
            for r in (1.5, 2.0, 10.0):
                res = purity_bound(mu, 1, PurityOrder.finite(r))
                assert res.per_dim_product == pytest.approx(
                    asymptotic_C(1, r) / mu, rel=1e-9
                )

    def test_empty_cutoff_sum_raises(self, monkeypatch):
        import uncbound.bounds as bounds

        monkeypatch.setattr(bounds, "_DIRECT_TERM_LIMIT", 0)
        monkeypatch.setattr(bounds, "_log_B_tail", lambda M, n, r: -math.inf)
        with pytest.raises(SolverError):
            purity_bound(1e-3, 2, PurityOrder.finite(2.0))

    def test_requires_finite_order(self):
        with pytest.raises(ValueError):
            purity_bound(0.5, 1, PurityOrder.entropy())

    def test_floor_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            res = purity_bound(
                float(rng.uniform(0.01, 1.0)),
                int(rng.integers(1, 5)),
                PurityOrder.finite(float(rng.uniform(1.2, 8.0))),
            )
            assert res.per_dim_product >= 1.0 - 1e-12


class TestAsymptoticCutoff:
    def test_family_purity_of_integral_sums(self):
        # with B_r(M) -> M^(n+r)/prod(r+k), the family purity at M* is mu
        for n, r, mu in ((1, 2.0, 1e-3), (2, 3.5, 1e-6), (3, 1.5, 0.2)):
            M = asymptotic_cutoff(mu, n, r)
            log_b_r = math.log(B_asymptotic(M, n, r))
            log_b_lower = (n + r - 1.0) * math.log(M) - math.fsum(
                math.log(r - 1.0 + k) for k in range(1, n + 1)
            )
            log_family_mu = (r - 1.0) * log_b_r - r * log_b_lower
            assert log_family_mu == pytest.approx(math.log(mu), rel=1e-12)

    def test_overflow_is_inf(self):
        assert asymptotic_cutoff(5e-324, 1, 2.0) == math.inf


class TestAsymptoticConstant:
    def test_one_dim_closed_form(self):
        for r in (1.0, 1.5, 2.0, 3.0, 10.0, 100.0):
            assert asymptotic_C(1, r) == pytest.approx(
                2.0 * (r / (r + 1.0)) ** r, rel=1e-12
            )

    def test_usual_purity_family(self):
        for n in range(1, 7):
            closed = (
                2.0 ** (n + 1) * math.factorial(n + 1) / (n + 2.0) ** (n + 1)
            )
            assert asymptotic_C(n, 2.0) == pytest.approx(closed, rel=1e-12)

    def test_nonincreasing_in_r(self):
        for n in (1, 2, 3, 6):
            values = [asymptotic_C(n, r) for r in np.geomspace(1.0, 1e4, 400)]
            assert np.all(np.diff(values) <= 1e-15)

    def test_entropy_limit(self):
        for n in range(1, 7):
            limit = asymptotic_C_entropy_limit(n)
            assert limit == pytest.approx((2.0 / math.e) ** n, rel=1e-15)
            assert asymptotic_C(n, 1e6) == pytest.approx(limit, rel=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            asymptotic_C(1, 0.5)
