import functools
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import uncbound.bounds as bounds
import uncbound.purity as purity
from uncbound.bounds import (
    B_exact,
    holder_bracket,
    log_B_exact,
    purity_bound,
    thermal_grouped_spectrum,
)
from uncbound.closed_forms import (
    B_asymptotic,
    asymptotic_C,
    asymptotic_cutoff,
    asymptotic_entropy_bound,
    asymptotic_purity_bound,
    entropy_bound,
    interpolated_bound_r2,
    thermal_entropy,
)
from uncbound.oracle import (
    OracleConfig,
    appendix_d_identity_check,
    beta_integral_B,
    brute_force_purity_bound,
)
from uncbound.purity import (
    GroupedSpectrum,
    PurityOrder,
    entropy_from_grouped,
    log_degeneracy_array,
    purity_from_grouped,
)
from uncbound.solvers import SolverError
from uncbound.special_fn import degeneracy
from uncbound.spectrum_bound import bound_from_grouped

import eval_counts
import sum_bits
from hurwitz import log_B_ref, purity_bound_ref


class TestParamTypes:
    def test_thermal_and_interp(self):
        with pytest.raises(ValueError):
            thermal_entropy(0.0, 1)


# the grid on which the interpolation root is checked to the solver contract
INTERP_GRID = [(n, 10.0 ** (-7.0 + j / 8.0)) for n in range(1, 7) for j in range(54)]


@functools.lru_cache(maxsize=None)
def mp_interpolated_root(mu, n):
    # the L >= 1 with (n + 2L) (n+1)! Gamma(L) = mu (n+2) Gamma(L+n+1), at 40 digits
    with mpmath.workdps(40):
        def equation(log_L):
            L = mpmath.exp(log_L)
            return (mpmath.log(n + 2 * L) + mpmath.loggamma(n + 2) - mpmath.log(n + 2)
                    + mpmath.loggamma(L) - mpmath.loggamma(L + n + 1) - mpmath.log(mu))

        lo, hi = mpmath.mpf(0), mpmath.mpf(40)  # L up to e^40, ln L to 40/2^64
        for _ in range(64):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if equation(mid) > 0 else (lo, mid)
        return float(mpmath.exp((lo + hi) / 2))


def mp_thermal_entropy(beta, n):
    # n (-ln(1 - e^-beta) + beta e^-beta / (1 - e^-beta)) at 60 digits
    with mpmath.workdps(60):
        b = mpmath.mpf(beta)
        x, u = mpmath.exp(-b), -mpmath.expm1(-b)
        log_u = mpmath.log1p(-x) if x < 0.5 else mpmath.log(u)
        return float(n * (-log_u + b * x / u))


def mp_mean_occupation(S, n):
    # the nbar with (nbar+1) ln(nbar+1) - nbar ln(nbar) = S/n: bisection in
    # y = ln nbar below S/n + 1, then Newton; the two terms cancel about
    # log10(nbar) < S/(2n) digits, so those are added to the 60 working digits
    with mpmath.workdps(60 + int(S / (2 * n))):
        s1 = mpmath.mpf(S) / n

        def f(y):
            nbar = mpmath.exp(y)
            return (nbar + 1) * mpmath.log1p(nbar) - nbar * y - s1

        lo, hi = mpmath.mpf(-700), s1 + 1
        for _ in range(12):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
        y = (lo + hi) / 2
        for _ in range(10):  # dS/dy = nbar ln(1 + 1/nbar) > 0, and S is convex in y
            nbar = mpmath.exp(y)
            y -= f(y) / (nbar * (mpmath.log1p(nbar) - y))
        return mpmath.exp(y)


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
        for n, mu in INTERP_GRID:
            L = interpolated_bound_r2(mu, n).aux
            reference = mp_interpolated_root(mu, n)
            assert L == pytest.approx(reference, rel=1e-12, abs=0.0), (n, mu)

    def test_root_takes_few_evaluations(self):
        # from L* - n/2, Newton steps on the exact slope converge in a few
        bound, grid = eval_counts.CLOSED_FORM_GRIDS["interpolated"]
        for mu, n in grid():
            assert bound(mu, n).iterations <= 6, (n, mu)

    def test_root_takes_a_newton_step_from_one(self):
        # at mu = 0.8, n = 2 the seed L* - n/2 lies below L = 1, so the search
        # starts there, on the slope at L = 1; doubling to L = 2 and closing
        # the bracket took 7 evaluations
        assert interpolated_bound_r2(0.8, 2).iterations <= 4

    def test_root_matches_mpmath_to_rounding(self):
        # Newton steps on the exact slope end within rounding of the root,
        # well inside the solver contract of 1e-12
        bound, grid = eval_counts.CLOSED_FORM_GRIDS["interpolated"]
        for mu, n in grid():
            L = bound(mu, n).aux
            assert L == pytest.approx(mp_interpolated_root(mu, n), rel=1e-14, abs=0.0), (n, mu)

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

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("mu", [1e-61, 1e-100, 1e-300])
    def test_tiny_purity_reaches_the_asymptote(self, mu, n):
        # the root L ~ 4/(3 mu) at n = 1 lies beyond 200 doublings of L = 2
        value = interpolated_bound_r2(mu, n).per_dim_product
        assert value == pytest.approx(asymptotic_purity_bound(mu, n, 2.0), rel=1e-9)

    def test_root_beyond_float_range_is_a_domain_error(self):
        with pytest.raises(ValueError, match="float range"):
            interpolated_bound_r2(5e-324, 1)


class TestThermalFamily:
    def test_geometric_entropy_hand_value(self):
        # theta_k = (1/2)^(k+1) gives S = 2 ln 2; invert it
        beta = entropy_bound(2.0 * math.log(2.0), 1).aux
        assert beta == pytest.approx(math.log(2.0), rel=1e-12)

    def test_entropy_zero_is_vacuum(self):
        assert math.isinf(entropy_bound(0.0, 4).aux)
        assert entropy_bound(0.0, 4).per_dim_product == 1.0

    def test_roundtrip_closed_form(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            target = float(rng.uniform(1e-3, 50.0))
            beta = entropy_bound(target, n).aux
            assert thermal_entropy(beta, n) == pytest.approx(
                target, abs=1e-10
            )
        # tiny entropies: the root e^-beta spans hundreds of decades
        for _ in range(100):
            n = int(rng.integers(1, 7))
            target = 10.0 ** float(rng.uniform(-280.0, -3.0))
            beta = entropy_bound(target, n).aux
            assert thermal_entropy(beta, n) == pytest.approx(target, rel=1e-11, abs=0.0)

    def test_entropy_matches_mpmath(self):
        # the -ln(1 - e^-beta) term must survive once e^-beta < eps
        for beta in np.geomspace(1e-3, 700.0, 400).tolist() + [30.0, 37.0, 40.0, 50.0]:
            for n in (1, 5):
                assert thermal_entropy(beta, n) == pytest.approx(
                    mp_thermal_entropy(beta, n), rel=1e-14, abs=0.0), (beta, n)

    def test_matches_mpmath_root(self):
        # value 2 nbar + 1 and aux ln(1 + 1/nbar) to the solver contract, 1e-12
        # relative, over n <= 64 and S/n up to the float range's 710
        rng = np.random.default_rng(80)
        per_dim = np.concatenate([np.exp(rng.uniform(math.log(1e-280), math.log(710.0), 450)),
                                  rng.uniform(1.0, 710.0, 450)])
        for s1, n in zip(per_dim.tolist(), rng.integers(1, 65, per_dim.size).tolist()):
            res = entropy_bound(s1 * n, n)
            nbar = mp_mean_occupation(s1 * n, n)
            value, beta = 2 * nbar + 1, mpmath.log1p(1 / nbar)
            assert abs(res.per_dim_product - value) <= 1e-12 * value, (s1, n)
            assert abs(res.aux - beta) <= 1e-12 * beta, (s1, n)

    def test_root_takes_few_evaluations(self):
        # the seed inverts the entropy's two limits, and Newton steps on the
        # exact slope converge from it in a few
        for grid in ("thermal", "thermal-wide", "thermal-2ln2"):
            bound, points = eval_counts.CLOSED_FORM_GRIDS[grid]
            for S, n in points():
                assert bound(S, n).iterations <= 8, (grid, S, n)

    def test_root_near_mean_occupation_one(self):
        # at S/n = 2 ln 2 the root nbar is 1, so ln nbar is 0: the steps in
        # ln nbar must not rely on a tolerance relative to it
        for k in range(-40, 41):
            s1 = 2.0 * math.log(2.0) + k * 2e-16
            res = entropy_bound(s1, 1)
            assert res.iterations <= 8, k
            nbar = mp_mean_occupation(s1, 1)
            value, beta = 2 * nbar + 1, mpmath.log1p(1 / nbar)
            assert abs(res.per_dim_product - value) <= 1e-12 * value, k
            assert abs(res.aux - beta) <= 1e-12 * beta, k

    def test_roundtrip_materialized(self):
        rng = np.random.default_rng(78)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            target = float(rng.uniform(1e-3, 8.0 * n))
            beta = entropy_bound(target, n).aux
            grouped = thermal_grouped_spectrum(beta, n)
            assert entropy_from_grouped(grouped) == pytest.approx(target, abs=1e-9)

    @staticmethod
    def largest_materialized_entropy(n):
        # the thermal state's level count grows with S; bisect for the cap
        def fits(target):
            try:
                thermal_grouped_spectrum(entropy_bound(target, n).aux, n)
            except ValueError:
                return False
            return True

        lo, hi = 1.0, 50.0 * n
        assert fits(lo) and not fits(hi)
        for _ in range(24):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if fits(mid) else (lo, mid)
        return lo

    def test_closed_and_grouped_paths_agree(self):
        # the closed form against the materialized thermal state, up to the
        # largest entropy the level cap admits
        rng = np.random.default_rng(79)
        cases = [(1, 5.0), (2, 9.0), (3, 20.0), (4, 30.0)]
        for n in range(1, 7):
            top = self.largest_materialized_entropy(n)
            cases += [(n, top)] + [(n, float(s)) for s in rng.uniform(1e-3, top, 6)]
        for n, target in cases:
            res = entropy_bound(target, n)
            grouped = thermal_grouped_spectrum(res.aux, n)
            other = bound_from_grouped(grouped).per_dim_product
            assert other == pytest.approx(res.per_dim_product, rel=1e-9), (n, target)

    def test_bound_does_not_materialize_the_state(self, monkeypatch):
        def refuse(beta, n):
            raise AssertionError("entropy_bound materialized the thermal state")

        monkeypatch.setattr(bounds, "thermal_grouped_spectrum", refuse)
        for n, target in ((1, 0.5), (3, 20.0), (6, 200.0)):
            assert entropy_bound(target, n).per_dim_product > 1.0

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
        # NaN and inf are domain errors too, not a solver's "no bracket"
        for s_value in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                entropy_bound(s_value, 2)

    def test_float_range_edges(self):
        # 2 e^(S-1) passes the float range at S = 710.09: below it a finite
        # bound, above it a domain error, never a raw arithmetic error
        for s_value in np.arange(700.0, 800.0, 0.25).tolist():
            if s_value <= 710.0:
                assert math.isfinite(entropy_bound(s_value, 1).per_dim_product)
            else:
                with pytest.raises(ValueError):
                    entropy_bound(s_value, 1)
        res = entropy_bound(1000.0, 10)
        assert math.isfinite(res.per_dim_product) and math.isinf(res.volume)

    def test_unmaterializable_spectrum_is_domain_error(self):
        # mean + 40 sigma is inf here; it must hit the cap, not int()
        with pytest.raises(ValueError, match="above the cap"):
            thermal_grouped_spectrum(1e-308, 1)


def test_non_finite_cutoffs_and_orders_are_domain_errors():
    calls = {
        "log_B_exact": lambda M, r: log_B_exact(M, 1, r),
        "B_exact": lambda M, r: B_exact(M, 1, r),
        "holder_bracket": lambda M, r: holder_bracket(M, 1, r, 0.5),
        "B_asymptotic": lambda M, r: B_asymptotic(M, 1, r),
        "beta_integral_B": lambda M, r: beta_integral_B(M, 1, r),
    }
    for name, call in calls.items():
        for bad in (math.nan, math.inf, -math.inf):
            for M, r in ((bad, 2.0), (10.0, bad), (1e5, bad)):
                with pytest.raises(ValueError):
                    call(M, r)
        with pytest.raises(ValueError, match="must be finite, got inf"):
            call(math.inf, 2.0)
        with pytest.raises(ValueError, match="must be finite, got inf"):
            call(10.0, math.inf)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            appendix_d_identity_check(2, bad)
    # every function that takes mu, a finite r or M checks it the same way
    takes_mu = {
        "holder_bracket": lambda mu, r: holder_bracket(1.0, 1, r, mu),
        "asymptotic_cutoff": lambda mu, r: asymptotic_cutoff(mu, 1, r),
        "asymptotic_purity_bound": lambda mu, r: asymptotic_purity_bound(mu, 1, r),
        "brute_force_purity_bound":
            lambda mu, r: brute_force_purity_bound(mu, 1, r, OracleConfig()),
    }
    for name, call in takes_mu.items():
        for mu in (math.nan, math.inf, -math.inf, 0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match=rf"^mu must be in \(0, 1\], got {mu}$"):
                call(mu, 2.0)
    finite_r = {
        ">= 1": [lambda r: asymptotic_cutoff(0.5, 1, r),
                 lambda r: appendix_d_identity_check(2, r)],
        "> 1": [lambda r: brute_force_purity_bound(0.5, 1, r, OracleConfig())],
    }
    for low, calls in finite_r.items():
        for call in calls:
            with pytest.raises(ValueError, match=r"^exponent r must be finite, got inf$"):
                call(math.inf)
            for r in (math.nan, -math.inf, 0.5) + ((1.0,) if low == "> 1" else ()):
                with pytest.raises(ValueError, match=rf"^exponent r must be {low}, got"):
                    call(r)
    cutoffs = {
        ">= 0": [lambda M: log_B_exact(M, 1, 2.0), lambda M: holder_bracket(M, 1, 2.0, 0.5)],
        "> 0": [lambda M: B_asymptotic(M, 1, 2.0), lambda M: beta_integral_B(M, 1, 2.0)],
    }
    for low, calls in cutoffs.items():
        for call in calls:
            with pytest.raises(ValueError, match=r"^cutoff M must be finite, got inf$"):
                call(math.inf)
            for M in (math.nan, -math.inf, -1.0) + ((0.0,) if low == "> 0" else ()):
                with pytest.raises(ValueError, match=rf"^cutoff M must be {low}, got"):
                    call(M)
    # the messages of inputs rejected before stay as they were
    with pytest.raises(ValueError, match=r"^cutoff M must be >= 0, got nan$"):
        log_B_exact(math.nan, 1, 2.0)
    with pytest.raises(ValueError, match=r"^exponent r must be > 1, got -inf$"):
        holder_bracket(1.0, 1, -math.inf, 0.5)
    assert asymptotic_C(2, math.inf) == (2.0 / math.e) ** 2  # the entropy member


def brute_cutoff_sum(M, n, r):
    return math.fsum(
        degeneracy(m, n) * (M - m) ** r for m in range(int(math.floor(M)) + 1)
    )


@pytest.fixture
def level_table_restored(monkeypatch):
    # direct sums at large M grow the shared level table to millions of
    # levels per n; put it back after the test so they do not stay cached
    monkeypatch.setattr(purity, "_LOG_G", dict(purity._LOG_G))
    monkeypatch.setattr(purity, "_LEVELS", purity._LEVELS)


@pytest.fixture
def pair_both_ways(monkeypatch, level_table_restored):
    # _log_B_pair from the direct sums and from the tail; the ln g array the
    # direct sums grew is dropped at once, so one test holds one at a time
    def both(M, n, r):
        monkeypatch.setattr(bounds, "_DIRECT_TERM_LIMIT", math.inf)
        direct = bounds._log_B_pair(M, n, r)
        del purity._LOG_G[n]
        monkeypatch.setattr(bounds, "_DIRECT_TERM_LIMIT", 0.0)
        return direct, bounds._log_B_pair(M, n, r)
    return both


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

    def test_branches_agree(self, pair_both_ways):
        rng = np.random.default_rng(18)
        for _ in range(24):
            n = int(rng.integers(1, 65))
            r = float(rng.uniform(1.01, 100.0))
            M = float(np.exp(rng.uniform(np.log(4.0 * 1024), np.log(3e6))))
            direct, tail = pair_both_ways(M, n, r)
            assert tail == pytest.approx(direct, rel=1e-13), (M, n, r)

    def test_branches_agree_at_large_orders(self, pair_both_ways):
        # from r ~ 100 on, the tail drops negligible panels and splits steep ones
        rng = np.random.default_rng(19)
        for _ in range(40):
            n = int(rng.integers(1, 65))
            r = float(np.exp(rng.uniform(np.log(100.0), np.log(1e6))))
            M = float(np.exp(rng.uniform(np.log(4.0 * 1024), np.log(2e5))))
            direct, tail = pair_both_ways(M, n, r)
            assert tail == pytest.approx(direct, rel=1e-13), (M, n, r)

    def test_integer_cutoff_edge(self, pair_both_ways):
        # at integer M the level m = M carries (M - m)^r = 0 and is left out
        for M in (5e3, 2e4, 2e5, 1e6):
            for n in (1, 2, 3):
                for r in (2.5, 1.5):
                    direct, tail = pair_both_ways(M, n, r)
                    assert tail == pytest.approx(direct, rel=1e-14)

    def test_sums_keep_their_bits(self):
        # float.hex of the scaled pair (ln(B_r/M^r), ln(B_{r-1}/M^(r-1))) on
        # both branches, recorded when the sums came out scaled by M^s; a
        # kernel change that moves a bit fails here
        pinned, moved = sum_bits.moved_rows("cutoff_sum_bits.json")
        assert len(pinned["rows"]) == 144
        assert not moved, (f"{len(moved)} rows moved, first {moved[:3]}; recorded on "
                           f"{pinned['environment']}, running on {sum_bits.environment()}")

    def test_tail_keeps_its_bits_at_large_orders(self):
        # float.hex of the scaled tail pair at n <= 64, r in [100, 1e7] and M
        # in [4096, 1e12], where every row drops panels and a third split one
        pinned, moved = sum_bits.moved_rows("tail_sum_bits.json", lambda M, n, r: r > 100.0)
        assert len(pinned["rows"]) == 64
        assert not moved, (f"{len(moved)} rows moved, first {moved[:3]}; recorded on "
                           f"{pinned['environment']}, running on {sum_bits.environment()}")

    def test_tail_keeps_its_bits_where_no_panel_splits(self):
        # the same at n in {1, 2, 3, 6, 32, 64}, r in [1.05, 100] and M from
        # 4096 to 1e300, with cutoffs within 1e-9 of an integer and above 2^53
        pinned, moved = sum_bits.moved_rows("tail_sum_bits.json", lambda M, n, r: r <= 100.0)
        assert len(pinned["rows"]) == 60
        assert not moved, (f"{len(moved)} rows moved, first {moved[:3]}; recorded on "
                           f"{pinned['environment']}, running on {sum_bits.environment()}")

    def test_end_weights_match_their_formula(self):
        # ln(1/2 -+ (F'/12 - F'''/720)/F) at the middle's bottom level m = 1024
        # (-) and top level u = f + 1024 (+), F(m) = g(m) ((M - m)/M)^s with
        # its derivatives taken by mpmath; a level with |F'/F| >= 1 gets ln 0
        rng = np.random.default_rng(64)
        cases = []
        for i in range(24):
            s = rng.uniform(-1.0, 2.0, 3) if i % 2 else np.exp(rng.uniform(0.0, np.log(1e3), 3))
            M = float(np.exp(rng.uniform(np.log(4096.0), np.log(1e12))))
            cases.append((M, int(rng.integers(1, 65)), tuple(s.tolist())))
        cases += [(5e4 + 0.3, 1, (2000.0, 1024.5)), (1e9, 64, (3000.0, 998.7))]  # steep tops
        steep = 0
        for M, n, orders in cases:
            f = (M - math.ceil(M)) + 1.0
            got = bounds._log_end_weights(M, f, n, orders)
            for s, pair in zip(orders, got):
                def F(m, s=s, n=n, M=M):
                    log_g = mpmath.fsum(mpmath.log((m + j) / j) for j in range(1, n))
                    return mpmath.exp(log_g + s * mpmath.log((M - m) / M))
                for w, m, sign in zip(pair, (1024.0, M - f - 1024.0), (-1, 1)):
                    with mpmath.workdps(60):
                        m = mpmath.mpf(m)
                        d1 = mpmath.diff(F, m, 1) / F(m)
                        d3 = mpmath.diff(F, m, 3) / F(m)
                        if abs(d1) >= 1:
                            steep += 1
                            assert w == -math.inf, (M, n, s, m)
                        else:
                            exact = float(mpmath.log(mpmath.mpf(1) / 2 + sign * (d1 / 12 - d3 / 720)))
                            assert w == pytest.approx(exact, rel=0.0, abs=1e-12), (M, n, s, m)
        assert steep == 3

    @pytest.mark.parametrize("log_b", [709.2, 709.7, 710.2])
    def test_values_near_the_float_limit(self, log_b):
        # n = 1, r = 2: B ~ M^3/3; ln of the largest float is 709.78
        M = math.exp((log_b + math.log(3.0)) / 3.0)
        expected = math.exp(log_b) if log_b < 709.78 else math.inf
        assert B_exact(M, 1, 2.0) == pytest.approx(expected, rel=1e-9)
        assert B_asymptotic(M, 1, 2.0) == pytest.approx(expected, rel=1e-9)

    def test_tail_needs_separate_end_blocks(self):
        with pytest.raises(ValueError):
            bounds._log_B_tail(4095.0, 2, (2.0,))

    def test_tail_past_the_panel_cap_raises(self, monkeypatch):
        # about 58 ratio-2 panels carry weight at M = 1e12
        monkeypatch.setattr(bounds, "_MAX_PANELS", 8)
        with pytest.raises(SolverError, match="quadrature panels"):
            bounds._log_B_tail(1e12, 3, (2.5, 1.5))

    @pytest.mark.parametrize("n, r, M", [
        (6, 1.01, 1e8 + 0.37), (6, 10.0, 4096.0), (12, 2.0, 3.3e5),
        (12, 100.0, 1.5e6), (24, 10.0, 1e7 + 0.5), (64, 2.0, 2.5e4),
        (64, 100.0, 1e8),
    ])
    def test_tail_matches_hurwitz_zeta(self, n, r, M):
        # the scaled tail pair against the exact sum, less s ln M in mpmath
        tail = bounds._log_B_tail(M, n, (r, r - 1.0))
        for got, s in zip(tail, (r, r - 1.0)):
            with mpmath.workdps(60):
                exact = log_B_ref(M, n, s) - s * mpmath.log(M)
            assert got == pytest.approx(float(exact), rel=1e-13)

    def test_order_r_minus_two_matches_hurwitz_zeta(self):
        # the third sum, of order r - 2 (in (-1, 0) for r < 2), against the
        # exact one; half the draws have r < 2.  The tail takes every u = M - m
        # exactly.  The direct sum forms u/M as 1 - m/M from a rounded m/M, an
        # absolute error of about eps, so its top level, u = f, is off by up to
        # eps M/f relative: at (M, n, r) = (15000.01, 2, 1.1) that is 4.9e-12
        rng = np.random.default_rng(62)
        for branch in ("direct", "tail"):
            for i in range(8):
                n = int(rng.integers(1, 65))
                r = float(rng.uniform(1.01, 2.0) if i % 2 else rng.uniform(2.0, 50.0))
                if branch == "direct":
                    M = float(rng.integers(1, 1500)) + float(rng.uniform(0.01, 0.99))
                    tol = 4.0 * sys.float_info.epsilon * M / (M - math.floor(M))
                else:
                    M = float(np.exp(rng.uniform(np.log(3e4), np.log(1e9))))
                    tol = 0.0
                assert (M > bounds._DIRECT_TERM_LIMIT) == (branch == "tail")
                got = bounds._log_B_pair(M, n, r)[2]
                with mpmath.workdps(60):
                    exact = float(log_B_ref(M, n, r - 2.0) - (r - 2.0) * mpmath.log(M))
                assert got == pytest.approx(exact, rel=1e-13, abs=tol), (M, n, r)

    def test_orders_near_the_float_max_do_not_warn(self):
        # (r - 1) log1p(-m/M) and s ln(u/M) overflow there: the direct sum
        # keeps only its m = 0 term, and the tail refuses the order
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_B_exact(10.5, 1, 1e308) == math.inf  # 1e308 ln 10.5
            assert log_B_exact(10.5, 1, 1e307) == pytest.approx(1e307 * math.log(10.5),
                                                                rel=1e-15)
            assert bounds._log_B_pair(10.5, 1, 1e308) == [0.0, 0.0, 0.0]
            assert holder_bracket(10.5, 1, 1e308, 0.5) == 1.0
            with pytest.raises(SolverError, match="past the float range"):
                holder_bracket(1e5, 1, 1e308, 0.5)
            with pytest.raises(SolverError, match="past the float range"):
                log_B_exact(1e5, 1, 1e308)

    def test_one_dim_tail_beyond_integer_levels(self):
        # above 2^53 the levels are not listable; sum_u (u/M)^s -> M/(s+1)
        for M in (1e20, 1e100, 1e200):
            for r in (1.01, 2.0, 10.0, 100.0):
                tail = bounds._log_B_tail(M, 1, (r, r - 1.0))
                for got, s in zip(tail, (r, r - 1.0)):
                    expected = math.log(M) - math.log(s + 1.0)
                    assert got == pytest.approx(expected, rel=1e-13)

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

    @pytest.mark.parametrize("n,s", [(1, 3.0), (2, 2.0), (3, 2.5), (6, 7.0)])
    def test_second_order_expansion(self, n, s):
        # B_s(M) = Gamma(s+1)/Gamma(s+n+1) L^(s+n) (1 - n(s+n)(s+n-1)/(24 L^2)
        # + O(L^-4)), L = M + n/2, from the Laplace kernel's ((t/2)/sinh(t/2))^n;
        # the pole terms, relative size M^(-s-1), stay below 1% here
        expected = -n * (s + n) * (s + n - 1.0) / 24.0
        for M in (1000.37, 3e4 + 0.37, 6e4 + 0.61, 1e5 - 0.29):  # direct, then tail
            L = M + 0.5 * n
            rest = (log_B_exact(M, n, s) - math.lgamma(s + 1.0)
                    + math.lgamma(s + n + 1.0) - (s + n) * math.log(L))
            assert L * L * rest == pytest.approx(expected, rel=0.01), M


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

    def test_empty_tail_sum_raises(self, monkeypatch):
        # a tail sum that comes out zero must not turn into the unbounded
        # (2M + n)/n
        monkeypatch.setattr(bounds, "_log_B_tail",
                            lambda M, n, orders: [-math.inf] * len(orders))
        with pytest.raises(SolverError):
            log_B_exact(1.5e6, 12, 100.0)
        with pytest.raises(SolverError):
            holder_bracket(1.5e6, 12, 100.0, 1e-70)

    def test_domain(self):
        with pytest.raises(ValueError):
            holder_bracket(-1.0, 1, 2.0, 0.5)
        with pytest.raises(ValueError):
            holder_bracket(1.0, 1, 1.0, 0.5)
        with pytest.raises(ValueError):
            holder_bracket(1.0, 1, 2.0, 0.0)

    @pytest.mark.parametrize("M, n, r, mu", [
        (1e300, 1, 2.0, 0.5), (1e200, 3, 2.0, 1e-3),  # below the float range
        (1e308, 1, 1000.0, 1e-300),  # 2M and 2 [mu B]^(1/r) both overflow
        (1.74e15, 64, 3.0, 0.5),  # [mu B]^(1/r) overflows, its 2/n-th does not
        (1.7e308, 1, 1.0001, 5e-324),  # above the float range
    ])
    def test_near_the_float_range(self, M, n, r, mu):
        # the bracket 1 - (2M/n) expm1((ln mu + ln(B_r/M^r))/r) from the same
        # scaled sum, in 50 digits
        with mpmath.workdps(50):
            log_term = (mpmath.log(mu) + mpmath.mpf(bounds._log_B_pair(M, n, r)[0])) / r
            exact = 1 - 2 * mpmath.mpf(M) / n * mpmath.expm1(log_term)
        value = holder_bracket(M, n, r, mu)
        if abs(exact) > sys.float_info.max:
            assert value == math.copysign(math.inf, exact)
        else:
            assert value == pytest.approx(float(exact), rel=1e-9)


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
            assert family_mu == pytest.approx(mu, rel=1e-12)
            assert family_bound == pytest.approx(res.per_dim_product, rel=1e-12)

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

    def test_evaluation_budget(self):
        # tests/eval_counts.py's grid shaped like the purity-sweep benchmark
        # pool, where the doubling bracket from M* took 6.9 evaluations per
        # point (max 22 here), Brent's method run to its bracket width alone
        # 4.84 (tail 2.69), the first-order seed M* - n/2 4.04 (tail 1.99),
        # one Newton step on the slope estimate n/r 3.39 (tail 1.20), and
        # Newton steps on the exact slope, then Brent's method, 2.49 (max 16)
        evals, tail = [], []
        for res in eval_counts.results(eval_counts.budget()):
            evals.append(res.iterations)
            if res.aux > bounds._DIRECT_TERM_LIMIT:
                tail.append(res.iterations)
        assert np.mean(evals) <= 2.6
        # the costliest roots sit just above an integer cutoff, where a new
        # level enters h with an infinite slope and the search bisects
        assert max(evals) <= 15
        # the second-order seed of a tail cutoff mostly solves h to 1e-12/r
        assert len(tail) >= 50 and np.mean(tail) <= 1.2

    def test_large_n_evaluation_budget(self):
        # at n in {12, 32, 64} every root lies at a small cutoff, far above
        # the seed, so the search doubles from M = 1: one Newton step on the
        # slope estimate n/r took 8.46 evaluations per point here, and Newton
        # steps on the exact slope, then halving and Brent's method, 6.47
        found = eval_counts.results(eval_counts.GRIDS["large-n"]())
        assert np.mean([res.iterations for res in found]) <= 6.0

    def test_slope_of_h_matches_mpmath(self):
        # dh/d(ln M) = (r-1) e^(sB_{r-1} - sB_r) expm1(sB_{r-2} - 2 sB_{r-1} + sB_r)
        # from the three scaled sums, against a central difference of the
        # 40-digit h over a relative step of 1e-9, which stays between two
        # integer cutoffs; Jensen's inequality makes it positive.  n is drawn
        # log-uniform: the exact tail sums take seconds at n ~ 64
        rng = np.random.default_rng(63)
        for i in range(10):
            n = int(np.exp(rng.uniform(0.0, np.log(65.0))))
            r = float(np.exp(rng.uniform(np.log(1.05), np.log(2.0) if i % 4 < 2 else np.log(50.0))))
            if i % 2:
                M = float(np.exp(rng.uniform(np.log(3e4), np.log(1e6))))
            else:
                M = float(rng.integers(1, 800)) + float(rng.uniform(0.05, 0.95))
            slope = bounds._slope_of_h(r, bounds._log_B_pair(M, n, r))
            with mpmath.workdps(60):
                ends = [M * (1.0 - 1e-9), M * (1.0 + 1e-9)]
                h = [log_B_ref(x, n, r - 1.0) - (r - 1.0) / mpmath.mpf(r) * log_B_ref(x, n, r)
                     for x in ends]
                exact = (h[1] - h[0]) / (mpmath.log(ends[1]) - mpmath.log(ends[0]))
            assert slope > 0.0
            assert slope == pytest.approx(float(exact), rel=1e-8), (M, n, r)

    def test_matches_mpmath_reference(self):
        # pool-like points against the 40-digit bound of tests/hurwitz.py;
        # the direct ones keep M* <= 5e3, where the mpmath sums stay fast
        rng = np.random.default_rng(12)
        direct, tail = [], []
        while len(direct) < 10 or len(tail) < 2:
            n = int(rng.integers(1, 4))
            r = float(np.exp(rng.uniform(np.log(1.5), np.log(10.0))))
            mu = float(np.exp(rng.uniform(np.log(1e-7), np.log(0.5))))
            star = asymptotic_cutoff(mu, n, r)
            if star > bounds._DIRECT_TERM_LIMIT and len(tail) < 2:
                tail.append((mu, n, r))
            elif star <= 5e3 and len(direct) < 10:
                direct.append((mu, n, r))
        for mu, n, r in direct + tail:
            value, cutoff = purity_bound_ref(mu, n, r)
            res = purity_bound(mu, n, PurityOrder.finite(r))
            assert res.per_dim_product == pytest.approx(float(value), rel=5e-14), (mu, n, r)
            assert res.aux == pytest.approx(cutoff, rel=1e-6)
            assert (res.aux > bounds._DIRECT_TERM_LIMIT) == ((mu, n, r) in tail)

    def test_seed_is_second_order(self):
        # B_r(M) = K (M + n/2)^(n+r) (1 + O(M^-2)) moves the root to M* - n/2,
        # and the M^-2 term on to M* - n/2 - (r+n-1)(r-n)/(24 M*); from r = 3
        # on the pole terms, of relative size M^-r, are below what is left
        rng = np.random.default_rng(9)
        checked = second = 0
        for _ in range(1500):
            n = int(rng.integers(1, 7))
            r = float(np.exp(rng.uniform(np.log(1.5), np.log(10.0))))
            mu = float(10.0 ** rng.uniform(-30.0, math.log10(0.5)))
            M = purity_bound(mu, n, PurityOrder.finite(r)).aux
            star = asymptotic_cutoff(mu, n, r)
            if M >= 20.0 and abs(star - M) > 1e-9 * M:
                checked += 1
                first = star - 0.5 * n - M
                assert 5.0 * abs(first) <= abs(star - M), (n, r, mu)
                if r >= 3.0 and M >= 100.0 and abs(first) > 1e-9 * M:
                    second += 1
                    shift = (r + n - 1.0) * (r - n) / (24.0 * star)
                    assert 5.0 * abs(first - shift) <= abs(first), (n, r, mu)
        assert checked >= 800 and second >= 200

    def test_tiny_mu_one_dim_reaches_asymptote(self):
        # the optimal cutoff (~0.9/mu) lies far beyond a doubling search from M = 1
        for mu in (1e-61, 1e-70, 1e-200):
            for r in (1.5, 2.0, 10.0):
                res = purity_bound(mu, 1, PurityOrder.finite(r))
                assert res.per_dim_product == pytest.approx(
                    asymptotic_C(1, r) / mu, rel=1e-9
                )

    def test_empty_cutoff_sum_raises(self, monkeypatch):
        monkeypatch.setattr(bounds, "_DIRECT_TERM_LIMIT", 0)
        monkeypatch.setattr(bounds, "_log_B_tail",
                            lambda M, n, orders: [-math.inf] * len(orders))
        with pytest.raises(SolverError):
            purity_bound(1e-3, 2, PurityOrder.finite(2.0))

    def test_large_cutoff_is_not_overstated(self, monkeypatch, level_table_restored):
        # a tail whose terms cancel put this bound 5.6e-7 above the direct sums
        mu, n, r = 1e-60, 12, 10.0
        res = purity_bound(mu, n, PurityOrder.finite(r))
        monkeypatch.setattr(bounds, "_DIRECT_TERM_LIMIT", math.inf)
        best = max(holder_bracket(res.aux * (1.0 + d), n, r, mu) for d in (-1e-4, 0.0, 1e-4))
        assert res.per_dim_product <= best * (1.0 + 1e-13)

    @pytest.mark.parametrize("mu, n, r, expected", [
        (1e-140, 24, 10.0, 514084.9958), (1e-70, 12, 100.0, 503635.537),
        (1e-12, 3, 100.0, 7393.865375433),
    ])
    def test_large_cutoff_reaches_direct_optimum(self, mu, n, r, expected):
        # the direct-sum optima; a tail whose terms cancel ends the first two in exit 3
        res = purity_bound(mu, n, PurityOrder.finite(r))
        assert res.per_dim_product == pytest.approx(expected, rel=1e-9)

    def test_order_ends(self):
        # r = 1 has no bound yet; r = inf is the entropy bound at S = -ln mu
        with pytest.raises(ValueError, match="superpurity"):
            purity_bound(0.5, 1, PurityOrder.superpurity())
        for mu, n in ((1.0, 1), (0.5, 1), (0.01, 2), (1e-12, 6), (5e-324, 64)):
            res = purity_bound(mu, n, PurityOrder.entropy())
            assert res == entropy_bound(-math.log(mu), n)

    @pytest.mark.parametrize("r", [1e16, 1e17, 1e20, 1e50, 1e308])
    def test_order_whose_r_minus_one_rounds_to_r_raises(self, r):
        # B_r and B_{r-1} would be one sum, and the bound the floor 1
        with pytest.raises(SolverError, match="r - 1 rounds to r"):
            purity_bound(0.5, 1, PurityOrder.finite(r))

    def test_bracket_at_the_cutoff_is_the_bound(self):
        # purity_bound and holder_bracket share the cutoff sums, so wherever
        # the floor is not hit the bracket at the cutoff is the bound, bit for bit
        rng = np.random.default_rng(56)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(1, 13))
            r = float(np.exp(rng.uniform(np.log(1.05), np.log(50.0))))
            mu = float(np.exp(rng.uniform(np.log(1e-40), 0.0)))
            res = purity_bound(mu, n, PurityOrder.finite(r))
            if res.per_dim_product > 1.0:
                checked += 1
                assert holder_bracket(res.aux, n, r, mu) == res.per_dim_product, (mu, n, r)
        assert checked >= 150

    def test_sandwich_between_orders_and_the_entropy_floor(self):
        # mu^(r) = e^(-S_p) with p = r/(r-1), and S_p cannot rise with p, so
        # at fixed mu the bound cannot rise with r nor fall below the r = inf
        # entropy bound; unscaled cutoff sums broke both from r ~ 3e5 on
        rng = np.random.default_rng(88)
        solved = 0
        for _ in range(200):
            n = int(rng.integers(1, 65))
            mu = float(10.0 ** rng.uniform(-300.0, 0.0))
            r1, r2 = np.sort(np.exp(rng.uniform(math.log(1.05), math.log(1e9), 2))).tolist()
            try:
                at_r1, at_r2 = (purity_bound(mu, n, PurityOrder.finite(r)).per_dim_product
                                for r in (r1, r2))
            except SolverError:
                continue
            solved += 1
            assert at_r1 >= at_r2 * (1.0 - 1e-12), (n, mu, r1, r2)
            floor = entropy_bound(-math.log(mu), n).per_dim_product
            assert at_r2 >= floor * (1.0 - 1e-12), (n, mu, r1, r2)
        assert solved >= 190

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

    @pytest.mark.parametrize("mu, r", [
        (0.0, 3.0), (-1.0, 3.0), (1.5, 3.0), (math.nan, 3.0),
        (1e-3, math.inf), (1e-3, math.nan), (1e-3, 0.5),
    ])
    def test_outside_domain_raises(self, mu, r):
        # mu = -1 gave a complex number, mu = 0 a ZeroDivisionError
        with pytest.raises(ValueError):
            asymptotic_cutoff(mu, 2, r)


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
        for n in range(1, 65):
            limit = asymptotic_C(n, math.inf)
            assert limit == (2.0 / math.e) ** n
            if n <= 6:
                assert asymptotic_C(n, 1e6) == pytest.approx(limit, rel=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            asymptotic_C(1, 0.5)


class TestAsymptoticBounds:
    def test_purity_closed_form(self):
        for n, r, mu in ((1, 2.0, 1e-6), (3, 4.5, 1e-3), (2, 1.0, 0.5), (64, 10.0, 1e-300)):
            expected = (asymptotic_C(n, r) / mu) ** (1.0 / n)
            assert asymptotic_purity_bound(mu, n, r) == pytest.approx(expected, rel=1e-15)

    def test_purity_may_fall_below_the_floor(self):
        # a float, not a BoundResult: at mu = 1 it is C^(1/n) < 1
        assert asymptotic_purity_bound(1.0, 1, 2.0) == pytest.approx(8.0 / 9.0, rel=1e-15)

    def test_purity_is_the_small_mu_limit(self):
        for n in (1, 2, 3):
            exact = purity_bound(1e-12, n, PurityOrder.finite(2.0)).per_dim_product
            assert exact == pytest.approx(asymptotic_purity_bound(1e-12, n, 2.0), rel=1e-8)

    def test_purity_sits_below_the_exact_bound(self):
        # B_r(M) <= K (M + n/2)^(n+r) makes the closed form a bound for every mu
        rng = np.random.default_rng(11)
        for _ in range(600):
            n = int(rng.integers(1, 13))
            r = float(np.exp(rng.uniform(np.log(1.05), np.log(50.0))))
            mu = float(10.0 ** rng.uniform(-40.0, 0.0))
            exact = purity_bound(mu, n, PurityOrder.finite(r)).per_dim_product
            assert asymptotic_purity_bound(mu, n, r) <= exact * (1.0 + 1e-12), (n, r, mu)

    def test_purity_beyond_float_range(self):
        with pytest.raises(ValueError, match="beyond the float range"):
            asymptotic_purity_bound(1e-310, 1, 2.0)
        # C/mu overflows, but its square root does not
        assert asymptotic_purity_bound(1e-310, 2, 2.0) == pytest.approx(
            math.sqrt(asymptotic_C(2, 2.0)) * 1e155, rel=1e-13
        )

    @pytest.mark.parametrize("mu, n, r", [
        (0.0, 1, 2.0), (-0.5, 1, 2.0), (1.5, 1, 2.0), (math.nan, 1, 2.0),
        (0.5, 0, 2.0), (0.5, 65, 2.0), (0.5, 1, 0.5),
    ])
    def test_purity_domain(self, mu, n, r):
        with pytest.raises(ValueError):
            asymptotic_purity_bound(mu, n, r)

    def test_entropy_closed_form(self):
        assert asymptotic_entropy_bound(0.0, 1) == pytest.approx(2.0 / math.e, rel=1e-15)
        for n, S in ((1, 5.0), (3, 30.0), (64, 1e3)):
            expected = math.exp(S / n) * 2.0 / math.e
            assert asymptotic_entropy_bound(S, n) == pytest.approx(expected, rel=1e-15)

    def test_entropy_is_the_large_s_limit(self):
        for n in (1, 2, 3):
            exact = entropy_bound(20.0 * n, n).per_dim_product
            assert exact == pytest.approx(asymptotic_entropy_bound(20.0 * n, n), rel=1e-12)

    @pytest.mark.parametrize("S, n", [
        (-1.0, 1), (1.0, 0), (800.0, 1), (710.0, 1), (math.inf, 2), (math.nan, 1),
    ])
    def test_entropy_domain(self, S, n):
        with pytest.raises(ValueError):
            asymptotic_entropy_bound(S, n)
