import numpy as np
import pytest

from uncbound.bounds import B_asymptotic, purity_bound
from uncbound.oracle import (
    MAX_TRUNCATION,
    OracleConfig,
    appendix_d_identity_check,
    beta_integral_B,
    brute_force_purity_bound,
    lemma_trial,
    lemma_trial_multidim,
    project_to_simplex,
    random_nonincreasing_probabilities,
    random_unitary,
    suggest_truncation,
)
from uncbound.purity import PurityOrder
from uncbound.solvers import SolverError
from uncbound.special_fn import degeneracy, log_degeneracy_array

from quadrature import quadrature_B


class TestRandomDraws:
    def test_unitary_is_unitary(self):
        rng = np.random.default_rng(4)
        for dim in (2, 7, 30):
            u = random_unitary(dim, rng)
            np.testing.assert_allclose(
                u @ u.conj().T, np.eye(dim), atol=1e-12
            )

    def test_unitary_deterministic_per_seed(self):
        first = random_unitary(8, np.random.default_rng(11))
        second = random_unitary(8, np.random.default_rng(11))
        np.testing.assert_array_equal(first, second)

    def test_probability_draw(self):
        rng = np.random.default_rng(5)
        probs = random_nonincreasing_probabilities(20, rng)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(probs) <= 0.0)


class TestLemmaTrials:
    def test_identity_margin_is_exactly_zero(self):
        cfg = OracleConfig(seed=9)
        assert lemma_trial(30, cfg, identity=True) == 0.0

    def test_seeded_stream(self):
        cfg = OracleConfig(seed=42)
        margins = [lemma_trial(30, cfg, trial=t) for t in range(1000)]
        assert min(margins) >= -1e-10

    def test_trials_are_order_independent(self):
        cfg = OracleConfig(seed=6)
        direct = lemma_trial(12, cfg, trial=37)
        assert lemma_trial(12, cfg, trial=37) == direct

    def test_multidim_degenerate_energies(self):
        cfg = OracleConfig(seed=3)
        for trial in range(100):
            assert lemma_trial_multidim(2, 5, cfg, trial=trial) >= -1e-10

    def test_multidim_size_matches_level_count(self):
        cfg = OracleConfig(seed=0)
        margin = lemma_trial_multidim(2, 5, cfg, identity=True)
        total_states = sum(degeneracy(k, 2) for k in range(6))
        assert total_states == 21
        assert margin == 0.0

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            lemma_trial(1, OracleConfig())


def _reference_projection(v):
    """The sort-based projection as first written, kept verbatim as a
    bit-for-bit reference for the leaner implementation."""
    v = np.asarray(v, dtype=float)
    ordered = np.sort(v)[::-1]
    shifted = np.cumsum(ordered) - 1.0
    ranks = np.arange(1, v.size + 1)
    active = ordered - shifted / ranks > 0
    pivot = ranks[active][-1]
    threshold = shifted[pivot - 1] / pivot
    return np.maximum(v - threshold, 0.0)


def _seeded_vectors(count=200):
    rng = np.random.default_rng(20040)
    for k in range(count):
        size = (1, 2000)[k] if k < 2 else int(rng.integers(1, 2001))
        kind = k % 5
        if kind == 0:  # mixed signs over a range of scales
            v = rng.normal(scale=10.0 ** rng.uniform(-3, 2), size=size)
        elif kind == 1:  # heavy ties
            v = rng.integers(-3, 4, size=size) * 0.25
        elif kind == 2:  # already on the simplex
            v = rng.dirichlet(np.ones(size))
        elif kind == 3:  # all negative
            v = -rng.exponential(size=size)
        else:  # a descent step: sparse weights minus a scaled gradient
            v = np.where(rng.random(size) < 0.2, rng.random(size), 0.0)
            v /= max(v.sum(), 1.0)
            v -= 10.0 ** rng.uniform(-6, 1) * rng.normal(size=size)
        yield v


class TestSimplexProjection:
    def test_bit_identical_to_reference(self):
        for v in _seeded_vectors():
            assert np.array_equal(project_to_simplex(v), _reference_projection(v))

    def test_empty_vector_is_a_value_error(self):
        with pytest.raises(ValueError, match="empty"):
            project_to_simplex(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_a_value_error(self, bad):
        with pytest.raises(ValueError, match="NaN or inf"):
            project_to_simplex(np.array([0.3, bad, 0.1]))

    def test_unresolvable_magnitude_is_a_value_error(self):
        with pytest.raises(ValueError, match="too large"):
            project_to_simplex(np.array([1e20, 0.0]))
        # at 1e15 the unit sum still registers
        np.testing.assert_array_equal(
            project_to_simplex(np.array([1e15, 0.0])), [1.0, 0.0]
        )

    def test_already_feasible(self):
        v = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(project_to_simplex(v), v, atol=1e-15)

    def test_projection_properties(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            v = rng.normal(size=rng.integers(2, 40))
            p = project_to_simplex(v)
            assert p.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(p >= 0.0)


class TestBruteForceBound:
    def test_pure_state(self):
        res = brute_force_purity_bound(1.0, 2, 2.0, OracleConfig(seed=1))
        assert res.per_dim_product == 1.0

    @pytest.mark.parametrize(
        "mu,n,r", [(0.5, 1, 2.0), (0.1, 2, 3.0), (0.3, 3, 1.5)]
    )
    def test_agrees_with_closed_bound(self, mu, n, r):
        cfg = OracleConfig(seed=7, truncation=suggest_truncation(mu, n, r))
        brute = brute_force_purity_bound(mu, n, r, cfg)
        closed = purity_bound(mu, n, PurityOrder.finite(r))
        assert brute.per_dim_product == pytest.approx(
            closed.per_dim_product, abs=1e-5
        )
        # valid lower bound: the search never undercuts the closed form
        assert brute.per_dim_product >= closed.per_dim_product - 1e-5

    # `verify holder` prints these to 16 digits; any change to the search's
    # arithmetic (summation order, powers, start order) shows up here.
    @pytest.mark.parametrize("mu,n,r,seed,truncation,value,residual", [
        (0.07365940630386791, 1, 1.670712365446924, 40, None,
         12.409212902727127, 1.1102230246251565e-16),
        (0.25, 2, 2.0, 5, 128, 1.8062870566380125, 1.869060461956451e-13),
        (0.1, 2, 3.0, 7, 96, 2.680223978086697, 5.1361692676721304e-14),
    ])
    def test_pinned_to_the_bit(self, mu, n, r, seed, truncation, value,
                               residual):
        if truncation is None:
            truncation = suggest_truncation(mu, n, r)
        res = brute_force_purity_bound(
            mu, n, r, OracleConfig(seed=seed, truncation=truncation)
        )
        assert res.per_dim_product == value
        assert res.residual == residual
        assert res.iterations == 20

    def test_purity_constraint_met(self):
        cfg = OracleConfig(seed=5, truncation=128)
        res = brute_force_purity_bound(0.25, 2, 2.0, cfg)
        assert res.residual <= 1e-10

    def test_minimizer_matches_extremal_shape(self):
        mu, n, r = 0.2, 2, 2.5
        cfg = OracleConfig(seed=3, truncation=128)
        _, weights = brute_force_purity_bound(mu, n, r, cfg, return_weights=True)
        M = purity_bound(mu, n, PurityOrder.finite(r)).aux
        m = np.arange(weights.size, dtype=float)
        shape = np.where(
            m <= M,
            np.exp(log_degeneracy_array(m, n)) * np.maximum(M - m, 0.0) ** (r - 1.0),
            0.0,
        )
        shape /= shape.sum()
        assert 0.5 * np.abs(shape - weights).sum() <= 1e-3

    def test_deterministic(self):
        cfg = OracleConfig(seed=21, truncation=96)
        first = brute_force_purity_bound(0.4, 1, 2.0, cfg)
        second = brute_force_purity_bound(0.4, 1, 2.0, cfg)
        assert first.per_dim_product == second.per_dim_product

    def test_truncation_too_small_is_loud(self):
        with pytest.raises(SolverError):
            brute_force_purity_bound(0.01, 1, 4.0, OracleConfig(seed=2, truncation=24))

    def test_domain(self):
        with pytest.raises(ValueError):
            brute_force_purity_bound(1.5, 1, 2.0, OracleConfig())
        with pytest.raises(ValueError):
            brute_force_purity_bound(0.5, 1, 1.0, OracleConfig())


class TestQuadrature:
    def test_elementary_integral(self):
        assert quadrature_B(2.0, 1, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_beta_closed_form(self):
        assert quadrature_B(10.0, 2, 2.0) == pytest.approx(1e4 / 12.0, rel=1e-11)

    def test_matches_asymptotic_everywhere(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            r = float(rng.uniform(1.0, 6.0))
            M = float(rng.uniform(0.5, 200.0))
            assert quadrature_B(M, n, r) == pytest.approx(
                B_asymptotic(M, n, r), rel=1e-9
            )

    def test_beta_integral_matches_quadrature(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            r = float(rng.uniform(1.0, 6.0))
            M = float(rng.uniform(0.5, 200.0))
            assert beta_integral_B(M, n, r) == pytest.approx(
                quadrature_B(M, n, r), rel=1e-12
            )
        with pytest.raises(ValueError):
            beta_integral_B(0.0, 1, 2.0)


class TestAlternatingSumIdentity:
    def test_single_term(self):
        for r in (1.5, 2.0, 7.0):
            total, product, gap = appendix_d_identity_check(1, r)
            assert total == pytest.approx(1.0 / (r + 1.0), rel=1e-14)
            assert product == pytest.approx(1.0 / (r + 1.0), rel=1e-14)
            assert gap <= 1e-14

    def test_hand_value(self):
        total, product, gap = appendix_d_identity_check(2, 2.0)
        assert total == pytest.approx(1.0 / 12.0, rel=1e-13)
        assert product == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_noninteger_exponent(self):
        _, _, gap = appendix_d_identity_check(5, 2.5)
        assert gap <= 1e-10

    def test_grid(self):
        for n in range(1, 11):
            for r in (1.5, 2.0, 2.5, 5.0):
                _, _, gap = appendix_d_identity_check(n, r)
                assert gap <= 1e-10

    def test_range_guards(self):
        with pytest.raises(ValueError):
            appendix_d_identity_check(21, 2.0)
        with pytest.raises(ValueError):
            appendix_d_identity_check(5, 60.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(truncation=0)

    def test_truncation_cap(self):
        assert OracleConfig(truncation=MAX_TRUNCATION).truncation == MAX_TRUNCATION
        with pytest.raises(ValueError):
            OracleConfig(truncation=MAX_TRUNCATION + 1)
        # 4e9 levels at n = 1, mu = 1e-9; past the float range at 5e-324
        for mu in (1e-9, 5e-324):
            with pytest.raises(ValueError, match="above the cap"):
                suggest_truncation(mu, 1, 2.0)

    def test_suggest_truncation_covers_optimum(self):
        for mu, n, r in ((0.01, 1, 4.0), (0.05, 2, 2.0), (0.5, 3, 1.5)):
            levels = suggest_truncation(mu, n, r)
            optimum = purity_bound(mu, n, PurityOrder.finite(r)).aux
            assert levels > optimum
