import math
import sys

import numpy as np
import pytest

import uncbound.oracle as oracle
from uncbound.bounds import purity_bound
from uncbound.closed_forms import B_asymptotic, beta_integral_B
from uncbound.oracle import (
    MAX_LEMMA_DIM,
    MAX_TRUNCATION,
    OracleConfig,
    brute_force_purity_bound,
    lemma_margins,
    project_to_simplex,
    random_nonincreasing_probabilities,
    random_unitary,
    suggest_truncation,
)
from uncbound.purity import PurityOrder, _log_g
from uncbound.solvers import SolverError
from uncbound.special_fn import degeneracy

from quadrature import quadrature_B


def _gaussians(dim, rng, count=1):
    return np.array([rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                     for _ in range(count)])


class TestRandomDraws:
    def test_unitary_is_unitary(self):
        rng = np.random.default_rng(4)
        for dim in (2, 7, 30):
            for u in random_unitary(_gaussians(dim, rng, 3)):
                np.testing.assert_allclose(
                    u @ u.conj().T, np.eye(dim), atol=1e-12
                )

    def test_unitary_deterministic_per_seed(self):
        first = random_unitary(_gaussians(8, np.random.default_rng(11)))
        second = random_unitary(_gaussians(8, np.random.default_rng(11)))
        np.testing.assert_array_equal(first, second)

    def test_probability_draw(self):
        rng = np.random.default_rng(5)
        probs = random_nonincreasing_probabilities(20, rng)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(probs) <= 0.0)


def _reference_unitary(dim, rng):
    """One Haar unitary by its own QR: the per-trial code the blocks replaced."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, upper = np.linalg.qr(z)
    phases = np.diagonal(upper).copy()
    phases /= np.abs(phases)
    return q * phases


def _reference_trial(n, max_level, cfg, trial=0, identity=False):
    """One rearrangement trial with its own QR and matvec, kept verbatim as
    the bit-for-bit reference for the blocked ``lemma_margins``."""
    levels = np.arange(max_level + 1, dtype=float)
    gammas = np.repeat(2.0 * levels + n, [degeneracy(k, n) for k in range(max_level + 1)])
    rng = cfg.rng(trial)
    dim = gammas.size
    mixing = np.eye(dim) if identity else np.abs(_reference_unitary(dim, rng)) ** 2
    probs = random_nonincreasing_probabilities(dim, rng)
    return float(probs @ (mixing @ gammas)) - float(probs @ gammas)


class TestLemmaTrials:
    def test_identity_margin_is_exactly_zero(self):
        cfg = OracleConfig(seed=9)
        assert lemma_margins(1, 29, cfg, range(1), identity=True).tolist() == [0.0]

    def test_seeded_stream(self):
        cfg = OracleConfig(seed=42)
        margins = lemma_margins(1, 29, cfg, range(1000))
        assert margins.shape == (1000,)
        assert margins.min() >= -1e-10

    def test_trials_are_order_independent(self):
        cfg = OracleConfig(seed=6)
        alone = lemma_margins(1, 11, cfg, range(37, 38))
        assert lemma_margins(1, 11, cfg, range(0, 40))[37] == alone[0]

    # dim 2 and 12 put many matrices in a block (4096 and 113), dim 30 puts
    # 18, dim 128 one; the ranges start past 0, end off a block boundary or
    # hold one trial
    @pytest.mark.parametrize("n, max_level, trials", [
        (1, 1, range(3, 10)),
        (1, 11, range(0, 250)),
        (1, 29, range(5, 46)),
        (1, 29, range(17, 18)),
        (1, 127, range(2, 5)),
        (2, 5, range(1, 30)),
        (3, 3, range(9, 40)),
    ])
    @pytest.mark.parametrize("identity", [False, True])
    def test_blocks_match_per_trial_reference_bit_for_bit(
            self, n, max_level, trials, identity):
        cfg = OracleConfig(seed=42)
        margins = lemma_margins(n, max_level, cfg, trials, identity=identity)
        reference = [_reference_trial(n, max_level, cfg, t, identity) for t in trials]
        assert np.array_equal(margins, reference)
        if identity:
            assert np.all(margins == 0.0)

    def test_multidim_degenerate_energies(self):
        cfg = OracleConfig(seed=3)
        assert lemma_margins(2, 5, cfg, range(100)).min() >= -1e-10

    def test_multidim_size_matches_level_count(self):
        cfg = OracleConfig(seed=0)
        margin = lemma_margins(2, 5, cfg, range(1), identity=True)
        total_states = sum(degeneracy(k, 2) for k in range(6))
        assert total_states == 21
        assert margin.tolist() == [0.0]

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            lemma_margins(1, 0, OracleConfig(), range(1))

    @pytest.mark.parametrize("n, max_level", [(1, 100_000), (1, 1024), (64, 5)])
    def test_dim_cap_raises_before_allocating(self, n, max_level):
        # C(max_level + n, n) states: 100001, 1025 and about 1.1e7
        with pytest.raises(ValueError, match=f"lemma cap of {MAX_LEMMA_DIM}"):
            lemma_margins(n, max_level, OracleConfig(), range(1))

    def test_dim_cap_is_inclusive(self):
        cfg = OracleConfig(seed=1)
        assert lemma_margins(1, MAX_LEMMA_DIM - 1, cfg, range(1), identity=True)[0] == 0.0


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
        rng = np.random.default_rng(20041)
        for v in _seeded_vectors():
            assert np.array_equal(project_to_simplex(v), _reference_projection(v))
            # a stack projects row by row: rows of other kinds and scales
            stack = np.stack([v, rng.permutation(v), v * 10.0 ** rng.uniform(-3, 3),
                              rng.normal(size=v.size), np.full(v.size, 1.0 / v.size)])
            out = np.empty(stack.shape)
            assert project_to_simplex(stack, out=out) is out
            for row, projected in zip(stack, out):
                assert np.array_equal(projected, _reference_projection(row))

    @pytest.mark.parametrize("out", [np.empty((3, 4)), np.empty((2, 4), np.float32),
                                     np.empty((4, 2)).T])
    def test_out_must_fit(self, out):
        # a wrong shape, dtype or layout would get no result or a cast one
        with pytest.raises(ValueError, match="out must be"):
            project_to_simplex(np.ones((2, 4)), out=out)

    def test_out_must_not_overlap_the_input(self):
        v = np.array([[0.5, 2.0, -1.0], [0.1, 0.2, 0.3]])
        with pytest.raises(ValueError, match="does not overlap"):
            project_to_simplex(v, out=v)

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
    # arithmetic (summation order, powers, start order) shows up here, and
    # numpy's AVX2 kernels move the two marked ones.
    @pytest.mark.parametrize("mu,n,r,seed,truncation,value,residual", [
        pytest.param(0.07365940630386791, 1, 1.670712365446924, 40, None,
                     12.409212902727127, 1.1102230246251565e-16, marks=pytest.mark.simd_bits),
        (0.25, 2, 2.0, 5, 128, 1.8062870566380125, 1.869060461956451e-13),
        (0.1, 2, 3.0, 7, 96, 2.680223978086697, 5.1361692676721304e-14),
        # the pool's seeds 8 and 44 of `verify holder` in the benchmark
        (0.08542396821870929, 1, 2.555569325799349, 8, 96,
         10.079533638091416, 5.46229728115577e-14),
        pytest.param(0.0032270504010523723, 1, 1.976584975067168, 44, 1263,
                     275.9195956396116, 4.336808689942018e-19, marks=pytest.mark.simd_bits),
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
            np.exp(_log_g(m, n)) * np.maximum(M - m, 0.0) ** (r - 1.0),
            0.0,
        )
        shape /= shape.sum()
        assert 0.5 * np.abs(shape - weights).sum() <= 1e-3

    def test_deterministic(self):
        cfg = OracleConfig(seed=21, truncation=96)
        first = brute_force_purity_bound(0.4, 1, 2.0, cfg)
        second = brute_force_purity_bound(0.4, 1, 2.0, cfg)
        assert first.per_dim_product == second.per_dim_product

    def test_descent_accepts_only_lowering_trials(self, monkeypatch):
        # every row the lock-step descent moves lowers that row's
        # costs.xi + penalty (mu(xi) - mu)^2 at its stage's penalty; on this
        # input the step fell below 1e-18 with no trial doing so
        mu, n, r = 0.01973291510992465, 1, 2.3582038695857586
        cfg = OracleConfig(seed=4, truncation=suggest_truncation(mu, n, r))
        levels = np.arange(cfg.truncation + 1.0)
        costs = (2.0 * levels + n) / n
        g_term = np.exp((1.0 - r / (r - 1.0)) * _log_g(levels, n))
        project = oracle.project_to_simplex
        before = {}  # per start: (iterate, penalty, objective) at its last trial
        moves = 0

        def project_spy(v, out):
            nonlocal moves
            caller = sys._getframe(1).f_locals
            penalties = oracle._PENALTIES[caller["stage"]]
            for start, xi, penalty, value in zip(caller["index"], caller["xi"],
                                                 penalties, caller["value"]):
                if start in before and not np.array_equal(xi, before[start][0]):
                    _, last_penalty, last_value = before[start]
                    gap = oracle._power_sum(xi, g_term, r) ** (r - 1.0) - mu
                    assert float(costs @ xi) + last_penalty * gap * gap < last_value
                    moves += 1
                before[start] = (xi.copy(), penalty, value)
            return project(v, out)

        monkeypatch.setattr(oracle, "project_to_simplex", project_spy)
        brute_force_purity_bound(mu, n, r, cfg)
        assert sorted(before) == list(range(20))
        assert moves > 1000

    @pytest.mark.parametrize("size", [97, 254, 1000, 1711])
    @pytest.mark.parametrize("n, r", [(1, 2.5), (2, 1.7)])
    def test_row_sums_match_one_row_at_a_time(self, size, n, r):
        # the lock-step descent's power sums and energies give each row the
        # bits that _power_sum and a dot product give that row alone
        rng = np.random.default_rng(size)
        levels = np.arange(size, dtype=float)
        costs = (2.0 * levels + n) / n
        g_term = np.exp((1.0 - r / (r - 1.0)) * _log_g(levels, n))
        stack = rng.dirichlet(np.ones(size), 20)
        stack[rng.random(stack.shape) < 0.7] = 0.0  # most levels empty
        totals = oracle._power_sum(stack, g_term, r)
        energies = oracle._energies(stack, costs)
        assert totals.shape == energies.shape == (20,)
        for row, total, energy in zip(stack, totals, energies):
            row = row.copy()
            assert total == oracle._power_sum(row, g_term, r)
            assert energy == costs @ row

    def test_lock_step_rows_descend_as_alone(self):
        # a stack of starts ends where each start ends as a stack of one:
        # rows leave the stack at different rounds and take different moves
        mu, n, r = 0.1, 2, 3.0
        levels = np.arange(97.0)
        log_g = _log_g(levels, n)
        costs = (2.0 * levels + n) / n
        g_term = np.exp((1.0 - r / (r - 1.0)) * log_g)
        rng = np.random.default_rng(12)
        starts = [oracle._retilt_to_purity(w, log_g, g_term, r, mu)
                  for w in rng.dirichlet(np.ones(levels.size), 6)]
        together = oracle._penalty_descent(starts, costs, g_term, r, mu)
        for start, end in zip(starts, together):
            alone, = oracle._penalty_descent([start], costs, g_term, r, mu)
            assert np.array_equal(end, alone)

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

    def test_beta_integral_past_the_float_range(self):
        # M^(n+r) overflows: the value is inf, as B_asymptotic gives
        for M, n, r in ((1e200, 3, 2.0), (1e300, 1, 5.0)):
            assert beta_integral_B(M, n, r) == B_asymptotic(M, n, r) == math.inf
        # M^(n+r) overflows, but the gamma ratio brings the value back in range
        M, n, r = math.exp(0.0072), 64, 1e5
        assert beta_integral_B(M, n, r) == pytest.approx(B_asymptotic(M, n, r), rel=1e-9)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(truncation=0)

    def test_sizes_must_be_integers(self):
        with pytest.raises(ValueError, match="must be an integer, got 100.5"):
            OracleConfig(truncation=100.5)
        with pytest.raises(ValueError, match="must be an integer, got 2.5"):
            lemma_margins(2, 2.5, OracleConfig(), range(1))

    @pytest.mark.parametrize("seed", [1.5, -1, True, "3", None])
    def test_seed_must_be_nonnegative_integer(self, seed):
        # rejected on construction, not by numpy at the first draw
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            OracleConfig(seed=seed)

    def test_seed_accepts_numpy_integer(self):
        draw = OracleConfig(seed=7).rng(2).random()
        assert OracleConfig(seed=np.int64(7)).rng(2).random() == draw

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
