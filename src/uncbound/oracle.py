"""Independent brute-force and Monte-Carlo verification machinery.

Nothing in here reuses the closed forms it is meant to check: the purity
bound is re-derived by constrained minimization over truncated grouped
spectra, the rearrangement inequality is sampled with random unitaries,
and the large-cutoff closed form is re-evaluated as a Beta function through
``math.lgamma`` and as an alternating sum.
"""

import math
from dataclasses import dataclass

import numpy as np

from uncbound.bounds import asymptotic_cutoff
from uncbound.solvers import SolverError
from uncbound.special_fn import check_dimension, log_degeneracy_array
from uncbound.spectrum_bound import BoundResult

__all__ = [
    "OracleConfig",
    "appendix_d_identity_check",
    "beta_integral_B",
    "brute_force_purity_bound",
    "lemma_trial",
    "lemma_trial_multidim",
    "project_to_simplex",
    "random_nonincreasing_probabilities",
    "random_unitary",
]


# Largest brute-force search space, in levels.  The suites' inputs need
# fewer than 2,000; one float64 array over 4e9 levels (n = 1, mu = 1e-9)
# is already 30 GiB.
MAX_TRUNCATION = 1_000_000


@dataclass(frozen=True)
class OracleConfig:
    """Seed and truncation of an oracle run."""

    seed: int = 0
    truncation: int = 256

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        if self.truncation > MAX_TRUNCATION:
            raise ValueError(
                f"truncation {self.truncation} is above the oracle cap "
                f"{MAX_TRUNCATION}"
            )

    def rng(self, trial=0) -> np.random.Generator:
        # per-trial stream keyed on (seed, trial) so results are order independent
        return np.random.default_rng(np.random.SeedSequence((self.seed, trial)))


# ---------------------------------------------------------------------------
# rearrangement inequality trials
# ---------------------------------------------------------------------------


def random_unitary(dim, rng) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian, phases normalized."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, upper = np.linalg.qr(z)
    phases = np.diagonal(upper).copy()
    phases /= np.abs(phases)
    return q * phases


def random_nonincreasing_probabilities(dim, rng) -> np.ndarray:
    """Random probability vector sorted largest first."""
    weights = rng.dirichlet(np.ones(dim))
    return np.sort(weights)[::-1]


def _run_trial(gammas, dim, cfg, trial, identity):
    rng = cfg.rng(trial)
    mixing = np.eye(dim) if identity else np.abs(random_unitary(dim, rng)) ** 2
    probs = random_nonincreasing_probabilities(dim, rng)
    return float(probs @ (mixing @ gammas)) - float(probs @ gammas)


def lemma_trial(dim, cfg: OracleConfig, trial=0, identity=False) -> float:
    """One rearrangement trial: mixed oscillator energies vs sorted ones.

    Draws a unitary U and a nonincreasing probability vector, and returns
    the margin sum_m p_m sum_k |U_mk|^2 (2k+1) - sum_m p_m (2m+1).  It is
    nonnegative up to rounding, and vanishes when U is the identity.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    gammas = 2.0 * np.arange(dim) + 1.0
    return _run_trial(gammas, dim, cfg, trial, identity)


def lemma_trial_multidim(n, max_level, cfg: OracleConfig, trial=0,
                         identity=False) -> float:
    """Margin of a rearrangement trial with level-degenerate energies 2k + n.

    The energy vector repeats each level value degeneracy(k, n) times, so
    it is nondecreasing rather than strictly increasing.
    """
    n = check_dimension(n)
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    counts = np.exp(log_degeneracy_array(np.arange(max_level + 1), n))
    counts = np.rint(counts).astype(int)
    gammas = np.repeat(2.0 * np.arange(max_level + 1) + n, counts)
    return _run_trial(gammas, gammas.size, cfg, trial, identity)


# ---------------------------------------------------------------------------
# brute-force purity bound
# ---------------------------------------------------------------------------


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based).

    Raises ValueError when no threshold exists: for an empty vector, a NaN
    or inf entry, or entries so large (about 1e16 and up) that the running
    sums lose the unit the simplex adds.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("cannot project an empty vector onto the simplex")
    ordered = np.sort(v)[::-1]
    shifted = ordered.cumsum()
    shifted -= 1.0
    ratios = np.arange(1.0, v.size + 1.0)
    np.divide(shifted, ratios, out=ratios)
    active = ordered > ratios
    pivot = v.size - int(active[::-1].argmax())  # last active rank
    if not active[pivot - 1]:
        cause = ("it has a NaN or inf entry" if not np.isfinite(v).all()
                 else "its entries are too large for float64 to resolve "
                      "the unit sum")
        raise ValueError(f"cannot project onto the simplex: {cause}")
    out = v - shifted[pivot - 1] / pivot
    np.maximum(out, 0.0, out=out)
    return out


def _powers(xi, exponent):
    """``xi ** exponent`` (exponent > 0) without calling np.power on zeros.

    np.power is several times slower on 0.0 than on other values, and most
    levels are empty during the descent.  The zero entries are left at the
    0.0 the power would give; every other entry gets the same np.power.
    """
    out = np.zeros(xi.shape)
    return np.power(xi, exponent, out=out, where=xi != 0.0)


def _power_sum(xi, g_term, r):
    """sum_m g_m^(1-p) xi_m^p with p = r / (r - 1); ``g_term`` = g^(1-p)."""
    terms = _powers(xi, r / (r - 1.0))
    terms *= g_term
    return float(terms.sum())


def _purity(xi, g_term, r):
    """Generalized purity (power sum)^(r-1) of grouped weights xi."""
    return _power_sum(xi, g_term, r) ** (r - 1.0)


def _penalty_descent(xi, costs, g_term, r, mu_target):
    """Projected gradient descent on costs.xi + penalty (mu(xi) - mu_target)^2.

    The arithmetic is fixed to the bit, because `verify holder` prints the
    result to 16 digits and the benchmark references pin it: the power sum
    is the pairwise ``sum`` of ``g_term * xi**p`` (not a dot product), the
    powers are ``np.power`` (not exp of a log), and each accepted trial's
    power sum and energy are carried to the next iteration unchanged.
    """
    p = r / (r - 1.0)
    total = _power_sum(xi, g_term, r)
    energy = float(costs @ xi)
    step = 1.0
    for penalty in (1e2, 1e4, 1e6, 1e8):
        for _ in range(300):
            gap = total ** (r - 1.0) - mu_target
            value = energy + penalty * gap * gap
            try:  # below r = 2, a power sum near 0 has no finite power
                scale = total ** (r - 2.0)
            except (OverflowError, ZeroDivisionError):
                raise SolverError(
                    f"purity gradient is not finite at r={r}: power sum {total!r}"
                ) from None
            grad_mu = r * scale * g_term * _powers(xi, p - 1.0)
            grad = costs + 2.0 * penalty * gap * grad_mu
            for _ in range(40):
                trial = project_to_simplex(xi - step * grad)
                total_t = _power_sum(trial, g_term, r)
                energy_t = float(costs @ trial)
                gap_t = total_t ** (r - 1.0) - mu_target
                if energy_t + penalty * gap_t * gap_t < value:
                    break
                step *= 0.5
                if step < 1e-18:
                    break
            else:
                break
            moved = float(np.abs(trial - xi).max())
            xi, total, energy = trial, total_t, energy_t
            step = min(step * 1.3, 1e3)
            if moved < 1e-14:
                break
    return xi


def _retilt_to_purity(xi, log_g, g_term, r, mu_target):
    """Exact feasibility polish: tilt theta -> theta^t, bisect t on the purity.

    Tilting moves the purity monotonically (it purifies for t > 1, mixes for
    t < 1), so a plain bisection restores mu to min(1e-10, 1e-8 mu) without
    leaving the simplex.
    """
    tol = min(1e-10, 1e-8 * mu_target)
    support = np.flatnonzero(xi > 0.0)
    log_g_support = log_g[support]
    log_theta = np.log(xi[support]) - log_g_support

    def tilted(t):
        logs = log_g_support + t * log_theta
        logs -= logs.max()
        weights = np.exp(logs, out=logs)
        weights /= weights.sum()
        out = np.zeros_like(xi)
        out[support] = weights
        return out

    def gap(t):
        return _purity(tilted(t), g_term, r) - mu_target

    initial = gap(1.0)
    if abs(initial) <= tol:
        return xi
    if initial > 0.0:  # too pure: mix by lowering the tilt
        lo, hi = 1.0, 1.0
        while gap(lo) > 0.0:
            lo *= 0.5
            if lo < 1e-9:
                return xi
    else:  # too mixed: purify by raising the tilt
        lo, hi = 1.0, 2.0
        while gap(hi) < 0.0:
            lo = hi
            hi *= 2.0
            if hi > 1e9:
                return xi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gap_mid = gap(mid)
        if gap_mid > 0.0:
            hi = mid
        else:
            lo = mid
        if abs(gap_mid) <= tol:
            return tilted(mid)
    return tilted(0.5 * (lo + hi))


def _equality_newton(support, costs, log_g, g_term, r, mu_target):
    """Damped KKT Newton for min costs.xi on a fixed contiguous support.

    Solves the two-equality system (unit sum, target purity) with the exact
    Lagrangian Hessian, which is diagonal plus rank-one, so each of its at
    most 80 steps costs O(support).  Returns a feasible weight vector, or
    None when the support cannot hold the target purity or Newton degenerates.
    """
    p = r / (r - 1.0)
    c = costs[:support]
    lg = log_g[:support]
    a = g_term[:support]
    grid = np.arange(support, dtype=float)

    profile = lg - grid / max(1.0, support / 4.0)
    xi = np.exp(profile - profile.max())
    xi /= xi.sum()
    xi = _retilt_to_purity(xi, lg, a, r, mu_target)
    if abs(_purity(xi, a, r) - mu_target) > 1e-7:
        return None  # support too small (or too coarse) for this purity

    ones = np.ones(support)
    floor = 1e-300

    def kkt(x):
        xf = np.maximum(x, floor)
        total = float(a @ xf**p)
        mu = total ** (r - 1.0)
        grad_t = p * a * xf ** (p - 1.0)
        grad_mu = (r - 1.0) * total ** (r - 2.0) * grad_t
        return xf, total, mu, grad_t, grad_mu

    for _ in range(80):
        xf, total, mu, grad_t, grad_mu = kkt(xi)
        gram = np.array([
            [grad_mu @ grad_mu, grad_mu @ ones],
            [grad_mu @ ones, float(support)],
        ])
        try:
            w, nu = np.linalg.solve(gram, [-(c @ grad_mu), -(c @ ones)])
        except np.linalg.LinAlgError:
            return None
        res_stat = c + w * grad_mu + nu
        res_mu = mu - mu_target
        res_sum = xi.sum() - 1.0
        scale_c = np.abs(c).max()
        if (np.abs(res_stat).max() <= 1e-12 * scale_c
                and abs(res_mu) <= 1e-12 * mu_target and abs(res_sum) <= 1e-13):
            break
        diag = w * (r - 1.0) * total ** (r - 2.0) * p * (p - 1.0) * a * xf ** (p - 2.0)
        diag = np.maximum(diag, 1e-13 * max(1.0, np.abs(diag).max()))
        rank_w = w * (r - 1.0) * (r - 2.0) * total ** (r - 3.0)
        dinv = 1.0 / diag
        denom = 1.0 + rank_w * float(grad_t @ (dinv * grad_t))
        if abs(denom) < 1e-12:
            return None

        def solve_h(v):
            base = dinv * v
            return base - dinv * grad_t * (rank_w * float(grad_t @ base) / denom)

        h_mu = solve_h(grad_mu)
        h_one = solve_h(ones)
        h_stat = solve_h(res_stat)
        schur = np.array([
            [grad_mu @ h_mu, grad_mu @ h_one],
            [ones @ h_mu, ones @ h_one],
        ])
        rhs = np.array([res_mu, res_sum]) - np.array(
            [grad_mu @ h_stat, ones @ h_stat]
        )
        try:
            dw, dnu = np.linalg.solve(schur, rhs)
        except np.linalg.LinAlgError:
            return None
        dxi = -(h_stat + dw * h_mu + dnu * h_one)

        dxi = np.where((xi <= 0.0) & (dxi < 0.0), 0.0, dxi)
        step = 1.0
        dropping = dxi < 0.0
        if np.any(dropping):
            headroom = np.min(xi[dropping] / -dxi[dropping])
            step = min(1.0, 0.95 * headroom)
        merit = np.abs(res_stat).max() / scale_c + abs(res_mu) + abs(res_sum)
        improved = False
        for _ in range(25):
            trial = np.maximum(xi + step * dxi, 0.0)
            xf_t, _, mu_t, _, grad_mu_t = kkt(trial)
            res_t = c + w * grad_mu_t + nu
            merit_t = (np.abs(res_t).max() / scale_c
                       + abs(mu_t - mu_target) + abs(trial.sum() - 1.0))
            if merit_t < merit:
                xi = trial
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    xi = np.maximum(xi, 0.0)
    total = xi.sum()
    if not total > 0.0:
        return None
    xi = _retilt_to_purity(xi / total, lg, a, r, mu_target)
    if abs(_purity(xi, a, r) - mu_target) > 1e-8:
        return None
    return xi


def _support_scan(size, costs, log_g, g_term, r, mu_target, warm):
    """Minimize over contiguous supports: the optimum support is the set of
    levels whose cost sits below the dual price, so it is contiguous from
    level zero.  The per-support cost is V-shaped in the support size (and
    +inf where the support is too small to hold the purity), so a coarse
    geometric scan plus an integer ternary search pins the minimum."""
    cache = {}

    def solve(support):
        support = int(min(max(support, 2), size))
        if support not in cache:
            xi = _equality_newton(support, costs, log_g, g_term, r, mu_target)
            if xi is None:
                cache[support] = (math.inf, None)
            else:
                cache[support] = (float(costs[:support] @ xi), xi)
        return cache[support][0]

    grid = sorted(set(np.geomspace(2, size, 24).astype(int)))
    if np.any(warm > 1e-10):
        warm_support = int(np.nonzero(warm > 1e-10)[0][-1]) + 1
        grid = sorted(set(grid) | {max(2, min(size, warm_support))})
    values = [solve(h) for h in grid]
    if not np.isfinite(values).any():
        return None
    anchor = int(np.argmin(values))
    lo = grid[max(anchor - 1, 0)]
    hi = grid[min(anchor + 1, len(grid) - 1)]
    while hi - lo > 2:
        third = (hi - lo) // 3
        m1, m2 = lo + third, hi - third
        if m2 <= m1:
            m2 = m1 + 1
        v1, v2 = solve(m1), solve(m2)
        if math.isinf(v1) and math.isinf(v2):
            lo = m2  # feasibility is an up-set: both too small
        elif v1 <= v2:
            hi = m2
        else:
            lo = m1
    best_h = min(range(lo, hi + 1), key=solve)
    best_value, best_xi = cache[min(max(best_h, 2), size)]
    if best_xi is None:
        return None
    full = np.zeros(size)
    full[:best_xi.size] = best_xi
    return best_value, full, best_xi.size


def brute_force_purity_bound(mu, n, r, cfg: OracleConfig,
                             return_weights=False):
    """Minimize the level-energy average over all grouped spectra with
    purity mu, by multi-start projected search plus a constrained refine.

    The feasible set {xi on the simplex : mu(xi) <= mu} is convex (the
    purity of a grouped spectrum is quasiconvex in xi) and the objective is
    linear, so local minimizers are global; the multi-start is insurance
    against stalls of the local searches themselves.

    The result is fixed to the bit, not just to the tolerance: `verify
    holder` prints it to 16 digits and the benchmark references pin that
    output.  So the 20 starts run one after another in this order, and the
    purity is always the pairwise ``sum`` of ``g^(1-p) * xi**p`` with the
    powers from ``np.power``; see ``_penalty_descent``.
    """
    n = check_dimension(n)
    mu = float(mu)
    r = float(r)
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must be in (0, 1], got {mu}")
    if not r > 1.0:
        raise ValueError(f"exponent r must be > 1, got {r}")

    size = cfg.truncation + 1
    levels = np.arange(size, dtype=float)
    log_g = log_degeneracy_array(levels, n)
    costs = (2.0 * levels + n) / n

    if mu == 1.0:
        xi = np.zeros(size)
        xi[0] = 1.0
        result = BoundResult(1.0, n, method="brute-force")
        return (result, xi) if return_weights else result

    g_term = np.exp((1.0 - r / (r - 1.0)) * log_g)
    ladder_scale = max(2.0, cfg.truncation / 3.0)
    candidates = []
    for index in range(20):
        rng = cfg.rng(index)
        if index < 6:  # thermal-profile ladder spanning a range of purities
            tau = ladder_scale / 2.0 ** (index - 2)
            profile = log_g - levels / tau
            raw = np.exp(profile - profile.max())
        elif index == 6:
            raw = np.ones(size)
        else:
            raw = rng.dirichlet(np.ones(size))
        xi = _retilt_to_purity(raw / raw.sum(), log_g, g_term, r, mu)
        xi = _penalty_descent(xi, costs, g_term, r, mu)
        xi = _retilt_to_purity(xi, log_g, g_term, r, mu)
        candidates.append((float(costs @ xi), xi))
    best_value, best_xi = min(candidates, key=lambda c: c[0])

    scan = _support_scan(size, costs, log_g, g_term, r, mu, best_xi)
    support = size
    if scan is not None:
        scan_value, scan_xi, support = scan
        if scan_value < best_value:
            best_value, best_xi = scan_value, scan_xi
    if scan is None and not np.isfinite(best_value):
        raise SolverError(f"optimizer stalled for mu={mu}, n={n}, r={r}")

    occupied = np.nonzero(best_xi > 1e-9)[0]
    reach = int(occupied[-1]) if occupied.size else 0
    if reach >= size - 3 or support >= size - 1:
        raise SolverError(
            f"truncation {cfg.truncation} too small: the minimizer support "
            f"reaches level {max(reach, support - 1)} (mu={mu}, n={n}, r={r})"
        )
    result = BoundResult(best_value, n, method="brute-force", iterations=len(candidates),
                         residual=abs(_purity(best_xi, g_term, r) - mu))
    return (result, best_xi) if return_weights else result


def suggest_truncation(mu, n, r) -> int:
    """Level count comfortably above the expected minimizer support.

    Uses the small-mu optimal cutoff :func:`bounds.asymptotic_cutoff`,
    M* ~ c(n, r) mu^(-1/n), with a factor-3 headroom; this sizes the search
    space only, the values themselves come from the optimization.  Raises
    ValueError when that is above the cap ``MAX_TRUNCATION``.
    """
    levels = 3.0 * asymptotic_cutoff(mu, n, r) + 32.0  # inf past the float range
    if not levels <= MAX_TRUNCATION:
        raise ValueError(
            f"the oracle would need ~{levels:.3g} levels for mu={mu}, n={n}, "
            f"r={r}, above the cap {MAX_TRUNCATION}"
        )
    return max(96, int(levels))


# ---------------------------------------------------------------------------
# closed-form and series identities
# ---------------------------------------------------------------------------


def beta_integral_B(M, n, r) -> float:
    """Integral of m^(n-1) (M-m)^r / (n-1)! over [0, M], by its Beta form.

    The integral is M^(n+r) Gamma(r+1) / Gamma(n+r+1).  The gamma ratio
    comes from ``math.lgamma``, not from the product over k that
    ``bounds.B_asymptotic`` sums, so it checks that closed form.
    """
    n = check_dimension(n)
    M = float(M)
    r = float(r)
    if not 0.0 < M < math.inf:
        raise ValueError(f"M must be {'finite' if M > 0 else '> 0'}, got {M}")
    if not 1.0 <= r < math.inf:
        raise ValueError(f"exponent r must be {'finite' if r > 1 else '>= 1'}, got {r}")
    return M ** (n + r) * math.exp(math.lgamma(r + 1.0) - math.lgamma(n + r + 1.0))


def appendix_d_identity_check(n, r):
    """Alternating sum vs product form of the cutoff-integral constant.

    Evaluates sum_{k=0..n-1} (-1)^k / (k! (n-1-k)! (k+r+1)) with exact
    compensated summation and compares against 1 / prod_{k=1..n} (r+k).

    Returns (sum_value, product_value, relative_gap).
    """
    n = check_dimension(n)
    r = float(r)
    if n > 20:
        raise ValueError("cancellation grows too fast beyond n = 20")
    if r > 50:
        raise ValueError("r above 50 is outside the validated range")
    if not r >= 1.0:
        raise ValueError(f"exponent r must be >= 1, got {r}")
    terms = [
        (-1.0) ** k / (math.factorial(k) * math.factorial(n - 1 - k) * (k + r + 1.0))
        for k in range(n)
    ]
    sum_value = math.fsum(terms)
    product_value = 1.0 / math.prod(r + k for k in range(1, n + 1))
    gap = abs(sum_value - product_value) / abs(product_value)
    return sum_value, product_value, gap
