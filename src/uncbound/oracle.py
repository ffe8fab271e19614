"""Independent brute-force and Monte-Carlo verification machinery.

Nothing in here reuses the closed forms it is meant to check: the purity
bound is re-derived by constrained minimization over truncated grouped
spectra, and the rearrangement inequality is sampled with random unitaries.
The scalar check of the large-cutoff closed form needs no numpy, so it
lives in ``closed_forms`` (``beta_integral_B``).
"""

import math
from dataclasses import dataclass

import numpy as np

from uncbound.closed_forms import BoundResult, asymptotic_cutoff
from uncbound.purity import _log_g
from uncbound.solvers import SolverError
from uncbound.special_fn import (MAX_LEMMA_DIM, check_dimension, check_exponent, check_level,
                                 check_purity, degeneracy)

__all__ = [
    "OracleConfig",
    "brute_force_purity_bound",
    "lemma_margins",
    "project_to_simplex",
    "random_nonincreasing_probabilities",
    "random_unitary",
]


# Largest brute-force search space, in levels.  The suites' inputs need
# fewer than 2,000; one float64 array over 4e9 levels (n = 1, mu = 1e-9)
# is already 30 GiB.
MAX_TRUNCATION = 1_000_000

# Matrix entries per block of lemma trials: 16 matrices at dim 32, one from
# dim 128 up.  Blocks amortize the per-call cost of the QR; a fixed count of
# matrices would make the peak memory grow with dim.
_BLOCK_ELEMENTS = 2 ** 14


@dataclass(frozen=True)
class OracleConfig:
    """Seed and truncation of an oracle run."""

    seed: int = 0
    truncation: int = 256

    def __post_init__(self):
        seed = self.seed
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
        if not 1 <= check_level(self.truncation) <= MAX_TRUNCATION:
            raise ValueError(f"truncation must be in [1, {MAX_TRUNCATION}] (the oracle "
                             f"cap), got {self.truncation}")

    def rng(self, trial=0) -> np.random.Generator:
        # per-trial stream keyed on (seed, trial) so results are order independent
        return np.random.default_rng(np.random.SeedSequence((self.seed, trial)))


# ---------------------------------------------------------------------------
# rearrangement inequality trials
# ---------------------------------------------------------------------------


def random_unitary(gaussians) -> np.ndarray:
    """Haar-distributed unitaries from a stack of complex Gaussian matrices.

    One QR over the stack (..., dim, dim); each Q's columns are then
    multiplied by the unit phases of R's diagonal.  Every matrix gets the
    same bits as a QR of it alone.
    """
    q, upper = np.linalg.qr(gaussians)
    phases = np.diagonal(upper, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., np.newaxis, :]


def random_nonincreasing_probabilities(dim, rng) -> np.ndarray:
    """Random probability vector sorted largest first."""
    weights = rng.dirichlet(np.ones(dim))
    return np.sort(weights)[::-1]


def lemma_margins(n, max_level, cfg: OracleConfig, trials, identity=False) -> np.ndarray:
    """Rearrangement trials: mixed oscillator energies vs sorted ones.

    The energies E are 2k + n, level k <= max_level repeated degeneracy(k, n)
    times.  Trial t of the range ``trials`` draws, from ``cfg.rng(t)``, a
    unitary U (one draw of 2 x dim x dim normals, its real and imaginary
    parts) and then a nonincreasing probability vector p of that size.
    Returns each trial's margin
    sum_m p_m sum_k |U_mk|^2 E_k - sum_m p_m E_m, which is nonnegative up to
    rounding and exactly 0.0 with ``identity`` (U = 1, no normals drawn).

    The unitaries of a block of trials come from one stacked QR, with the
    block sized to about ``_BLOCK_ELEMENTS`` matrix entries, so memory does
    not grow with the trial count.  Raises ValueError past ``MAX_LEMMA_DIM``
    states, before anything that size is allocated.
    """
    n, max_level = check_dimension(n), check_level(max_level)
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    dim = math.comb(max_level + n, n)  # states with level <= max_level
    if dim > MAX_LEMMA_DIM:
        raise ValueError(f"{dim} states (n={n}, max_level={max_level}) exceed the "
                         f"lemma cap of {MAX_LEMMA_DIM}")
    energies = 2.0 * np.arange(max_level + 1, dtype=float) + n
    gammas = np.repeat(energies, [degeneracy(k, n) for k in range(max_level + 1)])
    block = max(1, _BLOCK_ELEMENTS // dim ** 2)
    margins = np.empty(len(trials))
    for start in range(0, len(trials), block):
        rngs = [cfg.rng(t) for t in trials[start:start + block]]
        if identity:
            mixing = np.eye(dim)
        else:
            gaussians = np.empty((len(rngs), dim, dim), dtype=complex)
            for slot, rng in zip(gaussians, rngs):
                slot.real, slot.imag = rng.standard_normal((2, dim, dim))
            mixing = np.abs(random_unitary(gaussians)) ** 2
        mixed = np.broadcast_to(mixing @ gammas, (len(rngs), dim))
        for index, (rng, row) in enumerate(zip(rngs, mixed), start):
            # p stays the reversed view of its sort: a contiguous copy would
            # change the dot products' summation order and their last bits
            probs = random_nonincreasing_probabilities(dim, rng)
            margins[index] = float(probs @ row) - float(probs @ gammas)
    return margins


# ---------------------------------------------------------------------------
# brute-force purity bound
# ---------------------------------------------------------------------------


def project_to_simplex(v, out=None) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based).

    ``v`` is one vector or a stack of them along the last axis; each row
    gets the bits of a projection of its own.  The result goes to ``out``
    when given, a C-contiguous float array of v's shape that does not
    overlap v.  Raises ValueError when no threshold exists: for an empty
    vector, a NaN or inf entry, or entries so large (about 1e16 and up)
    that the running sums lose the unit the simplex adds.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("cannot project an empty vector onto the simplex")
    size = v.shape[-1]
    stack = v.reshape(-1, size)
    if out is None:
        out = np.empty(v.shape)
    elif (out.shape != v.shape or out.dtype != float or not out.flags.c_contiguous
          or np.may_share_memory(out, v)):
        raise ValueError("out must be a C-contiguous float array of v's shape "
                         "that does not overlap v")
    rising = out.reshape(-1, size)  # sorted first; the result at the end
    np.copyto(rising, stack)
    rising.sort(axis=1)
    ordered = rising[:, ::-1]
    shifted = ordered.cumsum(axis=1)
    shifted -= 1.0
    shifted /= np.arange(1.0, size + 1.0)  # the threshold if k levels stay
    active = ordered > shifted
    rows = np.arange(len(stack))
    last = size - 1 - active[:, ::-1].argmax(axis=1)  # last active rank - 1
    if not active[rows, last].all():
        cause = ("it has a NaN or inf entry" if not np.isfinite(v).all()
                 else "its entries are too large for float64 to resolve "
                      "the unit sum")
        raise ValueError(f"cannot project onto the simplex: {cause}")
    np.subtract(stack, shifted[rows, last, np.newaxis], out=rising)
    np.maximum(rising, 0.0, out=rising)
    return out


def _powers(xi, exponent, out=None):
    """``xi ** exponent`` (exponent > 0) without calling np.power on zeros.

    np.power is several times slower on 0.0 than on other values, and most
    levels are empty during the descent.  The zero entries are left at the
    0.0 the power would give; every other entry gets the same np.power.
    The result goes to ``out`` when given.
    """
    if out is None:
        out = np.zeros(xi.shape)
    else:
        out.fill(0.0)
    return np.power(xi, exponent, out=out, where=xi != 0.0)


def _power_sum(xi, g_term, r, out=None):
    """sum_m g_m^(1-p) xi_m^p with p = r / (r - 1); ``g_term`` = g^(1-p).

    A float for one vector, one value per row for a stack; ``out``, when
    given, takes the terms.
    """
    terms = _powers(xi, r / (r - 1.0), out)
    terms *= g_term
    total = terms.sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def _energies(stack, costs):
    """``costs @ row`` for each row of a stack, as one dot product per row:
    a gemv (``stack @ costs``) differs from it in the last bits."""
    return (stack[:, np.newaxis, :] @ costs[:, np.newaxis])[:, 0, 0]


def _purity(xi, g_term, r):
    """Generalized purity (power sum)^(r-1) of grouped weights xi."""
    return _power_sum(xi, g_term, r) ** (r - 1.0)


_PENALTIES = np.array([1e2, 1e4, 1e6, 1e8])  # the descent's stages


def _penalty_descent(xi, costs, g_term, r, mu_target):
    """Projected gradient descent on costs.xi + penalty (mu(xi) - mu_target)^2
    from each row of the stack ``xi``; returns the end points in row order.

    Each row descends on its own: four penalty stages (1e2 up to 1e8), at
    most 300 accepted moves per stage and 40 line-search trials per move,
    and a step that halves on a rejected trial, grows by 1.3 on an accepted
    one (to at most 1e3) and carries over from stage to stage.  A stage
    ends at its move cap, after a move below 1e-14, or when the line search
    fails (40 trials or a step below 1e-18), with xi kept.  The rows run in
    lock-step: a round tries one step for every row still running, with one
    projection, one power sum and one energy product over the stack, and a
    row leaves the stack when its last stage ends.  The stack is worked on
    in place when it is a C-contiguous float array, and the rounds reuse
    three more buffers of its size, so a round allocates no new stack.

    The arithmetic is fixed to the bit, because `verify holder` prints the
    result to 16 digits and the benchmark references pin it, and each row
    gets the bits of a descent of its own: the power sum is the pairwise
    ``sum`` along the row of ``g_term * xi**p`` (not a dot product), the
    powers are ``np.power`` (not exp of a log), the energy is one dot product
    per row (``_energies``), the powers of a power sum are Python float
    powers (np.power differs from them in the last bit), and each accepted
    trial's power sum and energy are carried to the next move unchanged.
    """
    p = r / (r - 1.0)
    xi = np.ascontiguousarray(xi, dtype=float)
    trial, grad, work = np.empty(xi.shape), np.empty(xi.shape), np.empty(xi.shape)
    ends = [None] * len(xi)
    index = np.arange(len(xi))  # the start each row descends from
    total = _power_sum(xi, g_term, r, work)
    energy = _energies(xi, costs)
    value = np.empty(len(xi))
    step = np.ones(len(xi))
    stage = np.zeros(len(xi), dtype=int)
    moves = np.zeros(len(xi), dtype=int)
    tries = np.zeros(len(xi), dtype=int)
    fresh = np.ones(len(xi), dtype=bool)  # rows about to start a move
    while index.size:
        if fresh.any():  # the objective and gradient where a move starts
            starting = np.flatnonzero(fresh)
            sums = total[starting].tolist()
            gap = np.array([t ** (r - 1.0) for t in sums]) - mu_target
            penalty = _PENALTIES[stage[starting]]
            value[starting] = energy[starting] + penalty * gap * gap
            # rows in a line search get zeros here and keep their gradient
            scale, slope = np.zeros(len(xi)), np.zeros(len(xi))
            slope[starting] = 2.0 * penalty * gap
            for row, t in zip(starting.tolist(), sums):
                try:  # below r = 2, a power sum near 0 has no finite power
                    scale[row] = r * t ** (r - 2.0)
                except (OverflowError, ZeroDivisionError):
                    raise SolverError(
                        f"purity gradient is not finite at r={r}: power sum {t!r}"
                    ) from None
            np.multiply(scale[:, np.newaxis], g_term, out=work)
            work *= _powers(xi, p - 1.0, trial)  # trial is free until the projection
            work *= slope[:, np.newaxis]
            work += costs
            np.copyto(grad, work, where=fresh[:, np.newaxis])
        np.multiply(step[:, np.newaxis], grad, out=work)
        project_to_simplex(np.subtract(xi, work, out=work), out=trial)
        total_t = _power_sum(trial, g_term, r, work)
        energy_t = _energies(trial, costs)
        gap = np.array([t ** (r - 1.0) for t in total_t.tolist()]) - mu_target
        lowered = energy_t + _PENALTIES[stage] * gap * gap < value
        moved = np.abs(np.subtract(trial, xi, out=work), out=work).max(axis=1)
        rejected = ~lowered
        np.copyto(trial, xi, where=rejected[:, np.newaxis])  # these stay put
        xi, trial = trial, xi
        total = np.where(lowered, total_t, total)
        energy = np.where(lowered, energy_t, energy)
        step = np.where(lowered, np.minimum(step * 1.3, 1e3), step * 0.5)
        moves += lowered
        tries += rejected
        ended = np.where(lowered, (moves == 300) | (moved < 1e-14),
                         (tries == 40) | (step < 1e-18))
        stage += ended
        moves[ended] = 0
        fresh = lowered | ended
        tries[fresh] = 0
        done = stage == len(_PENALTIES)
        if done.any():
            for row in np.flatnonzero(done):
                ends[index[row]] = xi[row].copy()
            keep = ~done
            kept = int(keep.sum())
            for stack in (xi, grad):  # the rows still running move up
                stack[:kept] = stack[keep]
            xi, grad, trial, work = (a[:kept] for a in (xi, grad, trial, work))
            (index, total, energy, value, step, stage, moves, tries,
             fresh) = (a[keep] for a in (index, total, energy, value, step,
                                         stage, moves, tries, fresh))
    return ends


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
        m1, m2 = lo + third, hi - third  # m2 - m1 >= 1 while hi - lo > 2
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
    output.  So the 20 starts descend in lock-step, each row of the stack
    with the bits of a descent of its own, and the minimum is taken in start
    order; the purity is always the pairwise ``sum`` of ``g^(1-p) * xi**p``
    with the powers from ``np.power``; see ``_penalty_descent``.
    """
    n = check_dimension(n)
    mu = check_purity(mu)
    r = check_exponent(r, "> 1")

    size = cfg.truncation + 1
    levels = np.arange(size, dtype=float)
    log_g = _log_g(levels, n)
    costs = (2.0 * levels + n) / n

    if mu == 1.0:
        xi = np.zeros(size)
        xi[0] = 1.0
        result = BoundResult(1.0, n, method="brute-force")
        return (result, xi) if return_weights else result

    g_term = np.exp((1.0 - r / (r - 1.0)) * log_g)
    ladder_scale = max(2.0, cfg.truncation / 3.0)

    def start(index):
        if index < 6:  # thermal-profile ladder spanning a range of purities
            tau = ladder_scale / 2.0 ** (index - 2)
            profile = log_g - levels / tau
            raw = np.exp(profile - profile.max())
        elif index == 6:
            raw = np.ones(size)
        else:
            raw = cfg.rng(index).dirichlet(np.ones(size))
        return _retilt_to_purity(raw / raw.sum(), log_g, g_term, r, mu)

    starts = np.array([start(index) for index in range(20)])
    candidates = []
    for xi in _penalty_descent(starts, costs, g_term, r, mu):
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
