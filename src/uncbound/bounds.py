"""Purity- and entropy-parameterized uncertainty bounds.

One comparison form and three routes to a lower bound are implemented:

* ``interpolated_bound_r2`` -- a comparison, not a bound: the r = 2
  gamma-equation form, -2.0e-2 to +1.3e-3 relative to ``purity_bound``;
* ``entropy_bound`` -- the entropy-constrained minimum, attained by a
  product of one-dimensional thermal states, so it is their closed form;
  ``thermal_grouped_spectrum`` materializes that state as the reference the
  tests and ``verify roundtrip`` check it against, and no bound calls it;
* ``purity_bound`` -- the general mu^(r) bound for 1 < r <= inf: the
  supremum over cutoffs M of a bracket that is a valid bound for every M,
  and at r = inf the entropy bound at S = -ln mu;
* ``asymptotic_C`` -- closed forms for the highly mixed limit mu -> 0,
  with ``asymptotic_purity_bound`` and ``asymptotic_entropy_bound`` the
  per-dimension bounds they give (floats: away from the limit they may fall
  below the pure-state floor of 1).

The bracket's supremum is not searched for.  Because dB_r/dM = r B_{r-1},
the bracket is stationary exactly where the lower-bound family
xi_m ~ g_m (M - m)^(r-1) has purity mu, and that family purity,
ln mu(M) = (r-1) ln B_r(M) - r ln B_{r-1}(M), falls monotonically in M.
So the optimal cutoff is one scalar root.  The sums expand as
B_r(M) = K (M + n/2)^(n+r) (1 + O(M^-2)), which puts the root near M* - n/2,
M* the mu -> 0 cutoff, with ln mu(M) falling like -n ln(M + n/2); from that
seed one Newton step in ln M brackets the root, and Brent's method closes
the bracket.

The cutoff sums are exact up to rounding, and ``_log_B_pair`` alone picks
how they are taken.  Up to 20k terms they are summed directly in log
space: ln g comes from a table kept per n, the terms of both orders fill
one buffer, and one row-wise log-sum-exp reduces it.  Above that, one pass
sums the first and last 1024 levels directly and integrates the levels
between them by Gauss-Legendre with the B2 and B4 Euler-Maclaurin end
terms, skipping panels far below real terms of each sum; every term is
positive, so nothing cancels, and the cost grows with log M, not with M.
A sum that comes out zero or non-finite at M > 0 raises SolverError.
"""

import functools
import math

import numpy as np

from uncbound.purity import GroupedSpectrum, PurityOrder
from uncbound.solvers import SolverError, brent_root, seeded_root
from uncbound.special_fn import (
    _level_table,
    _log_g,
    _logsumexp_rows,
    check_cutoff,
    check_dimension,
    check_exponent,
    check_purity,
    log_degeneracy_array,
)
from uncbound.spectrum_bound import BoundResult

__all__ = [
    "B_asymptotic",
    "B_exact",
    "asymptotic_C",
    "asymptotic_cutoff",
    "asymptotic_entropy_bound",
    "asymptotic_purity_bound",
    "entropy_bound",
    "holder_bracket",
    "interpolated_bound_r2",
    "log_B_exact",
    "purity_bound",
    "thermal_entropy",
    "thermal_grouped_spectrum",
]

_DIRECT_TERM_LIMIT = 20_000
_THERMAL_LEVEL_CAP = 400_000


# ---------------------------------------------------------------------------
# interpolated r = 2 relation
# ---------------------------------------------------------------------------


def _log_interp_mu(L, n):
    # ln of (n+2L) (n+1)! Gamma(L) / ((n+2) Gamma(L+n+1)); equals 0 at L = 1.
    # The gamma ratio telescopes to prod_{j=0..n} (L+j), which avoids the
    # catastrophic lgamma cancellation at the large L of the mu -> 0 limit.
    return (
        math.log(n + 2.0 * L)
        + math.lgamma(n + 2.0)
        - math.log(n + 2.0)
        - math.fsum(math.log(L + j) for j in range(n + 1))
    )


def interpolated_bound_r2(mu, n) -> BoundResult:
    """Per-dimension comparison value (n + 2L)/(n + 2) for the usual purity mu.

    L solves a strictly decreasing gamma-function equation whose root is 1
    at mu = 1 (the pure state) and tends to L* = (2 (n+1)! / ((n+2) mu))^(1/n)
    as mu -> 0; ln mu(L) falls like -n ln(L + n/2).  From L = 1, the seed
    L* - n/2 and one Newton step of slope n in ln L, :func:`seeded_root`
    brackets the root and Brent's method closes it; ``iterations`` counts
    the evaluations of the equation.  A root beyond the float range raises
    ValueError.  Not a lower bound: at n = 2, mu = 0.396812 it is 1.33e-3
    above the valid bound, :func:`purity_bound` at r = 2.
    """
    n = check_dimension(n)
    mu = check_purity(mu)
    if mu == 1.0:
        return BoundResult(1.0, n, method="interpolated-r2", aux=1.0)
    target = math.log(mu)

    def f(L):  # increasing, and -ln mu < 0 at L = 1
        if not L < math.inf:
            raise ValueError(f"no root below the float range for mu={mu!r} (n={n})")
        return target - _log_interp_mu(L, n)

    # the n-th roots are taken apart: the quotient can overflow where L* does not
    seed = (2.0 * math.factorial(n + 1) / (n + 2.0)) ** (1.0 / n) / mu ** (1.0 / n)
    # ln mu(L) ~ c - n ln(L + n/2): start at L* - n/2, with slope n in ln L
    root = seeded_root(f, 1.0, target, seed - 0.5 * n, n)
    L = root.x  # >= 1: the bracket starts at L = 1
    if root.residual > 1e-10:
        raise SolverError(
            f"interpolation root stalled at L={L} with residual {root.residual:.3e}"
        )
    per_dim = (n + 2.0 * L) / (n + 2.0)
    return BoundResult(per_dim, n, method="interpolated-r2", aux=L,
                       residual=root.residual, iterations=root.iterations)


# ---------------------------------------------------------------------------
# entropy-constrained bound (thermal minimizer)
# ---------------------------------------------------------------------------


def _mode_entropy(nbar):
    # entropy (nbar+1) ln(nbar+1) - nbar ln(nbar) of one thermal mode with mean
    # occupation nbar, as a sum of two positive terms so nothing cancels
    return math.log1p(nbar) + nbar * math.log1p(1.0 / nbar)


def thermal_entropy(beta, n) -> float:
    """Entropy of the thermal family xi_m = A g_m e^{-beta m}."""
    n = check_dimension(n)
    beta = float(beta)
    if not beta > 0.0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if math.isinf(beta):
        return 0.0
    u = -math.expm1(-beta)  # 1 - e^{-beta}
    x = math.exp(-beta)
    # ln u from whichever of u, x kept full precision: ln(1 - x) -> -x as x -> 0
    log_u = math.log(u) if x > 0.5 else math.log1p(-x)
    return n * (-log_u + beta * x / u)


def _solve_thermal(S, n):
    # Brent's method in y = ln nbar: the entropy rises with y, and the root
    # spans hundreds of decades in nbar but a few hundred units in y.
    # ln(1 + nbar) < S/n bounds y from above; e^709.7 is still a float.
    # The error in y is the relative error of nbar, so y is solved to 1e-15
    # absolute as well: near S/n = 2 ln 2 the root y is close to 0, where a
    # tolerance relative to |y| alone vanishes.
    s1 = float(S) / n  # per-dimension entropy; the solve depends on S only via s1

    def f(y):
        return _mode_entropy(math.exp(y)) - s1

    lo, hi = math.log(1e-300), min(s1, 709.7)
    f_hi = f(hi)
    if f_hi < 0.0:  # S/n above 710.7: the bound is past the float range
        return math.inf, 1
    root = brent_root(f, lo, hi, f(lo), f_hi, rtol=1e-14, atol=1e-15)
    return math.exp(root.x), root.iterations + 2  # the two bracket ends are evaluations too


def thermal_grouped_spectrum(beta, n) -> GroupedSpectrum:
    """Materialize xi_m = A g_m e^{-beta m} as a GroupedSpectrum.

    The reference for the closed forms, used by the tests and by
    ``verify roundtrip``; no bound calls it.  Truncated at mean + 40 sigma,
    which leaves a tail far below the normalization tolerance.  Raises
    ValueError when that would take more than _THERMAL_LEVEL_CAP levels.
    """
    n = check_dimension(n)
    beta = float(beta)
    if not beta > 0.0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if math.isinf(beta):
        return GroupedSpectrum(n=n, weights=np.array([1.0]))
    x = math.exp(-beta)
    u = -math.expm1(-beta)
    mean = n * x / u
    sigma = math.sqrt(n * x) / u
    top = mean + 40.0 * sigma + 64.0  # compared as a float: it may be inf
    if not top < _THERMAL_LEVEL_CAP:
        raise ValueError(
            f"thermal spectrum at beta={beta:.3e}, n={n} needs ~{top:.3g} levels, "
            f"above the cap {_THERMAL_LEVEL_CAP}"
        )
    m = np.arange(int(top) + 1, dtype=float)
    log_xi = n * math.log(u) + log_degeneracy_array(m, n) - beta * m
    return GroupedSpectrum(n=n, weights=np.exp(log_xi))


def entropy_bound(S, n) -> BoundResult:
    """Minimal per-dimension uncertainty product at fixed entropy S.

    The minimizer is the thermal product state, fixed in each dimension by
    its mean occupation nbar, the root of (nbar+1) ln(nbar+1) - nbar ln(nbar)
    = S/n; the bound is 2 nbar + 1.  ``aux`` is the inverse temperature
    beta = ln(1 + 1/nbar) and ``residual`` is |thermal_entropy(beta, n) - S|.
    Raises ValueError where the bound is beyond the float range (S/n above
    710.09).
    """
    n = check_dimension(n)
    S = float(S)
    if not S >= 0.0:
        raise ValueError(f"entropy must be >= 0, got {S}")
    if S < 1e-290:
        return BoundResult(1.0, n, method="thermal", aux=math.inf)
    nbar, evals = _solve_thermal(S, n)
    per_dim = 2.0 * nbar + 1.0
    if per_dim == math.inf:
        raise ValueError(f"bound for S/n = {S / n!r} is beyond the float range")
    beta = math.log1p(1.0 / nbar)
    return BoundResult(per_dim, n, method="thermal", aux=beta,
                       residual=abs(thermal_entropy(beta, n) - S), iterations=evals)


# ---------------------------------------------------------------------------
# cutoff sums behind the general bracket
# ---------------------------------------------------------------------------


_TAIL_BLOCK = 1024
# A panel of the middle integral carries at most 12 + _NODE_HALF_CAP nodes;
# a steeper panel is split instead, so no node count grows with r.
_NODE_HALF_CAP = 128
# A panel whose integral is provably below e^-50 of the sum is skipped: the
# at most ~2100 panels of a float-range cutoff then miss under 1e-18 of it.
_NEGLIGIBLE_LOG = 50.0
# Splitting stops here.  Up to r = 100 no panel is split; far beyond, where
# s ln u no longer resolves unit steps in m, the split count is unbounded.
_MAX_PANELS = 8192


@functools.cache
def _gauss_rule(count):
    # Gauss-Legendre nodes on (-1, 1) and their log weights, built on first use
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(count)
    log_weights = np.log(weights)
    nodes.setflags(write=False)
    log_weights.setflags(write=False)
    return nodes, log_weights


def _middle_nodes(M, n, orders, refs, x, cut, lg, lu):
    """Gauss-Legendre nodes of the middle integral.

    ``x`` holds the panel edges, in m up to M/2 and from index ``cut`` on in
    u up to M/2 (the pair joining the runs is no panel); ``lg`` holds ln g
    at them, ``lu`` ln u at them, then ln of each pair's width and ratio.
    A panel gets N = 12 + floor((n + s)/2) nodes for the largest order s.
    ln g and ln u are monotone across a panel, so their edge values bound
    ln F on it and its variation.  A panel _NEGLIGIBLE_LOG below the largest
    of each row of ``refs`` (real terms of the sums) is dropped; one that
    varies more than N nodes resolve (only once N is capped) is split into
    parts of equal ratio, and past _MAX_PANELS parts SolverError is raised.
    Returns the nodes (in m first), how many lie in m, and their ln weights.
    """
    s = np.asarray(orders, dtype=float)[:, None]
    s_max = float(s.max())
    t, log_w = _gauss_rule(12 + min(int(n + s_max) // 2, _NODE_HALF_CAP))
    resolved = math.log(2.0) * min(n + s_max, 2.0 * _NODE_HALF_CAP)
    lu, ln_width, ln_ratio = lu[:x.size], lu[x.size:2 * x.size - 1], lu[2 * x.size - 1:]
    bound = np.maximum(lg[:-1], lg[1:]) + s * np.maximum(lu[:-1], lu[1:]) + ln_width
    keep = (bound >= [[max(row) - _NEGLIGIBLE_LOG] for row in refs]).any(0)
    keep[cut - 1] = False
    spread = np.abs(lg[1:] - lg[:-1]) + s_max * np.abs(lu[1:] - lu[:-1])
    parts = np.maximum(np.ceil(spread / resolved), 1.0)
    count = parts * keep  # no part for a dropped pair
    if not count.sum() <= _MAX_PANELS:
        raise SolverError(f"cutoff sum of order {s_max} at M={M!r} (n={n}) needs "
                          f"more than {_MAX_PANELS} quadrature panels")
    count = count.astype(int)
    ends = count.cumsum()
    step = np.arange(ends[-1]) - (ends - count).repeat(count)
    a = x[:-1].repeat(count) * np.exp(step * (ln_ratio / parts).repeat(count))
    b = np.concatenate([a[1:], a[:1]])  # the next part's start, or the panel's end
    b[ends[keep] - 1] = x[1:][keep]
    radius = 0.5 * (b - a)
    nodes = ((0.5 * (a + b))[:, None] + radius[:, None] * t).ravel()
    return nodes, int(ends[cut - 2]) * t.size, (np.log(radius)[:, None] + log_w).ravel()


def _log_end_weights(M, f, n, orders):
    """ln of the Euler-Maclaurin weights of the middle's bottom and top level.

    The weight is 1/2 -+ (F'/12 - F'''/720)/F, from the log-derivatives of
    F(m) = g(m) u^s, in floats: one pair per order.  It exceeds 0.4 while
    |F'/F| < 1; a steeper end level is below e^-600 of its sum, and dropped.
    """
    inverse = 1.0 / np.add.outer(
        (_TAIL_BLOCK, M - (f + _TAIL_BLOCK)), np.arange(1.0, n))
    s1, s2, s3 = (inverse ** np.arange(1, 4)[:, None, None]).sum(axis=2).tolist()
    ends = [(s / u, u, end) for s in orders
            for end, u in enumerate((M - _TAIL_BLOCK, f + _TAIL_BLOCK))]
    d1 = [s1[end] - slope for slope, u, end in ends]
    flat = [abs(d) < 1.0 for d in d1]  # a steep end gets weight 1, then ln -inf
    cubes = (np.array([d if ok else 0.0 for d, ok in zip(d1, flat)]) ** 3).tolist()
    weights = [1.0 if not ok else 0.5 - (1 - 2 * end) * (d / 12.0 - (
        2.0 * s3[end] - 2.0 * slope / u / u + 3.0 * d * (-s2[end] - slope / u) + c
    ) / 720.0) for (slope, u, end), d, ok, c in zip(ends, d1, flat, cubes)]
    logs = [w if ok else -math.inf for w, ok in zip(np.log(weights).tolist(), flat)]
    return [logs[i:i + 2] for i in range(0, len(logs), 2)]


def _log_B_tail(M, n, orders):
    """[ln B_s(M) for s in orders], from positive terms only, for M >= 4096.

    The first and last _TAIL_BLOCK levels are summed directly.  The top
    block is written in u = M - m = f + i, which stays exact above 2^53,
    where the integer levels m can no longer be listed.  The levels between
    the blocks are the integral of F(m) = g(m) (M - m)^s over them, by
    Gauss-Legendre on ratio-2 panels, graded in m from the bottom and in u
    from the top to M/2, plus the B2 and B4 Euler-Maclaurin terms at their
    two end levels.  Panels are dropped against real terms of each sum: the
    m = 0 term, the end levels and the top level u = f.  One pass serves all
    orders: one ln g and one ln over the edges and those levels, then one
    (orders, levels + 2) buffer of terms (the bottom block reads ln g from
    the level table, the rest share one ln g and one ln), one multiply-add
    and one row-wise log-sum-exp.  Below 4 _TAIL_BLOCK the blocks would
    overlap, and ValueError is raised.
    """
    if not M >= 4 * _TAIL_BLOCK:
        raise ValueError(f"the tail sum needs M >= {4 * _TAIL_BLOCK}, got {M!r}")
    block, block_lg = _level_table(_TAIL_BLOCK, n)
    f = (M - math.ceil(M)) + 1.0  # the smallest gap M - m, in (0, 1]
    # ratio-2 panel edges to M/2, in m from the bottom block, then in u from the top
    cut, top = (math.ceil(math.log2(0.5 * M / low)) + 1
                for low in (_TAIL_BLOCK, f + _TAIL_BLOCK))
    powers = 2.0 ** np.arange(max(cut, top))
    x = np.concatenate([_TAIL_BLOCK * powers[:cut], (f + _TAIL_BLOCK) * powers[:top]])
    x[cut - 1] = x[-1] = 0.5 * M
    other = M - x
    # ln g, ln u at the edges and at u = f; ln of pair widths and ratios; ln M
    lg = _log_g(np.concatenate([x[:cut], other[cut:], [M - f]]), n)
    lu = np.log(np.concatenate(
        [other[:cut], x[cut:], np.abs(x[1:] - x[:-1]), x[1:] / x[:-1], [f, M]]))
    # each sum's terms at its two end levels, its top level and m = 0
    refs = [[lg.item(0) + s * lu.item(0), lg.item(cut) + s * lu.item(cut),
             lg.item(-1) + s * lu.item(-2), s * lu.item(-1)] for s in orders]
    nodes, lower, node_w = _middle_nodes(M, n, orders, refs, x, cut, lg[:-1], lu[:-2])
    other = M - nodes  # in m first; neither m nor u is a difference near M
    u = np.concatenate([M - block, block + f, other[:lower], nodes[lower:]])
    log_g = np.concatenate([block_lg, _log_g(np.concatenate(
        [M - u[_TAIL_BLOCK:2 * _TAIL_BLOCK], nodes[:lower], other[lower:]]), n)])
    log_g[2 * _TAIL_BLOCK:] += node_w
    buffer = np.empty((len(refs), u.size + 2))
    np.multiply.outer(orders, np.log(u), out=buffer[:, :-2])
    buffer[:, :-2] += log_g
    end_w = _log_end_weights(M, f, n, orders)
    buffer[:, -2:] = [[row[0] + w[0], row[1] + w[1]] for row, w in zip(refs, end_w)]
    return _logsumexp_rows(buffer).tolist()


def _log_B_pair(M, n, r):
    """(ln B_r(M), ln B_{r-1}(M)) for M > 0, in one pass over the levels.

    The one place the branch is chosen: sums of up to _DIRECT_TERM_LIMIT
    terms are summed directly, and larger ones take :func:`_log_B_tail`.
    A direct sum reads ln g from :func:`_level_table` and fills one
    (2, ceil(M)) buffer: ln(M - m) in place in row 0, the order r - 1 terms
    (r - 1) ln(M - m) + ln g in row 1, then row 0 += row 1 for order r; one
    row-wise log-sum-exp then reduces the buffer in place.  A cutoff sum at
    M > 0 holds the positive m = 0 term, so one that comes out zero or
    non-finite raises SolverError.
    """
    if M <= _DIRECT_TERM_LIMIT:
        levels, log_g = _level_table(math.ceil(M), n)
        terms = np.empty((2, levels.size))
        upper, lower = terms  # orders r and r - 1
        np.subtract(M, levels, out=upper)
        np.log(upper, out=upper)
        np.multiply(upper, r - 1.0, out=lower)
        lower += log_g
        upper += lower
        pair = _logsumexp_rows(terms).tolist()
    else:
        pair = _log_B_tail(M, n, (r, r - 1.0))
    for log_b, order in zip(pair, (r, r - 1.0)):
        if not math.isfinite(log_b):
            raise SolverError(
                f"cutoff sum of order {order} is "
                f"{'zero' if log_b == -math.inf else 'non-finite'} at M={M!r} (n={n})"
            )
    return pair


def log_B_exact(M, n, r) -> float:
    """ln of :func:`B_exact`; -inf at M = 0, where the sum is empty.

    The first of :func:`_log_B_pair`: sums of up to 20k terms go direct and
    larger ones take the tail.  Raises SolverError when the sum at M > 0
    comes out zero or non-finite.
    """
    n = check_dimension(n)
    M = check_cutoff(M, ">= 0")
    r = check_exponent(r, ">= 1")
    if M == 0.0:
        return -math.inf
    return _log_B_pair(M, n, r)[0]


def B_exact(M, n, r) -> float:
    """Sum of degeneracy(m, n) * (M - m)^r over integer 0 <= m <= M."""
    try:
        return math.exp(log_B_exact(M, n, r))  # exp(-inf) = 0 at M = 0
    except OverflowError:
        return math.inf


def B_asymptotic(M, n, r) -> float:
    """Large-M closed form M^(n+r) / prod_{k=1..n} (r+k).

    Exact value of the integral that replaces the cutoff sum when M is
    large; ``verify b-approx`` checks it against the Beta function to 1e-9.
    """
    n = check_dimension(n)
    M = check_cutoff(M, "> 0")
    r = check_exponent(r, ">= 1")
    try:
        return math.exp((n + r) * math.log(M) - math.fsum(
            math.log(r + k) for k in range(1, n + 1)))
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# general purity bound
# ---------------------------------------------------------------------------


def _bracket(M, n, r, log_mu, log_b):
    """(2M + n - 2 e^((ln mu + log_b)/r)) / n, log_b = ln B_r(M); past the float
    range the difference is scaled by its larger side: +-inf beyond it, never nan."""
    log_term = (log_mu + log_b) / r
    try:
        value = (2.0 * M + n - 2.0 * math.exp(log_term)) / n
    except OverflowError:
        value = math.nan
    if math.isfinite(value):
        return value
    log_half = math.log(M + 0.5 * n)  # ln((2M + n)/2)
    top = max(log_half, log_term)
    gap = math.exp(log_half - top) - math.exp(log_term - top)
    # (2/n) e^top in two factors; past e^1400 the value is -inf either way
    half = math.exp(0.5 * min(top + math.log(2.0 / n), 1400.0))
    return gap * half * half


def holder_bracket(M, n, r, mu) -> float:
    """Per-dimension bound (2M + n - 2 [mu B(M)]^(1/r)) / n, valid for all M.

    +-inf where the bracket lies beyond the float range.  Raises SolverError
    when the cutoff sum at M > 0 comes out zero or non-finite, rather than
    reporting the unbounded (2M + n)/n.
    """
    n = check_dimension(n)
    M = check_cutoff(M, ">= 0")
    r = check_exponent(r, "> 1")
    mu = check_purity(mu)
    log_b = _log_B_pair(M, n, r)[0] if M > 0.0 else -math.inf  # the bracket is 1 at M = 0
    return _bracket(M, n, r, math.log(mu), log_b)


def purity_bound(mu, n, order: PurityOrder) -> BoundResult:
    """Tightest cutoff bracket: sup over M >= 0 of :func:`holder_bracket`.

    The bracket is concave in M (its curvature follows from a
    Cauchy-Schwarz bound on the cutoff sums) with slope
    (2/n)(1 - e^h(M)), where

        h(M) = ln(mu)/r + ln B_{r-1}(M) - ((r-1)/r) ln B_r(M)
             = (ln mu - ln mu(M)) / r

    and mu(M) is the purity of the family xi_m ~ g_m (M - m)^(r-1).  So the
    supremum sits at the root of h: the cutoff whose family has purity mu.
    h = ln(mu)/r < 0 on (0, 1].  The search starts from
    :func:`asymptotic_cutoff` minus n/2, where the second-order expansion of
    the sums puts the root, and takes one Newton step in ln M with the
    slope n/r of h there; Brent's method closes the pair once it straddles
    the root, and :func:`seeded_root` falls back to doubling or halving
    when it does not.  The value is the bracket at the root, from the
    ln B_r already summed there.  ``aux`` is the cutoff, ``residual`` is
    |h| at it and ``iterations`` counts the evaluations of the pair
    (B_r, B_{r-1}).

    The order r = inf is the entropy end, mu = exp(-S): the result is
    :func:`entropy_bound` at S = -ln mu.  The superpurity order r = 1 has
    no bound yet and raises ValueError.
    """
    n = check_dimension(n)
    mu = check_purity(mu)
    r = order.r
    if r == math.inf:
        return entropy_bound(-math.log(mu), n)
    if r == 1.0:
        raise ValueError("purity_bound has no bound for the superpurity order r = 1 yet")
    if mu == 1.0:  # every cutoff in (0, 1] carries the vacuum alone
        return BoundResult(1.0, n, method="holder-root", aux=1.0)

    log_mu = math.log(mu)
    log_b_at = {1.0: 0.0}  # ln B_r(1) = 0: the m = 0 term alone

    def h(M):
        if not M < math.inf:
            raise SolverError(
                f"no cutoff below the float range has family purity mu={mu} "
                f"(n={n}, r={r})"
            )
        log_b, log_b_lower = _log_B_pair(M, n, r)
        log_b_at[M] = log_b
        return log_mu / r + log_b_lower - (r - 1.0) / r * log_b

    # h(1) = ln(mu)/r < 0.  B_r(M) ~ K (M + n/2)^(n+r) puts the root near
    # M* - n/2, where h rises like (n/r) ln(M + n/2)
    seed = asymptotic_cutoff(mu, n, r) - 0.5 * n
    root = seeded_root(h, 1.0, log_mu / r, seed, n / r)
    per_dim = max(_bracket(root.x, n, r, log_mu, log_b_at[root.x]), 1.0)
    return BoundResult(per_dim, n, method="holder-root", aux=root.x,
                       residual=root.residual, iterations=root.iterations)


# ---------------------------------------------------------------------------
# highly mixed closed forms
# ---------------------------------------------------------------------------


def asymptotic_cutoff(mu, n, r) -> float:
    """Optimal bracket cutoff as mu -> 0: [(r/(n+r))^r prod_{k=1..n}(r+k) / mu]^(1/n).

    The cutoff at which the lower-bound family's purity equals mu once the
    cutoff sums are replaced by their large-M closed forms; inf when it
    exceeds the float range.  Raises ValueError for mu outside (0, 1] and
    for an r that is not finite and >= 1.
    """
    n = check_dimension(n)
    mu, r = check_purity(mu), check_exponent(r, ">= 1")
    scale = (r / (n + r)) ** (r / n)
    scale *= math.exp(sum(math.log(r + k) for k in range(1, n + 1)) / n)
    try:
        return scale * mu ** (-1.0 / n)
    except OverflowError:
        return math.inf


def asymptotic_C(n, r) -> float:
    """Uncertainty constant 2^n r^r prod_{k=1..n}(r+k) / (n+r)^(n+r).

    The product mu^(r) (bound)^n approaches this value as mu -> 0; r = 1
    gives the superpurity member and r = inf its limit (2/e)^n, the
    entropy member.
    """
    n = check_dimension(n)
    r = float(r)
    if not r >= 1.0:
        raise ValueError(f"exponent r must be >= 1, got {r}")
    if r == math.inf:
        return (2.0 / math.e) ** n
    log_c = n * math.log(2.0) - r * math.log1p(n / r)
    log_c += math.fsum(math.log((r + k) / (n + r)) for k in range(1, n + 1))
    return math.exp(log_c)


def asymptotic_purity_bound(mu, n, r) -> float:
    """Per-dimension bound (C/mu)^(1/n) of the mu -> 0 limit, C = asymptotic_C.

    A float, not a BoundResult: away from that limit it can fall below the
    pure-state floor (mu = 1 gives C^(1/n)).  Raises ValueError where it is
    beyond the float range.
    """
    mu = check_purity(mu)
    c = asymptotic_C(n, r)
    if c / mu < math.inf:
        value = (c / mu) ** (1.0 / n)
    else:  # C/mu overflows at a subnormal mu; its n-th root may not
        value = c ** (1.0 / n) / mu ** (1.0 / n)
    if not math.isfinite(value):
        raise ValueError(f"bound for mu = {mu!r} is beyond the float range")
    return value


def asymptotic_entropy_bound(S, n) -> float:
    """Per-dimension bound (2/e) e^(S/n) of the large-S limit.

    A float, not a BoundResult: it falls below the pure-state floor for
    S/n < 1 - ln 2.  Raises ValueError where it is beyond the float range.
    """
    n = check_dimension(n)
    S = float(S)
    if not S >= 0.0:
        raise ValueError(f"entropy must be >= 0, got {S}")
    try:
        value = math.exp(S / n) * 2.0 / math.e
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"bound for S/n = {S / n!r} is beyond the float range")
    return value
