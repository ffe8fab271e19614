"""The general purity bound and the cutoff sums behind it.

* ``purity_bound`` -- the general mu^(r) bound for 1 < r <= inf: the
  supremum over cutoffs M of a bracket that is a valid bound for every M,
  and at r = inf the entropy bound at S = -ln mu;
* ``thermal_grouped_spectrum`` -- the minimizer of ``entropy_bound``
  materialized, the reference the tests and ``verify roundtrip`` check the
  closed form against; no bound calls it.

The scalar closed forms (``entropy_bound``, ``interpolated_bound_r2`` and
the highly mixed ``asymptotic_*``) live in ``closed_forms``, which needs
no numpy.

The bracket's supremum is not searched for.  Because dB_r/dM = r B_{r-1},
the bracket is stationary exactly where the lower-bound family
xi_m ~ g_m (M - m)^(r-1) has purity mu, and that family purity,
ln mu(M) = (r-1) ln B_r(M) - r ln B_{r-1}(M), falls monotonically in M.
So the optimal cutoff is one scalar root.  With L = M + n/2 the sums
expand as B_s(M) = K_s L^(n+s) (1 - n(s+n)(s+n-1)/(24 L^2) + O(L^-4)),
K_s = Gamma(s+1)/Gamma(s+n+1), so ln mu(M) falls like
-n ln L - n(r+n-1)(r-n)/(24 L^2), and the root sits near
M* - n/2 - (r+n-1)(r-n)/(24 M*), M* the mu -> 0 cutoff.  From that seed
Newton's method in ln M runs on the exact slope of h, which a third sum,
of order r - 2, gives from the same pass over the levels; where it stalls,
doubling, false position and bisection in ln M close a bracket.  The search
stops at the first cutoff where |h| <= 1e-12/r, where the family's
ln mu(M) = ln mu - r h is within 1e-12 of ln mu.

The cutoff sums are exact up to rounding and scaled, ln(B_s(M)/M^s) from
terms g_m (1 - m/M)^s, so neither h nor the bracket subtracts numbers of
size s ln M or 2M/n; ``_log_B_pair`` alone picks how they are taken.  Up to
20k terms they are summed directly in log space: ln g comes from a table
kept per n, the terms of all three orders fill one buffer, and one
row-wise log-sum-exp reduces it.  Above that, one pass
sums the first and last 1024 levels directly and integrates the levels
between them by Gauss-Legendre with the B2 and B4 Euler-Maclaurin end
terms, skipping panels far below real terms of each sum; every term is
positive, so nothing cancels, and the cost grows with log M, not with M.
Its panel edges, drop test, nodes and end weights take a short, fixed list
of array calls; a panel is split only once its node count is capped, at
n + s > 256, which no order up to r = 100 reaches.
A sum that comes out zero or non-finite at M > 0 raises SolverError.
"""

import functools
import math

import numpy as np

from uncbound.closed_forms import BoundResult, asymptotic_cutoff, entropy_bound
from uncbound.purity import (
    GroupedSpectrum,
    PurityOrder,
    _level_table,
    _log_g,
    _logsumexp_rows,
    log_degeneracy_array,
)
from uncbound.solvers import SolverError, seeded_root
from uncbound.special_fn import check_cutoff, check_dimension, check_exponent, check_purity

__all__ = [
    "B_exact",
    "holder_bracket",
    "log_B_exact",
    "purity_bound",
    "thermal_grouped_spectrum",
]

_DIRECT_TERM_LIMIT = 20_000
_THERMAL_LEVEL_CAP = 400_000


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
# Splitting stops here.  Below n + s = 256 no panel is split; far beyond,
# where s ln u no longer resolves unit steps in m, the split count is unbounded.
_MAX_PANELS = 8192
# 2^k for k <= 1013: the panel edges 1024 2^k and (f + 1024) 2^k of a
# finite cutoff stay below M/2 < 1024 2^1013, the end of the float range
_POWERS = 2.0 ** np.arange(1014)
_POWERS.setflags(write=False)


@functools.cache
def _gauss_rule(count):
    # Gauss-Legendre nodes on (-1, 1) and their log weights, built on first use
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(count)
    log_weights = np.log(weights)
    nodes.setflags(write=False)
    log_weights.setflags(write=False)
    return nodes, log_weights


def _middle_nodes(M, n, orders, refs, x, cut, lg, lu, ln_width):
    """Gauss-Legendre nodes of the middle integral.

    ``x`` holds the panel edges, in m up to M/2 and from index ``cut`` on in
    u up to M/2 (the pair joining the runs is no panel); ``lg`` holds ln g
    at them, ``lu`` ln(u/M) and ``ln_width`` ln of each pair's width.  A
    panel gets N = 12 + floor((n + s)/2) nodes for the largest order s.
    ln g and ln u are monotone across a panel, so their edge values bound
    ln F on it and its variation.  A panel _NEGLIGIBLE_LOG below the largest
    of each row of ``refs`` (real terms of the sums) and the m = 0 term, 0,
    is dropped; one that varies more than N nodes resolve (only once N is
    capped) is split into parts of equal ratio, and past _MAX_PANELS parts
    SolverError is raised.  Returns the nodes (in m first), how many lie in
    m, and their ln weights.
    """
    s_max = max(orders)
    t, log_w = _gauss_rule(12 + min(int(n + s_max) // 2, _NODE_HALF_CAP))
    # s ln(u/M) is largest at the panel's lower u for s >= 0, at its upper one below
    slu = np.multiply.outer(orders, lu)
    bound = np.maximum(lg[:-1], lg[1:]) + np.maximum(slu[:, :-1], slu[:, 1:]) + ln_width
    keep = (bound >= [[max(*row, 0.0) - _NEGLIGIBLE_LOG] for row in refs]).any(0)
    keep[cut - 1] = False
    a, b = x[:-1][keep], x[1:][keep]
    lower = np.count_nonzero(keep[:cut - 1])  # kept panels in m
    total = a.size
    # Across a ratio-2 panel ln g varies by at most (n - 1) ln 2 and s ln(u/M)
    # by at most s ln 2, so N nodes resolve every panel until N is capped
    if n + s_max > 2 * _NODE_HALF_CAP:
        spread = np.abs(lg[1:] - lg[:-1]) + s_max * np.abs(lu[1:] - lu[:-1])
        parts = np.maximum(np.ceil(spread[keep] / (math.log(2.0) * 2 * _NODE_HALF_CAP)), 1.0)
        total = parts.sum()
    if not total <= _MAX_PANELS:
        raise SolverError(f"cutoff sum of order {s_max} at M={M!r} (n={n}) needs "
                          f"more than {_MAX_PANELS} quadrature panels")
    if total > a.size:  # split the steep panels into parts of equal ratio
        count = parts.astype(int)
        ends = count.cumsum()
        step = np.arange(ends[-1]) - (ends - count).repeat(count)
        panel_end = b
        a = a.repeat(count) * np.exp(step * (np.log(b / a) / parts).repeat(count))
        b = np.concatenate([a[1:], a[:1]])  # the next part's start, or the panel's end
        b[ends - 1] = panel_end
        lower = ends[lower - 1] if lower else 0
    radius = 0.5 * (b - a)
    nodes = radius[:, None] * t
    nodes += (0.5 * (a + b))[:, None]
    return nodes.ravel(), int(lower) * t.size, (np.log(radius)[:, None] + log_w).ravel()


# the exponents 1, 2, 3 of the end levels' reciprocal sums
_END_POWERS = np.arange(1, 4)[:, None, None]


def _log_end_weights(M, f, n, orders):
    """ln of the Euler-Maclaurin weights of the middle's bottom and top level.

    The weight is 1/2 -+ (F'/12 - F'''/720)/F, from the log-derivatives of
    F(m) = g(m) u^s, in floats: one pair per order.  It exceeds 0.4 while
    |F'/F| < 1; a steeper end level is below e^-600 of its sum, and dropped.
    The sums over j < n of 1/(m + j)^k, k = 1, 2, 3, that make up the
    log-derivatives of g come from numpy, which fixes their summation order.
    """
    s1 = s2 = s3 = (0.0, 0.0)  # g = 1 at n = 1
    if n > 1:
        inverse = 1.0 / np.add.outer((_TAIL_BLOCK, M - (f + _TAIL_BLOCK)), np.arange(1.0, n))
        s1, s2, s3 = (inverse ** _END_POWERS).sum(axis=2).tolist()
    # (u, sign of the end terms, the three sums) at the bottom and the top end
    ends = [(M - _TAIL_BLOCK, 1.0, s1[0], s2[0], s3[0]),
            (f + _TAIL_BLOCK, -1.0, s1[1], s2[1], s3[1])]
    rows = [(s / u, u, sign, a1 - s / u, a2, a3) for s in orders for u, sign, a1, a2, a3 in ends]
    flat = [abs(row[3]) < 1.0 for row in rows]  # a steep end gets weight 1, then ln -inf
    cubes = (np.array([row[3] if ok else 0.0 for row, ok in zip(rows, flat)]) ** 3).tolist()
    weights = [0.5 - sign * (d / 12.0 - (
        2.0 * a3 - 2.0 * slope / u / u + 3.0 * d * (-a2 - slope / u) + c) / 720.0) if ok else 1.0
        for (slope, u, sign, d, a2, a3), ok, c in zip(rows, flat, cubes)]
    logs = [w if ok else -math.inf for w, ok in zip(np.log(weights).tolist(), flat)]
    return list(zip(logs[::2], logs[1::2]))


def _log_g_at(x, head, M, n):
    # ln g at coordinates that are levels m before ``head`` and gaps
    # u = M - m from it on; g = 1 at n = 1
    if n == 1:
        return np.zeros_like(x)
    return _log_g(np.concatenate([x[:head], M - x[head:]]), n)


def _log_B_tail(M, n, orders):
    """[ln(B_s(M)/M^s) for s in orders], from positive terms only, for M >= 4096.

    The first and last _TAIL_BLOCK levels are summed directly.  The top
    block is written in u = M - m = f + i, which stays exact above 2^53,
    where the integer levels m can no longer be listed.  The levels between
    the blocks are the integral of F(m) = g(m) (u/M)^s over them, by
    Gauss-Legendre on ratio-2 panels, graded in m from the bottom and in u
    from the top to M/2, plus the B2 and B4 Euler-Maclaurin terms at their
    two end levels.  Each ln(u/M) is log1p(-m/M) where m is exact (bottom
    block, m-nodes and m-edges) and ln(u/M) where u is (the rest), so every
    term keeps its relative precision.  Panels are dropped against real
    terms of each sum: the m = 0 term, exactly 0, the end levels and the top
    level u = f.  One pass serves all orders in a short, fixed list of array
    calls: the edges are a table of powers of 2 scaled, one ln g and one
    log1p and log take them and the top level, and one (orders, levels + 2)
    buffer of terms takes one multiply, the ln g of each level (the bottom
    block reads it from the level table; at n = 1, g = 1 and only the nodes'
    ln weights are added), the two end terms and one row-wise log-sum-exp.
    Below 4 _TAIL_BLOCK the blocks would overlap, and ValueError is raised.
    """
    if not M >= 4 * _TAIL_BLOCK:
        raise ValueError(f"the tail sum needs M >= {4 * _TAIL_BLOCK}, got {M!r}")
    block, block_lg = _level_table(_TAIL_BLOCK, n)
    f = (M - math.ceil(M)) + 1.0  # the smallest gap M - m, in (0, 1]
    # ratio-2 panel edges to M/2, in m from the bottom block, then in u from
    # the top, and the top level u = f
    cut, top = (math.ceil(math.log2(0.5 * M / low)) + 1
                for low in (_TAIL_BLOCK, f + _TAIL_BLOCK))
    edges = cut + top
    x = np.empty(edges + 1)
    np.multiply(_POWERS[:cut], _TAIL_BLOCK, out=x[:cut])
    np.multiply(_POWERS[:top], f + _TAIL_BLOCK, out=x[cut:edges])
    x[cut - 1] = x[edges - 1] = 0.5 * M
    x[edges] = f
    # ln g and ln(u/M) at them, then ln of the edge pairs' widths
    lg = _log_g_at(x, cut, M, n)
    lu = np.concatenate([x / M, np.abs(x[1:edges] - x[:edges - 1])])
    np.log1p(np.negative(lu[:cut], out=lu[:cut]), out=lu[:cut])
    np.log(lu[cut:], out=lu[cut:])
    # each sum's terms at its two end levels and its top level
    levels = [(lg.item(i), lu.item(i)) for i in (0, cut, edges)]
    refs = [[g + s * u for g, u in levels] for s in orders]
    if not all(math.isfinite(row[2]) for row in refs):  # s ln(f/M) is the largest |s ln(u/M)|
        raise SolverError(f"cutoff sum of order {max(orders)} at M={M!r} (n={n}): "
                          f"s ln(u/M) is past the float range")
    nodes, lower, node_w = _middle_nodes(M, n, orders, refs, x[:edges], cut,
                                         lg[:edges], lu[:edges], lu[edges + 1:])
    # each term's exact coordinate: m for the bottom block and the m-nodes, then u
    at = np.concatenate([block, nodes, block + f])
    head = _TAIL_BLOCK + lower
    if n > 1:  # ln g of the nodes and the top block, before at turns into ln(u/M)
        log_g = _log_g_at(at[_TAIL_BLOCK:], lower, M, n)
        log_g[:nodes.size] += node_w
    np.log1p(np.multiply(at[:head], -1.0 / M, out=at[:head]), out=at[:head])  # ln(u/M)
    np.log(np.multiply(at[head:], 1.0 / M, out=at[head:]), out=at[head:])
    buffer = np.empty((len(orders), at.size + 2))
    np.multiply.outer(orders, at, out=buffer[:, :-2])
    if n > 1:
        buffer[:, :_TAIL_BLOCK] += block_lg
        buffer[:, _TAIL_BLOCK:-2] += log_g
    else:  # g = 1: only the nodes carry a weight
        buffer[:, _TAIL_BLOCK:_TAIL_BLOCK + nodes.size] += node_w
    end_w = _log_end_weights(M, f, n, orders)
    buffer[:, -2:] = [[row[0] + w[0], row[1] + w[1]] for row, w in zip(refs, end_w)]
    return _logsumexp_rows(buffer).tolist()


def _log_B_pair(M, n, r):
    """ln(B_s(M)/M^s) for s = r, r - 1 and r - 2, M > 0, in one pass over the levels.

    The pair of orders r and r - 1 gives h and the bracket; the order
    r - 2, in (-1, 0) for r < 2, only the slope of h (:func:`purity_bound`).
    The one place the branch is chosen: sums of up to _DIRECT_TERM_LIMIT
    terms are summed directly, and larger ones take :func:`_log_B_tail`.
    Scaled by M^s, each term is g_m (1 - m/M)^s, so no order carries its
    s ln M, and at large s the terms keep the precision of log1p(-m/M).
    A direct sum reads ln g from :func:`_level_table` and fills one
    (3, ceil(M)) buffer: log1p(-m/M) in place in row 0, the order r - 1
    terms (r - 1) log1p(-m/M) + ln g in row 1, row 1 less row 0 in row 2
    for order r - 2, then row 0 += row 1 for order r; one row-wise
    log-sum-exp then reduces the buffer in place.  Past order 1e300 the
    direct factor r - 1 is held at 1e300: every term but m = 0 is then
    below e^-1e295 of it either way, and its log cannot overflow.  A
    cutoff sum at M > 0 holds the positive m = 0 term, so one that comes
    out zero or non-finite raises SolverError.
    """
    orders = (r, r - 1.0, r - 2.0)
    if M <= _DIRECT_TERM_LIMIT:
        levels, log_g = _level_table(math.ceil(M), n)
        terms = np.empty((3, levels.size))
        upper, lower, lowest = terms[0], terms[1], terms[2]  # orders r, r - 1 and r - 2
        np.log1p(np.multiply(levels, -1.0 / M, out=upper), out=upper)
        np.multiply(upper, min(r - 1.0, 1e300), out=lower)
        lower += log_g
        np.subtract(lower, upper, out=lowest)
        upper += lower
        sums = _logsumexp_rows(terms).tolist()
    else:
        sums = _log_B_tail(M, n, orders)
    for log_b, order in zip(sums, orders):
        if not math.isfinite(log_b):
            raise SolverError(
                f"cutoff sum of order {order} is "
                f"{'zero' if log_b == -math.inf else 'non-finite'} at M={M!r} (n={n})"
            )
    return sums


def log_B_exact(M, n, r) -> float:
    """ln of :func:`B_exact`; -inf at M = 0, where the sum is empty.

    The first of :func:`_log_B_pair`, ln(B_r/M^r), plus r ln M: sums of up
    to 20k terms go direct and larger ones take the tail.  Raises
    SolverError when the sum at M > 0 comes out zero or non-finite.
    """
    n = check_dimension(n)
    M = check_cutoff(M, ">= 0")
    r = check_exponent(r, ">= 1")
    if M == 0.0:
        return -math.inf
    return _log_B_pair(M, n, r)[0] + r * math.log(M)


def B_exact(M, n, r) -> float:
    """Sum of degeneracy(m, n) * (M - m)^r over integer 0 <= m <= M."""
    try:
        return math.exp(log_B_exact(M, n, r))  # exp(-inf) = 0 at M = 0
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# general purity bound
# ---------------------------------------------------------------------------


def _bracket(M, n, r, log_mu, scaled_b):
    """(2M + n - 2 (mu B_r)^(1/r)) / n as 1 - (2M/n) expm1((ln mu + scaled_b)/r),
    scaled_b = ln(B_r(M)/M^r), so nothing cancels; -inf where expm1 overflows."""
    try:
        return 1.0 - 2.0 * (M / n * math.expm1((log_mu + scaled_b) / r))
    except OverflowError:
        return -math.inf


def holder_bracket(M, n, r, mu) -> float:
    """Per-dimension bound (2M + n - 2 [mu B(M)]^(1/r)) / n, valid for all M.

    1 at M = 0, and +-inf where the bracket lies beyond the float range.
    Raises SolverError when the cutoff sum at M > 0 comes out zero or
    non-finite, rather than reporting the unbounded (2M + n)/n.
    """
    n = check_dimension(n)
    M = check_cutoff(M, ">= 0")
    r = check_exponent(r, "> 1")
    mu = check_purity(mu)
    if M == 0.0:
        return 1.0
    return _bracket(M, n, r, math.log(mu), _log_B_pair(M, n, r)[0])


def _slope_of_h(r, sums):
    """dh/d(ln M) = (r-1) (M B_{r-2}/B_{r-1} - M B_{r-1}/B_r) from :func:`_log_B_pair`."""
    log_b, log_b_lower, log_b_lowest = sums
    return (r - 1.0) * math.exp(log_b_lower - log_b) * math.expm1(
        log_b_lowest - 2.0 * log_b_lower + log_b)


def purity_bound(mu, n, order: PurityOrder) -> BoundResult:
    """Tightest cutoff bracket: sup over M >= 0 of :func:`holder_bracket`.

    The bracket's slope in M is (2/n)(1 - e^h(M)), where

        h(M) = ln(mu)/r + ln B_{r-1}(M) - ((r-1)/r) ln B_r(M)
             = (ln mu - ln mu(M)) / r

    and mu(M) is the purity of the family xi_m ~ g_m (M - m)^(r-1).  h is
    ln(mu)/r < 0 on (0, 1] and rises: with dB_s/dM = s B_{s-1},

        dh/d(ln M) = (r-1) (M B_{r-2}/B_{r-1} - M B_{r-1}/B_r)
                   = (r-1) (<(1 - m/M)^-1> - <1 - m/M>^-1),

    <.> the mean over the family, and by Jensen's inequality (1/x is
    convex) this is positive once the family holds two levels.  So the
    bracket is concave, and the supremum sits at the root of h: the cutoff
    whose family has purity mu.  With L = M + n/2 the sums expand as

        B_s(M) = K_s L^(n+s) (1 - n(s+n)(s+n-1)/(24 L^2) + O(L^-4)),

    so ln mu(M) = const - n ln L - n(r+n-1)(r-n)/(24 L^2) + O(L^-4), and the
    search starts from M* - n/2 - (r+n-1)(r-n)/(24 M*), M* the
    :func:`asymptotic_cutoff`.  From there :func:`seeded_root` takes Newton
    steps in ln M on the slope above, from the scaled sums
    sB_s = ln(B_s/M^s) as (r-1) e^(sB_{r-1} - sB_r)
    expm1(sB_{r-2} - 2 sB_{r-1} + sB_r), which costs no evaluation of its own.
    Each step is clamped to a factor 2 and kept inside the bracket, and a
    Newton step follows another only if that one cut |h| twofold; otherwise
    doubling, false position or bisection in ln M closes the bracket.  The
    first cutoff with |h| <= 1e-12/r ends the search: its family's purity
    matches mu to 1e-12, its Newton step in ln M is below 1e-12/n, and the
    bracket, flat at the root, is off by its square.  h is taken from the
    scaled sums, whose (r-1) ln M parts cancel exactly, and the value is the
    bracket at the root, from the scaled ln B_r already summed there.
    ``aux`` is the cutoff, ``residual`` is |h| at it and ``iterations``
    counts the evaluations of the three sums.  A search past the float
    range raises ValueError where the entropy floor is past it too, else
    SolverError; so does an r whose r - 1 rounds to r (above 2^53), where
    the two sums would be one.

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
    if r - 1.0 == r:
        raise SolverError(f"order r={r!r} is too large: r - 1 rounds to r (n={n})")

    log_mu = math.log(mu)
    sums_at = {1.0: (0.0, 0.0, 0.0)}  # ln(B_s(1)/1^s) = 0: the m = 0 term alone

    def h(M):
        if not M < math.inf:
            try:  # the bound is above its entropy floor
                entropy_bound(-log_mu, n)
            except ValueError:
                raise ValueError(f"bound for mu = {mu!r} is beyond the float range") from None
            raise SolverError(
                f"no cutoff below the float range has family purity mu={mu} "
                f"(n={n}, r={r})"
            )
        sums = sums_at[M] = _log_B_pair(M, n, r)
        return log_mu / r + sums[1] - (r - 1.0) / r * sums[0]

    # h(1) = ln(mu)/r < 0.  The sums' expansion in L = M + n/2 puts the root
    # at L = M* - (r+n-1)(r-n)/(24 M*)
    star = asymptotic_cutoff(mu, n, r)
    seed = star - 0.5 * n - (r + n - 1.0) * (r - n) / (24.0 * star)
    root = seeded_root(h, 1.0, log_mu / r, seed, lambda M: _slope_of_h(r, sums_at[M]),
                       ftol=1e-12 / r)
    per_dim = max(_bracket(root.x, n, r, log_mu, sums_at[root.x][0]), 1.0)
    return BoundResult(per_dim, n, method="holder-root", aux=root.x,
                       residual=root.residual, iterations=root.iterations)
