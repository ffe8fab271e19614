"""Purity- and entropy-parameterized uncertainty bounds.

Four routes to a lower bound are implemented:

* ``interpolated_bound_r2`` -- the r = 2 relation valid for all mu,
  driven by the root of a gamma-function equation;
* ``entropy_bound`` -- the entropy-constrained minimum, attained by a
  product of one-dimensional thermal states;
* ``purity_bound`` -- the general mu^(r) bound, the supremum over cutoffs M
  of a bracket that is a valid bound for every M;
* ``asymptotic_C`` -- closed forms for the highly mixed limit mu -> 0,
  with ``asymptotic_purity_bound`` and ``asymptotic_entropy_bound`` the
  per-dimension bounds they give (floats: away from the limit they may fall
  below the pure-state floor of 1).

The bracket's supremum is not searched for.  Because dB_r/dM = r B_{r-1},
the bracket is stationary exactly where the lower-bound family
xi_m ~ g_m (M - m)^(r-1) has purity mu, and that family purity,
ln mu(M) = (r-1) ln B_r(M) - r ln B_{r-1}(M), falls monotonically in M.
So the optimal cutoff is one scalar root, found by Brent's method from a
bracket around the mu -> 0 cutoff M*.

The cutoff sums are exact up to rounding: below 200k terms they are summed
directly in log space, above that the smooth tail is evaluated by
Euler-Maclaurin with explicit correction terms, so a sum stays cheap even
when the optimal cutoff reaches 1e8.  A sum that comes out zero or
non-finite at M > 0 raises SolverError.
"""

import math
from dataclasses import dataclass

import numpy as np

from uncbound.purity import GroupedSpectrum, PurityOrder
from uncbound.solvers import SolverError, bisect_root, brent_root
from uncbound.special_fn import (
    check_dimension,
    log_degeneracy_array,
    logsumexp,
    signed_logsumexp,
)
from uncbound.spectrum_bound import BoundResult, bound_from_grouped

__all__ = [
    "ThermalParams",
    "B_asymptotic",
    "B_exact",
    "asymptotic_C",
    "asymptotic_C_entropy_limit",
    "asymptotic_cutoff",
    "asymptotic_entropy_bound",
    "asymptotic_purity_bound",
    "entropy_bound",
    "holder_bracket",
    "interpolated_bound_r2",
    "log_B_exact",
    "purity_bound",
    "thermal_beta_from_entropy",
    "thermal_entropy",
    "thermal_grouped_spectrum",
]

_ROOT_RTOL = 1e-12
_DIRECT_TERM_LIMIT = 200_000
_THERMAL_LEVEL_CAP = 2_000_000


@dataclass(frozen=True)
class ThermalParams:
    """Inverse-temperature-like parameter of the thermal minimizer
    xi_m ~ g_m exp(-beta m)."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta!r}")


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
    """Per-dimension bound (n + 2L)/(n + 2) for the usual purity mu.

    L solves a strictly decreasing gamma-function equation, so a bracketed
    bisection starting from L = 1 (the pure state) always converges.
    """
    n = check_dimension(n)
    mu = float(mu)
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must be in (0, 1], got {mu}")
    if mu == 1.0:
        return BoundResult.from_per_dim(1.0, n, method="interpolated-r2", aux=1.0)
    target = math.log(mu)
    root = bisect_root(lambda L: _log_interp_mu(L, n) - target, 1.0, 2.0,
                       rtol=_ROOT_RTOL)
    L = root.x  # >= 1: the bisection bracket starts at L = 1
    residual = abs(_log_interp_mu(L, n) - target)
    if residual > 1e-10:
        raise SolverError(
            f"interpolation root stalled at L={L} with residual {residual:.3e}"
        )
    per_dim = (n + 2.0 * L) / (n + 2.0)
    return BoundResult.from_per_dim(
        per_dim, n, method="interpolated-r2", aux=L,
        residual=residual, iterations=root.iterations,
    )


# ---------------------------------------------------------------------------
# entropy-constrained bound (thermal minimizer)
# ---------------------------------------------------------------------------


def _beta_of(u, x):
    # beta = -ln(x) = -ln(1-u); branch on which operand kept full precision
    return -math.log(x) if x <= 0.5 else -math.log1p(-u)


def _one_dim_entropy(t):
    # entropy of the one-dimensional thermal state with u = 1 - e^{-beta} = e^t;
    # expressed through beta so no log is ever taken of a value near 1
    u = math.exp(t)
    x = -math.expm1(t)  # e^{-beta}
    if x <= 0.0:
        return 0.0
    if u == 0.0:  # u underflowed; beta = -ln(1 - u) ~ u, so beta x / u -> 1
        return 1.0 - t
    return -t + _beta_of(u, x) * x / u


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
    return n * (-math.log(u) + beta * x / u)


def _solve_thermal(S, n):
    s1 = float(S) / n  # per-dimension entropy; the solve depends on S only via s1
    lo = -(s1 + 2.0)
    root = bisect_root(lambda t: _one_dim_entropy(t) - s1, lo, -1e-300,
                       rtol=1e-14, expand=False)
    t = root.x
    beta = _beta_of(math.exp(t), -math.expm1(t))
    return ThermalParams(beta=beta), root


def thermal_beta_from_entropy(S, n) -> ThermalParams:
    """Inverse of the thermal-family entropy: beta with S(beta) = S.

    S = 0 maps to beta = +inf (the vacuum).  The solve runs on the
    per-dimension entropy S/n, which makes the bound factorize exactly
    across dimensions.
    """
    n = check_dimension(n)
    S = float(S)
    if S < 0.0:
        raise ValueError(f"entropy must be >= 0, got {S}")
    if S < 1e-290:
        return ThermalParams(beta=math.inf)
    return _solve_thermal(S, n)[0]


def thermal_grouped_spectrum(beta, n, max_levels=_THERMAL_LEVEL_CAP) -> GroupedSpectrum:
    """Materialize xi_m = A g_m e^{-beta m} as a GroupedSpectrum.

    Truncated at mean + 40 sigma, which leaves a tail far below the
    normalization tolerance.  Raises ValueError when that would take more
    than ``max_levels`` levels.
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
    if not top < max_levels:
        raise ValueError(
            f"thermal spectrum at beta={beta:.3e}, n={n} needs ~{top:.3g} levels, "
            f"above the cap {max_levels}"
        )
    m = np.arange(int(top) + 1, dtype=float)
    log_xi = n * math.log(u) + log_degeneracy_array(m, n) - beta * m
    return GroupedSpectrum(n=n, weights=np.exp(log_xi))


def entropy_bound(S, n) -> BoundResult:
    """Minimal per-dimension uncertainty product at fixed entropy S.

    The closed form (1 + e^{-beta})/(1 - e^{-beta}) is cross-checked
    against the grouped-spectrum sum whenever the thermal state is small
    enough to materialize.
    """
    n = check_dimension(n)
    S = float(S)
    if S < 0.0:
        raise ValueError(f"entropy must be >= 0, got {S}")
    if S < 1e-290:
        return BoundResult.from_per_dim(1.0, n, method="thermal", aux=math.inf)
    params, root = _solve_thermal(S, n)
    x = math.exp(-params.beta)
    u = -math.expm1(-params.beta)
    per_dim = 1.0 + 2.0 * x / u
    residual = abs(thermal_entropy(params.beta, n) - S)
    try:
        grouped = thermal_grouped_spectrum(params.beta, n)
    except ValueError:
        grouped = None  # too mixed to materialize; closed form stands alone
    if grouped is not None:
        other = bound_from_grouped(grouped).per_dim_product
        if abs(other - per_dim) > 1e-9 * per_dim:
            raise SolverError(
                f"thermal bound paths disagree: closed {per_dim!r} vs "
                f"grouped {other!r}"
            )
    return BoundResult.from_per_dim(
        per_dim, n, method="thermal", aux=params.beta,
        residual=residual, iterations=root.iterations,
    )


# ---------------------------------------------------------------------------
# cutoff sums behind the general bracket
# ---------------------------------------------------------------------------


def _direct_terms(M, n):
    # ln g_m and ln(M - m) over the levels 0 <= m < M of the cutoff sum
    m = np.arange(math.ceil(M), dtype=float)
    return log_degeneracy_array(m, n), np.log(M - m)


def _log_B_direct(M, n, r):
    log_g, log_gaps = _direct_terms(M, n)
    return logsumexp(log_g + r * log_gaps)


_EM_DIRECT_BLOCK = 1024


def _log_power_sum(s, f, K):
    """ln of sum_{i=0..K} (f+i)^s for s >= 1, f in [0, 1), in log space.

    The first block of terms is summed directly; the smooth tail uses
    Euler-Maclaurin with the B2 and B4 corrections, whose remainder is far
    below 1e-13 relative once the tail spans a few thousand terms.
    """
    block = min(_EM_DIRECT_BLOCK, K + 1)
    shift = (s + 1.0) * math.log(f + K) if K > 0 or f > 0 else 0.0
    low = f + np.arange(block, dtype=float)
    low = low[low > 0.0]  # the i=0 term vanishes when f = 0
    pieces = list(np.exp(s * np.log(low) - shift))
    if block <= K:  # Euler-Maclaurin over [block, K]
        a_t, b_t = f + block, f + K

        def scaled_power(base, exponent):
            return math.exp(exponent * math.log(base) - shift)

        pieces.append(scaled_power(b_t, s + 1.0) / (s + 1.0))
        pieces.append(-scaled_power(a_t, s + 1.0) / (s + 1.0))
        pieces.append(0.5 * (scaled_power(a_t, s) + scaled_power(b_t, s)))
        pieces.append((s / 12.0) * (scaled_power(b_t, s - 1.0)
                                    - scaled_power(a_t, s - 1.0)))
        third = s * (s - 1.0) * (s - 2.0) / 720.0
        pieces.append(-third * (scaled_power(b_t, s - 3.0)
                                - scaled_power(a_t, s - 3.0)))
    total = math.fsum(pieces)
    if total <= 0.0:
        return -math.inf
    return shift + math.log(total)


def _log_B_tail(M, n, r):
    # Expand the degeneracy polynomial in powers of u = M - m, so the sum
    # becomes a short signed combination of power sums handled above.
    K = int(math.floor(M))
    f = M - K
    coeffs = [1.0]  # ascending powers of u
    for t in range(1, n):
        root_t = M + t
        grown = [0.0] * (len(coeffs) + 1)
        for j, a in enumerate(coeffs):
            grown[j] += a * root_t
            grown[j + 1] -= a
        coeffs = grown
    logs = []
    signs = []
    for j, a in enumerate(coeffs):
        if a == 0.0:
            continue
        logs.append(math.log(abs(a)) + _log_power_sum(r + j, f, K))
        signs.append(math.copysign(1.0, a))
    value, sign = signed_logsumexp(logs, signs)
    if sign <= 0.0:
        return -math.inf
    return value - math.lgamma(n)


def log_B_exact(M, n, r, branch=None) -> float:
    """ln of :func:`B_exact`; -inf when the sum is empty or zero.

    ``branch`` forces "direct" or "tail" evaluation (tests cross-check the
    two); by default sums of up to 200k terms go direct.
    """
    n = check_dimension(n)
    M = float(M)
    r = float(r)
    if not M >= 0.0:
        raise ValueError(f"cutoff M must be >= 0, got {M}")
    if not r >= 1.0:
        raise ValueError(f"exponent r must be >= 1, got {r}")
    if M == 0.0:
        return -math.inf
    if branch is None:
        branch = "direct" if M <= _DIRECT_TERM_LIMIT else "tail"
    if branch == "direct":
        return _log_B_direct(M, n, r)
    if branch == "tail":
        return _log_B_tail(M, n, r)
    raise ValueError(f"unknown branch {branch!r}")


def B_exact(M, n, r) -> float:
    """Sum of degeneracy(m, n) * (M - m)^r over integer 0 <= m <= M."""
    log_value = log_B_exact(M, n, r)
    if log_value == -math.inf:
        return 0.0
    if log_value > 709.0:  # exp would overflow float64
        return math.inf
    return math.exp(log_value)


def _log_B_asymptotic(M, n, r):
    return (n + r) * math.log(M) - math.fsum(
        math.log(r + k) for k in range(1, n + 1)
    )


def B_asymptotic(M, n, r) -> float:
    """Large-M closed form M^(n+r) / prod_{k=1..n} (r+k).

    Exact value of the integral that replaces the cutoff sum when M is
    large; the quadrature oracle checks this to 1e-9.
    """
    n = check_dimension(n)
    M = float(M)
    r = float(r)
    if not M > 0.0:
        raise ValueError(f"M must be > 0, got {M}")
    if not r >= 1.0:
        raise ValueError(f"exponent r must be >= 1, got {r}")
    log_value = _log_B_asymptotic(M, n, r)
    if log_value > 709.0:
        return math.inf
    return math.exp(log_value)


# ---------------------------------------------------------------------------
# general purity bound
# ---------------------------------------------------------------------------


def _check_log_sum(log_b, M, n, r):
    # a cutoff sum at M > 0 holds the positive m = 0 term, so it is never 0
    if not math.isfinite(log_b):
        raise SolverError(
            f"cutoff sum of order {r} is "
            f"{'zero' if log_b == -math.inf else 'non-finite'} at M={M!r} (n={n})"
        )
    return log_b


def _log_B_pair(M, n, r):
    """(ln B_r(M), ln B_{r-1}(M)) for M > 0, in one pass over the levels.

    The direct branch shares the levels, degeneracies and ln(M - m) between
    the two sums; the tail branch evaluates each order on its own.
    """
    if M <= _DIRECT_TERM_LIMIT:
        log_g, log_gaps = _direct_terms(M, n)
        lower = log_g + (r - 1.0) * log_gaps
        pair = (logsumexp(lower + log_gaps), logsumexp(lower))
    else:
        pair = (_log_B_tail(M, n, r), _log_B_tail(M, n, r - 1.0))
    return _check_log_sum(pair[0], M, n, r), _check_log_sum(pair[1], M, n, r - 1.0)


def holder_bracket(M, n, r, mu) -> float:
    """Per-dimension bound (2M + n - 2 [mu B(M)]^(1/r)) / n, valid for all M.

    Raises SolverError when the cutoff sum at M > 0 comes out zero or
    non-finite, rather than reporting the unbounded (2M + n)/n.
    """
    n = check_dimension(n)
    M = float(M)
    r = float(r)
    mu = float(mu)
    if not M >= 0.0:
        raise ValueError(f"cutoff M must be >= 0, got {M}")
    if not r > 1.0:
        raise ValueError(f"exponent r must be > 1, got {r}")
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must be in (0, 1], got {mu}")
    if M == 0.0:
        return 1.0
    log_b = _check_log_sum(log_B_exact(M, n, r), M, n, r)
    return (2.0 * M + n - 2.0 * math.exp((math.log(mu) + log_b) / r)) / n


def purity_bound(mu, n, order: PurityOrder) -> BoundResult:
    """Tightest cutoff bracket: sup over M >= 0 of :func:`holder_bracket`.

    The bracket is concave in M (its curvature follows from a
    Cauchy-Schwarz bound on the cutoff sums) with slope
    (2/n)(1 - e^h(M)), where

        h(M) = ln(mu)/r + ln B_{r-1}(M) - ((r-1)/r) ln B_r(M)
             = (ln mu - ln mu(M)) / r

    and mu(M) is the purity of the family xi_m ~ g_m (M - m)^(r-1).  So the
    supremum sits at the root of h: the cutoff whose family has purity mu.
    h = ln(mu)/r < 0 on (0, 1]; from the mu -> 0 cutoff
    :func:`asymptotic_cutoff` the search doubles or halves to a sign
    change and closes it with Brent's method.  The value is the bracket at
    the root, from the ln B_r already summed there.  ``aux`` is the cutoff,
    ``residual`` is |h| at it and ``iterations`` counts the evaluations of
    the pair (B_r, B_{r-1}).
    """
    n = check_dimension(n)
    mu = float(mu)
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must be in (0, 1], got {mu}")
    if order.variant != "finite":
        raise ValueError("purity_bound requires a finite purity order (r > 1)")
    r = order.r
    if mu == 1.0:  # every cutoff in (0, 1] carries the vacuum alone
        return BoundResult.from_per_dim(1.0, n, method="holder-root", aux=1.0)

    log_mu = math.log(mu)
    log_b_at = {1.0: 0.0}  # ln B_r(1) = 0: the m = 0 term alone
    evals = 0

    def h(M):
        nonlocal evals
        if not M < math.inf:
            raise SolverError(
                f"no cutoff below the float range has family purity mu={mu} "
                f"(n={n}, r={r})"
            )
        evals += 1
        log_b, log_b_lower = _log_B_pair(M, n, r)
        log_b_at[M] = log_b
        return log_mu / r + log_b_lower - (r - 1.0) / r * log_b

    # bracket the root from the mu -> 0 cutoff; h(1) = ln(mu)/r < 0
    lo, h_lo = 1.0, log_mu / r
    hi = max(asymptotic_cutoff(mu, n, r), 1.0)
    h_hi = h(hi) if hi > 1.0 else h_lo
    while h_hi < 0.0:  # the root lies above: double
        lo, h_lo = hi, h_hi
        hi *= 2.0
        h_hi = h(hi)
    while hi > 2.0 * lo:  # the root lies below the seed: halve
        M = 0.5 * hi
        h_M = h(M)
        if h_M < 0.0:
            lo, h_lo = M, h_M
        else:
            hi, h_hi = M, h_M
    root = brent_root(h, lo, hi, h_lo, h_hi, rtol=_ROOT_RTOL)
    term = math.exp((log_mu + log_b_at[root.x]) / r)
    per_dim = max((2.0 * root.x + n - 2.0 * term) / n, 1.0)
    return BoundResult.from_per_dim(
        per_dim, n, method="holder-root", aux=root.x,
        residual=root.residual, iterations=evals,
    )


# ---------------------------------------------------------------------------
# highly mixed closed forms
# ---------------------------------------------------------------------------


def asymptotic_cutoff(mu, n, r) -> float:
    """Optimal bracket cutoff as mu -> 0: [(r/(n+r))^r prod_{k=1..n}(r+k) / mu]^(1/n).

    The cutoff at which the lower-bound family's purity equals mu once the
    cutoff sums are replaced by their large-M closed forms; inf when it
    exceeds the float range.
    """
    n = check_dimension(n)
    scale = (r / (n + r)) ** (r / n)
    scale *= math.exp(sum(math.log(r + k) for k in range(1, n + 1)) / n)
    try:
        return scale * mu ** (-1.0 / n)
    except OverflowError:
        return math.inf


def asymptotic_C(n, r) -> float:
    """Uncertainty constant 2^n r^r prod_{k=1..n}(r+k) / (n+r)^(n+r).

    The product mu^(r) (bound)^n approaches this value as mu -> 0; r = 1
    gives the superpurity member and r -> infinity tends to (2/e)^n.
    """
    n = check_dimension(n)
    r = float(r)
    if not r >= 1.0:
        raise ValueError(f"exponent r must be >= 1, got {r}")
    log_c = n * math.log(2.0) - r * math.log1p(n / r)
    log_c += math.fsum(math.log((r + k) / (n + r)) for k in range(1, n + 1))
    return math.exp(log_c)


def asymptotic_purity_bound(mu, n, r) -> float:
    """Per-dimension bound (C/mu)^(1/n) of the mu -> 0 limit, C = asymptotic_C.

    A float, not a BoundResult: away from that limit it can fall below the
    pure-state floor (mu = 1 gives C^(1/n)).
    """
    mu = float(mu)
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must be in (0, 1], got {mu}")
    return (asymptotic_C(n, r) / mu) ** (1.0 / n)


def asymptotic_entropy_bound(S, n) -> float:
    """Per-dimension bound (2/e) e^(S/n) of the large-S limit.

    A float, not a BoundResult: it falls below the pure-state floor for
    S/n < 1 - ln 2.  Raises ValueError where it is beyond the float range.
    """
    n = check_dimension(n)
    S = float(S)
    if S < 0.0:
        raise ValueError(f"entropy must be >= 0, got {S}")
    try:
        value = math.exp(S / n) * 2.0 / math.e
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"bound for S/n = {S / n!r} is beyond the float range")
    return value


def asymptotic_C_entropy_limit(n) -> float:
    """Limit of :func:`asymptotic_C` as r -> infinity: (2/e)^n."""
    n = check_dimension(n)
    return (2.0 / math.e) ** n
