"""The scalar closed forms, and the result type every bound returns.

Nothing here needs an array, so this module and the commands built on it
run without numpy:

* ``interpolated_bound_r2`` -- a comparison, not a bound: the r = 2
  gamma-equation form, -2.0e-2 to +1.3e-3 relative to
  ``bounds.purity_bound``;
* ``entropy_bound`` -- the entropy-constrained minimum, attained by a
  product of one-dimensional thermal states, so it is their closed form;
  ``bounds.thermal_grouped_spectrum`` materializes that state as the
  reference the tests and ``verify roundtrip`` check it against;
* ``asymptotic_C`` -- closed forms for the highly mixed limit mu -> 0,
  with ``asymptotic_purity_bound`` and ``asymptotic_entropy_bound`` the
  per-dimension bounds they give (floats: away from the limit they may fall
  below the pure-state floor of 1), ``asymptotic_cutoff`` the cutoff that
  seeds ``bounds.purity_bound`` and ``B_asymptotic`` the cutoff integral
  the sums tend to;
* ``beta_integral_B`` -- that integral as a Beta function through
  ``math.lgamma``: an independent check of ``B_asymptotic``, which
  ``verify b-approx`` runs.
"""

import dataclasses
import math

from uncbound.solvers import SolverError, seeded_root
from uncbound.special_fn import (check_beta, check_cutoff, check_dimension, check_entropy,
                                 check_exponent, check_purity)

__all__ = [
    "B_asymptotic",
    "BoundResult",
    "asymptotic_C",
    "asymptotic_cutoff",
    "asymptotic_entropy_bound",
    "asymptotic_purity_bound",
    "beta_integral_B",
    "entropy_bound",
    "interpolated_bound_r2",
    "thermal_entropy",
    "volume_of",
]

_FLOOR_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class BoundResult:
    """A normalized uncertainty bound plus solver diagnostics.

    per_dim_product is (Delta X)(Delta P) in units of hbar/2 per dimension,
    a finite float that never drops below the pure-state floor of 1; volume
    is its n-th power, inf where that overflows.  aux carries the solver's
    auxiliary parameter (cutoff M, interpolation root L, or thermal beta)
    when one exists.
    """

    per_dim_product: float
    n: int
    method: str
    aux: float | None = None
    residual: float = 0.0
    iterations: int = 0

    def __post_init__(self):
        object.__setattr__(self, "per_dim_product", float(self.per_dim_product))
        object.__setattr__(self, "n", check_dimension(self.n))
        if self.aux is not None:
            object.__setattr__(self, "aux", float(self.aux))
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "iterations", int(self.iterations))
        if not self.per_dim_product >= 1.0 - _FLOOR_TOL:
            raise ValueError(
                f"bound {self.per_dim_product!r} is below the pure-state floor"
            )
        if not math.isfinite(self.per_dim_product):
            raise ValueError(
                f"{self.method} bound {self.per_dim_product!r} is beyond the "
                "float range"
            )

    @property
    def volume(self) -> float:
        return volume_of(self.per_dim_product, self.n)


def volume_of(per_dim, n) -> float:
    """per_dim ** n, or inf where that power overflows a float."""
    try:
        return per_dim ** int(n)
    except OverflowError:
        return math.inf


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
    as mu -> 0; ln mu(L) falls like -n ln(L + n/2).  From L = 1 and the seed
    L* - n/2, :func:`seeded_root` takes Newton steps in ln L on the exact
    slope sum_{j=0..n} L/(L+j) - 2L/(n+2L), from L = 1 where the seed lies
    below it; ``iterations`` counts the evaluations of the equation.  A root
    beyond the float range raises ValueError.  Not a lower bound: at n = 2,
    mu = 0.396812 it is 1.33e-3 above the valid bound, ``bounds.purity_bound``
    at r = 2.
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

    def log_slope(L):
        return sum(L / (L + j) for j in range(n + 1)) - 2.0 * L / (n + 2.0 * L)

    # the n-th roots are taken apart: the quotient can overflow where L* does not
    seed = (2.0 * math.factorial(n + 1) / (n + 2.0)) ** (1.0 / n) / mu ** (1.0 / n)
    root = seeded_root(f, 1.0, target, seed - 0.5 * n, log_slope)
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
    beta = check_beta(beta)
    if math.isinf(beta):
        return 0.0
    u = -math.expm1(-beta)  # 1 - e^{-beta}
    x = math.exp(-beta)
    # ln u from whichever of u, x kept full precision: ln(1 - x) -> -x as x -> 0
    log_u = math.log(u) if x > 0.5 else math.log1p(-x)
    return n * (-log_u + beta * x / u)


def _solve_thermal(S, n):
    # the seed inverts the two limits of the entropy per dimension: it tends
    # to 1 + ln(nbar + 1/2) for large nbar and to nbar (1 - ln nbar) for small
    s1 = float(S) / n  # per-dimension entropy; the solve depends on S only via s1

    def f(nbar):
        if not nbar < math.inf:
            raise ValueError(f"bound for S/n = {S / n!r} is beyond the float range")
        return _mode_entropy(nbar) - s1

    if s1 > 1.0:  # e^709 is a float; past it, the search reaches inf, where f raises
        seed = math.exp(min(s1 - 1.0, 709.0)) - 0.5
    else:
        seed = s1 / (1.0 - math.log(s1 / (1.0 - math.log(s1))))
    lo = 1e-300
    root = seeded_root(f, lo, f(lo), seed, lambda nbar: nbar * math.log1p(1.0 / nbar))
    return root.x, root.iterations + 1  # f(lo) is an evaluation too


def entropy_bound(S, n) -> BoundResult:
    """Minimal per-dimension uncertainty product at fixed entropy S.

    The minimizer is the thermal product state, fixed in each dimension by
    its mean occupation nbar, the root of (nbar+1) ln(nbar+1) - nbar ln(nbar)
    = S/n; the bound is 2 nbar + 1.  From nbar = 1e-300 and the seed
    e^(s-1) - 1/2 for s = S/n > 1, s/(1 - ln(s/(1 - ln s))) below,
    :func:`seeded_root` takes Newton steps in ln nbar on the exact slope
    nbar ln(1 + 1/nbar); ``iterations`` counts the evaluations of the
    entropy, the one at 1e-300 included.
    ``aux`` is the inverse temperature beta = ln(1 + 1/nbar) and
    ``residual`` is |thermal_entropy(beta, n) - S|.  Raises ValueError where
    the bound is beyond the float range (S/n above 710.09).
    """
    n = check_dimension(n)
    S = check_entropy(S)
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
# highly mixed closed forms
# ---------------------------------------------------------------------------


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
    S = check_entropy(S)
    try:
        value = math.exp(S / n) * 2.0 / math.e
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"bound for S/n = {S / n!r} is beyond the float range")
    return value


def beta_integral_B(M, n, r) -> float:
    """Integral of m^(n-1) (M-m)^r / (n-1)! over [0, M], by its Beta form.

    The integral is M^(n+r) Gamma(r+1) / Gamma(n+r+1).  The gamma ratio
    comes from ``math.lgamma``, not from the product over k that
    :func:`B_asymptotic` sums, so it checks that closed form.  It is inf
    past the float range.
    """
    n = check_dimension(n)
    M = check_cutoff(M, "> 0")
    r = check_exponent(r, ">= 1")
    log_ratio = math.lgamma(r + 1.0) - math.lgamma(n + r + 1.0)
    try:
        return M ** (n + r) * math.exp(log_ratio)
    except OverflowError:  # the power alone may overflow: take the product in logs
        log_value = (n + r) * math.log(M) + log_ratio
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf
