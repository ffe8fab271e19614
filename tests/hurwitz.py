"""Exact reference for the cutoff sums, in mpmath.

``log_B_ref(M, n, s)`` is ln B_s(M), B_s(M) = sum over integer levels
0 <= m < M of g_m (M - m)^s with g_m = C(m + n - 1, n - 1), to about
``DIGITS`` significant digits.  It takes one of three routes:

* M <= 2e4: an ``fsum`` of every term, with g_m an exact integer;
* terms that fall off within ``LEVEL_LIMIT`` levels (s large against M):
  the levels from m = 0 up.  For s >= 0 the terms are log-concave in m, so
  once their ratio is q < 1 the rest is below the next term / (1 - q), and
  the sum stops when that is under 10^-DIGITS of it; for s < 0 they rise
  toward the top level, and this route is never taken;
* otherwise the Hurwitz-zeta identity.  With M = k + f, f in (0, 1], and
  u = M - m running over f, f + 1, ..., M, g(M - u) is a degree-(n-1)
  polynomial sum_b a_b u^b, so

      B_s(M) = sum_b a_b [zeta(-s-b, f) - zeta(-s-b, M+1)].

  The levels u < f + J, J = 2 (s + n) + D + 16 at D working digits, are
  summed term by term (or bounded and dropped, when J is above
  ``LEVEL_LIMIT`` and they are below 10^-DIGITS of the m = 0 term), and
  both zeta values at a >= f + J come from the large-a Euler-Maclaurin
  series.  Its j-th term shrinks by about ((s + b + 2j) / (2 pi a))^2, so
  it falls below 10^-D before it turns.  The difference of two zeta values
  is the sum over the levels between them for every order but -s - b = 1,
  so it holds for -1 < s < 0 as well.  ``mpmath.zeta`` itself took
  minutes at these arguments.

Two pitfalls are kept: the order -s - b is formed as ``-mpf(s) - b`` (in
floats -1.7 - 1 rounds away from -2.7), and the a_b, which grow like
M^(n-1) and cancel, get (n - 1) log10(2M) more digits.

``purity_bound_ref(mu, n, r)`` is the purity bound from these sums: the
bracket at the root of h, the cutoff whose family has purity mu.
"""

import math

import mpmath

from uncbound.bounds import asymptotic_cutoff

DIGITS = 40
LEVEL_LIMIT = 20_000


def log_B_ref(M, n, s):
    """ln B_s(M) as an mpmath number, for M > 0, 1 <= n <= 64 and s > -1."""
    k = math.ceil(M) - 1  # the top level below M
    with mpmath.workdps(DIGITS + 20):
        big_m, order = mpmath.mpf(M), mpmath.mpf(s)
        if M <= 2e4:
            return mpmath.log(mpmath.fsum(
                math.comb(m + n - 1, n - 1) * (big_m - m) ** order for m in range(k + 1)))
        total = _bottom_levels(big_m, k, n, order)
        if total is not None:
            return mpmath.log(total)
    with mpmath.workdps(DIGITS + 20 + int((n - 1) * math.log10(2.0 * (M + n)))):
        return mpmath.log(_hurwitz(mpmath.mpf(M), k, n, s))


def purity_bound_ref(mu, n, r):
    """(value, cutoff) of the purity bound for 1 < r < inf and 0 < mu < 1.

    The cutoff is the float root M of h(M) = ln(mu)/r + ln B_{r-1}(M) -
    ((r-1)/r) ln B_r(M), both sums from ``log_B_ref``, and the value is the
    bracket (2M + n - 2 (mu B_r(M))^(1/r))/n there, in mpmath.  h rises
    through 0 and is ln(mu)/r on (0, 1].  The root is taken in t = ln M
    from ``asymptotic_cutoff`` minus n/2 and a step of slope n/r, which are
    widened to a sign change, then closed by the Illinois method to 1e-12
    in t.  The bracket's slope (2/n)(1 - e^h) vanishes at the root, so a
    cutoff off by a relative d lowers the value by about (n/2r) d^2 only.
    """
    with mpmath.workdps(DIGITS + 20):
        log_mu = mpmath.log(mu)

        def h(t):
            M = math.exp(t)
            return float(log_mu / r + log_B_ref(M, n, r - 1.0)
                         - (r - 1.0) / mpmath.mpf(r) * log_B_ref(M, n, r))

        points = [(0.0, float(log_mu) / r)]
        t = math.log(max(asymptotic_cutoff(mu, n, r) - 0.5 * n, 1.0))
        for _ in range(2):  # the seed, then its Newton point
            if t > 0.0:
                points.append((t, h(t)))
            t = max(t - 1.25 * points[-1][1] * r / n, 0.0)
        lo, h_lo = max(p for p in points if p[1] < 0.0)
        above = [p for p in points if p[1] >= 0.0]
        while not above:  # steps of ln 2 up
            t = lo + math.log(2.0)
            h_t = h(t)
            if h_t < 0.0:
                lo, h_lo = t, h_t
            else:
                above.append((t, h_t))
        hi, h_hi = min(above)
        side = 0
        while hi - lo > 1e-12 and h_hi != 0.0:  # Illinois
            t = (lo * h_hi - hi * h_lo) / (h_hi - h_lo)
            h_t = h(t)
            if h_t < 0.0:
                lo, h_lo = t, h_t
                if side < 0:
                    h_hi *= 0.5
                side = -1
            else:
                hi, h_hi = t, h_t
                if side > 0:
                    h_lo *= 0.5
                side = 1
        M = math.exp(hi if h_hi <= -h_lo else lo)
        value = (2 * mpmath.mpf(M) + n - 2 * mpmath.exp((log_mu + log_B_ref(M, n, r)) / r)) / n
        return value, M


def _bottom_levels(big_m, k, n, s):
    # the levels m = 0, 1, ... until the rest is provably negligible; None
    # when that takes more than LEVEL_LIMIT levels.  The terms are
    # log-concave in m, so past their peak each bounds the later ones, and
    # none of the levels up to L = LEVEL_LIMIT exceeds g_L M^s.  The loop
    # can stop only if the level L + 1 term, at least g_L (M - L - 1)^s, is
    # below 10^-DIGITS (L + 1) g_L M^s; where it is not, by a margin of e,
    # None is returned without summing
    limit = LEVEL_LIMIT + 1
    if k >= limit and float(s) * math.log1p(-limit / float(big_m)) > (
            math.log(limit) - DIGITS * math.log(10.0) + 1.0):
        return None
    eps = mpmath.mpf(10) ** -DIGITS
    total, term = mpmath.mpf(0), big_m ** s
    for m in range(min(k, LEVEL_LIMIT) + 1):
        total += term
        if m == k:
            return total
        ratio = mpmath.mpf(m + n) / (m + 1) * ((big_m - m - 1) / (big_m - m)) ** s
        term *= ratio
        if ratio < 1 and term / (1 - ratio) < eps * total:
            return total
    return None


def _hurwitz(big_m, k, n, s):
    coeffs = [mpmath.mpf(1)]  # ascending powers of u in prod_t (M + t - u)/t
    for t in range(1, n):
        grown = [mpmath.mpf(0)] * (len(coeffs) + 1)
        for j, a in enumerate(coeffs):
            grown[j] += a * (big_m + t) / t
            grown[j + 1] -= a / t
        coeffs = grown
    f = big_m - k
    count = min(math.ceil(2.0 * (s + n)) + mpmath.mp.dps + 16, k + 1)
    low = f + count  # the levels u < low are summed apart
    if count <= LEVEL_LIMIT:
        top = mpmath.fsum(math.comb(k - j + n - 1, n - 1) * (f + j) ** mpmath.mpf(s)
                          for j in range(count))
    else:
        # count levels of at most g_k u^s each, against the m = 0 term M^s
        if not count * math.comb(k + n - 1, n - 1) * (low / big_m) ** s < 10.0 ** -DIGITS:
            raise ArithmeticError(f"levels u < {low} are not negligible at M={big_m}, s={s}")
        top = 0
    if count > k:
        return top
    return top + mpmath.fsum(
        a * (_zeta_series(-mpmath.mpf(s) - b, low) - _zeta_series(-mpmath.mpf(s) - b, big_m + 1))
        for b, a in enumerate(coeffs))


def _zeta_series(s, a):
    # Hurwitz zeta(s, a) for a >= 2 |s| + dps + 16, from its large-a expansion
    # a^(1-s)/(s-1) + a^-s/2 + sum_j B_2j/(2j)! s (s+1) .. (s+2j-2) a^(-s-2j+1)
    lead = a ** (1 - s) / (s - 1) + a ** -s / 2
    eps = mpmath.eps * abs(lead)
    rising, power, terms = s, a ** (-s - 1), []
    for j in range(1, 4000):
        term = mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * rising * power
        terms.append(term)
        if abs(term) < eps:
            return lead + mpmath.fsum(terms)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= a * a
    raise ArithmeticError(f"zeta series at s={s}, a={a} did not converge")
