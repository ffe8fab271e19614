"""Exact reference for the cutoff sums, in mpmath.

``log_B_ref(M, n, s)`` is ln B_s(M), B_s(M) = sum over integer levels
0 <= m < M of g_m (M - m)^s with g_m = C(m + n - 1, n - 1), to about
``DIGITS`` significant digits.  It takes one of three routes:

* M <= 2e4: an ``fsum`` of every term, with g_m an exact integer;
* terms that fall off within ``LEVEL_LIMIT`` levels (s large against M):
  the levels from m = 0 up.  The terms are log-concave in m, so once their
  ratio is q < 1 the rest is below the next term / (1 - q), and the sum
  stops when that is under 10^-DIGITS of it;
* otherwise the Hurwitz-zeta identity.  With M = k + f, f in (0, 1], and
  u = M - m running over f, f + 1, ..., M, g(M - u) is a degree-(n-1)
  polynomial sum_b a_b u^b, so

      B_s(M) = sum_b a_b [zeta(-s-b, f) - zeta(-s-b, M+1)].

  The levels u < f + J, J = 2 (s + n) + D + 16 at D working digits, are
  summed term by term (or bounded and dropped, when J is above
  ``LEVEL_LIMIT`` and they are below 10^-DIGITS of the m = 0 term), and
  both zeta values at a >= f + J come from the large-a Euler-Maclaurin
  series.  Its j-th term shrinks by about ((s + b + 2j) / (2 pi a))^2, so
  it falls below 10^-D before it turns.  ``mpmath.zeta`` itself took
  minutes at these arguments.

Two pitfalls are kept: the order -s - b is formed as ``-mpf(s) - b`` (in
floats -1.7 - 1 rounds away from -2.7), and the a_b, which grow like
M^(n-1) and cancel, get (n - 1) log10(2M) more digits.
"""

import math

import mpmath

DIGITS = 40
LEVEL_LIMIT = 20_000


def log_B_ref(M, n, s):
    """ln B_s(M) as an mpmath number, for M > 0, 1 <= n <= 64 and s >= 0."""
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


def _bottom_levels(big_m, k, n, s):
    # the levels m = 0, 1, ... until the rest is provably negligible; None
    # when that takes more than LEVEL_LIMIT levels
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
