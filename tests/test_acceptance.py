"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all
even on success).
"""

import math

import numpy as np
from click.testing import CliRunner

from uncbound.bounds import purity_bound
from uncbound.cli import main as cli_main
from uncbound.closed_forms import (
    B_asymptotic,
    asymptotic_C,
    entropy_bound,
    interpolated_bound_r2,
)
from uncbound.oracle import (
    OracleConfig,
    brute_force_purity_bound,
    lemma_margins,
    suggest_truncation,
)
from uncbound.purity import GroupedSpectrum, PurityOrder, purity_from_grouped

from quadrature import quadrature_B


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {detail}")
    assert ok, detail


def test_criterion_01_one_dim_usual_purity_constant():
    value = asymptotic_C(1, 2.0)
    gap = abs(value - 8.0 / 9.0)
    report(1, gap <= 1e-12, f"asymptotic_C(1,2) = {value!r}, |gap to 8/9| = {gap:.2e}")


def test_criterion_02_multidim_usual_purity_family():
    worst = 0.0
    for n in range(1, 7):
        closed = 2.0 ** (n + 1) * math.factorial(n + 1) / (n + 2.0) ** (n + 1)
        worst = max(worst, abs(asymptotic_C(n, 2.0) / closed - 1.0))
    report(2, worst <= 1e-12, f"r=2 family n=1..6, worst relative gap {worst:.2e}")


def test_criterion_03_one_dim_general_order():
    worst = 0.0
    for r in (1.0, 1.5, 2.0, 3.0, 10.0, 100.0):
        closed = 2.0 * (r / (r + 1.0)) ** r
        worst = max(worst, abs(asymptotic_C(1, r) / closed - 1.0))
    report(3, worst <= 1e-12, f"one-dim closed form, worst relative gap {worst:.2e}")


def test_criterion_04_entropy_limit():
    worst = 0.0
    for n in range(1, 7):
        limit = asymptotic_C(n, math.inf)
        worst = max(worst, abs(asymptotic_C(n, 1e6) - limit) / limit)
    report(4, worst <= 1e-4, f"r=1e6 vs (2/e)^n for n=1..6, worst rel gap {worst:.2e}")


def test_criterion_05_numeric_vs_asymptotic():
    mu = 1e-8
    lo, hi = math.inf, 0.0
    for n in (1, 2, 3):
        for r in (1.5, 2.0, 3.0, 10.0):
            bound = purity_bound(mu, n, PurityOrder.finite(r)).per_dim_product
            ratio = mu * bound**n / asymptotic_C(n, r)
            lo, hi = min(lo, ratio), max(hi, ratio)
    ok = 0.99 <= lo and hi <= 1.01
    report(5, ok, f"mu*bound^n / C at mu=1e-8 within [{lo:.6f}, {hi:.6f}]")


def test_criterion_06_interpolated_endpoints():
    worst_pure = max(
        abs(interpolated_bound_r2(1.0, n).per_dim_product - 1.0) for n in range(1, 7)
    )
    worst_mixed = 0.0
    for n in range(1, 7):
        bound = interpolated_bound_r2(1e-8, n).per_dim_product
        worst_mixed = max(
            worst_mixed, abs(1e-8 * bound**n / asymptotic_C(n, 2.0) - 1.0)
        )
    ok = worst_pure <= 1e-9 and worst_mixed <= 0.01
    report(6, ok, f"pure endpoint gap {worst_pure:.2e}, "
                  f"mu->0 ratio gap {worst_mixed:.2e}")


def test_criterion_07_entropy_bound_asymptote():
    lo, hi = math.inf, 0.0
    for n in range(1, 5):
        res = entropy_bound(30.0, n)
        ratio = res.volume / (math.exp(30.0) * (2.0 / math.e) ** n)
        lo, hi = min(lo, ratio), max(hi, ratio)
    ok = 0.99 <= lo and hi <= 1.01
    report(7, ok, f"volume / (e^S (2/e)^n) at S=30 within [{lo:.6f}, {hi:.6f}]")


def test_criterion_08_oracle_agreement():
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for index in range(10):
        n = int(rng.integers(1, 4))
        r = float(rng.uniform(1.2, 5.0))
        mu = float(rng.uniform(0.01, 0.9))
        cfg = OracleConfig(seed=1000 + index,
                           truncation=suggest_truncation(mu, n, r))
        brute = brute_force_purity_bound(mu, n, r, cfg).per_dim_product
        closed = purity_bound(mu, n, PurityOrder.finite(r)).per_dim_product
        worst = max(worst, abs(brute - closed))
    report(8, worst <= 1e-5, f"10 seeded cases, worst |brute - closed| = {worst:.2e}")


def test_criterion_09_lemma_suite():
    cfg = OracleConfig(seed=42)
    worst = lemma_margins(1, 29, cfg, range(1000)).min()
    identity = float(lemma_margins(1, 29, cfg, range(1), identity=True)[0])
    ok = worst >= -1e-10 and abs(identity) <= 1e-10
    report(9, ok, f"1000 trials at dim 30, worst margin {worst:.2e}, "
                  f"identity margin {identity!r}")


def test_criterion_10_series_and_quadrature():
    # B_asymptotic's constant 1/prod(r+k) is checked against the Beta form
    # from math.lgamma by verify b-approx and test_oracle.TestQuadrature
    rng = np.random.default_rng(9)
    worst_quad = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        r = float(rng.uniform(1.0, 6.0))
        big_m = float(rng.uniform(0.5, 200.0))
        ratio = quadrature_B(big_m, n, r) / B_asymptotic(big_m, n, r)
        worst_quad = max(worst_quad, abs(ratio - 1.0))
    report(10, worst_quad <= 1e-9, f"quadrature worst rel gap {worst_quad:.2e}")


def test_criterion_11_purity_monotonicity():
    # Non-increasing in the order r (the appendix's printed inequality has
    # the direction reversed; see the decisions ledger).  Limits included.
    rng = np.random.default_rng(20240811)
    orders = [1.2, 1.7, 2.0, 3.0, 6.0, 15.0, 60.0, 1e6, 1e16, 1e300]
    worst_rise = -math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        levels = int(rng.integers(1, 10))
        grouped = GroupedSpectrum(n=n, weights=rng.dirichlet(np.ones(levels + 1)))
        values = [purity_from_grouped(grouped, PurityOrder.superpurity())]
        values += [purity_from_grouped(grouped, PurityOrder.finite(r)) for r in orders]
        values.append(purity_from_grouped(grouped, PurityOrder.entropy()))
        worst_rise = max(worst_rise, float(np.max(np.diff(values))))
    report(11, worst_rise <= 1e-12,
           f"1000 spectra, r < q => mu(r) >= mu(q); worst rise {worst_rise:.2e}")


def test_criterion_12_curve_shape():
    runner = CliRunner()
    result = runner.invoke(cli_main, [
        "curve", "--quantity", "asymptotic-c", "--n", "1,2,3",
        "--r", "1:100:200:log",
    ])
    assert result.exit_code == 0
    rows = [line.split(",") for line in result.output.strip().splitlines()[1:]]
    table = {}
    for row in rows:
        table.setdefault(int(row[0]), []).append((float(row[1]), float(row[2])))
    ok = True
    detail = []
    for n in (1, 2, 3):
        values = np.array([v for _, v in table[n]])
        ok &= bool(np.all(np.diff(values) <= 1e-15))
        plateau = values[-1]
        limit = asymptotic_C(n, math.inf)
        ok &= abs(plateau - limit) / limit <= 0.02
        detail.append(f"n={n} plateau/(2/e)^n = {plateau / limit:.4f}")
    for (_, v1), (_, v2), (_, v3) in zip(table[1], table[2], table[3]):
        ok &= v1 >= v2 - 1e-15 and v2 >= v3 - 1e-15
    report(12, ok, "nonincreasing in r and n; " + ", ".join(detail))
