"""Regenerate the reference tables under ``perfbench/refs``.

    python3 perfbench/make_refs.py [closed-forms|purity-sweep|verify-suites ...]

* ``closed_forms.json`` -- mpmath values on the closed-forms grids: the
  interpolated r=2 root, the asymptotic constant as a closed product, and
  the thermal root of the entropy bound.  Independent of ``uncbound``.
* ``purity_sweep.json`` -- a fixed pool of (n, r, mu) points with the
  ``purity_bound`` value of the code this is run on.
* ``verify_suites.json`` -- a fixed pool of ``verify`` invocations with the
  numbers and exit code of the code this is run on.

Both pools also keep each op's cost when recorded; the workloads sort the
pool into cost strata with it, so every run gets the same mix of cheap and
costly ops.  Record on an otherwise idle machine.

The recorded tables are the regression reference: regenerate them only on
purpose, never to make a failing check pass.
"""

import json
import math
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def _dump(name, data):
    (HERE / "refs").mkdir(exist_ok=True)
    with open(HERE / "refs" / name, "w", encoding="utf-8") as handle:
        json.dump(data, handle, separators=(",", ":"))
        handle.write("\n")


def _bisect(f, lo, hi, iters=160):
    # f increasing through zero on [lo, hi]
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def closed_forms():
    import mpmath as mp

    mp.mp.dps = 40

    def interp_value(mu, n):
        # ln[(n+2L)(n+1)! Gamma(L) / ((n+2) Gamma(L+n+1))] = ln mu, L >= 1
        target = mp.log(mu)

        def f(log_l):  # decreasing in L, so negate
            big_l = mp.exp(log_l)
            return -(mp.log(n + 2 * big_l) + mp.loggamma(n + 2) - mp.log(n + 2)
                     + mp.loggamma(big_l) - mp.loggamma(big_l + n + 1) - target)
        big_l = mp.exp(_bisect(f, mp.mpf(0), mp.mpf(40)))
        return float((n + 2 * big_l) / (n + 2))

    def asym_c(n, r):
        r = mp.mpf(r)
        prod = mp.fprod(r + k for k in range(1, n + 1))
        return float(2**n * r**r * prod / (n + r) ** (n + r))

    def thermal_value(s_total, n):
        # per-dimension entropy s(x) = -ln(1-x) - x ln(x)/(1-x), x = e^-beta
        s1 = mp.mpf(s_total) / n

        def f(logit):
            x = 1 / (1 + mp.exp(-logit))
            return -mp.log(1 - x) - x * mp.log(x) / (1 - x) - s1
        logit = _bisect(f, mp.mpf(-200), mp.mpf(60))
        x = 1 / (1 + mp.exp(-logit))
        return float((1 + x) / (1 - x))

    tables = {"interpolated_r2": {}, "asymptotic_c": {}, "thermal": {}}
    for n in wl.DIMS:
        tables["interpolated_r2"][n] = [
            interp_value(mp.mpf(wl.mu_at(j)), n) for j in range(wl.MU_MAX + 1)]
        tables["asymptotic_c"][n] = [
            asym_c(n, wl.r_at(k)) for k in range(wl.R_MAX + 1)]
        top = int(1.2 * wl.cross_check_band(n)[1])
        tables["thermal"][n] = [1.0] + [
            thermal_value(wl.s_at(i), n) for i in range(1, top + 1)]
    _dump("closed_forms.json", tables)


def _uncbound():
    from uncbound import bounds, cli
    from uncbound.purity import PurityOrder
    return bounds, cli, PurityOrder


def purity_sweep(per_dim=800):
    bounds, _, order = _uncbound()
    rng = random.Random(20040411)
    points = []
    lo_mu, hi_mu = math.log(1e-7), math.log(0.5)
    for n in (1, 2, 3):
        for i in range(per_dim):  # mu stratified, r log-uniform
            mu = math.exp(lo_mu + (i + rng.random()) / per_dim * (hi_mu - lo_mu))
            r = math.exp(rng.uniform(math.log(1.5), math.log(10.0)))
            start = time.perf_counter()
            value = bounds.purity_bound(mu, n, order.finite(r)).per_dim_product
            cost = time.perf_counter() - start
            points.append({"n": n, "r": r, "mu": mu, "ref": value, "cost_s": cost})
    c = wl.PuritySweep.canonical
    canonical = bounds.purity_bound(c["mu"], c["n"], order.finite(c["r"]))
    _dump("purity_sweep.json", {"canonical": canonical.per_dim_product,
                                "points": points})


def verify_suites(holders=48, lemmas=48, b_approx=48):
    _, cli, _ = _uncbound()
    invoke = wl.Invoker(cli)
    rng = random.Random(20040412)

    def record(argv):
        start = time.perf_counter()
        code, out, err = invoke(argv)
        cost = time.perf_counter() - start
        if code not in (0, 1):
            raise SystemExit(f"{' '.join(argv)} exited {code}: {err}")
        return {"argv": argv, "code": code, "fields": wl.parse_verify(out),
                "cost_s": cost}

    pool = {"holder": [], "lemma": [], "b-approx": []}
    for i in range(holders):
        n = 1 + i % 2
        r = math.exp(rng.uniform(math.log(1.5), math.log(4.0)))
        mu = 10.0 ** rng.uniform(-2.5, -1.0)
        pool["holder"].append(record(
            ["verify", "holder", "--n", str(n), "--r", repr(r), "--mu", repr(mu),
             "--seed", str(i)]))
    for i in range(lemmas):
        pool["lemma"].append(record(
            ["verify", "lemma", "--dim", str(rng.randint(24, 32)),
             "--trials", str(wl.LEMMA_TRIALS), "--seed", str(i)]))
    for i in range(b_approx):
        pool["b-approx"].append(record(
            ["verify", "b-approx", "--trials", str(wl.B_APPROX_TRIALS),
             "--seed", str(i)]))
    pool["canonical"] = record(
        ["verify", "lemma", "--dim", "28", "--trials", str(wl.LEMMA_TRIALS),
         "--seed", "0"])
    _dump("verify_suites.json", pool)


def main(argv):
    jobs = {"closed-forms": closed_forms, "purity-sweep": purity_sweep,
            "verify-suites": verify_suites}
    for name in argv or list(jobs):
        jobs[name]()
        print(f"wrote refs for {name}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
