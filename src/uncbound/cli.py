"""Command-line front end.

All bounds are reported in units of hbar/2 = 1 per dimension.  Typical
invocations::

    uncbound bound purity --n 1 --r 2 --mu 1e-6
    uncbound bound entropy --n 2 --S 3.5
    uncbound bound spectrum --n 2 --input eigenvalues.txt
    uncbound curve --quantity asymptotic-c --n 1,2,3 --r 1:100:200:log
    uncbound verify lemma --dim 30 --trials 1000 --seed 42

Ranges use the grammar ``min:max:points[:log]``.  Output is CSV (default)
or JSON with 17 significant digits, deterministic for fixed flags and seed;
the default seed comes from the UNCBOUND_SEED environment variable.  Exit
codes: 0 success, 1 failed verification, 2 bad flags or domain errors,
3 solver failure.
"""

import json
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import click
import numpy as np

from uncbound import bounds as bd
from uncbound import oracle as oc
from uncbound.purity import PurityOrder, Spectrum, entropy_from_grouped
from uncbound.solvers import SolverError
from uncbound.special_fn import check_dimension
from uncbound.spectrum_bound import bound_from_spectrum, volume_of

EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN_ERROR = 2
EXIT_SOLVER_ERROR = 3


def _default_seed():
    return int(os.environ.get("UNCBOUND_SEED", "0"))


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@dataclass(frozen=True)
class OutputRecord:
    """One emitted row: the grid point, the value, and solver diagnostics."""

    fields: tuple  # ordered (name, value) pairs

    def __post_init__(self):
        value = dict(self.fields).get("value")
        if value is None or not math.isfinite(value) or value < 0.0:
            raise ValueError(f"record value must be finite and >= 0, got {value!r}")

    def header(self):
        return ",".join(name for name, _ in self.fields)

    def csv_row(self):
        return ",".join(_fmt(value) for _, value in self.fields)

    def as_dict(self):
        return dict(self.fields)


def _emit(records, fmt):
    if not records:
        raise ValueError("nothing to emit")
    if fmt == "json":
        click.echo(json.dumps([r.as_dict() for r in records], indent=2))
    else:
        click.echo(records[0].header())
        for record in records:
            click.echo(record.csv_row())


def _guarded(body):
    try:
        body()
    except SolverError as exc:
        click.echo(f"solver error: {exc}", err=True)
        sys.exit(EXIT_SOLVER_ERROR)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DOMAIN_ERROR)


@dataclass(frozen=True)
class Range:
    """Sweep grid parsed from ``min:max:points[:log]``."""

    lo: float
    hi: float
    points: int
    spacing: str = "linear"

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"range needs min < max, got {self.lo}:{self.hi}")
        if self.points < 2:
            raise ValueError("range needs at least 2 points")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
        if self.spacing == "log" and self.lo <= 0:
            raise ValueError("log spacing requires min > 0")

    def grid(self):
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


def parse_range(text) -> Range:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"range {text!r} is not min:max:points[:log]")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError:
        raise ValueError(f"range {text!r} has non-numeric pieces") from None
    spacing = parts[3] if len(parts) == 4 else "linear"
    return Range(lo, hi, points, spacing)


def parse_dimensions(text):
    try:
        values = [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise ValueError(f"dimension list {text!r} must be comma-separated ints") from None
    if not values:
        raise ValueError("dimension list is empty")
    return values


@dataclass(frozen=True)
class CurveSpec:
    """A sweep: the quantity, the dimensions, and one range per parameter.

    Exactly the parameters the quantity needs must be present; for
    purity-bound sweeps one of r/mu is a Range and the other a fixed float.
    """

    quantity: str
    n_values: list
    r: "Range | float | None" = None
    mu: "Range | float | None" = None
    S: "Range | None" = None

    def __post_init__(self):
        if not self.n_values:
            raise ValueError("curve needs at least one dimension")
        needs = {
            "asymptotic-c": ("r",),
            "interpolated-r2": ("mu",),
            "entropy-bound": ("S",),
            "purity-bound": ("r", "mu"),
        }
        if self.quantity not in needs:
            raise ValueError(f"unknown quantity {self.quantity!r}")
        for name in needs[self.quantity]:
            if getattr(self, name) is None:
                raise ValueError(f"--quantity {self.quantity} needs --{name}")
        if self.quantity == "purity-bound":
            swept = sum(isinstance(v, Range) for v in (self.r, self.mu))
            if swept != 1:
                raise ValueError(
                    "purity-bound sweeps exactly one of --r/--mu; give the "
                    "other as a plain number"
                )
        else:
            (name,) = needs[self.quantity]
            if not isinstance(getattr(self, name), Range):
                raise ValueError(
                    f"--{name} must be a range min:max:points[:log] for "
                    f"--quantity {self.quantity}"
                )


def _first_bad_line(path, detail) -> ValueError:
    """The error for a file numpy's reader refused, naming its first bad line.

    loadtxt counts data rows rather than file lines, so the file is scanned
    again under the same rules: text after '#' is dropped, a line holds one
    number, and a number is what float() takes, written in ASCII without
    '_' separators.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            text = line.split("#", 1)[0].strip()
            fields = text.split()
            if not fields:
                continue
            if len(fields) > 1:
                return ValueError(
                    f"{path}:{line_number}: {text!r} holds {len(fields)} "
                    "numbers; expected one eigenvalue per line"
                )
            try:
                if text.isascii() and "_" not in text:
                    float(text)
                    continue
            except ValueError:
                pass
            return ValueError(f"{path}:{line_number}: {text!r} is not a number")
    return ValueError(f"{path}: {detail}")


def read_spectrum_file(path) -> Spectrum:
    """Parse a file of eigenvalues, one number per line.

    '#' starts a comment anywhere on a line and blank lines are skipped.
    numpy's C text reader parses the numbers to the same doubles as Python
    float(); a line with more than one number, or with text that is not a
    number, is rejected with its file line.  Sums within 1e-6 of 1 are
    normalized; anything further off is rejected.
    """
    try:
        with warnings.catch_warnings():
            # a file of comments and blanks is reported below, not warned about
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            table = np.loadtxt(path, dtype=float, comments="#", ndmin=2,
                               encoding="utf-8")
    except ValueError as exc:
        raise _first_bad_line(path, exc) from None
    if table.shape[1] != 1:
        raise _first_bad_line(path, f"{table.shape[1]} numbers per line")
    if table.size == 0:
        raise ValueError(f"{path}: no eigenvalues found")
    array = table.ravel()
    if np.any(array < 0):
        raise ValueError(f"{path}: negative eigenvalues present")
    total = array.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(
            f"{path}: eigenvalues sum to {total!r}; refusing to normalize "
            "anything further than 1e-6 from 1"
        )
    return Spectrum(array / total)


@click.group()
@click.version_option()
def main():
    """Uncertainty-product lower bounds for mixed states (units hbar/2 = 1)."""


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


@main.group()
def bound():
    """Compute a single bound and print one record."""


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
    help="Output format.",
)


@bound.command("purity")
@click.option("--n", type=int, required=True, help="Number of dimensions.")
@click.option("--r", type=float, required=True, help="Purity order r.")
@click.option("--mu", type=float, required=True, help="Generalized purity value.")
@click.option("--method", type=click.Choice(["exact", "asymptotic", "interpolated"]),
              default="exact", help="exact: optimized cutoff bracket; asymptotic: "
              "small-mu closed form; interpolated: r=2 gamma-equation root.")
@_format_option
def bound_purity(n, r, mu, method, fmt):
    """Lower bound given a generalized purity mu^(r)."""

    def body():
        if method == "exact":
            result = bd.purity_bound(mu, n, PurityOrder.finite(r))
            value, aux, residual = (result.per_dim_product, result.aux,
                                    result.residual)
        elif method == "asymptotic":
            if not 0.0 < mu <= 1.0:
                raise ValueError(f"mu must be in (0, 1], got {mu}")
            value = (bd.asymptotic_C(n, r) / mu) ** (1.0 / n)
            aux, residual = None, None
        else:
            if r != 2.0:
                raise ValueError("--method interpolated requires --r 2")
            result = bd.interpolated_bound_r2(mu, n)
            value, aux, residual = (result.per_dim_product, result.aux,
                                    result.residual)
        record = OutputRecord(fields=(
            ("n", n), ("r", float(r)), ("mu", float(mu)), ("value", value),
            ("volume", volume_of(value, n)), ("aux", aux), ("method", method),
            ("residual", residual),
        ))
        _emit([record], fmt)

    _guarded(body)


@bound.command("entropy")
@click.option("--n", type=int, required=True, help="Number of dimensions.")
@click.option("--S", "entropy", type=float, required=True, help="Von Neumann entropy.")
@click.option("--asymptotic", is_flag=True, help="Use the large-S closed form.")
@_format_option
def bound_entropy(n, entropy, asymptotic, fmt):
    """Lower bound given a von Neumann entropy S."""

    def body():
        if asymptotic:
            check_dimension(n)
            if entropy < 0:
                raise ValueError(f"entropy must be >= 0, got {entropy}")
            try:
                value = math.exp(entropy / n) * 2.0 / math.e
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ValueError(f"bound for S/n = {entropy / n!r} is beyond "
                                 "the float range")
            aux, residual, method = None, None, "asymptotic"
        else:
            result = bd.entropy_bound(entropy, n)
            value, aux, residual = (result.per_dim_product, result.aux,
                                    result.residual)
            method = result.method
        record = OutputRecord(fields=(
            ("n", n), ("S", float(entropy)), ("value", value),
            ("volume", volume_of(value, n)), ("aux", aux), ("method", method),
            ("residual", residual),
        ))
        _emit([record], fmt)

    _guarded(body)


@bound.command("spectrum")
@click.option("--n", type=int, required=True, help="Number of dimensions.")
@click.option("--input", "path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="File with one eigenvalue per line.")
@_format_option
def bound_spectrum(n, path, fmt):
    """Lower bound given a density-matrix eigenspectrum file."""

    def body():
        spectrum = read_spectrum_file(path)
        result = bound_from_spectrum(spectrum, n)
        record = OutputRecord(fields=(
            ("n", n), ("value", result.per_dim_product),
            ("volume", result.volume), ("aux", None),
            ("method", result.method), ("residual", result.residual),
        ))
        _emit([record], fmt)

    _guarded(body)


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def _parse_range_or_number(text):
    if text is None:
        return None
    return parse_range(text) if ":" in text else float(text)


def _curve_jobs(spec: CurveSpec):
    jobs_of = []  # (fields-prefix, callable) per grid point, in output order
    if spec.quantity == "asymptotic-c":
        for n in spec.n_values:
            for r in spec.r.grid():
                jobs_of.append((
                    (("n", n), ("r", float(r))),
                    lambda n=n, r=float(r): (bd.asymptotic_C(n, r), None,
                                             "asymptotic-c", None),
                ))
    elif spec.quantity == "interpolated-r2":
        for n in spec.n_values:
            for mu in spec.mu.grid():
                def job(n=n, mu=float(mu)):
                    res = bd.interpolated_bound_r2(mu, n)
                    return res.per_dim_product, res.aux, res.method, res.residual
                jobs_of.append(((("n", n), ("mu", float(mu))), job))
    elif spec.quantity == "entropy-bound":
        for n in spec.n_values:
            for s_value in spec.S.grid():
                def job(n=n, s_value=float(s_value)):
                    res = bd.entropy_bound(s_value, n)
                    return res.per_dim_product, res.aux, res.method, res.residual
                jobs_of.append(((("n", n), ("S", float(s_value))), job))
    else:  # purity-bound
        if isinstance(spec.r, Range):
            pairs = [(float(r), spec.mu) for r in spec.r.grid()]
        else:
            pairs = [(spec.r, float(mu)) for mu in spec.mu.grid()]
        for n in spec.n_values:
            for r, mu in pairs:
                def job(n=n, r=r, mu=mu):
                    res = bd.purity_bound(mu, n, PurityOrder.finite(r))
                    return res.per_dim_product, res.aux, res.method, res.residual
                jobs_of.append(((("n", n), ("r", r), ("mu", mu)), job))
    return jobs_of


@main.command("curve")
@click.option("--quantity", type=click.Choice(
    ["asymptotic-c", "purity-bound", "entropy-bound", "interpolated-r2"]),
    required=True)
@click.option("--n", "dims_text", default="1", help="Comma-separated dimensions.")
@click.option("--r", "r_text", default=None,
              help="Range min:max:points[:log], or a number for purity-bound.")
@click.option("--mu", "mu_text", default=None,
              help="Range min:max:points[:log], or a number for purity-bound.")
@click.option("--S", "s_text", default=None, help="Range min:max:points[:log].")
@click.option("--jobs", type=int, default=1, help="Concurrent grid evaluations.")
@_format_option
def curve(quantity, dims_text, r_text, mu_text, s_text, jobs, fmt):
    """Sweep a bound over a grid; rows ordered by n, then the swept value."""

    def body():
        if jobs < 1:
            raise ValueError("--jobs must be >= 1")
        spec = CurveSpec(
            quantity=quantity,
            n_values=parse_dimensions(dims_text),
            r=_parse_range_or_number(r_text),
            mu=_parse_range_or_number(mu_text),
            S=parse_range(s_text) if s_text is not None else None,
        )
        grid_jobs = _curve_jobs(spec)
        if jobs == 1:
            outputs = [job() for _, job in grid_jobs]
        else:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(job) for _, job in grid_jobs]
                outputs = [future.result() for future in futures]
        records = []
        for (prefix, _), (value, aux, method, residual) in zip(grid_jobs, outputs):
            records.append(OutputRecord(fields=prefix + (
                ("value", value), ("aux", aux), ("method", method),
                ("residual", residual),
            )))
        _emit(records, fmt)

    _guarded(body)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@main.group()
def verify():
    """Run an oracle suite; exit 0 only if every check passes."""


def _verdict(name, checks, failures, worst_label, worst):
    click.echo(
        f"{name}: checks={checks} failures={failures} {worst_label}={_fmt(worst)}"
    )
    click.echo("PASS" if failures == 0 else "FAIL")
    sys.exit(0 if failures == 0 else EXIT_VERIFY_FAILED)


_seed_option = click.option(
    "--seed", type=int, default=_default_seed,
    help="RNG seed (default: UNCBOUND_SEED env var, else 0).",
)


@verify.command("lemma")
@click.option("--dim", type=int, default=30, help="Unitary dimension.")
@click.option("--trials", type=int, default=1000)
@_seed_option
@click.option("--tol", type=float, default=1e-10)
def verify_lemma(dim, trials, seed, tol):
    """Mixed-vs-sorted energy inequality over random unitaries."""

    def body():
        cfg = oc.OracleConfig(seed=seed, trials=trials)
        worst = math.inf
        failures = 0
        for trial in range(trials):
            margin = oc.lemma_trial(dim, cfg, trial=trial).margin
            worst = min(worst, margin)
            if margin < -tol:
                failures += 1
        identity_margin = oc.lemma_trial(dim, cfg, identity=True).margin
        click.echo(f"identity margin={_fmt(identity_margin)}")
        if abs(identity_margin) > tol:
            failures += 1
        _verdict("lemma", trials + 1, failures, "worst_margin", worst)

    _guarded(body)


@verify.command("holder")
@click.option("--n", type=int, required=True)
@click.option("--r", type=float, required=True)
@click.option("--mu", type=float, required=True)
@_seed_option
@click.option("--tol", type=float, default=1e-5)
@click.option("--truncation", type=int, default=None,
              help="Oracle level cap (default: sized from the cutoff estimate).")
def verify_holder(n, r, mu, seed, tol, truncation):
    """Brute-force minimization against the optimized cutoff bracket."""

    def body():
        levels = truncation or oc.suggest_truncation(mu, n, r)
        cfg = oc.OracleConfig(seed=seed, truncation=levels)
        brute = oc.brute_force_purity_bound(mu, n, r, cfg)
        closed = bd.purity_bound(mu, n, PurityOrder.finite(r))
        gap = brute.per_dim_product - closed.per_dim_product
        click.echo(f"brute={_fmt(brute.per_dim_product)} "
                   f"closed={_fmt(closed.per_dim_product)}")
        failures = 0 if abs(gap) <= tol else 1
        _verdict("holder", 1, failures, "gap", gap)

    _guarded(body)


@verify.command("b-approx")
@click.option("--trials", type=int, default=50)
@_seed_option
@click.option("--tol", type=float, default=1e-9)
def verify_b_approx(trials, seed, tol):
    """Quadrature vs the large-cutoff closed form, plus the sum/integral trend."""

    def body():
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        failures = 0
        worst = 0.0
        for _ in range(trials):
            n = int(rng.integers(1, 5))
            r = float(rng.uniform(1.0, 6.0))
            m_cut = float(rng.uniform(0.5, 200.0))
            gap = abs(oc.quadrature_B(m_cut, n, r) / bd.B_asymptotic(m_cut, n, r) - 1.0)
            worst = max(worst, gap)
            if gap > tol:
                failures += 1
        checks = trials
        for n in (1, 2, 3):
            ratios = [bd.B_exact(m_cut, n, 2.0) / bd.B_asymptotic(m_cut, n, 2.0)
                      for m_cut in (1e2, 1e3, 1e4)]
            checks += 1
            drifts = [abs(ratio - 1.0) for ratio in ratios]
            if not (drifts[0] > drifts[1] > drifts[2]):
                failures += 1
        _verdict("b-approx", checks, failures, "worst_gap", worst)

    _guarded(body)


@verify.command("appendix-d")
@click.option("--n-max", type=int, default=10)
@click.option("--tol", type=float, default=1e-10)
def verify_appendix_d(n_max, tol):
    """Alternating-sum identity behind the cutoff-integral constant."""

    def body():
        failures = 0
        worst = 0.0
        checks = 0
        for n in range(1, n_max + 1):
            for r in (1.5, 2.0, 2.5, 5.0):
                _, _, gap = oc.appendix_d_identity_check(n, r)
                checks += 1
                worst = max(worst, gap)
                if gap > tol:
                    failures += 1
        _verdict("appendix-d", checks, failures, "worst_gap", worst)

    _guarded(body)


@verify.command("roundtrip")
@click.option("--trials", type=int, default=100)
@_seed_option
@click.option("--tol", type=float, default=1e-10)
def verify_roundtrip(trials, seed, tol):
    """Entropy -> thermal state -> entropy self-consistency."""

    def body():
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        failures = 0
        worst = 0.0
        for _ in range(trials):
            n = int(rng.integers(1, 7))
            s_target = float(rng.uniform(1e-3, 50.0))
            params = bd.thermal_beta_from_entropy(s_target, n)
            try:
                grouped = bd.thermal_grouped_spectrum(params.beta, n,
                                                      max_levels=400_000)
                gap = abs(entropy_from_grouped(grouped) - s_target)
                gap_tol = max(tol, 1e-9)  # summing ~1e5 terms costs one digit
            except ValueError:
                # too mixed to materialize; check the closed form instead
                gap = abs(bd.thermal_entropy(params.beta, n) - s_target)
                gap_tol = tol
            worst = max(worst, gap)
            if gap > gap_tol:
                failures += 1
        _verdict("roundtrip", trials, failures, "worst_gap", worst)

    _guarded(body)


if __name__ == "__main__":
    main()
