"""Command-line front end.

All bounds are reported in units of hbar/2 = 1 per dimension.  Typical
invocations::

    uncbound bound purity --n 1 --r 2 --mu 1e-6
    uncbound bound entropy --n 2 --S 3.5
    uncbound bound spectrum --n 2 --input eigenvalues.txt
    uncbound curve --quantity asymptotic-c --n 1,2,3 --r 1:100:200:log
    uncbound verify lemma --dim 30 --trials 1000 --seed 42

Every ``bound`` and ``curve`` row is a dict of the grid point and the value,
aux, method and residual that a ``bounds`` function returned; ``_emit``
prints the rows.  Ranges use the grammar ``min:max:points[:log]``.  Output
is CSV (default) or JSON with 17 significant digits, deterministic for
fixed flags and seed; ``--seed`` defaults to 0.  Each ``verify`` suite
checks to a fixed tolerance, named in its help.  Exit codes: 0 success, 1
failed verification, 2 bad flags or domain errors, 3 solver failure; the
top-level group maps the last two from any command.

The closed-form commands run without numpy: the modules that need arrays
(``bounds``, ``purity``, ``spectrum_bound`` and ``oracle``) are imported
inside the commands that use them.
"""

import itertools
import json
import math
import sys
import warnings

import click

from uncbound import closed_forms as cf
from uncbound.solvers import SolverError
from uncbound.special_fn import MAX_LEMMA_DIM

EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN_ERROR = 2
EXIT_SOLVER_ERROR = 3
# the most points in a sweep range and trials in a verify suite: each is built
# whole, so a larger count would fill memory instead of failing
MAX_COUNT = 1_000_000


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(records, fmt):
    """Print rows, dicts with the same keys, as CSV or JSON.

    Every row's value is checked before anything is printed.  Like every
    ``click.echo`` here it names its stream: without ``file=``, click caches
    each new sys.stdout against itself in a weak-keyed dict, so a stream
    that an in-process caller swaps in is never freed.
    """
    for record in records:
        value = record["value"]
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"record value must be finite and >= 0, got {value!r}")
    if fmt == "json":
        click.echo(json.dumps(records, indent=2), file=sys.stdout)
    else:
        click.echo(",".join(records[0]), file=sys.stdout)
        for record in records:
            click.echo(",".join(_fmt(value) for value in record.values()),
                       file=sys.stdout)


def parse_range(text):
    """The grid of a sweep range ``min:max:points[:log]``, as a list."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"range {text!r} is not min:max:points[:log]")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError:
        raise ValueError(f"range {text!r} has non-numeric pieces") from None
    spacing = parts[3] if len(parts) == 4 else "linear"
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"range needs finite min and max, got {parts[0]}:{parts[1]}")
    if not lo < hi:
        raise ValueError(f"range needs min < max, got {lo}:{hi}")
    if points < 2:
        raise ValueError("range needs at least 2 points")
    if points > MAX_COUNT:
        raise ValueError(f"range needs at most {MAX_COUNT} points, got {points}")
    if spacing not in ("linear", "log"):
        raise ValueError(f"unknown spacing {spacing!r}")
    ends = lo, hi
    if spacing == "log":
        if lo <= 0:
            raise ValueError("log spacing requires min > 0")
        lo, hi = math.log10(lo), math.log10(hi)
    # numpy's linspace arithmetic, i * step + lo with the last point hi
    step = (hi - lo) / (points - 1)
    grid = [i * step + lo for i in range(points - 1)] + [hi]
    if spacing == "linear":
        return grid
    grid = [10.0 ** x for x in grid]
    grid[0], grid[-1] = ends  # both ends exact, as numpy's geomspace sets them
    return grid


def parse_dimensions(text):
    try:
        values = [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise ValueError(f"dimension list {text!r} must be comma-separated ints") from None
    if not values:
        raise ValueError("dimension list is empty")
    return values


def _first_bad_line(path, detail) -> ValueError:
    """The error for a file numpy's reader refused, naming its first bad line.

    loadtxt counts data rows rather than file lines, so the file is scanned
    again under the same rules: a line is UTF-8, text after '#' is dropped,
    a line holds one number, and a number is what float() takes, written in
    ASCII without '_' separators.  Bytes that are not UTF-8 are kept as
    escapes until their line is decoded, so the error names that line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_number, line in enumerate(handle, 1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                return ValueError(f"{path}:{line_number}: {exc}")
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


def read_spectrum_file(path):
    """Parse a file of eigenvalues, one number per line, into a ``purity.Spectrum``.

    '#' starts a comment anywhere on a line and blank lines are skipped.
    numpy's C text reader parses the numbers to the same doubles as Python
    float(); a line with more than one number, or with text that is not a
    number, is rejected with its file line.  Sums within 1e-6 of 1 are
    normalized; anything further off is rejected.
    """
    import numpy as np

    from uncbound.purity import Spectrum

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
    if not np.isfinite(array).all():
        raise ValueError(f"{path}: non-finite eigenvalues present")
    if np.any(array < 0):
        raise ValueError(f"{path}: negative eigenvalues present")
    total = float(array.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(
            f"{path}: eigenvalues sum to {total!r}; refusing to normalize "
            "anything further than 1e-6 from 1"
        )
    return Spectrum(array / total)


class ErrorBoundary(click.Group):
    """A group whose commands end a domain error in exit 2 and a solver
    error in exit 3, each with one line on stderr instead of a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SolverError as exc:
            click.echo(f"solver error: {exc}", file=sys.stderr)
            sys.exit(EXIT_SOLVER_ERROR)
        except ValueError as exc:
            click.echo(f"error: {exc}", file=sys.stderr)
            sys.exit(EXIT_DOMAIN_ERROR)


@click.group(cls=ErrorBoundary)
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


def _diagnostics(result):
    return result.per_dim_product, result.aux, result.method, result.residual


def _purity_bound(mu, n, r):
    """``bounds.purity_bound`` at the finite order r, imported on first use."""
    from uncbound.bounds import purity_bound
    from uncbound.purity import PurityOrder

    return purity_bound(mu, n, PurityOrder.finite(r))


def _emit_bound(fmt, n, params, value, aux, method, residual):
    """Print the one row of a ``bound`` command, with its volume column."""
    _emit([{"n": n, **params, "value": value, "volume": cf.volume_of(value, n),
            "aux": aux, "method": method, "residual": residual}], fmt)


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
    if method == "exact":
        value, aux, _, residual = _diagnostics(_purity_bound(mu, n, r))
    elif method == "asymptotic":
        value, aux, residual = cf.asymptotic_purity_bound(mu, n, r), None, None
    else:
        if r != 2.0:
            raise ValueError("--method interpolated requires --r 2")
        value, aux, _, residual = _diagnostics(cf.interpolated_bound_r2(mu, n))
    # the method column names the option, not the solver
    _emit_bound(fmt, n, {"r": float(r), "mu": float(mu)}, value, aux, method,
                residual)


@bound.command("entropy")
@click.option("--n", type=int, required=True, help="Number of dimensions.")
@click.option("--S", "entropy", type=float, required=True, help="Von Neumann entropy.")
@click.option("--asymptotic", is_flag=True, help="Use the large-S closed form.")
@_format_option
def bound_entropy(n, entropy, asymptotic, fmt):
    """Lower bound given a von Neumann entropy S."""
    if asymptotic:
        row = cf.asymptotic_entropy_bound(entropy, n), None, "asymptotic", None
    else:
        row = _diagnostics(cf.entropy_bound(entropy, n))
    _emit_bound(fmt, n, {"S": float(entropy)}, *row)


@bound.command("spectrum")
@click.option("--n", type=int, required=True, help="Number of dimensions.")
@click.option("--input", "path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="File with one eigenvalue per line.")
@_format_option
def bound_spectrum(n, path, fmt):
    """Lower bound given a density-matrix eigenspectrum file."""
    from uncbound.spectrum_bound import bound_from_spectrum

    result = bound_from_spectrum(read_spectrum_file(path), n)
    _emit_bound(fmt, n, {}, result.per_dim_product, None, result.method,
                result.residual)


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


# quantity -> (its parameters in column order, (n, *point) -> value, aux,
# method, residual)
CURVES = {
    "asymptotic-c": (("r",), lambda n, r: (cf.asymptotic_C(n, r), None,
                                           "asymptotic-c", None)),
    "purity-bound": (("r", "mu"), lambda n, r, mu: _diagnostics(_purity_bound(mu, n, r))),
    "entropy-bound": (("S",), lambda n, S: _diagnostics(cf.entropy_bound(S, n))),
    "interpolated-r2": (("mu",), lambda n, mu: _diagnostics(
        cf.interpolated_bound_r2(mu, n))),
}


@main.command("curve")
@click.option("--quantity", type=click.Choice(list(CURVES)), required=True)
@click.option("--n", "dims_text", default="1", help="Comma-separated dimensions.")
@click.option("--r", "r_text", default=None,
              help="Range min:max:points[:log], or a number for purity-bound.")
@click.option("--mu", "mu_text", default=None,
              help="Range min:max:points[:log], or a number for purity-bound.")
@click.option("--S", "s_text", default=None, help="Range min:max:points[:log].")
@_format_option
def curve(quantity, dims_text, r_text, mu_text, s_text, fmt):
    """Sweep a bound over a grid; rows ordered by n, then the swept value."""
    dims = parse_dimensions(dims_text)
    given = {  # a grid (list) or, for --r and --mu, a plain number
        name: parse_range(text) if ":" in text or name == "S" else float(text)
        for name, text in (("r", r_text), ("mu", mu_text), ("S", s_text))
        if text is not None
    }
    names, evaluate = CURVES[quantity]
    for name in names:
        if name not in given:
            raise ValueError(f"--quantity {quantity} needs --{name}")
    swept = [name for name in names if isinstance(given[name], list)]
    if len(names) > 1 and len(swept) != 1:
        raise ValueError("purity-bound sweeps exactly one of --r/--mu; give the "
                         "other as a plain number")
    if not swept:
        raise ValueError(f"--{names[0]} must be a range min:max:points[:log] for "
                         f"--quantity {quantity}")
    grids = [given[name] if name in swept else [given[name]] for name in names]
    rows = []
    for n in dims:
        for point in itertools.product(*grids):
            value, aux, method, residual = evaluate(n, *point)
            rows.append({"n": n, **dict(zip(names, point)), "value": value,
                         "aux": aux, "method": method, "residual": residual})
    _emit(rows, fmt)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@main.group()
def verify():
    """Run an oracle suite; exit 0 only if every check passes."""


def _verdict(name, checks, failures, worst_label, worst):
    click.echo(
        f"{name}: checks={checks} failures={failures} {worst_label}={_fmt(worst)}",
        file=sys.stdout,
    )
    click.echo("PASS" if failures == 0 else "FAIL", file=sys.stdout)
    sys.exit(0 if failures == 0 else EXIT_VERIFY_FAILED)


_seed_option = click.option("--seed", type=click.IntRange(0), default=0, help="RNG seed.")


@verify.command("lemma")
@click.option("--dim", type=click.IntRange(2, MAX_LEMMA_DIM), default=30,
              help="Unitary dimension.")
@click.option("--trials", type=click.IntRange(1, MAX_COUNT), default=1000)
@_seed_option
def verify_lemma(dim, trials, seed):
    """Mixed-vs-sorted energy inequality over random unitaries, to 1e-10."""
    from uncbound import oracle as oc

    cfg = oc.OracleConfig(seed=seed)
    margins = oc.lemma_margins(1, dim - 1, cfg, range(trials))
    identity_margin = float(oc.lemma_margins(1, dim - 1, cfg, range(1), identity=True)[0])
    click.echo(f"identity margin={_fmt(identity_margin)}", file=sys.stdout)
    failures = int((margins < -1e-10).sum()) + (abs(identity_margin) > 1e-10)
    _verdict("lemma", trials + 1, failures, "worst_margin", float(margins.min()))


@verify.command("holder")
@click.option("--n", type=int, required=True)
@click.option("--r", type=float, required=True)
@click.option("--mu", type=float, required=True)
@_seed_option
def verify_holder(n, r, mu, seed):
    """Brute-force minimization against the optimized cutoff bracket, to 1e-5."""
    from uncbound import oracle as oc

    cfg = oc.OracleConfig(seed=seed, truncation=oc.suggest_truncation(mu, n, r))
    brute = oc.brute_force_purity_bound(mu, n, r, cfg).per_dim_product
    closed = _purity_bound(mu, n, r).per_dim_product
    click.echo(f"brute={_fmt(brute)} closed={_fmt(closed)}", file=sys.stdout)
    gap = brute - closed
    _verdict("holder", 1, 0 if abs(gap) <= 1e-5 else 1, "gap", gap)


@verify.command("b-approx")
@click.option("--trials", type=click.IntRange(1, MAX_COUNT), default=50)
@_seed_option
def verify_b_approx(trials, seed):
    """Beta function vs the large-M closed form to 1e-9, and the sum/integral trend."""
    import numpy as np

    from uncbound import oracle as oc
    from uncbound.bounds import B_exact

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    gaps = []
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        r = float(rng.uniform(1.0, 6.0))
        M = float(rng.uniform(0.5, 200.0))
        gaps.append(abs(oc.beta_integral_B(M, n, r) / cf.B_asymptotic(M, n, r) - 1.0))
    # the sum's drift from the integral shrinks as the cutoff grows
    drifts = [[abs(B_exact(M, n, 2.0) / cf.B_asymptotic(M, n, 2.0) - 1.0)
               for M in (1e2, 1e3, 1e4)] for n in (1, 2, 3)]
    failures = (sum(gap > 1e-9 for gap in gaps)
                + sum(not (d[0] > d[1] > d[2]) for d in drifts))
    _verdict("b-approx", trials + len(drifts), failures, "worst_gap", max(gaps))


@verify.command("appendix-d")
def verify_appendix_d():
    """Alternating-sum identity of the cutoff-integral constant, n <= 10, to 1e-10."""
    from uncbound import oracle as oc

    gaps = [oc.appendix_d_identity_check(n, r)[2]
            for n in range(1, 11) for r in (1.5, 2.0, 2.5, 5.0)]
    _verdict("appendix-d", len(gaps), sum(gap > 1e-10 for gap in gaps),
             "worst_gap", max(gaps))


@verify.command("roundtrip")
@click.option("--trials", type=click.IntRange(1, MAX_COUNT), default=100)
@_seed_option
def verify_roundtrip(trials, seed):
    """Entropy -> thermal state -> entropy to 1e-9 (1e-10 unmaterialized), and
    that state's bound vs the closed form to 1e-9."""
    import numpy as np

    from uncbound.bounds import thermal_grouped_spectrum
    from uncbound.purity import entropy_from_grouped
    from uncbound.spectrum_bound import bound_from_grouped

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    failures = 0
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        s_target = float(rng.uniform(1e-3, 50.0))
        closed = cf.entropy_bound(s_target, n)  # aux is the thermal beta
        try:
            grouped = thermal_grouped_spectrum(closed.aux, n)
        except ValueError:
            # too mixed to materialize; check the closed form's entropy instead
            gap, gap_tol, bound_gap = closed.residual, 1e-10, 0.0
        else:
            gap = abs(entropy_from_grouped(grouped) - s_target)
            gap_tol = 1e-9  # summing ~1e5 terms costs one digit
            value = closed.per_dim_product
            bound_gap = abs(bound_from_grouped(grouped).per_dim_product - value) / value
        worst = max(worst, gap)
        if gap > gap_tol or bound_gap > 1e-9:
            failures += 1
    _verdict("roundtrip", trials, failures, "worst_gap", worst)


if __name__ == "__main__":
    main()
