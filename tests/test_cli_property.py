"""Property test of the CLI's error boundary.

Over dimensions inside and just outside 1..64, and r, mu and S spread
log-uniformly over [1e-300, 1e3] together with 0, 1, -1, inf and nan,
``bound purity`` (each method), ``bound entropy`` (with and without
``--asymptotic``) and ``curve --quantity purity-bound`` must end in a value
(exit 0), a domain error (exit 2) or a solver error (exit 3), never in a
traceback.  A value printed by a method other than the asymptotic closed
forms is a valid bound, so it is at least the pure-state floor of 1.
"""

import json
import math

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import uncbound.cli as cli

DIMS = st.sampled_from([0, 1, 2, 3, 12, 64, 65])
NUMBERS = st.one_of(
    st.floats(min_value=-300.0, max_value=3.0).map(lambda e: 10.0 ** e),
    st.sampled_from([0.0, 1.0, -1.0, math.inf, math.nan]),
)
# r > 1 is where the purity bound is defined; 1 + 10^e covers it from
# 1 + 1e-12 up to about 1e3
ORDERS = st.one_of(st.floats(min_value=-12.0, max_value=3.0).map(
    lambda e: 1.0 + 10.0 ** e), NUMBERS)
FORMATS = st.sampled_from(["csv", "json"])


@st.composite
def bound_purity(draw):
    method = draw(st.sampled_from(["exact", "asymptotic", "interpolated"]))
    r = 2.0 if method == "interpolated" and draw(st.booleans()) else draw(ORDERS)
    argv = ["bound", "purity", f"--n={draw(DIMS)}", f"--r={r!r}",
            f"--mu={draw(NUMBERS)!r}", f"--method={method}"]
    return argv, method == "asymptotic"


@st.composite
def bound_entropy(draw):
    asymptotic = draw(st.booleans())
    argv = ["bound", "entropy", f"--n={draw(DIMS)}", f"--S={draw(NUMBERS)!r}"]
    return argv + ["--asymptotic"] * asymptotic, asymptotic


@st.composite
def curve_purity(draw):
    dims = ",".join(str(n) for n in draw(st.lists(DIMS, min_size=1, max_size=2)))
    swept = draw(st.sampled_from(["r", "mu"]))
    values = {"r": draw(ORDERS), "mu": draw(NUMBERS)}
    lo = values[swept]
    hi = lo * (1.0 + 10.0 ** draw(st.floats(min_value=-6.0, max_value=3.0)))
    grid = f"{lo!r}:{hi!r}:2" + draw(st.sampled_from(["", ":log"]))
    argv = ["curve", "--quantity", "purity-bound", f"--n={dims}"]
    argv += [f"--{name}={grid if name == swept else repr(value)}"
             for name, value in values.items()]
    return argv, False


def printed_values(text, fmt):
    if fmt == "json":
        return [row["value"] for row in json.loads(text)]
    lines = text.strip().splitlines()
    column = lines[0].split(",").index("value")
    return [float(line.split(",")[column]) for line in lines[1:]]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(command=st.one_of(bound_purity(), bound_entropy(), curve_purity()),
       fmt=FORMATS)
def test_every_input_ends_in_a_value_or_a_clean_error(command, fmt):
    argv, asymptotic = command
    result = CliRunner().invoke(cli.main, argv + [f"--format={fmt}"])
    assert result.exit_code in (0, 2, 3), (argv, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.stderr
    if result.exit_code != 0:
        assert result.stdout == ""
        assert result.stderr.startswith(("error: ", "solver error: ", "Usage: "))
        return
    values = printed_values(result.stdout, fmt)
    assert values and all(math.isfinite(value) for value in values)
    assert all(value >= (0.0 if asymptotic else 1.0) for value in values), argv
