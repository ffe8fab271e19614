"""Pinned CLI output: stdout, stderr and exit code, byte for byte.

Each case runs one ``uncbound`` command in-process and compares what it
prints with text recorded from the CLI before its bound and curve commands
were rewritten onto a single row builder, so any drift in formatting,
column order, values or error messages shows up here.  The seven
``interpolated`` and ``entropy`` cases were recorded again when those roots
moved from bisection to Brent's method: only the digits the root sets
moved, by at most 5e-13 relative.  The eleven cases that print a cutoff
or interpolation root (``purity-bound``, ``interpolated`` and the
``closed=`` of ``verify holder``) were recorded again when those roots
started from one Newton step: values moved by at most 2e-13 relative.
The ``verify`` cases were recorded before the suites' tolerance flags were
removed, with the flags that remain.  The ``b-approx`` case was recorded
again when its reference moved from quadrature to the Beta function: only
``worst_gap`` moved.  The four ``entropy`` cases and ``verify roundtrip``
were recorded again when the thermal root moved to the mean occupation:
values moved by 1 to 2 ulp at small S/n, and the S = 1000, n = 10 value
by 1.4e-14 relative, towards a 60-digit root.  The eight cases that print
a purity bound (two ``bound purity``, four ``curve --quantity
purity-bound``, both ``verify holder``) were recorded again when the
cutoff sums came out scaled by M^s: values moved by at most 1.6e-15
relative and cutoffs by at most 1.5e-14, and the exit-1 case still exits
1.  ``bound purity --n 1 --r 2 --mu 1e-6`` was recorded again when the
cutoff search began to stop at |h| <= 1e-12 n/r: against the 40-digit
bound of ``tests/hurwitz.py``, 888888.88888901393, the value went from
1.6e-16 below it to 6.3e-16 above it, the rounding of the bracket, not of
the cutoff.  Six of those eight (all but the ``curve`` cases at ``--n 2
--r 2`` and ``--n 3 --r 3``) were recorded again when the root's seed
gained its second-order term and the search began to stop at
|h| <= 1e-12/r: values moved by at most 6.7e-16 relative and cutoffs by
at most 4.7e-14, and ``bound purity --n 1 --r 2 --mu 1e-6`` became the
float nearest the supremum, 0.2 ulp below it.  Six cases (``bound purity
--n 2 --r 3 --mu 0.01``, the four ``curve --quantity purity-bound`` and the
exit-1 ``verify holder``) were recorded again when the root search began
Newton steps on the exact slope of h: values moved by at most 4.3e-16
relative and cutoffs by at most 4.1e-13, and against ``purity_bound_ref``
every recorded value lies within 5.4e-16 of the supremum; ``bound purity
--n 1 --r 2 --mu 1e-6`` took one evaluation and did not move.  The ``--r 1e308`` error
text was recorded again when orders whose r - 1 rounds to r began to be
refused by name.  Seven cases (``bound purity --method interpolated`` at
``--mu 0.05``, ``bound entropy --n 2 --S 3.5``, the two ``curve --quantity
interpolated-r2``, the two ``curve --quantity entropy-bound`` and ``verify
roundtrip``) were recorded again when the interpolation and thermal roots
began Newton steps on their exact slopes: every value and aux moved
towards a 40- to 60-digit root and lies within 1.6e-15 of it, where they
were up to 6.9e-14 off.  The two ``curve --quantity interpolated-r2``
cases were recorded again when the root search became one loop that
closes its own bracket: the n = 3, mu = 10^-1.5 row moved from 2.1e-16 to
7.2e-16 of a 50-digit root and the n = 2, mu = 0.8 row from 1.5e-15 to
2.3e-16.  Five cases (``bound purity --n 2 --r 3 --mu 0.01 --format json``
and the ``curve --quantity purity-bound`` cases at ``--n 1,2 --r
1.5:3:3``, ``--n 2 --r 2``, ``--n 1 --r 1.5:6:2:log`` and ``--n 3 --r
3``) were recorded again when the direct cutoff sums began to take the top
levels' u = M - m exactly, with one exp per level: values moved by at most
4.5e-16 relative and cutoffs by at most 2.2e-15, and against
``purity_bound_ref`` every value that moved now lies below the supremum,
by at most 4.1e-16 relative, where two (n = 2, r = 2, mu = 0.01 and
n = 1, r = 6, mu = 0.1) lay above it by 5.7e-17 and 2.1e-16.
``{spectrum}`` and ``{garbage}`` stand for two files written by the test.
"""

from collections import namedtuple

import pytest
from click.testing import CliRunner

import uncbound.cli as cli
from hurwitz import purity_bound_ref

SPECTRUM = "0.5\n0.25\n0.125\n0.0625\n0.0625\n"
GARBAGE = "0.5\n# note\npotato\n0.5\n"

Case = namedtuple("Case", "argv code stdout stderr")

CASES = [
    Case(["bound", "purity", "--n", "1", "--r", "2", "--mu", "1e-6"],
         0,
         "n,r,mu,value,volume,aux,method,residual\n"
         "1,2,9.9999999999999995e-07,888888.88888901391,888888.88888901391,1333332.8333332711,exact,1.5987211554602254e-14\n",
         ""),
    # past the float range the bound is a domain error, as with --method
    # asymptotic; above r = 2^53, r - 1 rounds to r, so the cutoff sums of
    # orders r and r - 1 are one sum: a solver error, not the floor 1
    Case(["bound", "purity", "--n", "1", "--r", "2", "--mu", "1e-310"],
         2,
         "",
         "error: bound for mu = 1e-310 is beyond the float range\n"),
    Case(["bound", "purity", "--n", "1", "--r", "1e308", "--mu", "0.5"],
         3,
         "",
         "solver error: order r=1e+308 is too large: r - 1 rounds to r (n=1)\n"),
    Case(["bound", "purity", "--n", "1", "--r", "1e16", "--mu", "0.5"],
         3,
         "",
         "solver error: order r=1e+16 is too large: r - 1 rounds to r (n=1)\n"),
    Case(["curve", "--quantity", "purity-bound", "--n", "1", "--r", "2", "--mu", "1e-310:1e-300:3:log"],
         2,
         "",
         "error: bound for mu = 1e-310 is beyond the float range\n"),
    Case(["bound", "purity", "--n", "2", "--r", "3", "--mu", "0.01", "--format", "json"],
         0,
         "[\n"
         "  {\n"
         "    \"n\": 2,\n"
         "    \"r\": 3.0,\n"
         "    \"mu\": 0.01,\n"
         "    \"value\": 8.329891468921165,\n"
         "    \"volume\": 69.3870918840056,\n"
         "    \"aux\": 19.775888856836897,\n"
         "    \"method\": \"exact\",\n"
         "    \"residual\": 0.0\n"
         "  }\n"
         "]\n",
         ""),
    Case(["bound", "purity", "--n", "1", "--r", "2", "--mu", "1e-6", "--method", "asymptotic"],
         0,
         "n,r,mu,value,volume,aux,method,residual\n"
         "1,2,9.9999999999999995e-07,888888.88888888888,888888.88888888888,,asymptotic,\n",
         ""),
    Case(["bound", "purity", "--method", "asymptotic", "--n", "1", "--r", "2", "--mu", "1"],
         0,
         "n,r,mu,value,volume,aux,method,residual\n"
         "1,2,1,0.88888888888888884,0.88888888888888884,,asymptotic,\n",
         ""),
    Case(["bound", "purity", "--n", "3", "--r", "4.5", "--mu", "1e-3", "--method", "asymptotic", "--format", "json"],
         0,
         "[\n"
         "  {\n"
         "    \"n\": 3,\n"
         "    \"r\": 4.5,\n"
         "    \"mu\": 0.001,\n"
         "    \"value\": 7.991740577847909,\n"
         "    \"volume\": 510.4158276166597,\n"
         "    \"aux\": null,\n"
         "    \"method\": \"asymptotic\",\n"
         "    \"residual\": null\n"
         "  }\n"
         "]\n",
         ""),
    Case(["bound", "purity", "--n", "3", "--r", "2", "--mu", "0.05", "--method", "interpolated"],
         0,
         "n,r,mu,value,volume,aux,method,residual\n"
         "3,2,0.050000000000000003,2.3649959748649549,13.227909584657064,4.4124899371623876,interpolated,4.4408920985006262e-16\n",
         ""),
    Case(["bound", "purity", "--n", "2", "--r", "2", "--mu", "1", "--method", "interpolated", "--format", "json"],
         0,
         "[\n"
         "  {\n"
         "    \"n\": 2,\n"
         "    \"r\": 2.0,\n"
         "    \"mu\": 1.0,\n"
         "    \"value\": 1.0,\n"
         "    \"volume\": 1.0,\n"
         "    \"aux\": 1.0,\n"
         "    \"method\": \"interpolated\",\n"
         "    \"residual\": 0.0\n"
         "  }\n"
         "]\n",
         ""),
    Case(["bound", "entropy", "--n", "2", "--S", "3.5"],
         0,
         "n,S,value,volume,aux,method,residual\n"
         "2,3.5,4.2734747716909434,18.26258662427896,0.47683745270589506,thermal,0\n",
         ""),
    Case(["bound", "entropy", "--n", "2", "--S", "0", "--format", "json"],
         0,
         "[\n"
         "  {\n"
         "    \"n\": 2,\n"
         "    \"S\": 0.0,\n"
         "    \"value\": 1.0,\n"
         "    \"volume\": 1.0,\n"
         "    \"aux\": Infinity,\n"
         "    \"method\": \"thermal\",\n"
         "    \"residual\": 0.0\n"
         "  }\n"
         "]\n",
         ""),
    Case(["bound", "entropy", "--n", "3", "--S", "30", "--asymptotic"],
         0,
         "n,S,value,volume,aux,method,residual\n"
         "3,30,16206.16785515077,4256385924814.3906,,asymptotic,\n",
         ""),
    Case(["bound", "entropy", "--n", "1", "--S", "0", "--asymptotic"],
         0,
         "n,S,value,volume,aux,method,residual\n"
         "1,0,0.73575888234288467,0.73575888234288467,,asymptotic,\n",
         ""),
    Case(["bound", "entropy", "--n", "10", "--S", "1000", "--format", "json"],
         0,
         "[\n"
         "  {\n"
         "    \"n\": 10,\n"
         "    \"S\": 1000.0,\n"
         "    \"value\": 1.9778060638693893e+43,\n"
         "    \"volume\": Infinity,\n"
         "    \"aux\": 1.0112214926104486e-43,\n"
         "    \"method\": \"thermal\",\n"
         "    \"residual\": 0.0\n"
         "  }\n"
         "]\n",
         ""),
    Case(["bound", "spectrum", "--n", "2", "--input", "{spectrum}"],
         0,
         "n,value,volume,aux,method,residual\n"
         "2,1.625,2.640625,,spectrum-sum,0\n",
         ""),
    Case(["bound", "spectrum", "--n", "1", "--input", "{spectrum}", "--format", "json"],
         0,
         "[\n"
         "  {\n"
         "    \"n\": 1,\n"
         "    \"value\": 2.875,\n"
         "    \"volume\": 2.875,\n"
         "    \"aux\": null,\n"
         "    \"method\": \"spectrum-sum\",\n"
         "    \"residual\": 0.0\n"
         "  }\n"
         "]\n",
         ""),
    Case(["curve", "--quantity", "asymptotic-c", "--n", "1,2", "--r", "1:4:4"],
         0,
         "n,r,value,aux,method,residual\n"
         "1,1,1,,asymptotic-c,\n"
         "1,2,0.88888888888888884,,asymptotic-c,\n"
         "1,3,0.84375,,asymptotic-c,\n"
         "1,4,0.81919999999999993,,asymptotic-c,\n"
         "2,1,0.88888888888888895,,asymptotic-c,\n"
         "2,2,0.75,,asymptotic-c,\n"
         "2,3,0.69119999999999993,,asymptotic-c,\n"
         "2,4,0.65843621399176955,,asymptotic-c,\n",
         ""),
    Case(["curve", "--quantity", "asymptotic-c", "--n", "3", "--r", "1:100:3:log", "--format", "json"],
         0,
         "[\n"
         "  {\n"
         "    \"n\": 3,\n"
         "    \"r\": 1.0,\n"
         "    \"value\": 0.7499999999999999,\n"
         "    \"aux\": null,\n"
         "    \"method\": \"asymptotic-c\",\n"
         "    \"residual\": null\n"
         "  },\n"
         "  {\n"
         "    \"n\": 3,\n"
         "    \"r\": 10.0,\n"
         "    \"value\": 0.4532561343339907,\n"
         "    \"aux\": null,\n"
         "    \"method\": \"asymptotic-c\",\n"
         "    \"residual\": null\n"
         "  },\n"
         "  {\n"
         "    \"n\": 3,\n"
         "    \"r\": 100.0,\n"
         "    \"value\": 0.40421703545054516,\n"
         "    \"aux\": null,\n"
         "    \"method\": \"asymptotic-c\",\n"
         "    \"residual\": null\n"
         "  }\n"
         "]\n",
         ""),
    Case(["curve", "--quantity", "interpolated-r2", "--n", "1,3", "--mu", "0.001:1:3:log"],
         0,
         "n,mu,value,aux,method,residual\n"
         "1,0.001,888.88901388887086,1332.8335208333062,interpolated-r2,8.8817841970012523e-16\n"
         "1,0.031622776601683791,28.113087048414627,41.669630572621941,interpolated-r2,0\n"
         "1,1,1,1,interpolated-r2,0\n"
         "3,0.001,8.5169446857733231,19.792361714433309,interpolated-r2,8.8817841970012523e-16\n"
         "3,0.031622776601683791,2.7376904461709186,5.3442261154272961,interpolated-r2,8.8817841970012523e-16\n"
         "3,1,1,1,interpolated-r2,0\n",
         ""),
    Case(["curve", "--quantity", "interpolated-r2", "--n", "2", "--mu", "0.2:0.8:2", "--format", "json"],
         0,
         "[\n"
         "  {\n"
         "    \"n\": 2,\n"
         "    \"mu\": 0.2,\n"
         "    \"value\": 2.0,\n"
         "    \"aux\": 3.0,\n"
         "    \"method\": \"interpolated-r2\",\n"
         "    \"residual\": 6.661338147750939e-16\n"
         "  },\n"
         "  {\n"
         "    \"n\": 2,\n"
         "    \"mu\": 0.8,\n"
         "    \"value\": 1.0897247358851685,\n"
         "    \"aux\": 1.179449471770337,\n"
         "    \"method\": \"interpolated-r2\",\n"
         "    \"residual\": 2.220446049250313e-16\n"
         "  }\n"
         "]\n",
         ""),
    Case(["curve", "--quantity", "entropy-bound", "--n", "1,2", "--S", "0:6:3"],
         0,
         "n,S,value,aux,method,residual\n"
         "1,0,1,inf,thermal,0\n"
         "1,3,14.789392722199924,0.13543871459603454,thermal,0\n"
         "1,6,296.82687970105513,0.0067379597450612982,thermal,0\n"
         "2,0,1,inf,thermal,0\n"
         "2,3,3.3482229538352919,0.61610839303237208,thermal,0\n"
         "2,6,14.789392722199924,0.13543871459603454,thermal,0\n",
         ""),
    Case(["curve", "--quantity", "entropy-bound", "--n", "4", "--S", "0.5:40:2:log", "--format", "json"],
         0,
         "[\n"
         "  {\n"
         "    \"n\": 4,\n"
         "    \"S\": 0.5,\n"
         "    \"value\": 1.0540642882789482,\n"
         "    \"aux\": 3.637401826926285,\n"
         "    \"method\": \"thermal\",\n"
         "    \"residual\": 0.0\n"
         "  },\n"
         "  {\n"
         "    \"n\": 4,\n"
         "    \"S\": 40.0,\n"
         "    \"value\": 16206.167865434913,\n"
         "    \"aux\": 0.0001234098041649933,\n"
         "    \"method\": \"thermal\",\n"
         "    \"residual\": 0.0\n"
         "  }\n"
         "]\n",
         ""),
    Case(["curve", "--quantity", "purity-bound", "--n", "1,2", "--r", "1.5:3:3", "--mu", "0.01"],
         0,
         "n,r,mu,value,aux,method,residual\n"
         "1,1.5,0.01,92.952638246069881,115.69287792315893,holder-root,1.3322676295501878e-15\n"
         "1,2.25,0.01,87.439900209108217,141.58654886892859,holder-root,0\n"
         "1,3,0.01,84.376481491613873,168.24852342602605,holder-root,4.4408920985006262e-16\n"
         "2,1.5,0.01,8.9656446095842988,14.682062458892709,holder-root,0\n"
         "2,2.25,0.01,8.5665121534643163,17.174910468173856,holder-root,2.2204460492503131e-16\n"
         "2,3,0.01,8.3298914689211649,19.775888856836897,holder-root,0\n",
         ""),
    Case(["curve", "--quantity", "purity-bound", "--n", "2", "--r", "2", "--mu", "1e-4:1:3:log"],
         0,
         "n,r,mu,value,aux,method,residual\n"
         "2,2,0.0001,86.603985364962128,172.20513687390675,holder-root,3.1707969583294471e-13\n"
         "2,2,0.01,8.6748259103577467,16.311649225740091,holder-root,2.2204460492503131e-16\n"
         "2,2,1,1,1,holder-root,0\n",
         ""),
    Case(["curve", "--quantity", "purity-bound", "--n", "1", "--r", "1.5:6:2:log", "--mu", "0.1", "--format", "json"],
         0,
         "[\n"
         "  {\n"
         "    \"n\": 1,\n"
         "    \"r\": 1.5,\n"
         "    \"mu\": 0.1,\n"
         "    \"value\": 9.307459722168971,\n"
         "    \"aux\": 11.096097169341043,\n"
         "    \"method\": \"holder-root\",\n"
         "    \"residual\": 1.871836019518014e-13\n"
         "  },\n"
         "  {\n"
         "    \"n\": 1,\n"
         "    \"r\": 6.0,\n"
         "    \"mu\": 0.1,\n"
         "    \"value\": 7.949416378408781,\n"
         "    \"aux\": 27.214699787032377,\n"
         "    \"method\": \"holder-root\",\n"
         "    \"residual\": 4.75175454539567e-14\n"
         "  }\n"
         "]\n",
         ""),
    Case(["curve", "--quantity", "purity-bound", "--n", "3", "--r", "3", "--mu", "0.001:0.5:2", "--format", "json"],
         0,
         "[\n"
         "  {\n"
         "    \"n\": 3,\n"
         "    \"r\": 3.0,\n"
         "    \"mu\": 0.001,\n"
         "    \"value\": 8.237611562456117,\n"
         "    \"aux\": 23.16286914023764,\n"
         "    \"method\": \"holder-root\",\n"
         "    \"residual\": 8.881784197001252e-16\n"
         "  },\n"
         "  {\n"
         "    \"n\": 3,\n"
         "    \"r\": 3.0,\n"
         "    \"mu\": 0.5,\n"
         "    \"value\": 1.178086058450306,\n"
         "    \"aux\": 1.535077192766013,\n"
         "    \"method\": \"holder-root\",\n"
         "    \"residual\": 1.1102230246251565e-16\n"
         "  }\n"
         "]\n",
         ""),
    Case(["bound", "purity", "--n", "1", "--r", "3", "--mu", "0.5", "--method", "interpolated"],
         2,
         "",
         "error: --method interpolated requires --r 2\n"),
    Case(["bound", "purity", "--n", "1", "--r", "2", "--mu", "0", "--method", "asymptotic"],
         2,
         "",
         "error: mu must be in (0, 1], got 0.0\n"),
    Case(["bound", "purity", "--n", "1", "--r", "0.5", "--mu", "0.5"],
         2,
         "",
         "error: finite purity order requires r > 1, got 0.5\n"),
    Case(["bound", "entropy", "--n", "0", "--S", "1", "--asymptotic"],
         2,
         "",
         "error: dimension must be >= 1, got 0\n"),
    Case(["bound", "entropy", "--n", "1", "--S", "800", "--asymptotic"],
         2,
         "",
         "error: bound for S/n = 800.0 is beyond the float range\n"),
    Case(["bound", "entropy", "--n", "1", "--S", "800"],
         2,
         "",
         "error: bound for S/n = 800.0 is beyond the float range\n"),
    Case(["bound", "entropy", "--n", "1", "--S", "720"],
         2,
         "",
         "error: bound for S/n = 720.0 is beyond the float range\n"),
    Case(["bound", "purity", "--n", "1", "--r", "2", "--mu", "1e-310", "--method", "asymptotic"],
         2,
         "",
         "error: bound for mu = 1e-310 is beyond the float range\n"),
    Case(["bound", "entropy", "--n", "1", "--S", "-1"],
         2,
         "",
         "error: entropy must be >= 0, got -1.0\n"),
    Case(["bound", "spectrum", "--n", "1", "--input", "{garbage}"],
         2,
         "",
         "error: {garbage}:3: 'potato' is not a number\n"),
    Case(["curve", "--quantity", "purity-bound", "--n", "1", "--r", "1.5:3:4", "--mu", "0.01:0.5:4"],
         2,
         "",
         "error: purity-bound sweeps exactly one of --r/--mu; give the other as a plain number\n"),
    Case(["curve", "--quantity", "purity-bound", "--n", "1", "--r", "2", "--mu", "0.5"],
         2,
         "",
         "error: purity-bound sweeps exactly one of --r/--mu; give the other as a plain number\n"),
    Case(["curve", "--quantity", "purity-bound", "--n", "1", "--r", "1:3:3"],
         2,
         "",
         "error: --quantity purity-bound needs --mu\n"),
    Case(["curve", "--quantity", "purity-bound", "--n", "1", "--r", "abc", "--mu", "0.1:1:3"],
         2,
         "",
         "error: could not convert string to float: 'abc'\n"),
    Case(["curve", "--quantity", "asymptotic-c", "--n", "1", "--r", "5"],
         2,
         "",
         "error: --r must be a range min:max:points[:log] for --quantity asymptotic-c\n"),
    Case(["curve", "--quantity", "asymptotic-c", "--n", "1", "--r", "2:1:5"],
         2,
         "",
         "error: range needs min < max, got 2.0:1.0\n"),
    Case(["curve", "--quantity", "purity-bound", "--n", "1", "--r", "2", "--mu", "0.1:inf:2"],
         2,
         "",
         "error: range needs finite min and max, got 0.1:inf\n"),
    Case(["curve", "--quantity", "asymptotic-c", "--n", "1", "--r", "1:2:1"],
         2,
         "",
         "error: range needs at least 2 points\n"),
    Case(["curve", "--quantity", "asymptotic-c", "--n", "1", "--r", "a:b:c"],
         2,
         "",
         "error: range 'a:b:c' has non-numeric pieces\n"),
    Case(["curve", "--quantity", "asymptotic-c", "--n", "1", "--r", "1:2"],
         2,
         "",
         "error: range '1:2' is not min:max:points[:log]\n"),
    Case(["curve", "--quantity", "asymptotic-c", "--n", "1", "--r", "0:2:3:log"],
         2,
         "",
         "error: log spacing requires min > 0\n"),
    Case(["curve", "--quantity", "interpolated-r2", "--n", "1", "--mu", "0.1:1:3:cubic"],
         2,
         "",
         "error: unknown spacing 'cubic'\n"),
    Case(["curve", "--quantity", "entropy-bound", "--n", "1"],
         2,
         "",
         "error: --quantity entropy-bound needs --S\n"),
    Case(["curve", "--quantity", "entropy-bound", "--n", "1", "--S", "3"],
         2,
         "",
         "error: range '3' is not min:max:points[:log]\n"),
    Case(["curve", "--quantity", "entropy-bound", "--n", "1,x", "--S", "0:1:2"],
         2,
         "",
         "error: dimension list '1,x' must be comma-separated ints\n"),
    Case(["curve", "--quantity", "entropy-bound", "--n", ",", "--S", "0:1:2"],
         2,
         "",
         "error: dimension list is empty\n"),
    Case(["curve", "--quantity", "entropy-bound", "--n", "1", "--r", "x", "--S", "0:1:2"],
         2,
         "",
         "error: could not convert string to float: 'x'\n"),
    Case(["curve", "--quantity", "interpolated-r2", "--n", "1", "--mu", "0.5:2:3"],
         2,
         "",
         "error: mu must be in (0, 1], got 1.25\n"),
    Case(["verify", "lemma", "--dim", "12", "--trials", "100", "--seed", "42"],
         0,
         "identity margin=0\n"
         "lemma: checks=101 failures=0 worst_margin=3.1215342160980359\n"
         "PASS\n",
         ""),
    Case(["verify", "holder", "--n", "2", "--r", "3", "--mu", "1e-3", "--seed", "7"],
         0,
         "brute=26.295754620238018 closed=26.295754620238021\n"
         "holder: checks=1 failures=0 gap=-3.5527136788005009e-15\n"
         "PASS\n",
         ""),
    Case(["verify", "b-approx", "--trials", "20", "--seed", "3"],
         0,
         "b-approx: checks=23 failures=0 worst_gap=3.6637359812630166e-15\n"
         "PASS\n",
         ""),
    Case(["verify", "roundtrip", "--trials", "30", "--seed", "2"],
         0,
         "roundtrip: checks=30 failures=0 worst_gap=2.2737367544323206e-13\n"
         "PASS\n",
         ""),
    # the test of exit 1: the brute-force oracle overstates the minimum
    # here, so the suite fails.  ROADMAP item 4's primal-dual certificate,
    # which replaces that oracle, will change this case.
    Case(["verify", "holder", "--n", "2", "--r", "2.010041770264862", "--mu", "0.0049748612669626826", "--seed", "1"],
         1,
         "brute=12.28373272241701 closed=12.281767919782737\n"
         "holder: checks=1 failures=1 gap=0.0019648026342728997\n"
         "FAIL\n",
         ""),
]


# cases whose last printed digits move on numpy's AVX2 kernels
_SIMD_BITS = {
    "curve --quantity purity-bound --n 1 --r 1.5:6:2:log --mu 0.1 --format json",
    "verify holder --n 2 --r 3 --mu 1e-3 --seed 7",
    "verify holder --n 2 --r 2.010041770264862 --mu 0.0049748612669626826 --seed 1",
}


def _param(case):
    name = " ".join(case.argv)
    return pytest.param(case, id=name, marks=pytest.mark.simd_bits if name in _SIMD_BITS else ())


@pytest.mark.parametrize("case", [_param(c) for c in CASES])
def test_pinned_output(case, tmp_path):
    files = {"spectrum": tmp_path / "spectrum.txt", "garbage": tmp_path / "garbage.txt"}
    files["spectrum"].write_text(SPECTRUM)
    files["garbage"].write_text(GARBAGE)
    argv = [arg.format(**files) for arg in case.argv]
    result = CliRunner().invoke(cli.main, argv)
    assert result.exit_code == case.code
    assert result.stdout == case.stdout
    assert result.stderr == case.stderr.format(**files)


def test_pinned_bound_is_not_above_the_supremum():
    # the pinned value is the float nearest the 40-digit supremum, below it
    case = next(c for c in CASES if c.argv == ["bound", "purity", "--n", "1", "--r", "2", "--mu", "1e-6"])
    value = float(case.stdout.splitlines()[1].split(",")[3])
    assert value <= purity_bound_ref(1e-6, 1, 2.0)[0]
