"""Cold-start wall time of ``uncbound`` commands, and the packages each loads.

``PYTHONPATH=src python tests/cold_start.py`` runs each command below as
``uncbound.cli`` run as a script, in 5 fresh interpreters, and prints the
best wall time from spawning the interpreter to its exit, beside the floor
``python -c 'import click'``.  For each one it also prints the top-level
packages outside the standard library that the command loaded: the closed
forms (``bound entropy``, ``curve --quantity interpolated-r2``) need click
and uncbound alone, ``bound purity`` (exact) and ``bound spectrum`` numpy as
well.  The second ``bound purity``
row, at n = 64 and a cutoff above 1024, carries the cost of building the
cutoff sums' 2e4-level ln g table on first use.  The last line is how far
``bound entropy`` is above the floor.  Wall times depend on the host, so
nothing is checked; CI prints it for the log.
"""

import os
import subprocess
import sys
import tempfile
import time

RUNS = 5

# run in each child: the command, or ``import click`` alone, and at exit the
# top-level packages that it loaded, on stderr
_CHILD = """\
import atexit, runpy, sys
before = set(sys.modules)
def loaded():
    names = {name.split('.')[0] for name in set(sys.modules) - before}
    print(' '.join(sorted(names - set(sys.stdlib_module_names))), file=sys.stderr)
atexit.register(loaded)
if sys.argv[1:]:
    sys.argv[0] = 'uncbound'
    runpy.run_module('uncbound.cli', run_name='__main__', alter_sys=True)
else:
    import click
"""


def commands(spectrum_path):
    return {
        "import click": [],
        "bound entropy": ["bound", "entropy", "--S", "1", "--n", "2"],
        "curve interpolated-r2": ["curve", "--quantity", "interpolated-r2", "--n", "1,2",
                                  "--mu", "1e-7:1e-5:16:log"],
        "bound purity": ["bound", "purity", "--n", "2", "--r", "3", "--mu", "0.01"],
        # cutoff 4908: its direct sums build the 2e4-level ln g table at n = 64
        "bound purity n=64": ["bound", "purity", "--n", "64", "--r", "2", "--mu", "1e-147"],
        "bound spectrum": ["bound", "spectrum", "--n", "2", "--input", spectrum_path],
    }


def cold_start(argv):
    """(best wall seconds of RUNS fresh interpreters, the packages loaded)."""
    best, packages = float("inf"), ""
    for _ in range(RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _CHILD, *argv],
                              capture_output=True, text=True)
        best = min(best, time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()}")
        packages = proc.stderr.strip().splitlines()[-1]
    return best, packages


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        spectrum = os.path.join(work, "spectrum.txt")
        with open(spectrum, "w", encoding="utf-8") as handle:
            handle.write("0.5\n0.3\n0.2\n")
        print(f"{'command':22} {'best ms':>8}  loaded")
        best = {}
        for name, argv in commands(spectrum).items():
            best[name], packages = cold_start(argv)
            print(f"{name:22} {best[name] * 1e3:8.1f}  {packages}")
    gap = best["bound entropy"] - best["import click"]
    print(f"bound entropy is {gap * 1e3:.1f} ms above import click")
