"""Per-layer tracing from outside the package.

The tracer replaces public names on the module attributes that callers
look up (for example ``bounds.log_B_exact``, which ``holder_bracket`` finds
in its module globals), so calls made inside the package are seen.  Each
call becomes a span ``[name, start, end, parent, op]`` kept in memory and
written out when the run ends; counts (calls, iterations, elements, ...)
are taken at the same boundary.  A layer's self time is its span time
minus the time of its direct child spans.

A name that the package no longer has is reported as absent, not as an
error.  Nothing in the package waits on a queue or a lock, so no waiting
time is recorded.
"""

import functools
import math
import os
import sys
import time
from collections import defaultdict

DIRECT_TERM_LIMIT = 200_000  # split of the cutoff sum by its argument M


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _log_b_name(args, kwargs):
    size = "small_M" if float(_arg(args, kwargs, 0, "M")) <= DIRECT_TERM_LIMIT else "large_M"
    return "bounds.log_B_exact." + size


def _log_b_terms(args, kwargs, result):
    big_m = float(_arg(args, kwargs, 0, "M"))
    if big_m <= DIRECT_TERM_LIMIT:
        yield "terms", math.floor(big_m) + 1


def _iterations(args, kwargs, result):
    yield "iterations", result.iterations


def _elements_of_arg(args, kwargs, result):
    yield "elements", int(getattr(args[0], "size", len(args[0])))


def _levels_of_result(args, kwargs, result):
    yield "levels", len(result)


def _post_init_elements(field):
    def measure(args, kwargs, result):
        yield "elements", int(getattr(args[0], field).size)
    return measure


def _records(args, kwargs, result):
    yield "records", len(args[0])


def _file_bytes(args, kwargs, result):
    yield "bytes", os.path.getsize(args[0])


def exit_nonzero(args, kwargs, result):
    yield "exit_nonzero", int(result[0] != 0)


def _truncation(args, kwargs, result):
    yield "truncation", int(_arg(args, kwargs, 3, "cfg").truncation)


# (metric name, home module, attribute path, measure); the name may be a
# function of the call's arguments.
TARGETS = (
    ("bounds.purity_bound", "uncbound.bounds", "purity_bound", None),
    ("bounds.holder_bracket", "uncbound.bounds", "holder_bracket", None),
    (_log_b_name, "uncbound.bounds", "log_B_exact", _log_b_terms),
    ("solvers.golden_max", "uncbound.solvers", "golden_max", _iterations),
    ("solvers.bisect_root", "uncbound.solvers", "bisect_root", _iterations),
    ("ext.logsumexp", "scipy.special", "logsumexp", None),
    ("special_fn.log_degeneracy_array", "uncbound.special_fn",
     "log_degeneracy_array", _elements_of_arg),
    ("bounds.interpolated_bound_r2", "uncbound.bounds", "interpolated_bound_r2", None),
    ("bounds.entropy_bound", "uncbound.bounds", "entropy_bound", None),
    ("bounds.thermal_grouped_spectrum", "uncbound.bounds",
     "thermal_grouped_spectrum", _levels_of_result),
    ("purity.GroupedSpectrum", "uncbound.purity", "GroupedSpectrum.__post_init__",
     _post_init_elements("weights")),
    ("purity.Spectrum", "uncbound.purity", "Spectrum.__post_init__",
     _post_init_elements("eigenvalues")),
    ("spectrum_bound.group_spectrum", "uncbound.spectrum_bound", "group_spectrum",
     _levels_of_result),
    ("spectrum_bound.bound_from_grouped", "uncbound.spectrum_bound",
     "bound_from_grouped", None),
    ("cli._emit", "uncbound.cli", "_emit", _records),
    ("cli.read_spectrum_file", "uncbound.cli", "read_spectrum_file", _file_bytes),
    ("oracle.brute_force_purity_bound", "uncbound.oracle",
     "brute_force_purity_bound", _truncation),
    ("oracle.lemma_trial", "uncbound.oracle", "lemma_trial", None),
    ("oracle.random_unitary", "uncbound.oracle", "random_unitary", None),
    ("oracle.quadrature_B", "uncbound.oracle", "quadrature_B", None),
)


def _display(name):
    return name if isinstance(name, str) else "bounds.log_B_exact"


class Tracer:
    """Spans and counts of the traced ops of one run.

    ``extra`` names objects outside the package to wrap as well, as
    ``(metric name, owner, attribute, measure)``.
    """

    def __init__(self, extra=()):
        self.extra = list(extra)
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.counts = defaultdict(int)
        self.op = -1
        self.absent = []
        self._plan = None

    def wrap(self, fn, name, measure=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            record = [label, clock(), 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(record)
            counts[label + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[label + ".errors"] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if measure is not None:
                for key, amount in measure(args, kwargs, result):
                    counts[f"{label}.{key}"] += amount
            return result
        return traced

    def install(self):
        """Wrap every target in every loaded ``uncbound`` module that holds it.

        The wrappers are made on the first call and reused, so installing
        and removing them around each op is cheap.
        """
        if self._plan is None:
            self._plan = self._make_plan()
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._plan or ()):
            setattr(owner, attr, original)

    def _make_plan(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "uncbound" or key.startswith("uncbound."))]
        plan = []
        for name, home, path, measure in TARGETS:
            owner = sys.modules.get(home)
            if "." in path:  # a method on a class
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name, None)
                original = cls.__dict__.get(attr) if cls is not None else None
                holders = [] if original is None else [cls]
            else:
                attr = path
                original = getattr(owner, path, None) if owner is not None else None
                holders = [m for m in modules
                           if original is not None and m.__dict__.get(path) is original]
            if not holders:
                self.absent.append(_display(name))
                continue
            wrapper = self.wrap(original, name, measure)
            plan += [(holder, attr, original, wrapper) for holder in holders]
        for name, owner, attr, measure in self.extra:
            original = getattr(owner, attr)
            plan.append((owner, attr, original, self.wrap(original, name, measure)))
        return plan

    def self_ms(self, first_span=0):
        """Self time in ms per span name, over spans from ``first_span`` on."""
        spans = self.spans[first_span:]
        children = [0.0] * len(spans)
        for record in spans:
            parent = record[3] - first_span
            if parent >= 0:
                children[parent] += record[2] - record[1]
        totals = defaultdict(float)
        for record, child in zip(spans, children):
            totals[record[0]] += (record[2] - record[1] - child) * 1e3
        return totals
