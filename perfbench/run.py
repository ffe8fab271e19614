"""End-to-end and per-layer benchmark of ``uncbound``.

    python3 perfbench/run.py --workload purity-sweep --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  All load comes from this one process as a
closed loop with one client: the next op starts when the previous one has
returned.

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``:
set-up (cold starts in fresh interpreters), a warm-up, then at least
``--seconds`` of timed ops in whole rounds, each checked against its
reference outside the timed interval.  Op times are scaled by the host's
speed, sampled between ops (see ``probe.py``); the wall-clock values are
printed beside them.  ``--trace 1`` runs a fixed list of ops untraced and
twice with the per-layer tracer; the count metrics of the two traced
passes must agree exactly, and the gap between the untraced and the first
traced pass is the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, with the
environment, goes to ``.perfbench_out/`` in the checkout.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import SpeedProbe, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
COLD_STARTS = 3
WARMUP_OPS = 8
COLD_START_TIMEOUT_S = 60
UNITS = {"ops_per_s": "1/s", "lat_p50_ms": "ms", "lat_tail_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MB", "fail_ratio": "ratio"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    digest = hashlib.sha256()
    paths = sorted(SRC.rglob("*.py")) + sorted(HERE.rglob("*.py")) + sorted(HERE.rglob("*.json"))
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed):
    import numpy
    import scipy

    commit = "unknown"  # a checkout without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "commit": commit, "source_sha256": source_digest(), "seed": seed,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"), "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def setup_times(code):
    """Cold starts: seconds as measured, and scaled by the probe of each one."""
    raw, scaled = [], []
    for _ in range(COLD_STARTS):
        seconds, probe_s = cold_start(code)
        raw.append(seconds)
        scaled.append(seconds * SpeedProbe.REFERENCE_S / probe_s)
    return raw, scaled


def cold_start(code):
    """Seconds from spawning a fresh interpreter to the end of its first op.

    After its first op the interpreter also runs the speed probe, on the
    core and in the state it ran on, and reports the probe's median time.
    """
    script = ("import sys, time\n"
              f"sys.path.insert(0, {str(SRC)!r})\n"
              "import uncbound.cli as cli\n"
              + code + "end = time.perf_counter()\n"
              f"sys.path.insert(0, {str(HERE)!r})\n"
              "from probe import SpeedProbe\n"
              "print(end, SpeedProbe().median_kernel(5))\n")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=COLD_START_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-500:]}")
    end, probe_s = map(float, proc.stdout.split()[-2:])
    return end - start, probe_s


def tail_index(count, percentile):
    """Nearest-rank index of ``percentile`` among ``count`` sorted values."""
    return max(math.ceil(percentile / 100.0 * count) - 1, 0)


def min_ops(workload):
    """Fewest whole rounds of ops with 10 ops beyond the tail percentile."""
    count = workload.round_ops
    while count - 1 - tail_index(count, workload.tail_percentile) < 10:
        count += workload.round_ops
    return count


class Runner:
    """Executes ops, times them, checks them and counts the failures."""

    def __init__(self, workload, run):
        self.workload = workload
        self.run = run
        self.attempted = 0
        self.failures = []

    def __call__(self, op):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.run(op)
        except Exception as exc:  # an op that raises is a failed op
            elapsed = time.perf_counter() - start
            self.failures.append((op, f"{type(exc).__name__}: {exc}"))
            return elapsed, False
        elapsed = time.perf_counter() - start
        try:
            self.workload.check(op, result)
        except Exception as exc:  # wrong output, or output that cannot be parsed
            self.failures.append((op, f"{type(exc).__name__}: {exc}"))
            return elapsed, False
        return elapsed, True


def measure(workload, runner, stream, seconds, probe):
    """Timed closed loop of ``seconds`` of op time, with speed probes between ops.

    The loop ends on a whole round, so every run holds each stratum of the
    workload equally often, and not before the tail percentile has 10 ops
    beyond it.
    """
    latencies = []
    since_probe = 0.0
    ok = 0
    probe.sample(0, repeats=3)
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    least = min_ops(workload)
    while (sum(latencies) < seconds or len(latencies) < least
           or len(latencies) % workload.round_ops):
        elapsed, good = runner(next(stream))
        latencies.append(elapsed)
        ok += good
        since_probe += elapsed
        if since_probe >= probe.EVERY_S:
            probe.sample(len(latencies))
            since_probe = 0.0
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - wall_start
    probe.sample(len(latencies), repeats=3)
    scaled = [t * f for t, f in zip(latencies, probe.factors(len(latencies)))]
    return ok, latencies, scaled, cpu / wall


def latency_metrics(ok, latencies, percentile):
    """Throughput, median, and tail latency at the workload's percentile."""
    ordered = sorted(latencies)
    return {"ops_per_s": ok / sum(latencies),
            "lat_p50_ms": statistics.median(latencies) * 1e3,
            "lat_tail_ms": ordered[tail_index(len(ordered), percentile)] * 1e3}


def traced(workload, runner, stream, tracer, layer_units):
    """Per-layer metrics over a fixed list of ``trace_rounds`` rounds of ops.

    Each op runs untraced and traced (pass A), in turn first, so host drift
    and warm caches favour neither; then the list runs traced once more
    (pass B).  The counts of the two traced passes must agree exactly.
    """
    ops = [next(stream) for _ in range(workload.trace_rounds * workload.round_ops)]
    untraced_s = 0.0
    passes = []
    for number in range(2):
        tracer.counts.clear()
        first_span = len(tracer.spans)
        elapsed = 0.0
        for index, op in enumerate(ops):
            untraced_first = number == 0 and index % 2 == 0
            if untraced_first:
                untraced_s += runner(op)[0]
            tracer.op = number * len(ops) + index
            tracer.install()
            try:
                elapsed += runner(op)[0]
            finally:
                tracer.uninstall()
            if number == 0 and not untraced_first:
                untraced_s += runner(op)[0]
        counts = dict(tracer.counts)
        counts["cli.exit_nonzero"] = counts.pop("cli.invoke.exit_nonzero", 0)
        passes.append((counts, tracer.self_ms(first_span), elapsed))

    (counts, self_a, time_a), (counts_b, self_b, _) = passes
    mismatched = sorted(key for key in set(counts) | set(counts_b)
                        if counts.get(key, 0) != counts_b.get(key, 0))
    values = {
        "trace.ops": (len(ops), "count"),
        "trace.untraced_ops_per_s": (len(ops) / untraced_s, "1/s"),
        "trace.traced_ops_per_s": (len(ops) / time_a, "1/s"),
        "trace.overhead_pct": (100.0 * (time_a / untraced_s - 1.0), "%"),
    }
    for name, unit in layer_units.items():
        if name in values:
            continue
        layer, _, measure_name = name.rpartition(".")
        if measure_name == "self_ms":
            value = (self_a.get(layer, 0.0) + self_b.get(layer, 0.0)) / 2.0
        elif measure_name == "calls_per_op":
            value = counts.get(layer + ".calls", 0) / len(ops)
        else:
            value = counts.get(name, 0)
        values[name] = (value, unit)
    for layer, total in self_a.items():  # unlisted layers still go to the record
        values.setdefault(layer + ".self_ms", ((total + self_b.get(layer, 0.0)) / 2.0, "ms"))
    for key, count in counts.items():
        values.setdefault(key, (count, "count"))
    return values, counts, mismatched


def check_against_earlier(path, digest, counts):
    """Counts must repeat across traced runs at one seed of the same code."""
    earlier = None
    if path.is_file():
        with open(path, encoding="utf-8") as handle:
            earlier = json.load(handle)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"source_sha256": digest, "counts": counts}, handle, sort_keys=True)
    if earlier is None or earlier["source_sha256"] != digest:
        return []
    old = earlier["counts"]
    return sorted(key for key in set(old) | set(counts)
                  if old.get(key, 0) != counts.get(key, 0))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "uncbound" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'uncbound'}; run from a checkout")
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if not args.seconds > 0:
        fail("--seconds must be > 0")

    for var in BLAS_VARS:  # one client, one core: keep BLAS single-threaded
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import workloads

    env = environment(args.seed)
    calibration = [calibrate()]
    probe = SpeedProbe()
    workload = workloads.make(args.workload, args.seed, OUT / "work" / args.workload)
    stream = workload.ops()
    canonical = next(stream)
    if args.trace == 0:
        setup_raw, setup_scaled = setup_times(workload.coldstart_code(canonical))

    from uncbound import bounds, cli
    from uncbound.purity import PurityOrder
    import tracing

    invoker = workloads.Invoker(cli)
    tracer = tracing.Tracer(extra=[("cli.invoke", invoker, "invoke", tracing.exit_nonzero)])
    runner = Runner(workload, workload.bind(
        {"bounds": bounds, "PurityOrder": PurityOrder, "invoke": invoker}))

    # Warm-up: the canonical op and the first ops of round 0; the rest of
    # the round is skipped, so the timed ops start on a whole round.
    runner(canonical)
    for index in range(workload.round_ops):
        op = next(stream)
        if index < WARMUP_OPS:
            runner(op)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    mismatched = []
    latencies = []
    if args.trace == 0:
        wanted = [m["name"] for m in spec["end_to_end"]]
        ok, latencies, scaled, cpu_per_wall = measure(workload, runner, stream,
                                                      args.seconds, probe)
        percentile = workload.tail_percentile
        timed = latency_metrics(ok, scaled, percentile)
        wall = latency_metrics(ok, latencies, percentile)
        beyond = len(latencies) - 1 - tail_index(len(latencies), percentile)
        wall["setup_s"] = statistics.median(setup_raw)
        timed["setup_s"] = statistics.median(setup_scaled)
        timed["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timed["fail_ratio"] = len(runner.failures) / runner.attempted
        values = {name: (value, UNITS[name]) for name, value in timed.items()}
        extra = {"wall_clock": wall,
                 "lat_tail": f"p{percentile:g} of {len(latencies)} ops, {beyond} beyond",
                 "setup_samples_s": {"wall_clock": setup_raw, "scaled": setup_scaled},
                 "probe_s": [seconds for _, seconds in probe.samples],
                 "probe_after_ops": [done for done, _ in probe.samples],
                 "timed_s": sum(latencies), "cpu_per_wall": cpu_per_wall}
    else:
        wanted = [m["name"] for m in spec["per_layer"]]
        values, counts, mismatched = traced(workload, runner, stream, tracer,
                                            {m["name"]: m["unit"] for m in spec["per_layer"]})
        earlier = check_against_earlier(
            OUT / "traces" / f"{args.workload}-seed{args.seed}-counts.json",
            env["source_sha256"], counts)
        mismatched += [f"{key} (against an earlier traced run)" for key in earlier]
        with open(OUT / "traces" / f"{stem}-spans.json", "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": tracer.spans}, handle, separators=(",", ":"))
        extra = {"absent": tracer.absent, "count_mismatches": mismatched}
    calibration.append(calibrate())
    env["calibration_s"] = calibration

    failed = len(runner.failures)
    correct = failed == 0 and not mismatched
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, (value, unit) in values.items():
        if name in wanted or args.trace == 0:
            beside = ""
            if name in extra.get("wall_clock", {}):
                beside = f"  (wall clock {extra['wall_clock'][name]:.6g})"
            if name == "lat_tail_ms":
                beside += f"  [{extra['lat_tail']}]"
            print(f"  {name} = {value:.6g} {unit}{beside}")
    for key, value in extra.items():
        if key not in ("wall_clock", "lat_tail", "probe_s", "probe_after_ops"):
            print(f"  {key}: {value}")
    for op, message in runner.failures[:20]:
        print(f"  FAILED {op!r}: {message}")
    for name in mismatched:
        print(f"  COUNT MISMATCH: {name}")
    print("env " + json.dumps(env, sort_keys=True))

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "extra": extra,
              "values": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
              "failures": [[repr(op), msg] for op, msg in runner.failures],
              "latencies_ms": [t * 1e3 for t in latencies]}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    metrics = {name: {"value": values[name][0], "unit": values[name][1]} for name in wanted}
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
