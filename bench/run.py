#!/usr/bin/env python3
"""Benchmark of collatzkit, end to end and per layer.

    python3 bench/run.py --workload {verify,window,bounds,cycles} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from its `src/`.
One process issues one operation at a time and waits for it (a closed loop
with one client); the only parallelism is verify's own worker pool, sized to
the CPUs this process may use.  Passes over the workload repeat until
`--seconds` have gone, and every output is checked afterwards.

With --trace 0 the last line carries the end-to-end metrics, measured with
tracing off.  With --trace 1 it carries the per-layer metrics: untraced
passes for half the time, then one traced pass plus traced small passes over
every layer (see probes.touch), then the layer probes.  Spans and a result
record with the host description go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORK_DIR = os.path.join(OUT_DIR, "work")
RUN_SECONDS = 40  # BENCHMARK.json's run_seconds, the length the spreads were measured at
SETUP_SAMPLES = 5
MIN_PASSES = 2  # so every timing is a median of at least two passes
END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
              "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}
# the names the workloads' own operations go by, printed alongside
ALIASES = {"verify": {"seeds_per_s": "items_per_s"},
           "window": {"seeds_per_s": "items_per_s"},
           "bounds": {"report_p50_ms": "op_p50_ms", "report_p90_ms": "op_p90_ms"},
           "cycles": {"check_p50_ms": "op_p50_ms"}}


def import_program():
    """Import collatzkit from this checkout's sources, never from elsewhere."""
    package = os.path.join(SRC, "collatzkit")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: no collatzkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import collatzkit
    if os.path.dirname(os.path.abspath(collatzkit.__file__)) != package:
        raise SystemExit(f"error: imported collatzkit from {collatzkit.__file__}")
    import workloads
    return workloads


def cpu_threads() -> int:
    return len(os.sched_getaffinity(0))


def environment(seed: int) -> dict:
    import mpmath
    import mpmath.libmp
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": cpu_threads(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "seed": seed}


def setup_sample(workload: str, seed: int) -> None:
    """One set-up in a fresh interpreter: import plus input generation."""
    t0 = time.perf_counter()
    wl = import_program()
    wl.WORKLOADS[workload](WORK_DIR, cpu_threads()).make_inputs(seed)
    print(time.perf_counter() - t0)


def run_setup(workload: str, seed: int) -> tuple[subprocess.Popen, str]:
    """One set-up in a fresh interpreter, run to its end but not reaped:
    RUSAGE_CHILDREN counts only reaped children (see end_to_end)."""
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-sample",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc, proc.stdout.read()


def reap_setup(proc: subprocess.Popen, out: str) -> float:
    """Reap a set-up sample and return its time."""
    proc.stdout.close()
    if proc.wait(timeout=120) != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return float(out.strip().splitlines()[-1])


def measure(w, inputs, budget: float, min_passes: int, before_pass=None) -> list:
    """Passes until `budget` seconds have gone, and at least `min_passes`."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < budget:
        if before_pass:
            before_pass()
        passes.append(w.run_pass(inputs))
    return passes


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` times its largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024


def end_to_end(w, inputs, args, ledger) -> tuple[dict, dict]:
    # One set-up sample before each pass, so the samples see the same host
    # conditions as the passes.  They are reaped only after the peak RSS is
    # read, so the children it covers are verify's pool workers alone.
    samples = []
    passes = measure(w, inputs, args.seconds, MIN_PASSES,
                     lambda: samples.append(run_setup(args.workload, args.seed)))
    rss = peak_rss_mb(w.threads if w.scans_seeds else 0)
    while len(samples) < SETUP_SAMPLES:
        samples.append(run_setup(args.workload, args.seed))
    setups = [reap_setup(*sample) for sample in samples]
    w.check(inputs, passes, ledger)
    latencies = [x for p in passes for x in p.latencies]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "items_per_s": statistics.median(p.items / p.wall_s for p in passes),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": rss,
    }
    extra = {"passes": len(passes), "operations": len(latencies),
             "pass_walls": [p.wall_s for p in passes], "setup_samples": setups,
             "op_latencies": [p.latencies for p in passes],
             "op_p99_ms": 1e3 * percentile(latencies, 99)}
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, extra


def per_layer(w, inputs, args, ledger) -> tuple[dict, dict]:
    import probes
    from tracer import Tracer, WORKERS_NOTE

    untraced = measure(w, inputs, args.seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_id = f"{args.workload}:{args.seed}:pass"
        traced = w.run_pass(inputs, tracer=tracer)
        tracer.run_id = f"{args.workload}:{args.seed}:touch"
        touched = probes.touch(tracer, w)
    finally:
        tracer.uninstall()
    for small, small_inputs, small_passes in touched:
        small.check(small_inputs, small_passes, ledger)
    passes = untraced + [traced]
    m = probes.layer_metrics(tracer)
    m["trace.overhead_ratio"] = traced.wall_s / statistics.median(p.wall_s for p in untraced)
    m.update(probes.rung_costs())
    m.update(probes.pool_costs(w.threads))
    m["core.steps_per_s"] = probes.steps_per_s(w.magnitudes(inputs))
    if w.scans_seeds:
        one = w.run_pass(inputs, threads=1)
        passes.append(one)
        rate_1w = one.items / one.wall_s
        rate_nw = statistics.median(p.items / p.wall_s for p in untraced)
    else:
        rate_1w, rate_nw = probes.baseline_rates(w.threads, w.path, ledger)
    m["verify.seeds_per_s_1w"] = rate_1w
    m["verify.parallel_efficiency"] = rate_nw / (w.threads * rate_1w)
    w.check(inputs, passes, ledger)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    units = {name: unit for name, unit in probes.PER_LAYER_UNITS}
    extra = {"note": WORKERS_NOTE, "spans": len(tracer.spans),
             "trace_overhead_ratio": m["trace.overhead_ratio"]}
    return {k: (m[k], units[k]) for k, _unit in probes.PER_LAYER_UNITS}, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify", "window", "bounds", "cycles"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_sample:
        setup_sample(args.workload, args.seed)
        return 0

    wl = import_program()
    from checks import Ledger
    os.makedirs(WORK_DIR, exist_ok=True)
    w = wl.WORKLOADS[args.workload](WORK_DIR, cpu_threads())
    inputs = w.make_inputs(args.seed)
    ledger = Ledger()
    run = per_layer if args.trace else end_to_end
    metrics, extra = run(w, inputs, args, ledger)

    env = environment(args.seed)
    failed_ratio = ledger.failed / max(1, ledger.attempted)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    if not args.trace:
        for alias, name in ALIASES[args.workload].items():
            print(f"  {alias:40s} {metrics[name][0]:>16.6g} {metrics[name][1]}")
        if args.workload == "cycles":
            print(f"  {'check_p99_ms':40s} {extra['op_p99_ms']:>16.6g} ms")
    print(f"  {'failed_ratio':40s} {failed_ratio:>16.6g} ({ledger.failed}/{ledger.attempted})")
    for k, v in extra.items():
        if not isinstance(v, list):
            print(f"  {k}: {v}")
    for message in ledger.messages[:20]:
        print(f"  FAILED {message}")
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "attempted": ledger.attempted, "failed": ledger.failed,
              "failures": ledger.messages, **extra}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
