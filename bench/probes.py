"""Layer probes built on collatzkit's public API only, and the per-layer
metrics derived from a trace.

The probes time what a workload pass cannot separate: one precision rung
(context build against evaluation on a reused context), pool spawn and
per-chunk dispatch, the single-step kernel, and the 1-worker baseline.
`touch` runs every layer once on small inputs, so each per-layer metric is
defined on every workload; its outputs are checked like a workload's.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter, defaultdict

from collatzkit import core, dynamics, intervals, verify

import checks
from workloads import (BoundsWorkload, CyclesWorkload, VerifyWorkload, call_cli, read_json,
                       status_failures)

RUNGS = (128, 256, 512, 1024)
RUNG_REPS = 200
POOL_REPS = 5
DISPATCH_CHUNKS = 2000
DISPATCH_REPS = 3
KERNEL_STEPS = 1000
KERNEL_REPS = 5
BASELINE_HI = 1_000_000
FAMILY_BUILDERS = {"ladder": "build_ladder_family", "squaregap": "build_square_gap_family",
                   "scale": "scale_cycles", "dplus1": "build_dplus1_family",
                   "mersenne": "build_mersenne_family", "power2": "build_two_power_family"}
BOUND_METHODS = {"bounds.r_infinity_bound", "bounds.farey_bound", "bounds.hurwitz_bound"}
DECISIONS = {"intervals.certified_floor", "intervals.certified_sign",
             "intervals.certified_enclosure", "intervals.certified_partial_quotients"}


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rung_costs() -> dict[str, float]:
    """make_context(bits) against evaluating log_5 6 on a reused context."""
    out = {}
    expr = intervals.log_ratio_expr(5, 6)
    for bits in RUNGS:
        ctx = intervals.make_context(bits)
        out[f"intervals.context_build_ms.{bits}"] = 1e3 * _median_time(
            lambda: intervals.make_context(bits), RUNG_REPS)
        out[f"intervals.eval_ms.{bits}"] = 1e3 * _median_time(
            lambda: intervals.endpoints(expr(ctx)), RUNG_REPS)
    return out


def pool_costs(threads: int) -> dict[str, float]:
    """Pool spawn from 2 one-seed chunks (pool minus inline), and the
    per-chunk dispatch slope over DISPATCH_CHUNKS one-seed chunks."""
    t = core.parse_triplet("2:3:1:+")
    target = (dynamics.detect_cycle_from(t, 1),)

    def job(hi):
        return verify.VerificationJob(triplet=t, lo=1, hi=hi, targets=target, chunk_size=1)

    inline = _median_time(lambda: verify.verify_range(job(2), workers=1), POOL_REPS)
    pooled = _median_time(lambda: verify.verify_range(job(2), workers=threads), POOL_REPS)
    many = _median_time(lambda: verify.verify_range(job(DISPATCH_CHUNKS), workers=threads),
                        DISPATCH_REPS)
    return {"verify.pool_spawn_ms": 1e3 * (pooled - inline),
            "verify.chunk_dispatch_us": 1e6 * (many - pooled) / (DISPATCH_CHUNKS - 2)}


def steps_per_s(magnitudes: list[tuple[str, int]]) -> float:
    """apply_map_iter for KERNEL_STEPS steps from each starting value."""
    total = 0.0
    for text, n in magnitudes:
        t = core.parse_triplet(text)
        total += _median_time(lambda: core.apply_map_iter(t, n, KERNEL_STEPS), KERNEL_REPS)
    return KERNEL_STEPS * len(magnitudes) / total


def baseline_rates(threads: int, work_path, ledger) -> tuple[float, float]:
    """Seeds/s of one fixed verify job on 1 worker and on `threads` workers;
    each job's output is checked into `ledger`."""
    rates = []
    for workers in (1, threads):
        out = work_path(f"baseline-{workers}w.json")
        t0 = time.perf_counter()
        status = call_cli(["verify", "--triplet", "2:3:1:+", "--hi", str(BASELINE_HI),
                           "--targets", "1", "--threads", str(workers), "--json", out])
        rates.append(BASELINE_HI / (time.perf_counter() - t0))
        doc = read_json(out)
        ledger.record(f"baseline verify to {BASELINE_HI} on {workers} workers",
                      status_failures(status)
                      + (checks.check_range(doc, 1, BASELINE_HI) if doc else ["no report"]))
    return rates[0], rates[1]


def touch(tracer, w) -> list[tuple]:
    """Every layer on small inputs, as traced operations: a verify job to
    10^5 resumed to 2*10^5, the bounds pass at M = 5^10, 5^20, ..., 5^60 and
    2^71, and the cycles pass over 60 constructor draws.  Returns the
    (workload, inputs, passes) to check once tracing is off."""
    work_dir = os.path.join(w.work_dir, "touch")
    os.makedirs(work_dir, exist_ok=True)
    bounds = BoundsWorkload(work_dir, w.threads)
    cycles = CyclesWorkload(work_dir, w.threads)
    small = [(VerifyWorkload(work_dir, w.threads), [("2:3:1:+", 1, 200_000, 100_000)]),
             (bounds, bounds.make_inputs(0, exponents=range(10, 61, 10))),
             (cycles, cycles.make_inputs(0, draws_per_drawer=10, inventory_hi=4000))]
    return [(sw, inputs, [sw.run_pass(inputs, tracer)]) for sw, inputs in small]


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer counts and times from the recorded spans."""
    spans = tracer.spans
    selfs = tracer.self_times()
    kids = tracer.children()
    calls: Counter = Counter()
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    notes: dict[str, list] = defaultdict(list)
    by_method: dict[str, float] = defaultdict(float)
    escalations = settled = rungs_tried = 0
    for i, s in enumerate(spans):
        calls[s.name] += 1
        total[s.name] += s.duration
        own[s.name] += selfs[i]
        if s.note is not None:
            notes[s.name].append(s.note)
        if s.name in BOUND_METHODS:
            by_method[tracer.root_op(i).note] += selfs[i]
        if s.name in DECISIONS:
            rungs = sum(1 for k in kids.get(i, ()) if spans[k].name == "intervals.enclose")
            escalations += max(0, rungs - 1)
            settled += 1 if rungs else 0
            rungs_tried += rungs

    def per_call_ms(name):
        return 1e3 * total[name] / calls[name] if calls[name] else 0.0

    m = {
        "verify.scan_s": own["verify.verify_range"],
        "verify.checkpoint_save_ms": per_call_ms("verify.save_checkpoint"),
        "verify.checkpoint_load_ms": per_call_ms("verify.load_checkpoint"),
        "verify.checkpoint_bytes": statistics.mean(notes["verify.save_checkpoint"] or [0]),
        "verify.resume_s": total["verify.resume"],
        "core.step_function.calls": calls["core.Triplet.step_function"],
        "dynamics.enumerate_cycles_s": total["dynamics.enumerate_cycles"],
        "dynamics.canonicalize.calls": calls["dynamics.canonicalize"],
        "dynamics.canonicalize.self_s": own["dynamics.canonicalize"],
        "dynamics.check_conditions.self_ms": 1e3 * own["dynamics.check_cycle_necessary_conditions"],
        "dynamics.check_conditions.calls": calls["dynamics.check_cycle_necessary_conditions"],
        "dynamics.detect_cycle_from_ms": 1e3 * total["dynamics.detect_cycle_from"],
        "families.cycles_built": sum(sum(notes[f"families.{b}"]) for b in FAMILY_BUILDERS.values()),
        "intervals.make_context.calls": calls["intervals.make_context"],
        "intervals.enclose.calls": calls["intervals.enclose"],
        "intervals.decisions": sum(calls[d] for d in DECISIONS),
        "intervals.escalations": escalations,
        "intervals.useful_enclose_ratio": settled / max(1, rungs_tried),
        "intervals.partial_quotients.self_s": own["intervals.certified_partial_quotients"],
        "intervals.partial_quotients.max_bits": max(
            notes["intervals.certified_partial_quotients"], default=0),
        "bounds.rows": sum(sum(notes[name]) for name in BOUND_METHODS),
        "bounds.exact_sign.calls": calls["bounds.exact_farey_sign"],
        "bounds.exact_sign_s": total["bounds.exact_farey_sign"],
        "cli.run.self_ms": 1e3 * sum(v for k, v in own.items() if k.startswith("cli.")),
    }
    for kind, builder in FAMILY_BUILDERS.items():
        m[f"families.build_s.{kind}"] = total[f"families.{builder}"]
    for method in ("alg1", "alg2", "hurwitz", "farey"):
        m[f"bounds.{method}.self_ms"] = 1e3 * by_method[method]
    return m


PER_LAYER_UNITS = (
    [("verify.scan_s", "s"), ("verify.seeds_per_s_1w", "1/s"),
     ("verify.parallel_efficiency", "ratio"), ("verify.pool_spawn_ms", "ms"),
     ("verify.chunk_dispatch_us", "us"), ("verify.checkpoint_save_ms", "ms"),
     ("verify.checkpoint_load_ms", "ms"), ("verify.checkpoint_bytes", "bytes"),
     ("verify.resume_s", "s"),
     ("core.steps_per_s", "1/s"), ("core.step_function.calls", "count"),
     ("dynamics.enumerate_cycles_s", "s"), ("dynamics.canonicalize.calls", "count"),
     ("dynamics.canonicalize.self_s", "s"), ("dynamics.check_conditions.self_ms", "ms"),
     ("dynamics.check_conditions.calls", "count"), ("dynamics.detect_cycle_from_ms", "ms")]
    + [(f"families.build_s.{kind}", "s") for kind in FAMILY_BUILDERS]
    + [("families.cycles_built", "count"),
       ("intervals.make_context.calls", "count"), ("intervals.enclose.calls", "count")]
    + [(f"intervals.{part}_ms.{bits}", "ms") for bits in RUNGS
       for part in ("context_build", "eval")]
    + [("intervals.decisions", "count"), ("intervals.escalations", "count"),
       ("intervals.useful_enclose_ratio", "ratio"),
       ("intervals.partial_quotients.self_s", "s"),
       ("intervals.partial_quotients.max_bits", "bits")]
    + [(f"bounds.{method}.self_ms", "ms") for method in ("alg1", "alg2", "hurwitz", "farey")]
    + [("bounds.rows", "count"), ("bounds.exact_sign.calls", "count"),
       ("bounds.exact_sign_s", "s"), ("cli.run.self_ms", "ms"),
       ("trace.overhead_ratio", "ratio")])
