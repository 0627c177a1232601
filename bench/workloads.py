"""The four benchmark workloads, run against collatzkit's public API.

Each workload draws its inputs from the benchmark seed (`make_inputs`),
times one pass over them (`run_pass`) as a sequence of operations issued one
at a time, and checks every output afterwards (`check`).  Functions are
looked up on their modules at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

from collatzkit import cli, core, dynamics, families
from collatzkit.errors import CollatzKitError

import checks
from checks import Ledger

# sizes give both jobs about the same time, so job latencies form one mode
VERIFY_JOBS = (("2:3:1:+", 1, 3_500_000), ("10:12:8:+", 4, 2_000_000))
# Window sizes give both triplets about the same scan time.  Orbit lengths
# differ by ~14% between windows, so each pass scans several windows per
# triplet to keep the total steady across seeds.
WINDOW_JOBS = (("2:3:1:+", 1, 5_000), ("10:12:8:+", 4, 8_000))
WINDOWS_PER_TRIPLET = 12
WINDOW_LO = (10**12, 10**13)
WINDOW_CHUNKS = 8
BOUNDS_EXPONENTS = range(5, 61)
CYCLE_INVENTORY = ("4:10:54:+", 1, 40_000)
# criterion 7: cycle minimum -> length in the 4:10:54:+ inventory
INVENTORY_SPOT_CHECK = {9: 2, 1: 3, 477: 5, 6: 6, 639: 10, 7: 15, 189: 20, 342: 25,
                        78: 27, 198: 30, 13: 36, 5967: 98, 1518: 108, 214: 246,
                        25983: 583, 4174: 681}
SCALED_MINIMA_COUNT = 33  # 5:6:373769:+ from squaregap(5, 1, 2) scaled by 121


@dataclass
class Pass:
    wall_s: float = 0.0
    items: int = 0
    latencies: list = field(default_factory=list)  # seconds per operation
    outputs: list = field(default_factory=list)  # per operation, for check()
    extra: dict = field(default_factory=dict)


def call_cli(argv: list[str]):
    """collatzkit.cli.run with its console output discarded; (status, error)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.run(argv), None
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return None, f"{type(exc).__name__}: {exc}"


def read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


@contextlib.contextmanager
def _op(p: Pass, tracer, name: str, note=None):
    """Time one operation into the pass; a root span when traced."""
    with tracer.op(name, note) if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            yield
        finally:
            p.latencies.append(time.perf_counter() - t0)


class Workload:
    name = ""
    scans_seeds = False  # runs verify jobs, so it has a 1-worker baseline

    def __init__(self, work_dir: str, threads: int):
        self.work_dir = work_dir
        self.threads = threads

    def path(self, stem: str) -> str:
        return os.path.join(self.work_dir, f"{self.name}-{stem}".replace(":", "_"))

    def make_inputs(self, seed: int):
        raise NotImplementedError

    def run_pass(self, inputs, tracer=None, threads=None) -> Pass:
        raise NotImplementedError

    def check(self, inputs, passes: list[Pass], ledger: Ledger) -> None:
        raise NotImplementedError

    def magnitudes(self, inputs) -> list[tuple[str, int]]:
        """(triplet, starting value) pairs at this workload's magnitudes."""
        raise NotImplementedError


def _recheck_exceptions(doc, triplet: str, target: int) -> list[str]:
    """Classify every reported exception seed independently of the scan."""
    if not doc or not doc["exceptions"]:
        return []
    t = core.parse_triplet(triplet)
    cycle = dynamics.detect_cycle_from(t, target)
    return [f"seed {n} reported {status}; classify_seed gives "
            f"{dynamics.classify_seed(t, int(n), [cycle])}"
            for n, status in doc.get("exceptions", [])]


class VerifyWorkload(Workload):
    name = "verify"
    scans_seeds = True

    def make_inputs(self, seed):
        rng = random.Random(seed)
        return [(t, target, hi, rng.randrange(hi // 4, 3 * hi // 4 + 1))
                for t, target, hi in VERIFY_JOBS]

    def run_pass(self, inputs, tracer=None, threads=None):
        threads = str(threads or self.threads)
        p = Pass()
        start = time.perf_counter()
        for t, target, hi, split in inputs:
            ckpt = self.path(f"{t}.ckpt")
            with _op(p, tracer, "op.verify", t):
                first = call_cli(["verify", "--triplet", t, "--hi", str(split),
                                  "--targets", str(target), "--threads", threads,
                                  "--checkpoint", ckpt])
                second = call_cli(["resume", "--checkpoint", ckpt, "--hi", str(hi),
                                   "--threads", threads])
            p.items += hi
            p.outputs.append((first, second, ckpt))
        p.wall_s = time.perf_counter() - start
        # read back after timing; the next pass overwrites the files
        p.outputs = [(a, b, read_json(ck)) for a, b, ck in p.outputs]
        return p

    def check(self, inputs, passes, ledger):
        fresh = {}
        for t, target, hi, _split in inputs:
            out = self.path(f"{t}.fresh.json")
            status = call_cli(["verify", "--triplet", t, "--hi", str(hi), "--targets",
                               str(target), "--threads", str(self.threads), "--json", out])
            doc = read_json(out)
            failures = status_failures(status)
            failures += checks.check_range(doc, 1, hi) if doc else ["no report"]
            fresh[t] = None if failures else doc
            ledger.record(f"fresh run {t} to {hi}", failures + _recheck_exceptions(doc, t, target))
        for p in passes:
            for (first, second, doc), (t, target, hi, split) in zip(p.outputs, inputs):
                failures = status_failures(first) + status_failures(second)
                if doc is None:
                    failures.append("no checkpoint")
                else:
                    failures += checks.check_range(doc, 1, hi)
                    if fresh[t] is not None:
                        failures += checks.check_same_result(doc, fresh[t])
                    failures += _recheck_exceptions(doc, t, target)
                ledger.record(f"{t} verify to {split} + resume to {hi}", failures)

    def magnitudes(self, inputs):
        return [(t, hi) for t, _target, hi, _split in inputs]


def status_failures(status) -> list[str]:
    code, error = status
    if error is not None:
        return [f"raised {error}"]
    return [] if code == 0 else [f"exit status {code}"]


class WindowWorkload(Workload):
    name = "window"
    scans_seeds = True

    def make_inputs(self, seed):
        rng = random.Random(seed)
        inputs = []
        for t, target, size in WINDOW_JOBS:
            for _ in range(WINDOWS_PER_TRIPLET):
                lo = rng.randrange(*WINDOW_LO)
                inputs.append((t, target, lo, lo + size - 1))
        return inputs

    def run_pass(self, inputs, tracer=None, threads=None):
        threads = str(threads or self.threads)
        p = Pass()
        start = time.perf_counter()
        for i, (t, target, lo, hi) in enumerate(inputs):
            out = self.path(f"{i}.json")
            chunk = -(-(hi - lo + 1) // WINDOW_CHUNKS)
            with _op(p, tracer, "op.window", t):
                status = call_cli(["verify", "--triplet", t, "--lo", str(lo), "--hi", str(hi),
                                   "--targets", str(target), "--threads", threads,
                                   "--no-shortcut", "--chunk", str(chunk), "--json", out])
            p.items += hi - lo + 1
            p.outputs.append((status, out))
        p.wall_s = time.perf_counter() - start
        p.outputs = [(status, read_json(out)) for status, out in p.outputs]
        return p

    def check(self, inputs, passes, ledger):
        for p in passes:
            for (status, doc), (t, target, lo, hi) in zip(p.outputs, inputs):
                failures = status_failures(status)
                if doc is None:
                    failures.append("no report")
                else:
                    failures += checks.check_range(doc, lo, hi)
                    failures += _recheck_exceptions(doc, t, target)
                ledger.record(f"{t} window [{lo}, {hi}]", failures)
        # independent spot check: sampled window seeds reach the target cycle
        for t, target, lo, hi in inputs:
            triplet = core.parse_triplet(t)
            cycle = dynamics.detect_cycle_from(triplet, target)
            rng = random.Random(lo)
            failures = []
            for n in (rng.randint(lo, hi) for _ in range(8)):
                label = dynamics.classify_seed(triplet, n, [cycle])
                if label != dynamics.Converged(target):
                    failures.append(f"seed {n}: {label}")
            ledger.record(f"{t} window sample", failures)

    def magnitudes(self, inputs):
        return [(t, lo) for t, _target, lo, _hi in inputs]


class BoundsWorkload(Workload):
    name = "bounds"

    def make_inputs(self, seed, exponents=BOUNDS_EXPONENTS):
        rng = random.Random(seed)
        ops = []
        for e in exponents:
            m = 5**e if seed == 0 else rng.randrange(5**e, 5**(e + 1))
            ops += [("alg1", "5:6:4:+", m, e), ("alg2", "5:6:4:+", m, e)]
        ops += [("hurwitz", "2:3:1:+", 2**71, None), ("farey", "2:3:1:+", 2**71, None)]
        return {"seed": seed, "ops": ops}

    def _run(self, ops, tracer=None, extra_args=(), tag="") -> Pass:
        p = Pass()
        start = time.perf_counter()
        for i, (method, t, m, _e) in enumerate(ops):
            out = self.path(f"{tag}{i}.json")
            with _op(p, tracer, "op.bound", method):
                status = call_cli(["bound", method, "--triplet", t, "--min-omega", str(m),
                                   "--json", out, *extra_args])
            p.outputs.append((status, out))
        p.wall_s = time.perf_counter() - start
        p.items = len(ops)
        p.outputs = [(status, read_json(out)) for status, out in p.outputs]
        return p

    def run_pass(self, inputs, tracer=None, threads=None):
        return self._run(inputs["ops"], tracer)

    def check(self, inputs, passes, ledger):
        # seed 0 runs the paper's grid M_e = 5^e, where values are pinned
        paper_grid = inputs["seed"] == 0
        alg1_pins = checks.ALG1_PINNED if paper_grid else {}
        alg2_pins = checks.ALG2_PINNED if paper_grid else {}
        for p in passes:
            by_method: dict[str, dict[int, int]] = {"alg1": {}, "alg2": {}}
            for (status, doc), (method, t, m, e) in zip(p.outputs, inputs["ops"]):
                failures = status_failures(status)
                if doc is None:
                    ledger.record(f"bound {method} {t} M={m}", failures + ["no report"])
                    continue
                if method == "alg1":
                    failures += checks.check_alg1(doc, alg1_pins.get(e))
                elif method == "alg2":
                    failures += checks.check_alg2(doc, alg2_pins.get(e))
                elif method == "hurwitz":
                    failures += checks.check_hurwitz(doc, checks.HURWITZ_2_71)
                else:
                    failures += checks.check_alg2(doc, checks.FAREY_2_71)
                if e is not None:
                    by_method[method][e] = int(doc["bound"])
                ledger.record(f"bound {method} {t} M={m}", failures)
            for method, series in by_method.items():
                ledger.record(f"{method} bounds grow with M",
                              checks.check_nondecreasing(series, method))
        # untimed precision-invariance rerun at doubled start precision
        rerun = self._run(inputs["ops"], extra_args=("--precision-bits", "256"), tag="rerun")
        for (status, again), (_s, doc), (method, t, m, _e) in zip(
                rerun.outputs, passes[0].outputs, inputs["ops"]):
            failures = status_failures(status)
            if doc is None or again is None:
                failures.append("no report")
            else:
                failures += checks.check_invariance(doc, again)
            ledger.record(f"bound {method} {t} M={m} at 256 bits", failures)

    def magnitudes(self, inputs):
        return [(t, m) for _method, t, m, e in inputs["ops"] if e in (20, 40, 60)]


def _draw_ladder(rng):
    while True:
        d = rng.randint(2, 9)
        p = families.LadderParams(d, rng.randint(1, 4), rng.randint(1, 4),
                                  rng.randint(1, d - 1), rng.choice((1, -1)),
                                  rng.choice((1, -1)))
        if p.alpha <= d or p.beta == 0:
            continue
        if p.alpha % d == 0 or abs(p.beta) % d == 0:
            continue
        if not core.Triplet(d, p.alpha, p.beta, p.kappa0).is_wellformed:
            continue
        if p.kappa0 != 1:
            if p.kappa1 * p.beta <= 0:
                continue
            if p.delta > 1 and not (p.nu0 >= 2 and p.nu1 >= 2 and p.nu0 != p.nu1):
                continue
        return ("ladder", p)


def _square_gap_params(rng):
    d = rng.randint(2, 5)
    mu0 = rng.randint(1, 3)
    nu1 = rng.randint(1, 2 * mu0 - 1)
    return families.SquareGapParams(d, nu1, mu0)


def _draw_square_gap(rng):
    return ("squaregap", _square_gap_params(rng))


def _draw_scale(rng):
    while True:
        base = _square_gap_params(rng)
        if base.beta > 0:
            break  # a negative base beta would scale to an ill-formed map
    return ("scale", (base, 1 + base.d * rng.randint(1, 40)))


def _draw_dplus1(rng):
    return ("dplus1", (rng.randint(2, 60), rng.choice((1, -1))))


def _draw_mersenne(rng):
    return ("mersenne", (rng.randint(2, 16),))


def _draw_two_power(rng):
    p = rng.randint(0, 12)
    return ("power2", (p, rng.randint(0, p)))


DRAWERS = (_draw_ladder, _draw_square_gap, _draw_scale, _draw_dplus1,
           _draw_mersenne, _draw_two_power)
DRAWS_PER_DRAWER = 200


def build(kind: str, params):
    """Run the family constructor a draw names."""
    if kind == "ladder":
        return families.build_ladder_family(params)
    if kind == "squaregap":
        return families.build_square_gap_family(params)
    if kind == "scale":
        base_params, a0 = params
        base = families.build_square_gap_family(base_params)
        return families.scale_cycles(base.triplet, base.cycles, a0)
    builder = {"dplus1": families.build_dplus1_family,
               "mersenne": families.build_mersenne_family,
               "power2": families.build_two_power_family}[kind]
    return builder(*params)


class CyclesWorkload(Workload):
    name = "cycles"

    def make_inputs(self, seed, draws_per_drawer=DRAWS_PER_DRAWER,
                    inventory_hi=CYCLE_INVENTORY[2]):
        draw_seed = checks.CYCLE_SEED + seed
        rng = random.Random(draw_seed)
        draws = [drawer(rng) for drawer in DRAWERS for _ in range(draws_per_drawer)]
        return {"draw_seed": draw_seed, "draws": draws, "inventory_hi": inventory_hi}

    def run_pass(self, inputs, tracer=None, threads=None):
        p = Pass()
        start = time.perf_counter()
        t_inv, lo, _hi = CYCLE_INVENTORY
        inventory = dynamics.enumerate_cycles(core.parse_triplet(t_inv), lo, inputs["inventory_hi"])
        base = families.build_square_gap_family(families.SquareGapParams(5, 1, 2))
        scaled = families.scale_cycles(base.triplet, base.cycles, 121)
        sources = [(scaled.triplet, scaled.cycles)]
        sources += [(ps.triplet, ps.cycles) for ps in (build(k, a) for k, a in inputs["draws"])]
        sources.append((core.parse_triplet(t_inv), inventory))
        seen = set()
        for t, cycles in sources:
            if math.gcd(t.d, t.alpha) != 1 or t.beta <= 0:
                continue
            for c in cycles:
                if (t, c.omega) in seen:
                    continue
                seen.add((t, c.omega))
                with _op(p, tracer, "op.check"):
                    try:
                        holds = dynamics.check_cycle_necessary_conditions(t, c).both_hold
                    except CollatzKitError as exc:
                        holds = f"raised {type(exc).__name__}: {exc}"
                p.outputs.append((t.text, c.omega, holds))
        p.wall_s = time.perf_counter() - start
        p.items = len(p.outputs)
        p.extra = {"inventory": {c.omega: c.length for c in inventory},
                   "scaled_minima": scaled.minima,
                   "sources": [(t.d, t.alpha, t.beta, t.kappa, tuple(c.omega for c in cs))
                               for t, cs in sources]}
        return p

    def expected_count(self, inputs, p: Pass) -> int:
        pinned = checks.CYCLE_COUNTS.get(
            (inputs["draw_seed"], len(inputs["draws"]), inputs["inventory_hi"]))
        if pinned is not None:
            return pinned
        # recount from the constructors' output with plain integer keys
        keys = {(d, a, b, k, omega) for d, a, b, k, minima in p.extra["sources"]
                if math.gcd(d, a) == 1 and b > 0 for omega in minima}
        return len(keys)

    def check(self, inputs, passes, ledger):
        for p in passes:
            for t, omega, holds in p.outputs:
                ledger.record(f"{t} omega={omega}", [] if holds is True else
                              [holds or "necessary conditions fail"])
            ledger.record("distinct eligible cycles",
                          checks.check_cycle_count(p.items, self.expected_count(inputs, p)))
            # a cycle whose minimum lies in the enumerated range is found from it
            inv = p.extra["inventory"]
            ledger.record("4:10:54:+ inventory spot checks",
                          [f"omega={o}: length {inv.get(o)}, expected {n}"
                           for o, n in INVENTORY_SPOT_CHECK.items()
                           if o <= inputs["inventory_hi"] and inv.get(o) != n])
            ledger.record("5:6:373769:+ scaled set",
                          checks.check_cycle_count(len(p.extra["scaled_minima"]),
                                                   SCALED_MINIMA_COUNT))

    def magnitudes(self, inputs):
        return [(CYCLE_INVENTORY[0], inputs["inventory_hi"]), ("5:6:373769:+", 373769)]


WORKLOADS = {w.name: w for w in (VerifyWorkload, WindowWorkload, BoundsWorkload, CyclesWorkload)}
