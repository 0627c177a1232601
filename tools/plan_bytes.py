"""Print the size of the scan plans that `verify_range` sends to its pool
workers, and how long one takes to unpickle.

    python tools/plan_bytes.py TRIPLET:TARGET ...

TARGET is the minimum of a target cycle, as for `collatzkit verify
--targets`; e.g. `2:3:1:+:1 10:12:8:+:4`.  Each pair is planned under the
default caps, with and without the shortcut, for a job ending where the
benchmark's verify job of its triplet ends (`VERIFY_JOBS` in
bench/workloads.py), and at 2,000,000 for a triplet that the benchmark does
not verify.  For each plan the script prints the pickled bytes, the best
unpickle time of 20 runs, and the bytes of each field pickled alone: the
class list and its forms and merged classes, each list of the jump table,
and the finish table.  Fields pickled alone do not add up to the plan,
which pickles shared objects once.

The plan is the one `verify_range` builds: it is taken from the first call
of `_scan_chunk`, which the script replaces for one seed, hi itself.
"""

from __future__ import annotations

import pickle
import sys
import time
from dataclasses import fields
from pathlib import Path
from unittest import mock

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "bench")]

from collatzkit import VerificationJob, detect_cycle_from, parse_triplet, verify  # noqa: E402
from workloads import VERIFY_JOBS  # noqa: E402

HI = {triplet: hi for triplet, _, hi in VERIFY_JOBS}
OTHER_HI = 2_000_000
REPEAT = 20


def scan_plan(triplet: str, target: int, hi: int, shortcut: bool) -> verify.ScanPlan:
    """The plan of a `verify_range` job to hi for the triplet and target."""
    t = parse_triplet(triplet)
    job = VerificationJob(t, hi, hi, (detect_cycle_from(t, target),),
                          below_frontier_shortcut=shortcut, prefix_verified_to=hi - 1)
    plans = []
    with mock.patch.object(verify, "_scan_chunk", lambda plan, lo, hi: plans.append(plan) or []):
        verify.verify_range(job, workers=1)
    return plans[0]


def size(obj) -> int:
    return len(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for text in argv[1:]:
        triplet, target = text.rsplit(":", 1)
        hi = HI.get(triplet, OTHER_HI)
        for shortcut in (True, False):
            plan = scan_plan(triplet, int(target), hi, shortcut)
            blob = pickle.dumps(plan, pickle.HIGHEST_PROTOCOL)
            best = min(_unpickle_seconds(blob) for _ in range(REPEAT))
            mode = "shortcut" if shortcut else "no shortcut"
            print(f"{text} to {hi:,}, {mode}: {len(blob):,} B, "
                  f"unpickled in {best * 1e3:.2f} ms (best of {REPEAT})")
            parts = []
            if plan.classes is not None:
                parts += [("classes", plan.classes), ("classes.forms", plan.classes.forms),
                          ("classes.merged", plan.classes.merged)]
            if plan.jumps is not None:
                lists = ((f.name, getattr(plan.jumps, f.name)) for f in fields(plan.jumps))
                parts += [(f"jumps.{name}", part) for name, part in lists if isinstance(part, list)]
            if plan.finish is not None:
                parts.append(("finish", plan.finish))
            for name, part in parts:
                print(f"  {name:16} {size(part):9,} B")
    return 0


def _unpickle_seconds(blob: bytes) -> float:
    start = time.perf_counter()
    pickle.loads(blob)
    return time.perf_counter() - start


if __name__ == "__main__":
    sys.exit(main(sys.argv))
