"""Run a fixed, seeded sweep of range verifications and print one sha256 over
their deterministic reports, so that a change meant to keep every report
can be checked against its parent.

    python tools/report_digest.py [source directory]

The directory is the one that holds the collatzkit package; it defaults to
the src of the checkout that holds this script, so that

    python tools/report_digest.py ../parent/src

sweeps another checkout with the same jobs.  The sweep is 320
`verify_range` jobs and a `resume` of every third job, chained once more
for every ninth, over the target triplets of tests/test_verify.py and
3:4:-1:+ and 2:3:-1:+, which together take every sign combination of kappa
and beta: with and without the below-frontier shortcut, on 1 and 2
workers, chunks of 7, 1,000, 65,536 and one drawn in [1, 3,000], step
caps around each triplet's sieve depth, value caps within 3 of the
closed-form sieve gate at hi, and the default caps.  `--no-shortcut` jobs
of 4:10:54:+ are held to 2,000 steps, as seeds that enter a non-target
cycle walk to the step cap.  A report is `checkpoint_to_json_dict` without
its timings, `wall_time` and `throughput`.  It prints the counts and the
digest; the sweep takes about 15 s on 2 cores (CPython 3.11).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

SEED = 1
JOBS = 320
TRIPLETS = {  # triplet -> the minima of its target cycles
    "2:3:1:+": (1,),
    "10:12:8:+": (4,),
    "3:4:1:-": (1, 7),
    "8:12:4:+": (1, 67),
    "4:10:54:+": (1, 2, 3, 6, 7, 9, 18, 27),
    "36:40:32:+": (8,),
    "3:4:-1:+": (1, 2),
    "2:3:-1:+": (1, 5, 17),
    "3:5:-1:-": (1,),
}
TRAPPED = "4:10:54:+"  # held to TRAPPED_STEPS without the shortcut
TRAPPED_STEPS = 2_000


def gate(t, depth: int, hi: int) -> int:
    """The closed-form bound on iterates 1..depth of every seed up to hi,
    which a shortcut run's value cap must reach for its sieve to be used."""
    d, alpha = t.d, t.alpha
    return alpha**depth * (hi * (alpha - d) + abs(t.beta) * (d - 1)) // (d**depth * (alpha - d))


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    from collatzkit import (Limits, VerificationJob, detect_cycle_from, parse_triplet,
                            resume, verify_range)
    from collatzkit.verify import build_sieve, checkpoint_to_json_dict

    default = Limits()
    rng = random.Random(SEED)
    triplets = [parse_triplet(text) for text in TRIPLETS]
    targets = {t: tuple(detect_cycle_from(t, m) for m in TRIPLETS[t.text]) for t in triplets}
    deepest = {t: build_sieve(t, default.max_steps).depth for t in triplets}
    digest = hashlib.sha256()
    counts = dict.fromkeys(("jobs", "shortcut", "two_workers", "resumes", "seeds",
                            "exceptions", "step_cap", "value_cap"), 0)

    def record(cp):
        doc = checkpoint_to_json_dict(cp)
        del doc["wall_time"], doc["throughput"]
        digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
        counts["seeds"] += cp.seeds_scanned
        counts["exceptions"] += len(cp.exceptions)
        for _seed, status in cp.exceptions:
            counts[status] += 1

    for i in range(JOBS):
        t = rng.choice(triplets)
        shortcut = rng.random() < 0.7
        workers = rng.choice((1, 2))
        if shortcut:
            lo = rng.choice((1, rng.randint(1, 300_000)))
            hi = lo + rng.randint(0, 6_000)
        else:
            lo = rng.choice((rng.randint(1, 10**6), rng.randint(10**12, 10**13)))
            hi = lo + rng.randint(0, 1_500)
        depth = deepest[t]
        max_steps = rng.choice((depth - 1, depth, depth + 1, rng.randint(1, 40),
                               default.max_steps))
        if not shortcut and t.text == TRAPPED:
            max_steps = min(max_steps, TRAPPED_STEPS)
        at_gate = gate(t, min(max_steps, depth), hi)
        max_value = rng.choice((at_gate + rng.randint(-3, 3), at_gate + rng.randint(-3, 3),
                                2**rng.randint(10, 40), default.max_value))
        chunk = rng.choice((7, 1_000, 1 << 16, rng.randint(1, 3_000)))
        job = VerificationJob(t, lo, hi, targets[t], Limits(max_steps, max_value), chunk,
                              shortcut, lo - 1 if shortcut else 0)
        cp = verify_range(job, workers=workers)
        counts["jobs"] += 1
        counts["shortcut"] += shortcut
        counts["two_workers"] += workers == 2
        record(cp)
        for _ in range((i % 3 == 0) + (i % 9 == 0)):
            cp = resume(cp, cp.job.hi + rng.randint(1, 3_000), workers=rng.choice((1, 2)))
            counts["resumes"] += 1
            record(cp)
    for name, count in counts.items():
        print(f"{name:12} {count:,}")
    print(f"{'sha256':12} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
