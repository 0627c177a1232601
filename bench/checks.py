"""Output checks of the benchmark.

Every checker takes plain decoded outputs (JSON reports, checkpoint files,
counts) and returns a list of failure messages; an empty list means the
output is correct.  `Ledger` turns the checks into the attempted/failed
counts the benchmark reports.
"""

from __future__ import annotations

# Certified values pinned in tests/test_bounds.py and acceptance criterion 5,
# keyed by the exponent e of the threshold M = 5^e for 5:6:4:+.
ALG1_PINNED = {5: (36, 3), 10: (2134, 7), 15: (102678, 11), 20: (5905570, 16),
               25: (278232150, 21), 30: (10092943629, 24)}  # (bound, n0)
ALG2_PINNED = {5: (49, 3), 10: (2791, 7), 15: (167863, 11), 20: (10850489, 17),
               25: (511107525, 21), 30: (62000223994, 25)}  # (bound, boxed_index)
HURWITZ_2_71 = 46859289878  # 2:3:1:+ at M = 2^71
FAREY_2_71 = (217976794617, 23)  # (bound, boxed_index), 2:3:1:+ at M = 2^71
CYCLE_SEED = 97531  # constructor-draw seed of acceptance criteria 8 and 10
# distinct eligible cycles checked, keyed by (draw seed, draws, inventory hi)
CYCLE_COUNTS = {(CYCLE_SEED, 1200, 40_000): 4162}


class Ledger:
    """Counts checked operations and keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, failures: list[str]) -> bool:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(f"{what}: {f}" for f in failures)
        return not failures


def _expect(failures: list[str], what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what} is {got!r}, expected {want!r}")


def check_alg1(doc: dict, pinned: tuple[int, int] | None = None) -> list[str]:
    """alg1 report: the bound is the first peak of the R_n column and never
    exceeds q_n; pinned (bound, n0) when the threshold has a certified value."""
    failures: list[str] = []
    _expect(failures, "method", doc["method"], "alg1")
    _expect(failures, "certified", doc["certified"], True)
    rows = doc["rows"]
    if not rows:
        return failures + ["no rows"]
    _expect(failures, "row indices", [r["n"] for r in rows], list(range(len(rows))))
    values = [int(r["value"]) for r in rows]
    if any(v > int(r["q"]) or v < 1 for v, r in zip(values, rows)):
        failures.append("some R_n lies outside [1, q_n]")
    peak = max(values)
    _expect(failures, "bound", int(doc["bound"]), peak)
    _expect(failures, "n0", doc["n0"], rows[values.index(peak)]["n"])
    if pinned is not None:
        _expect(failures, "(bound, n0)", (int(doc["bound"]), doc["n0"]), pinned)
    return failures


def check_alg2(doc: dict, pinned: tuple[int, int] | None = None) -> list[str]:
    """alg2/farey report: even rows positive, odd rows negative until the
    boxed flip row, which is last; bound is its p_n."""
    failures: list[str] = []
    _expect(failures, "certified", doc["certified"], True)
    rows = doc["rows"]
    if not rows:
        return failures + ["no rows"]
    _expect(failures, "row indices", [r["n"] for r in rows], list(range(len(rows))))
    last = rows[-1]
    for r in rows[:-1]:
        want = "+" if r["n"] % 2 == 0 else "-"
        if r["sign"] != want:
            failures.append(f"row {r['n']} has sign {r['sign']}, expected {want}")
    _expect(failures, "flip row", (last["n"] % 2, last["sign"]), (1, "+"))
    _expect(failures, "boxed_index", doc["boxed_index"], last["n"])
    _expect(failures, "n0", doc["n0"], (last["n"] - 1) // 2)
    _expect(failures, "bound", int(doc["bound"]), int(last["p"]))
    if pinned is not None:
        _expect(failures, "(bound, boxed_index)",
                (int(doc["bound"]), doc["boxed_index"]), pinned)
    return failures


def check_hurwitz(doc: dict, expected: int) -> list[str]:
    failures: list[str] = []
    _expect(failures, "method", doc["method"], "hurwitz")
    _expect(failures, "bound", int(doc["bound"]), expected)
    _expect(failures, "bound_ceiling", doc["constants"].get("bound_ceiling"), str(expected + 1))
    return failures


def _row_key(r: dict) -> tuple:
    return (r["n"], r["p"], r["q"], r.get("value"), r.get("sign"))


def check_invariance(doc: dict, rerun: dict) -> list[str]:
    """The same report recomputed at doubled start precision must certify
    the identical integers, row by row."""
    failures: list[str] = []
    for key in ("bound", "n0", "boxed_index"):
        _expect(failures, f"{key} at doubled precision", rerun[key], doc[key])
    if [_row_key(r) for r in rerun["rows"]] != [_row_key(r) for r in doc["rows"]]:
        failures.append("rows differ at doubled precision")
    return failures


def check_nondecreasing(bounds_by_e: dict[int, int], what: str) -> list[str]:
    """Bounds grow with the threshold M; the draws keep M increasing in e."""
    es = sorted(bounds_by_e)
    return [f"{what} bound drops from M_{a} to M_{b}"
            for a, b in zip(es, es[1:]) if bounds_by_e[b] < bounds_by_e[a]]


def check_range(doc: dict, lo: int, hi: int) -> list[str]:
    """A verification report over [lo, hi] with every seed converged."""
    failures: list[str] = []
    _expect(failures, "range", (int(doc["job"]["lo"]), int(doc["job"]["hi"])), (lo, hi))
    _expect(failures, "verified_frontier", int(doc["verified_frontier"]), hi)
    _expect(failures, "exceptions", doc["exceptions"], [])
    return failures


def check_same_result(doc: dict, fresh: dict) -> list[str]:
    """A resumed job must report what a fresh run of the whole range does."""
    failures: list[str] = []
    for key in ("verified_frontier", "exceptions", "digest"):
        _expect(failures, f"resumed {key}", doc[key], fresh[key])
    return failures


def check_cycle_count(count: int, expected: int) -> list[str]:
    return [] if count == expected else [f"checked {count} distinct cycles, expected {expected}"]
