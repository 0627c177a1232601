"""Tests of the benchmark itself: a wrong result must count as a failure,
and BENCHMARK.json must name exactly the metrics the benchmark prints and
the run length it defaults to.

    python -m pytest bench/test_bench.py
"""

import copy
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
from workloads import CyclesWorkload, call_cli  # noqa: E402


def _report(tmp_path, method, triplet, m):
    out = str(tmp_path / f"{method}.json")
    assert call_cli(["bound", method, "--triplet", triplet, "--min-omega", m,
                     "--json", out]) == (0, None)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def test_altered_bound_counts_as_failure(tmp_path):
    doc = _report(tmp_path, "alg1", "5:6:4:+", "5^10")
    ledger = checks.Ledger()
    ledger.record("pinned alg1", checks.check_alg1(doc, checks.ALG1_PINNED[10]))
    assert (ledger.attempted, ledger.failed) == (1, 0)

    wrong = copy.deepcopy(doc)
    wrong["bound"] = str(int(doc["bound"]) + 1)
    ledger.record("altered alg1", checks.check_alg1(wrong, checks.ALG1_PINNED[10]))
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert any("bound" in m for m in ledger.messages)


def test_unpinned_checks_catch_a_wrong_row(tmp_path):
    doc = _report(tmp_path, "alg2", "5:6:4:+", "5^10")
    assert checks.check_alg2(doc) == []
    wrong = copy.deepcopy(doc)
    wrong["rows"][0]["sign"] = "-"
    assert checks.check_alg2(wrong)
    assert checks.check_invariance(doc, wrong)


def test_verify_frontier_and_resume_digest(tmp_path):
    out = str(tmp_path / "v.json")
    assert call_cli(["verify", "--triplet", "2:3:1:+", "--hi", "1000", "--targets", "1",
                     "--threads", "1", "--json", out]) == (0, None)
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert checks.check_range(doc, 1, 1000) == []
    short = dict(doc, verified_frontier="999")
    assert checks.check_range(short, 1, 1000)
    assert checks.check_same_result(dict(doc, digest="0" * 64), doc)


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(probes.PER_LAYER_UNITS)
    assert spec["run_seconds"] == run.RUN_SECONDS


def test_small_cycles_pass_is_checked_clean(tmp_path):
    w = CyclesWorkload(str(tmp_path), 1)
    inputs = w.make_inputs(0, draws_per_drawer=10, inventory_hi=4000)
    ledger = checks.Ledger()
    w.check(inputs, [w.run_pass(inputs)], ledger)
    assert ledger.failed == 0, ledger.messages[:5]
    assert ledger.attempted > 400
