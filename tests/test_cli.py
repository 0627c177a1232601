import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import collatzkit

from collatzkit.cli import build_parser, emit_table, parse_natural, run
from collatzkit import Limits, detect_cycle_from, parse_triplet, verify_range, VerificationJob
from collatzkit import (LadderParams, SquareGapParams, build_dplus1_family,
                        build_ladder_family, build_mersenne_family,
                        build_square_gap_family, build_two_power_family,
                        parse_family_spec, scale_cycles)
from collatzkit.verify import DEFAULT_CHUNK


def test_power_shorthand():
    assert parse_natural("5^15") == 30517578125
    assert parse_natural("2^71") == 2**71
    assert parse_natural("12345") == 12345
    with pytest.raises(Exception):
        parse_natural("5^^2")


def test_check_wellformed_ok(capsys):
    assert run(["check", "--triplet", "2:3:1:+"]) == 0
    assert "well-formed" in capsys.readouterr().out


def test_check_divisibility_failure(capsys):
    assert run(["check", "--triplet", "3:5:2:+"]) == 1
    out = capsys.readouterr().out
    assert "divisibility clause fails: 3 does not divide 7" in out


def test_check_magnitude_failure(capsys):
    assert run(["check", "--triplet", "5:7:-3:-"]) == 1
    out = capsys.readouterr().out
    assert "magnitude clause fails" in out


def test_map_command(capsys):
    assert run(["map", "--triplet", "2:3:1:+", "--n", "7"]) == 0
    assert capsys.readouterr().out.strip() == "11"
    assert run(["map", "--triplet", "10:12:8:+", "--n", "4", "--iters", "6"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_trace_command(capsys):
    assert run(["trace", "--triplet", "2:3:1:+", "--n", "6", "--known", "1"]) == 0
    out = capsys.readouterr().out
    assert "6->3->5->8->4->2->1" in out
    assert "entered known cycle at omega=1" in out


def test_cycles_command(capsys, tmp_path):
    csv_path = tmp_path / "cycles.csv"
    json_path = tmp_path / "cycles.json"
    rc = run(["cycles", "--triplet", "3:8:19:+", "--seed-hi", "200",
              "--csv", str(csv_path), "--json", str(json_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "19" in out and "38" in out
    header, *rows = csv_path.read_text().strip().splitlines()
    assert header == "omega,length,kbar,max_elem,elements"
    assert len(rows) == 4
    doc = json.loads(json_path.read_text())
    assert [c["omega"] for c in doc["cycles"]] == ["19", "38", "1", "2"]


def test_family_power2(capsys):
    assert run(["family", "power2", "--p", "3", "--q", "1"]) == 0
    out = capsys.readouterr().out
    assert "(10,12,8)+" in out
    assert "4->8->16->24->32->40" in out


def test_family_spec_string(capsys):
    assert run(["family", "spec", "squaregap:d=5,nu1=1,mu0=2"]) == 0
    out = capsys.readouterr().out
    assert "(5,6,3089)+" in out


def test_family_scale(capsys):
    rc = run(["family", "scale", "--of", "squaregap:d=5,nu1=1,mu0=2",
              "--a0", "121"])
    assert rc == 0
    assert "(5,6,373769)+" in capsys.readouterr().out


def test_family_domain_error(capsys):
    rc = run(["family", "scale", "--of", "squaregap:d=5,nu1=1,mu0=2",
              "--a0", "4"])
    assert rc == 1
    assert "congruent to 1 mod d" in capsys.readouterr().err


def _scaled_square_gap():
    base = build_square_gap_family(SquareGapParams(5, 1, 2))
    return scale_cycles(base.triplet, base.cycles, 121)


FAMILY_FORMS = [  # (flags, spec, direct builder call)
    (["ladder", "--d", "3", "--nu0", "3", "--nu1", "2", "--delta", "1", "--k0", "+",
      "--k1", "-"], "ladder:d=3,nu0=3,nu1=2,delta=1,k0=+,k1=-",
     lambda: build_ladder_family(LadderParams(3, 3, 2, 1, 1, -1))),
    (["squaregap", "--d", "5", "--nu1", "1", "--mu0", "2"], "squaregap:d=5,nu1=1,mu0=2",
     lambda: build_square_gap_family(SquareGapParams(5, 1, 2))),
    (["dplus1", "--d", "4", "--kappa", "-"], "dplus1:d=4,kappa=-",
     lambda: build_dplus1_family(4, -1)),
    (["mersenne", "--p", "5"], "mersenne:p=5", lambda: build_mersenne_family(5)),
    (["power2", "--p", "5", "--q", "2"], "power2:p=5,q=2",
     lambda: build_two_power_family(5, 2)),
    (["scale", "--of", "squaregap:d=5,nu1=1,mu0=2", "--a0", "121"],
     "scale:a0=121,base=squaregap;d=5;nu1=1;mu0=2", _scaled_square_gap),
    (["scale", "--of", "squaregap;d=5;nu1=1;mu0=2", "--a0", "121"],
     "scale:a0=121,base=squaregap:d=5;nu1=1;mu0=2", _scaled_square_gap),
]


@pytest.mark.parametrize("flags, spec, direct", FAMILY_FORMS, ids=[
    "ladder", "squaregap", "dplus1", "mersenne", "power2", "scale", "scale-nested-of"])
def test_family_flags_spec_and_builder_agree(flags, spec, direct, capsys, tmp_path):
    docs = []
    for argv in (["family", *flags], ["family", "spec", spec]):
        path = tmp_path / "f.json"
        assert run(argv + ["--json", str(path)]) == 0
        docs.append(json.loads(path.read_text()))
    assert docs[0] == docs[1] == direct().to_json_dict()
    assert parse_family_spec(spec) == direct()


def test_family_spec_malformed_is_domain_error(capsys):
    assert run(["family", "spec", "power2:p=x,q=1"]) == 1
    assert "error: expected a natural number or b^e, got 'x'" in capsys.readouterr().err
    assert run(["family", "spec", "power2:p=3,q=1,zz=4"]) == 1
    assert "'zz=4'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["family", "dplus1", "--d", "4", "--kappa", "x"], "--kappa"),
    (["family", "mersenne", "--p", "-5"], "--p"),
    (["trace", "--triplet", "2:3:1:+", "--n", "6", "--known", "abc"], "--known"),
    (["verify", "--triplet", "2:3:1:+", "--hi", "10", "--targets", "abc"], "--targets"),
    (["verify", "--triplet", "2:3:1:+", "--hi", "10", "--targets", "1,"], "--targets"),
    (["bound", "mu", "--triplet", "5:6:4:+", "--min-omega", "5^10", "--mu", "abc"], "--mu"),
    (["bound", "mu", "--triplet", "5:6:4:+", "--min-omega", "5^10", "--mu", "1/0"], "--mu"),
], ids=["kappa", "p", "known", "targets", "targets-empty-item", "mu", "mu-zero-denominator"])
def test_bad_flag_value_is_usage_error(argv, flag, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}:" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command", ["verify", "resume"])
def test_threads_must_be_positive(command, value, capsys, tmp_path):
    args = (["--triplet", "2:3:1:+", "--hi", "10", "--targets", "1"] if command == "verify"
            else ["--checkpoint", str(tmp_path / "cp.json"), "--hi", "20"])
    assert run([command, *args, "--threads", value]) == 2
    err = capsys.readouterr().err
    assert "error: argument --threads:" in err and "Traceback" not in err


def test_thread_env_variable(monkeypatch, capsys, tmp_path):
    import collatzkit.cli as cli
    seen = []

    def recording_verify_range(job, workers=None):
        seen.append(workers)
        return verify_range(job, workers=1)

    monkeypatch.setattr(cli, "verify_range", recording_verify_range)
    argv = ["verify", "--triplet", "2:3:1:+", "--hi", "10", "--targets", "1"]
    monkeypatch.setenv("COLLATZKIT_THREADS", "3")
    assert run(argv) == 0
    assert run([*argv, "--threads", "2"]) == 0  # the flag wins
    assert seen == [3, 2]
    capsys.readouterr()
    for value in ("0", "-3", "junk"):
        monkeypatch.setenv("COLLATZKIT_THREADS", value)
        for args in (argv, ["resume", "--checkpoint", str(tmp_path / "cp.json"), "--hi", "20"]):
            assert run(args) == 2
            err = capsys.readouterr().err
            assert "error: $COLLATZKIT_THREADS: " in err and repr(value) in err
            assert "Traceback" not in err
    assert seen == [3, 2]


def test_parser_built_once_and_reused(monkeypatch, capsys):
    import collatzkit.cli as cli
    built = []

    def recording_build_parser():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", recording_build_parser)
    cli._parser.cache_clear()
    try:
        argv = ["bound", "mu", "--triplet", "5:6:4:+", "--min-omega", "5^10"]
        assert run([*argv, "--mu", "5/2"]) == 0
        assert "mu=5/2" in capsys.readouterr().out
        assert run(argv) == 0  # a flag given once leaves no trace on the next parse
        assert "mu=2" in capsys.readouterr().out
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_bound_alg1_table(capsys, tmp_path):
    csv_path = tmp_path / "t.csv"
    rc = run(["bound", "alg1", "--triplet", "5:6:4:+", "--min-omega", "5^15",
              "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bound=102678 n0=11" in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[3] == "n,p_n,q_n,value"
    assert lines[15].split(",") == ["11", "167863", "150782", "102678"]


@pytest.mark.parametrize("method, summary", [
    ("alg1", "alg1,5:6:4:+,30517578125,102678,11,,true"),
    ("alg2", "alg2,5:6:4:+,30517578125,167863,5,11,true"),
    ("hurwitz", "hurwitz,5:6:4:+,30517578125,90758,0,,false"),
])
def test_bound_csv_states_the_bound(tmp_path, method, summary):
    # a summary row first, as in the checkpoint CSV, then the table
    csv_path = tmp_path / "b.csv"
    assert run(["bound", method, "--triplet", "5:6:4:+", "--min-omega", "5^15",
                "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[:4] == ["method,triplet,min_omega,bound,n0,boxed_index,certified", summary, "",
                         "n,p_n,q_n,value"]


def test_bound_json_uses_decimal_strings(capsys, tmp_path):
    json_path = tmp_path / "b.json"
    rc = run(["bound", "alg1", "--triplet", "5:6:4:+", "--min-omega", "5^15",
              "--json", str(json_path)])
    assert rc == 0
    doc = json.loads(json_path.read_text())
    assert doc["bound"] == "102678"
    assert doc["min_omega"] == "30517578125"
    assert doc["triplet"] == {"d": "5", "alpha": "6", "beta": "4", "kappa": "+"}
    row11 = next(r for r in doc["rows"] if r["n"] == 11)
    assert row11 == {"n": 11, "p": "167863", "q": "150782", "value": "102678"}


def test_bound_alg2_and_aliases(capsys):
    rc = run(["bound", "alg2", "--triplet", "5:6:4:+", "--min-omega", "5^15"])
    assert rc == 0
    out1 = capsys.readouterr().out
    assert "bound=167863" in out1 and "boxed_index=11" in out1
    rc = run(["bound", "farey", "--triplet", "5:6:4:+", "--min-omega", "5^15"])
    assert rc == 0
    out2 = capsys.readouterr().out
    assert "bound=167863" in out2


def test_bound_hurwitz(capsys):
    rc = run(["bound", "hurwitz", "--triplet", "2:3:1:+", "--min-omega", "2^71"])
    assert rc == 0
    assert "bound=46859289878 n0=0 (advisory)" in capsys.readouterr().out


def test_bound_mu_advisory(capsys):
    rc = run(["bound", "mu", "--triplet", "5:6:4:+", "--min-omega", "5^10",
              "--mu", "2"])
    assert rc == 0
    assert "(advisory)" in capsys.readouterr().out


@pytest.mark.parametrize("method, triplet, min_omega, message", [
    ("alg1", "4:10:54:+", "100", "gcd"),
    # D_1(M) is exactly 0 for these two: refused on the first rung, so a
    # one-rung ladder is not exhausted
    ("alg2", "2:3:1:+", "1", "D_1(M) >= 0"),
    ("alg2", "7:46:3:+", "6", "D_1(M) >= 0"),
])
def test_bound_domain_error_exit_code(capsys, method, triplet, min_omega, message):
    rc = run(["bound", method, "--triplet", triplet, "--min-omega", min_omega,
              "--max-precision-bits", "128"])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_usage_error_exit_code():
    assert run(["bound", "nosuch", "--triplet", "2:3:1:+", "--min-omega", "4"]) == 2
    assert run(["nosuchcommand"]) == 2


def test_byte_identical_reports(capsys):
    rc = run(["bound", "alg2", "--triplet", "2:3:1:+", "--min-omega", "2^40"])
    first = capsys.readouterr().out
    rc = run(["bound", "alg2", "--triplet", "2:3:1:+", "--min-omega", "2^40"])
    second = capsys.readouterr().out
    assert rc == 0 and first == second


def test_verify_and_resume_cli(capsys, tmp_path):
    cp_path = tmp_path / "cp.json"
    rc = run(["verify", "--triplet", "10:12:8:+", "--hi", "20000",
              "--targets", "4", "--threads", "1", "--checkpoint", str(cp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verified frontier: 20000" in out
    rc = run(["resume", "--checkpoint", str(cp_path), "--hi", "40000",
              "--threads", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verified frontier: 40000" in out


def test_repeated_target_minimum_kept_once(capsys, tmp_path):
    # the job and its digest are those of the minimum given once
    docs = []
    for targets in ("1", "1,1"):
        out = tmp_path / f"{targets}.json"
        rc = run(["verify", "--triplet", "2:3:1:+", "--hi", "100", "--targets", targets,
                  "--threads", "1", "--json", str(out)])
        assert rc == 0
        docs.append(json.loads(out.read_text()))
    capsys.readouterr()
    assert docs[0]["digest"] == docs[1]["digest"]
    assert [c["omega"] for c in docs[1]["job"]["targets"]] == ["1"]


def test_verify_rejects_bad_target(capsys):
    rc = run(["verify", "--triplet", "10:12:8:+", "--hi", "100",
              "--targets", "5", "--threads", "1"])
    assert rc == 1
    assert "not the minimum" in capsys.readouterr().err


@pytest.mark.parametrize("caps, named", [
    (["--max-steps", "3"], f"--max-steps 3 and --max-value {10**30}"),
    (["--max-value", "20"], "--max-steps 100000 and --max-value 20"),
], ids=["max-steps", "max-value"])
def test_target_cut_off_by_the_caps_names_them(caps, named, capsys):
    # 4 is the minimum of the 6-cycle (4, 8, 16, 24, 32, 40); the caps stop
    # the walk from 4 before it closes
    rc = run(["verify", "--triplet", "10:12:8:+", "--hi", "100", "--targets", "4",
              "--threads", "1", *caps])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: 4 is not the minimum" in err and named in err and "Traceback" not in err


def test_parsed_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["verify", "--triplet", "2:3:1:+", "--hi", "10",
                                      "--targets", "1"])
    assert Limits(args.max_steps, args.max_value) == Limits()
    assert args.chunk == DEFAULT_CHUNK
    for command in (["trace", "--n", "6"], ["cycles", "--seed-hi", "9"]):
        args = build_parser().parse_args([command[0], "--triplet", "2:3:1:+", *command[1:]])
        assert Limits(args.max_steps, args.max_value) == Limits()


@pytest.mark.parametrize("targets", ["0", "1,0"])
def test_verify_rejects_non_positive_target(targets, capsys):
    rc = run(["verify", "--triplet", "2:3:1:+", "--hi", "10", "--targets", targets,
              "--threads", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: 0 is not the minimum of a cycle" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["trace", "--triplet", "2:3:1:+", "--n", "0"], "--n"),
    (["map", "--triplet", "2:3:1:+", "--n", "0"], "--n"),
    (["trace", "--triplet", "2:3:1:+", "--n", "6", "--known", "0"], "--known"),
    (["trace", "--triplet", "2:3:1:+", "--n", "6", "--known", "1,0"], "--known"),
    (["trace", "--triplet", "2:3:1:+", "--n", "6", "--max-steps", "0"], "--max-steps"),
    (["trace", "--triplet", "2:3:1:+", "--n", "6", "--max-value", "0"], "--max-value"),
    (["cycles", "--triplet", "2:3:1:+", "--seed-hi", "9", "--max-steps", "0"], "--max-steps"),
    (["cycles", "--triplet", "2:3:1:+", "--seed-hi", "9", "--max-value", "0"], "--max-value"),
    (["cycles", "--triplet", "2:3:1:+", "--seed-lo", "0", "--seed-hi", "9"], "--seed-lo"),
    (["cycles", "--triplet", "2:3:1:+", "--seed-hi", "0"], "--seed-hi"),
    (["verify", "--triplet", "2:3:1:+", "--hi", "10", "--targets", "1", "--max-steps", "0"],
     "--max-steps"),
    (["verify", "--triplet", "2:3:1:+", "--hi", "10", "--targets", "1", "--max-value", "0"],
     "--max-value"),
    (["verify", "--triplet", "2:3:1:+", "--hi", "10", "--targets", "1", "--chunk", "0"],
     "--chunk"),
    (["verify", "--triplet", "2:3:1:+", "--lo", "0", "--hi", "10", "--targets", "1"], "--lo"),
    (["verify", "--triplet", "2:3:1:+", "--hi", "0", "--targets", "1"], "--hi"),
    (["resume", "--checkpoint", "cp.json", "--hi", "0"], "--hi"),
    (["bound", "alg1", "--triplet", "2:3:1:+", "--min-omega", "0"], "--min-omega"),
], ids=["trace-0", "map-0", "known-0", "known-1,0", "trace-max-steps-0",
        "trace-max-value-0", "cycles-max-steps-0", "cycles-max-value-0", "seed-lo-0",
        "seed-hi-0", "verify-max-steps-0", "verify-max-value-0", "chunk-0", "lo-0", "hi-0",
        "resume-hi-0", "min-omega-0"])
def test_non_positive_value_is_usage_error(argv, flag, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert f"error: argument {flag}: expected a positive integer" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_verify_rejects_ill_formed_triplet(capsys):
    rc = run(["verify", "--triplet", "3:4:1:+", "--hi", "10", "--targets", "1",
              "--threads", "1"])
    assert rc == 1
    assert "error: triplet (3,4,1)+ is not well-formed" in capsys.readouterr().err


def test_emit_checkpoint_csv_empty_exceptions():
    t = parse_triplet("10:12:8:+")
    cp = verify_range(VerificationJob(
        triplet=t, lo=1, hi=1000, targets=(detect_cycle_from(t, 4),)), workers=1)
    text = emit_table(cp, "csv")
    sections = text.strip().splitlines()
    assert sections[-1] == "n,status"  # header only, no exception rows


def test_resume_checkpoint_without_job(capsys, tmp_path):
    cp_path = tmp_path / "cp.json"
    cp_path.write_text('{"version": 1}')
    assert run(["resume", "--checkpoint", str(cp_path), "--hi", "100"]) == 1
    assert "error: checkpoint lacks field 'job'" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    ({"verified_frontier": "5000", "exceptions": [["7", "bogus"]]},
     "error: checkpoint exception 7 has unknown status 'bogus'"),
    ({"verified_frontier": "5000"},
     "error: checkpoint frontier 5000 contradicts its exceptions and range: expected 1000"),
    ({"seeds_scanned": 1000.5},
     "error: malformed checkpoint: seeds_scanned 1000.5 is not an integer"),
    ({"verified_frontier": True},
     "error: malformed checkpoint: verified_frontier True is not an integer"),
])
def test_resume_rejects_result_contradicting_its_job(capsys, tmp_path, edit, message):
    cp_path = tmp_path / "cp.json"
    assert run(["verify", "--triplet", "2:3:1:+", "--hi", "1000", "--targets", "1",
                "--threads", "1", "--checkpoint", str(cp_path)]) == 0
    doc = json.loads(cp_path.read_text())
    doc.update(edit)
    cp_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["resume", "--checkpoint", str(cp_path), "--hi", "6000", "--threads", "1"]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert json.loads(cp_path.read_text()) == doc  # nothing resumed


@pytest.mark.parametrize("where, value, message", [
    ("job.triplet.alpha", "5", "error: checkpoint digest does not match its job"),
    ("job.targets.0.kbar", 99, "error: target 1 claims kbar 99 but its cycle has 1"),
    ("wall_time", "nan", "error: malformed checkpoint: wall_time 'nan' is not a number"),
    ("wall_time", float("nan"),
     "error: malformed checkpoint: wall_time nan is not a finite number >= 0"),
    ("throughput", "1e3", "error: malformed checkpoint: throughput '1e3' is not a number"),
])
def test_resume_rejects_edited_checkpoint(capsys, tmp_path, where, value, message):
    cp_path = tmp_path / "cp.json"
    assert run(["verify", "--triplet", "2:3:1:+", "--hi", "1000", "--targets", "1",
                "--threads", "1", "--checkpoint", str(cp_path)]) == 0
    doc = json.loads(cp_path.read_text())
    keys = [int(key) if key.isdigit() else key for key in where.split(".")]
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    cp_path.write_text(json.dumps(doc))
    edited = cp_path.read_text()
    capsys.readouterr()
    assert run(["resume", "--checkpoint", str(cp_path), "--hi", "6000", "--threads", "1"]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert cp_path.read_text() == edited  # nothing resumed


def test_resume_missing_checkpoint(capsys, tmp_path):
    rc = run(["resume", "--checkpoint", str(tmp_path / "nosuch.json"), "--hi", "100"])
    assert rc == 1
    assert "error: [Errno 2] No such file or directory" in capsys.readouterr().err


def test_unwritable_report_path(capsys, tmp_path):
    path = str(tmp_path / "no" / "such" / "dir.json")
    rc = run(["verify", "--triplet", "2:3:1:+", "--hi", "100", "--targets", "1",
              "--threads", "1", "--json", path])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""  # refused before the scan, which would print its report
    assert err == f"error: cannot write --json {path}: {os.path.dirname(path)} is not a directory\n"


def test_checkpoint_directory_checked_before_the_scan(capsys, tmp_path, monkeypatch):
    import collatzkit.cli as cli

    saved = str(tmp_path / "saved.json")
    assert run(["verify", "--triplet", "2:3:1:+", "--hi", "100", "--targets", "1",
                "--threads", "1", "--checkpoint", saved]) == 0
    capsys.readouterr()

    def no_scan(*args, **kwargs):
        raise AssertionError("scan called")

    monkeypatch.setattr(cli, "verify_range", no_scan)
    monkeypatch.setattr(cli, "resume", no_scan)
    verify = ["verify", "--triplet", "2:3:1:+", "--hi", "100", "--targets", "1", "--threads", "1"]
    resume = ["resume", "--checkpoint", saved, "--hi", "200", "--threads", "1"]
    # a path in a missing directory, and a path that is a directory
    for command, flags in ((verify, ("--checkpoint", "--json", "--csv")),
                           (resume, ("--json", "--csv"))):
        for flag in flags:
            for path in (str(tmp_path / "no" / "such" / "cp.json"), str(tmp_path)):
                rc = run(command + [flag, path])
                assert rc == 1
                out, err = capsys.readouterr()
                assert out == ""
                assert err.startswith(f"error: cannot write {flag} ") and path in err
                assert "Traceback" not in err and ".tmp." not in err


def test_bound_precision_out_of_range_is_usage_error(capsys):
    rc = run(["bound", "alg1", "--triplet", "5:6:4:+", "--min-omega", "5^15",
              "--precision-bits", "4"])
    assert rc == 2
    assert "--precision-bits" in capsys.readouterr().err


def _subprocess_env() -> dict:
    """The environment of a child Python that imports this collatzkit."""
    src = str(Path(collatzkit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_dash_m_entry_point():
    env = _subprocess_env()
    done = subprocess.run([sys.executable, "-m", "collatzkit", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: collatzkit")


def test_parser_and_verify_import_no_mpmath():
    # mpmath comes with the first interval context, which the parser and a
    # verify run never build; a bound run still builds one
    env = _subprocess_env()
    script = "\n".join([
        "import sys, collatzkit",
        "from collatzkit import cli",
        "cli.build_parser()",
        "assert cli.run(['verify', '--triplet', '2:3:1:+', '--hi', '2000', '--targets', '1',"
        " '--threads', '1']) == 0",
        "assert 'mpmath' not in sys.modules, 'verify imported mpmath'",
        "assert cli.run(['bound', 'alg2', '--triplet', '5:6:4:+', '--min-omega', '5^10']) == 0",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "bound=2791" in done.stdout


def test_verify_on_two_workers_exits_and_leaves_no_process():
    # the kept pool's workers share the CLI's process group, which must be
    # empty once the CLI has exited and been reaped
    env = _subprocess_env()
    proc = subprocess.Popen([sys.executable, "-m", "collatzkit", "verify", "--triplet", "2:3:1:+",
                             "--hi", "200000", "--targets", "1", "--chunk", "20000",
                             "--max-steps", "40", "--threads", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 1, err  # some seeds need more than 40 steps
    assert "step_cap" in out
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_cli_reads_and_writes_integers_past_4300_digits(tmp_path):
    # CPython refuses int <-> str past 4,300 digits by default; the CLI's
    # integers are decimal strings, so `main` lifts the cap for its process.
    # Decimal strings are built here, as this process keeps the cap.
    big, big_plus_10 = "1" + "0" * 5000, "1" + "0" * 4998 + "10"  # 10^5000, 10^5000 + 10

    def cli(*argv):
        done = subprocess.run([sys.executable, "-m", "collatzkit", *argv], capture_output=True,
                              text=True, env=_subprocess_env(), cwd=tmp_path, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout

    assert cli("map", "--triplet", "2:3:1:+", "--n", "10^5000") == "5" + "0" * 4999 + "\n"
    assert "peak value: " + big in cli("trace", "--triplet", "2:3:1:+", "--n", "10^5000")
    cli("verify", "--triplet", "2:3:1:+", "--lo", "10^5000", "--hi", "10^5000", "--targets", "1",
        "--no-shortcut", "--max-value", "10^6000", "--json", "out.json",
        "--checkpoint", "cp.json")
    for name in ("out.json", "cp.json"):
        doc = json.loads((tmp_path / name).read_text())
        assert doc["verified_frontier"] == big and doc["seeds_scanned"] == "1"
        assert doc["job"]["lo"] == doc["job"]["hi"] == big
    out = cli("resume", "--checkpoint", "cp.json", "--hi", big_plus_10)
    assert "exceptions: 0\n" in out and "seeds scanned: 11 " in out
    assert json.loads((tmp_path / "cp.json").read_text())["verified_frontier"] == big_plus_10


def test_report_rendered_before_its_file_is_opened(monkeypatch, capsys, tmp_path):
    import collatzkit.cli as cli

    def failing(report, fmt="text"):
        if fmt != "text":
            raise ValueError("cannot render")
        return emit_table(report, fmt)

    monkeypatch.setattr(cli, "emit_table", failing)
    for flag in ("--json", "--csv"):
        path = tmp_path / f"report{flag}"
        with pytest.raises(ValueError):
            run(["cycles", "--triplet", "2:3:1:+", "--seed-lo", "1", "--seed-hi", "10",
                 flag, str(path)])
        assert not path.exists()
