"""Command-line surface: check, map, trace, cycles, family, bound, verify,
resume.  Human-readable tables go to stdout; --json/--csv write reports.

Exit status: 0 success, 1 domain error (message names the violated
precondition, a malformed checkpoint, or a file that cannot be read or
written; verify and resume check their output paths before the scan), 2
usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import (Alg2Row, BoundReport, farey_bound, hurwitz_bound,
                     mu_bound, r_infinity_bound)
from .core import Triplet, apply_map, apply_map_iter, parse_triplet
from .dynamics import (DEFAULT_MAX_STEPS, DEFAULT_MAX_VALUE, CycleDetected,
                       EnteredKnownCycle, Limits, StepCapExceeded, ValueCapExceeded,
                       detect_cycle_from, enumerate_cycles, trace)
from .errors import CollatzKitError, InvalidFamilyParamsError, InvalidTargetsError
from .families import FAMILIES, PredictedCycleSet, parse_family_spec, parse_natural as _natural
from .intervals import DEFAULT_POLICY, PrecisionPolicy
from .verify import (DEFAULT_CHUNK, Checkpoint, VerificationJob, checkpoint_to_json_dict,
                     load_checkpoint, resume, save_checkpoint, verify_range)


def _flag_type(parse):
    """An argparse type from a family value parser: a bad value is a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except InvalidFamilyParamsError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


parse_natural = _flag_type(_natural)  # decimal or b^e (5^15, 2^71)


def _positive(text: str) -> int:
    n = parse_natural(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _threads(args) -> Optional[int]:
    """--threads, else $COLLATZKIT_THREADS, else None (one worker per CPU
    the process may run on); a bad variable is a usage error like a bad flag."""
    env = os.environ.get("COLLATZKIT_THREADS")
    if args.threads is not None or not env:
        return args.threads
    try:
        return _positive(env)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentError(None, f"$COLLATZKIT_THREADS: {exc}") from None


def _naturals(text: str) -> list[int]:
    return [parse_natural(part) for part in text.split(",")]


def _positives(text: str) -> list[int]:
    return [_positive(part) for part in text.split(",")]


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction, got {text!r}") from None


# --- table emission -----------------------------------------------------------

def _text_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for row in rows:
        out.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def _bound_rows(report: BoundReport) -> list[list[str]]:
    rows = []
    for r in report.rows:
        value = r.approx if isinstance(r, Alg2Row) else str(r.value)
        rows.append([str(r.n), str(r.p), str(r.q), value])
    return rows


def emit_table(report, fmt: str = "text") -> str:
    """Render a BoundReport, PredictedCycleSet, or Checkpoint."""
    if isinstance(report, BoundReport):
        if fmt == "json":
            return json.dumps(report.to_json_dict(), indent=1)
        header = ["n", "p_n", "q_n", "value"]
        rows = _bound_rows(report)
        if fmt == "csv":
            summary = [report.method, report.triplet.text, report.M, report.bound, report.n0,
                       report.boxed_index, "true" if report.certified else "false"]
            return _csv_string(["method", "triplet", "min_omega", "bound", "n0", "boxed_index",
                                "certified"], [summary]) + "\n" + _csv_string(header, rows)
        lines = []
        if rows:
            lines.append(_text_table(header, rows))
        lines.append(f"method={report.method} triplet={report.triplet} "
                     f"min_omega={report.M}")
        tail = f"bound={report.bound} n0={report.n0}"
        if report.boxed_index is not None:
            tail += f" boxed_index={report.boxed_index}"
        if not report.certified:
            tail += " (advisory)"
        lines.append(tail)
        for k, v in report.constants.items():
            lines.append(f"{k}={v}")
        return "\n".join(lines)
    if isinstance(report, PredictedCycleSet):
        if fmt == "json":
            return json.dumps(report.to_json_dict(), indent=1)
        header = ["omega", "length", "kbar", "max_elem", "elements"]
        rows = [[str(c.omega), str(c.length), str(c.kbar), str(c.max_elem),
                 "->".join(str(x) for x in c.elements)] for c in report.cycles]
        if fmt == "csv":
            return _csv_string(header, rows)
        lines = [f"triplet {report.triplet}  [{report.provenance}]",
                 f"cycles: {len(report.cycles)} "
                 f"(order lower bound {report.lower_bound_on_order})"]
        if report.generated_count is not None:
            lines.append(f"generator count before deduplication: {report.generated_count}")
        lines.append(_text_table(header, rows))
        return "\n".join(lines)
    if isinstance(report, Checkpoint):
        if fmt == "json":
            return json.dumps(checkpoint_to_json_dict(report), indent=1)
        header = ["n", "status"]
        rows = [[str(n), status] for n, status in report.exceptions]
        if fmt == "csv":
            summary = _csv_string(
                ["triplet", "lo", "hi", "frontier", "seeds", "throughput"],
                [[report.job.triplet.text, str(report.job.lo), str(report.job.hi),
                  str(report.verified_frontier), str(report.seeds_scanned),
                  f"{report.throughput:.0f}"]])
            return summary + "\n" + _csv_string(header, rows)
        lines = [
            f"triplet {report.job.triplet}  range [{report.job.lo}, {report.job.hi}]",
            f"verified frontier: {report.verified_frontier}",
            f"exceptions: {len(report.exceptions)}",
            f"seeds scanned: {report.seeds_scanned} in {report.wall_time:.2f}s "
            f"({report.throughput:,.0f} seeds/s)",
        ]
        if report.exceptions:
            lines.append(_text_table(header, rows))
        return "\n".join(lines)
    raise TypeError(f"cannot emit {type(report)!r}")


def _csv_string(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(report, args) -> int:
    print(emit_table(report, "text"))
    _write_outputs(report, args)
    return 0


def _write_outputs(report, args) -> None:
    """Write --json and --csv, each rendered before its file is opened, so a
    report that fails to render leaves no empty file behind."""
    for fmt, end in (("json", "\n"), ("csv", "")):
        path = getattr(args, fmt, None)
        if path:
            text = emit_table(report, fmt) + end
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


# --- command handlers ---------------------------------------------------------

def _limits_from(args) -> Limits:
    return Limits(max_steps=args.max_steps, max_value=args.max_value)


def _policy_from(args) -> PrecisionPolicy:
    try:
        return PrecisionPolicy(start_bits=args.precision_bits,
                               max_bits=args.max_precision_bits)
    except ValueError as exc:
        raise argparse.ArgumentError(
            None, f"--precision-bits/--max-precision-bits: {exc}") from None


def _cmd_check(args) -> int:
    t = parse_triplet(args.triplet)
    wf = t.wellformedness
    if wf.satisfied:
        print(f"{t} is well-formed: the map sends naturals to naturals")
        return 0
    s = t.alpha + t.kappa * t.beta
    if not wf.divisibility_ok:
        print(f"divisibility clause fails: {t.d} does not divide {s}")
    if not wf.magnitude_ok:
        rhs = ((t.kappa - 1) // 2) * t.beta * t.d
        print(f"magnitude clause fails: {s} is not greater than {rhs}")
    if wf.witness is not None:
        print(f"witness: the map leaves the naturals at n={wf.witness}")
    return 1


def _cmd_map(args) -> int:
    t = parse_triplet(args.triplet)
    if args.iters is None:
        print(apply_map(t, args.n))
    else:
        print(apply_map_iter(t, args.n, args.iters))
    return 0


def _cmd_trace(args) -> int:
    t = parse_triplet(args.triplet)
    tr = trace(t, args.n, _limits_from(args), frozenset(args.known or ()))
    shown = tr.path if len(tr.path) <= 40 else tr.path[:40]
    arrow = "->".join(str(x) for x in shown)
    if len(tr.path) > 40:
        arrow += "->..."
    print(arrow)
    term = tr.terminal
    if isinstance(term, EnteredKnownCycle):
        print(f"entered known cycle at omega={term.omega} after {tr.visited_count} steps")
    elif isinstance(term, CycleDetected):
        c = term.cycle
        print(f"cycle detected: omega={c.omega} length={c.length} after {tr.visited_count} steps")
    elif isinstance(term, StepCapExceeded):
        print(f"step cap {args.max_steps} exceeded")
    elif isinstance(term, ValueCapExceeded):
        print(f"value cap {args.max_value} exceeded")
    print(f"peak value: {tr.peak}")
    return 0


def _cmd_cycles(args) -> int:
    t = parse_triplet(args.triplet)
    cycles = enumerate_cycles(t, args.seed_lo, args.seed_hi, _limits_from(args))
    report = PredictedCycleSet(t, cycles, f"seeds:{args.seed_lo}..{args.seed_hi}")
    return _emit(report, args)


def _cmd_family(args) -> int:
    if args.kind in FAMILIES:
        build, params = FAMILIES[args.kind]
        return _emit(build(*(getattr(args, key) for key, _ in params)), args)
    return _emit(parse_family_spec(args.spec), args)


# Method or alias -> bound; lambdas see a later rebinding of a bound's name.
_BOUND_METHODS = {
    "alg1": lambda t, m, mu, policy: r_infinity_bound(t, m, policy),
    "r-infinity": lambda t, m, mu, policy: r_infinity_bound(t, m, policy),
    "alg2": lambda t, m, mu, policy: farey_bound(t, m, policy),
    "farey": lambda t, m, mu, policy: farey_bound(t, m, policy),
    "hurwitz": lambda t, m, mu, policy: hurwitz_bound(t, m, policy),
    "mu": lambda t, m, mu, policy: mu_bound(t, m, mu, policy),
}


def _cmd_bound(args) -> int:
    t = parse_triplet(args.triplet)
    report = _BOUND_METHODS[args.method](t, args.min_omega, args.mu, _policy_from(args))
    return _emit(report, args)


def _targets_for(t: Triplet, minima: Sequence[int], limits: Limits):
    """The target cycles of `--targets`, one per minimum, in first-seen order:
    a repeated minimum would repeat its cycle in the job and its digest."""
    targets = []
    for omega in dict.fromkeys(minima):
        cycle = detect_cycle_from(t, omega, limits) if omega >= 1 else None
        if cycle is None or cycle.omega != omega:
            raise InvalidTargetsError(
                f"{omega} is not the minimum of a cycle reachable from itself within "
                f"--max-steps {limits.max_steps} and --max-value {limits.max_value}"
                + (f"; its orbit reaches the cycle at {cycle.omega}" if cycle else ""))
        targets.append(cycle)
    return tuple(targets)


def _cmd_verify(args) -> int:
    workers = _threads(args)
    t = parse_triplet(args.triplet)
    limits = Limits(max_steps=args.max_steps, max_value=args.max_value)
    targets = _targets_for(t, args.targets, limits)
    job = VerificationJob(
        triplet=t, lo=args.lo, hi=args.hi, targets=targets, limits=limits,
        chunk_size=args.chunk, below_frontier_shortcut=not args.no_shortcut)
    _check_output_paths(args, "checkpoint", "json", "csv")
    return _verify_outputs(verify_range(job, workers=workers), args)


def _cmd_resume(args) -> int:
    workers = _threads(args)
    cp = load_checkpoint(args.checkpoint)
    _check_output_paths(args, "json", "csv")
    return _verify_outputs(resume(cp, args.hi, workers=workers), args)


def _check_output_paths(args, *flags: str) -> None:
    """Fail before a scan, not after it, on an output path that names a
    directory or lies in a missing one."""
    for flag in flags:
        path = getattr(args, flag)
        if not path:
            continue
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise NotADirectoryError(
                f"cannot write --{flag} {path}: {directory} is not a directory")
        if os.path.isdir(path):
            raise IsADirectoryError(f"cannot write --{flag} {path}: it is a directory")


def _verify_outputs(cp: Checkpoint, args) -> int:
    """The tail of verify and resume: print the report, save the checkpoint,
    write --json/--csv; exit status 1 when some seed is undecided."""
    print(emit_table(cp, "text"))
    if args.checkpoint:
        save_checkpoint(cp, args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    _write_outputs(cp, args)
    return 0 if not cp.exceptions else 1


# --- parser -------------------------------------------------------------------

def _add_caps(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-steps", type=_positive, default=DEFAULT_MAX_STEPS)
    p.add_argument("--max-value", type=_positive, default=DEFAULT_MAX_VALUE)


def _add_outputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", metavar="PATH", help="write a JSON report")
    p.add_argument("--csv", metavar="PATH", help="write a CSV report")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="collatzkit",
        description="Generalized Collatz triplet maps: cycles, families, "
                    "certified cycle-length bounds, range verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="well-formedness of a triplet")
    p.add_argument("--triplet", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("map", help="apply the map once or k times")
    p.add_argument("--triplet", required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--iters", type=parse_natural, default=None)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("trace", help="trajectory until cycle, known minimum, or cap")
    p.add_argument("--triplet", required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--known", type=_positives, help="comma-separated known cycle minima")
    _add_caps(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("cycles", help="enumerate cycles over a seed range")
    p.add_argument("--triplet", required=True)
    p.add_argument("--seed-lo", type=_positive, default=1)
    p.add_argument("--seed-hi", type=_positive, required=True)
    _add_caps(p)
    _add_outputs(p)
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("family", help="build a trivial-cycle family")
    fam = p.add_subparsers(dest="kind", required=True)
    for name, (_, params) in FAMILIES.items():
        f = fam.add_parser(name)
        for key, parse in params:
            flag = "--of" if key == "base" else f"--{key}"
            f.add_argument(flag, dest=key, type=_flag_type(parse), required=True)
    f = fam.add_parser("spec")
    f.add_argument("spec", help="family spec string, NAME:KEY=VALUE,...")
    for f in fam.choices.values():
        _add_outputs(f)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("bound", help="lower bounds on hypothetical cycle length")
    p.add_argument("method", choices=_BOUND_METHODS)
    p.add_argument("--triplet", required=True)
    p.add_argument("--min-omega", type=_positive, required=True,
                   help="threshold M: every cycle minimum is assumed >= M")
    p.add_argument("--mu", type=_fraction, default="2",
                   help="irrationality measure (mu method)")
    p.add_argument("--precision-bits", type=int, default=DEFAULT_POLICY.start_bits)
    p.add_argument("--max-precision-bits", type=int, default=DEFAULT_POLICY.max_bits)
    _add_outputs(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify", help="verify every seed in a range reaches a target")
    p.add_argument("--triplet", required=True)
    p.add_argument("--lo", type=_positive, default=1)
    p.add_argument("--hi", type=_positive, required=True)
    p.add_argument("--targets", type=_naturals, required=True,
                   help="comma-separated cycle minima (the walk from a value that is "
                        "no cycle's minimum hashes up to --max-steps values)")
    p.add_argument("--chunk", type=_positive, default=DEFAULT_CHUNK)
    p.add_argument("--threads", type=_positive, default=None,
                   help="worker processes (default: $COLLATZKIT_THREADS or usable CPUs)")
    p.add_argument("--no-shortcut", action="store_true",
                   help="disable the below-frontier shortcut")
    p.add_argument("--checkpoint", metavar="PATH")
    _add_caps(p)
    _add_outputs(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("resume", help="extend a checkpointed verification")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--hi", type=_positive, required=True)
    p.add_argument("--threads", type=_positive, default=None,
                   help="worker processes (default: $COLLATZKIT_THREADS or usable CPUs)")
    _add_outputs(p)
    p.set_defaults(func=_cmd_resume)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    $COLLATZKIT_THREADS is read per command, not when the parser is built."""
    return build_parser()


def run(argv: Optional[Sequence[str]] = None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CollatzKitError, OSError) as exc:  # OSError: a file named on the command line
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except argparse.ArgumentError as exc:  # a flag value the parser let through
        print(f"{ap.prog}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # every integer the command line reads or writes is a decimal string, so
    # it lifts CPython's 4,300-digit cap on int <-> str; in-process `run`
    # callers keep their own
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(run(sys.argv[1:]))
