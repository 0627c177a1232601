"""Run a fixed sweep of bound reports and print two sha256 digests over
them, so that a change meant to keep every certified report can be checked
against its parent.

    python tools/bound_digest.py [source directory]

The directory is the one that holds the collatzkit package; it defaults to
the src of the checkout that holds this script, so that

    python tools/bound_digest.py ../parent/src

runs the same sweep on another checkout.  The sweep runs alg1, alg2, mu
(mu = 2) and hurwitz on 67 (triplet, M) pairs: 5:6:4:+ at 5^5..5^60,
2:3:1:+ at 2^10, 2^20, 2^40, 2^60 and 2^71, 3:4:2:+ at 14, 2:3:5:+ at 187,
and four pairs where M is too small for alg2 (D_1(M) > 0 for 5:6:4:+ at 1
and 4:5:3:+ at 3, D_1(M) = 0 for 2:3:1:+ at 1 and 7:46:3:+ at 6), each
under precision policies starting at 128 and at 8 bits.  On the same
triplets and policies it runs the other two callers of the precision
ladder: `convergents` for 0, 5 and 40 terms, and `xi_value` to 8 and 64
bits.  A report is `BoundReport.to_json_dict` (the terms and
`precision_bits_used` for convergents; the enclosure's endpoints and
`precision_bits_used` for xi_value), or the class and message of the error
raised.  The first digest leaves out `precision_bits_used`, which says how
much precision a report needed and not what it certifies; the second keeps
it.  It prints the counts and both digests; the sweep takes a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

PAIRS = ([("5:6:4:+", 5**e) for e in range(5, 61)]
         + [("2:3:1:+", 2**e) for e in (10, 20, 40, 60, 71)]
         + [("3:4:2:+", 14), ("2:3:5:+", 187)]
         + [("5:6:4:+", 1), ("4:5:3:+", 3), ("2:3:1:+", 1), ("7:46:3:+", 6)])
START_BITS = (128, 8)


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    from collatzkit import (CollatzKitError, PrecisionPolicy, convergents, farey_bound,
                            hurwitz_bound, mu_bound, parse_triplet, r_infinity_bound, xi_value)

    def report(method):
        return lambda t, M, policy: method(t, M, policy).to_json_dict()

    def terms(n):
        def doc(t, M, policy):
            seq = convergents(t, n, policy)
            return {"terms": [[str(x) for x in term] for term in seq.terms],
                    "precision_bits_used": seq.precision_bits_used}
        return doc

    def xi(bits):
        def doc(t, M, policy):
            real = xi_value(t, bits, policy)
            return {"lo": str(real.lo), "hi": str(real.hi), "precision_bits_used": real.bits_used}
        return doc

    methods = {"alg1": report(r_infinity_bound), "alg2": report(farey_bound),
               "hurwitz": report(hurwitz_bound),
               "mu": report(lambda t, M, policy: mu_bound(t, M, 2, policy)),
               **{f"convergents{n}": terms(n) for n in (0, 5, 40)},
               **{f"xi{bits}": xi(bits) for bits in (8, 64)}}
    certified, with_bits = hashlib.sha256(), hashlib.sha256()
    counts = dict.fromkeys(("reports", "errors", "rows"), 0)
    for start in START_BITS:
        policy = PrecisionPolicy(start_bits=start)
        for text, M in PAIRS:
            t = parse_triplet(text)
            for name, method in methods.items():
                try:
                    doc = method(t, M, policy)
                    counts["reports"] += 1
                    counts["rows"] += len(doc.get("rows", ()))
                except CollatzKitError as exc:
                    doc = {"error": type(exc).__name__, "message": str(exc)}
                    counts["errors"] += 1
                head = json.dumps([start, text, str(M), name]).encode()
                with_bits.update(head + json.dumps(doc, sort_keys=True).encode() + b"\n")
                doc.pop("precision_bits_used", None)
                certified.update(head + json.dumps(doc, sort_keys=True).encode() + b"\n")
    for name, count in counts.items():
        print(f"{name:12} {count:,}")
    print(f"{'certified':12} {certified.hexdigest()}")
    print(f"{'with_bits':12} {with_bits.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
