"""Self-check of the answer check: corrupted answer lists must be flagged.

    python3 perfbench/selfcheck.py

Runs Whirlpool-S on a small generated document, confirms its answers
pass the oracle check, then corrupts them in several ways and confirms
each corruption is caught — and that an answer computed on an older
version of a document is classed as stale, not exact.  Exits 0 when
every case behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to check: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import inputs
    from oracle import mismatch, oracle_scores
    from workloads import EXACT, Record, classify

    from repro.bench.params import QUERIES
    from repro.core.engine import Engine
    from repro.xmldb.parser import parse_document

    k = 6
    label = "Q3"
    current = inputs.make_document("doc", 40, 11)
    older = inputs.make_document("doc", 40, 12)
    oracle = oracle_scores(current.tree, QUERIES[label])
    answers = inputs.answer_key(
        Engine(parse_document(current.text), QUERIES[label]).run(k).answers
    )
    outside = next(d for d, s in sorted(oracle.items(), key=lambda i: i[1]) if d not in
                   {root for root, _ in answers})

    corruptions = {
        "score nudged": [(answers[0][0], answers[0][1] * (1 + 1e-6))] + answers[1:],
        "answer dropped": answers[:-1],
        "root replaced": answers[:-1] + [(outside, answers[-1][1])],
        "root repeated": answers[:-1] + [answers[0]],
        "order of roots kept, scores swapped": [
            (answers[0][0], answers[-1][1])] + answers[1:-1] + [(answers[-1][0], answers[0][1])
        ],
    }
    failures = []
    if mismatch(answers, oracle, k) is not None:
        failures.append(f"true answers rejected: {mismatch(answers, oracle, k)}")
    for name, corrupted in corruptions.items():
        if corrupted != answers and mismatch(corrupted, oracle, k) is None:
            failures.append(f"{name}: not flagged")
        else:
            print(f"flagged {name}: {mismatch(corrupted, oracle, k)}")

    stale_answers = inputs.answer_key(
        Engine(parse_document(older.text), QUERIES[label]).run(k).answers
    )
    query = inputs.Query(label, QUERIES[label], "whirlpool_s", k)
    oracles = {"current": oracle, "older": oracle_scores(older.tree, QUERIES[label])}
    for answer_list, expected in ((answers, EXACT), (stale_answers, "stale")):
        record = Record(query, 0.0, answer_list, versions=("current",), older=("older",))
        classify(record, oracles)
        if record.status != expected:
            failures.append(f"classified {record.status}, expected {expected}")
        else:
            print(f"classified {expected} answers as {record.status}")

    for failure in failures:
        print("FAIL", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
