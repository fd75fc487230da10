"""Search-free answer oracle and the answer check.

The oracle is the per-node decomposition of ``tests/test_differential.py``:
in relaxed mode the best tuple for a root is, independently per query
node, the best-scoring candidate related to the root (or a deletion,
worth 0).  It needs no search, so it shares no code path with the
engines' routing, queues or top-k pruning.  It scores the generator's own
document tree, not the text the program parsed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import Engine
from repro.query.predicates import composed_axis
from repro.scoring.model import MatchQuality
from repro.xmldb.model import Database

Dewey = Tuple[int, ...]
Answers = Sequence[Tuple[Dewey, float]]


def oracle_scores(database: Database, xpath: str) -> Dict[Dewey, float]:
    """Best relaxed-match score of every candidate root of ``xpath``."""
    engine = Engine(database, xpath)
    pattern, index, model = engine.pattern, engine.index, engine.score_model
    nodes = [
        (node, composed_axis(pattern.root, node)) for node in pattern.non_root_nodes()
    ]
    scores: Dict[Dewey, float] = {}
    for root in index[pattern.root.tag].all():
        total = 0.0
        for node, exact_axis in nodes:
            best = 0.0  # deletion
            for candidate in index.related(node.tag, root.dewey, exact_axis.relaxed()):
                if node.value is not None and candidate.value != node.value:
                    continue
                quality = (
                    MatchQuality.EXACT
                    if exact_axis.matches(root.dewey, candidate.dewey)
                    else MatchQuality.RELAXED
                )
                best = max(best, model.contribution(node.node_id, quality, candidate))
            total += best
        scores[tuple(root.dewey)] = total
    return scores


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def mismatch(answers: Answers, oracle: Dict[Dewey, float], k: int) -> Optional[str]:
    """``None`` when ``answers`` is an exact top-k of ``oracle``, else why not.

    The sorted score list must equal the oracle's k best scores, each
    answer's score must be its root's oracle score, no root may repeat,
    and every root scoring strictly above the k-th score must be present
    (roots tied at the k-th score are interchangeable).
    """
    expected: List[float] = sorted(oracle.values(), reverse=True)[:k]
    got = sorted((score for _, score in answers), reverse=True)
    if len(got) != len(expected):
        return f"{len(got)} answers, expected {len(expected)}"
    for rank, (a, b) in enumerate(zip(got, expected), start=1):
        if not _close(a, b):
            return f"score #{rank} is {a!r}, expected {b!r}"
    roots = [dewey for dewey, _ in answers]
    if len(set(roots)) != len(roots):
        return "a root appears twice"
    for dewey, score in answers:
        if dewey not in oracle:
            return f"root {dewey} is not a candidate root"
        if not _close(oracle[dewey], score):
            return f"root {dewey} scored {score!r}, oracle says {oracle[dewey]!r}"
    if expected:
        kth = expected[-1]
        missing = [
            d for d, s in oracle.items() if s > kth and not _close(s, kth) and d not in roots
        ]
        if missing:
            return f"root {missing[0]} scores above the k-th score but is missing"
    return None
