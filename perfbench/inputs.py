"""Seeded inputs for the three workloads.

Everything a run feeds the program is made here: the XMark documents
(serialized to XML text, which the program parses at set-up), and from
``--seed`` the closed-loop query order and the open-loop schedule.  The
generator's own document trees are kept beside the text so the oracle
can score them without going through the program's parser.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.params import QUERIES
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from repro.xmldb.model import Database
from repro.xmldb.serializer import serialize

ALGORITHMS = ("whirlpool_s", "whirlpool_m", "lockstep")

#: Generator seed of the document corpus.  The documents are the same for
#: every ``--seed``: a document's shape sets most of a query's cost, so a
#: corpus drawn per seed would make runs differ by more than any change
#: worth measuring.  ``--seed`` varies what a workload does with them.
CORPUS_SEED = 9000

#: engine-xmark: more item roots than the 512-entry per-server probe memo.
#: 520 rather than the ~650 first planned: Q3 LockStep's cost grows
#: faster than the document (3 s at 520 items, 6 s at 650 on a 2-core
#: VM), and the smaller pass leaves room for four passes in a run.
ENGINE_ITEMS = 520
ENGINE_K = 15
#: Run seconds allotted to one pass (9 queries): a run makes
#: ``round(seconds / ENGINE_PASS_S)`` passes, so every run does the same
#: work whatever the machine's speed at the time.  Four passes in a 25 s
#: run give 36 latencies: the median falls in the middle of one kind of
#: query's block of four and the tail (p72) on the second of another's,
#: rather than on the edge between two kinds; a pass took ~5 s on a
#: 2-core VM.
ENGINE_PASS_S = 6.0
#: Closed-loop latency limit for ``slo_met_frac``.  It sits between the
#: seed code's Q3 Whirlpool-M (0.5-0.7 s) and Q3 LockStep (2.5-3.5 s),
#: far enough from both that the host's changes of speed do not move
#: either across it.
ENGINE_LIMIT_S = 1.6

#: service-open: eight documents small enough for the probe memo.
SERVICE_DOCUMENTS = 8
SERVICE_ITEMS = 50
SERVICE_WORKERS = 2
SERVICE_K_VALUES = (3, 15, 75)
SERVICE_ALGORITHM_WEIGHTS = (("whirlpool_s", 6), ("lockstep", 3), ("whirlpool_m", 1))
#: Offered load, absolute: about a fifth of the seed code's ~19 req/s
#: saturation throughput on this mix with two workers.  At 6 req/s (a
#: third) the run-to-run spread of the median and tail latency reached
#: the bound, and at a half and two thirds of saturation it was wider:
#: the more requests overlap, the more the interpreter lock's hand-offs
#: amplify the host's changes of speed.
SERVICE_RATE_PER_S = 4.0
#: Run seconds allotted to one block of the request mix (90 reads, 22.5 s
#: of arrivals at the offered rate), as ENGINE_PASS_S: two blocks in a
#: 30 s run, so a run measures 45 s.
SERVICE_BLOCK_S = 15.0
#: service-closed: run seconds allotted to one block, as SERVICE_BLOCK_S:
#: five blocks in a 25 s run; answered back to back, a block took 3.5 s
#: on a 2-core VM and up to 9 s when the host ran slowly.
SERVICE_CLOSED_BLOCK_S = 5.0
#: Every WRITE_EVERY-th operation replaces a document (2%), each write a
#: different document while they last.  Fixed positions rather than coin
#: flips keep the stale-read share comparable across seeds.
SERVICE_WRITE_EVERY = 50
SERVICE_LIMIT_S = 1.0

#: cluster-2shard: a forest of eight documents, ~260 items in all, dealt
#: round-robin to two shard processes.  The partitioner assigns whole
#: documents, so a single document would leave one shard empty.
CLUSTER_DOCUMENTS = 8
CLUSTER_ITEMS = 33
CLUSTER_SHARDS = 2
CLUSTER_K = 15
#: Run seconds allotted to one pass (Q1-Q3 once), as ENGINE_PASS_S:
#: sixteen passes in a 25 s run, so the median and the tail (p79) both
#: fall inside one query's block of sixteen latencies; a pass took
#: ~1.4 s on a 2-core VM.
CLUSTER_PASS_S = 1.6
#: Three times the seed code's slowest query (Q3, ~0.6 s).
CLUSTER_LIMIT_S = 2.0


@dataclass
class Document:
    """One generated document: the text the program parses, and the
    generator's own tree, which only the oracle reads."""

    name: str
    items: int
    text: str
    tree: Database

    @property
    def bytes(self) -> int:
        return len(self.text.encode("utf-8"))


def make_document(name: str, items: int, seed: int) -> Document:
    tree = generate_database(XMarkConfig(items=items, seed=seed))
    return Document(name, items, serialize(tree), tree)


def forest_tree(documents: List[Document]) -> Database:
    """The generator trees as one forest, Dewey-stamped in list order
    (the order ``parse_forest`` gives the texts)."""
    return Database.from_roots(d.tree.documents[0].root for d in documents)


@dataclass(frozen=True)
class Query:
    """One closed-loop query: label (Q1..Q3), XPath, algorithm, k."""

    label: str
    xpath: str
    algorithm: str
    k: int


def _passes(pairs: List[Query], rng: random.Random, count: int) -> List[List[Query]]:
    """``count`` passes, each every pair once in a seeded order; whole
    passes keep the latency mix the same per run."""
    passes = []
    for _ in range(count):
        order = list(pairs)
        rng.shuffle(order)
        passes.append(order)
    return passes


def engine_passes(seed: int, count: int) -> List[List[Query]]:
    pairs = [
        Query(label, xpath, algorithm, ENGINE_K)
        for label, xpath in QUERIES.items()
        for algorithm in ALGORITHMS
    ]
    return _passes(pairs, random.Random(seed * 7919 + 1), count)


def cluster_passes(seed: int, count: int) -> List[List[Query]]:
    pairs = [
        Query(label, xpath, "whirlpool_s", CLUSTER_K) for label, xpath in QUERIES.items()
    ]
    return _passes(pairs, random.Random(seed * 7919 + 2), count)


@dataclass
class Operation:
    """One open-loop operation, due ``due`` seconds after the start.

    A read carries a query; a write carries the index of the
    replacement document it registers under ``document``."""

    due: float
    document: str
    query: Optional[Query] = None
    priority: int = 0
    replacement: Optional[int] = None


@dataclass
class ServiceInputs:
    documents: List[Document]
    replacements: List[Document]
    operations: List[Operation] = field(default_factory=list)
    #: Reads in one block of the request mix.
    block_reads: int = 0


def service_inputs(seed: int, seconds: float, block_s: float) -> ServiceInputs:
    """Documents, replacements and a Poisson schedule at the offered
    rate of ``round(seconds / block_s)`` blocks of reads (one at least).

    The seed varies the arrival times, the order of requests, their
    priorities, and which documents are replaced.  Reads come in blocks
    holding every (query, k, algorithm-weight slot) combination once, so
    each run offers the same mix of work and runs compare across seeds.
    """
    rng = random.Random(seed * 7919 + 3)
    documents = [
        make_document(f"doc{i}", SERVICE_ITEMS, CORPUS_SEED + 200 + i)
        for i in range(SERVICE_DOCUMENTS)
    ]
    block = [
        Query(label, xpath, algorithm, k)
        for label, xpath in QUERIES.items()
        for k in SERVICE_K_VALUES
        for algorithm, weight in SERVICE_ALGORITHM_WEIGHTS
        for _ in range(weight)
    ]
    blocks = max(1, round(seconds / block_s))
    reads: List[Query] = []
    for _ in range(blocks):
        order = list(block)
        rng.shuffle(order)
        reads.extend(order)
    targets = [d.name for d in documents]
    rng.shuffle(targets)
    writes = len(reads) // (SERVICE_WRITE_EVERY - 1)
    # Poisson arrivals conditioned on their count: uniform order
    # statistics over the span the offered rate gives them, so every run
    # offers exactly its rate.
    span = (len(reads) + writes) / SERVICE_RATE_PER_S
    dues = sorted(rng.uniform(0.0, span) for _ in range(len(reads) + writes))
    operations: List[Operation] = []
    replacements: List[Document] = []
    pending = iter(reads)
    kinds = list(dict.fromkeys(block))
    served: Dict[Query, int] = {}
    for position, due in enumerate(dues, start=1):
        if position % SERVICE_WRITE_EVERY == 0:
            name = targets[len(replacements) % len(targets)]
            replacement = make_document(
                name, SERVICE_ITEMS, CORPUS_SEED + 300 + len(replacements)
            )
            operations.append(Operation(due, name, replacement=len(replacements)))
            replacements.append(replacement)
            continue
        query = next(pending)
        # Each kind of request goes round the documents from its own
        # starting point, so every run gives each document the same work.
        turn = kinds.index(query) + served.get(query, 0)
        served[query] = served.get(query, 0) + 1
        document = documents[turn % len(documents)].name
        operations.append(Operation(due, document, query, priority=rng.randint(0, 9)))
    return ServiceInputs(documents, replacements, operations, len(block))


def document_summary(documents: List[Document]) -> List[Dict[str, object]]:
    return [{"name": d.name, "items": d.items, "bytes": d.bytes} for d in documents]


def answer_key(answers) -> List[Tuple[Tuple[int, ...], float]]:
    """(root Dewey, score) per answer: what the oracle compares."""
    return [(tuple(answer.root_node.dewey), answer.score) for answer in answers]
