"""The three workloads: set-up, measured loop, and answer check.

A workload object holds its seeded inputs.  ``setup()`` does what the
program needs before it can serve (timed as ``setup_s``), ``measure()``
runs the measured loop and returns one record per attempted query,
``close()`` shuts the program down, and ``check()`` compares each
recorded answer with the oracle after everything timed is over.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Dict, List, Optional, Tuple

import inputs
import layers
from hostspeed import SpeedTrack
from oracle import oracle_scores, mismatch
from tracer import Tracer

from repro.bench.params import QUERIES
from repro.core.engine import Engine
from repro.xmldb import parser

EXACT = "exact"


@dataclass
class Record:
    """One attempted query: its latency and what came back."""

    query: inputs.Query
    latency: float
    answers: Optional[List[Tuple[Tuple[int, ...], float]]]
    #: Set when no checkable answer came back (refused, errored, degraded).
    failure: Optional[str] = None
    #: Oracle keys of the document versions an answer may come from.
    versions: Tuple[Any, ...] = ()
    #: Oracle keys of older versions: matching one is a stale read.
    older: Tuple[Any, ...] = ()
    status: str = ""
    #: Host-speed factor for ``latency`` (see hostspeed.py).
    scale: float = 1.0


@dataclass
class Measured:
    records: List[Record]
    wall_s: float
    units: int
    facts: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Each whole pass (block) of a closed loop: its queries, and the
    #: seconds its operations took, as timed and scaled to the reference
    #: host speed.
    passes: List[Tuple[int, float, float]] = field(default_factory=list)
    #: Host-speed factor of the loop's CPU time.
    cpu_scale: float = 1.0


class EngineXmark:
    """Closed loop, one client, in-process ``Engine.run``."""

    name = "engine-xmark"
    limit_s = inputs.ENGINE_LIMIT_S

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.document = inputs.make_document("xmark", inputs.ENGINE_ITEMS, inputs.CORPUS_SEED)

    def setup(self) -> Dict[str, Engine]:
        database = parser.parse_document(self.document.text)
        return {label: Engine(database, xpath) for label, xpath in QUERIES.items()}

    def close(self, state: Any) -> None:
        pass

    def measure(
        self, engines: Dict[str, Engine], seconds: float, tracer: Optional[Tracer],
        units: Optional[int] = None,
    ) -> Measured:
        records: List[Record] = []
        ids = count()
        n_passes = _pass_count(seconds, inputs.ENGINE_PASS_S, units)
        passes = inputs.engine_passes(self.seed, n_passes)
        track = SpeedTrack()
        intervals: List[Tuple[float, float]] = []
        start = time.perf_counter()
        for queries in passes:
            for query in queries:
                if tracer is not None:
                    tracer.query_id = next(ids)
                began = time.perf_counter()
                result = engines[query.label].run(query.k, algorithm=query.algorithm)
                latency = time.perf_counter() - began
                track.probe()
                intervals.append((began, began + latency))
                records.append(
                    Record(
                        query,
                        latency,
                        inputs.answer_key(result.answers),
                        failure="degraded" if result.degraded else None,
                        versions=(query.label,),
                    )
                )
        wall = time.perf_counter() - start
        for record, factor in zip(records, track.scales(intervals)):
            record.scale = factor
        return Measured(
            records, wall, len(passes), passes=_pass_times(records, len(passes[0])),
            cpu_scale=track.cpu_scale(),
        )

    def check(self, records: List[Record]) -> None:
        oracles = {label: oracle_scores(self.document.tree, x) for label, x in QUERIES.items()}
        for record in records:
            classify(record, oracles)

    def meta(self) -> Dict[str, Any]:
        return {
            "documents": inputs.document_summary([self.document]),
            "k": inputs.ENGINE_K,
            "algorithms": list(inputs.ALGORITHMS),
        }


class ClusterTwoShard:
    """Closed loop, one client, ``Coordinator(shards=2)``."""

    name = "cluster-2shard"
    limit_s = inputs.CLUSTER_LIMIT_S

    def __init__(self, seed: int, seconds: float) -> None:
        self.documents = [
            inputs.make_document(f"part{i}", inputs.CLUSTER_ITEMS, inputs.CORPUS_SEED + 100 + i)
            for i in range(inputs.CLUSTER_DOCUMENTS)
        ]
        self.seed = seed

    def setup(self) -> Any:
        from repro.cluster.coordinator import Coordinator

        database = parser.parse_forest([d.text for d in self.documents])
        return Coordinator(database, shards=inputs.CLUSTER_SHARDS)

    def close(self, coordinator: Any) -> None:
        coordinator.close()

    def measure(
        self, coordinator: Any, seconds: float, tracer: Optional[Tracer],
        units: Optional[int] = None,
    ) -> Measured:
        records: List[Record] = []
        rounds: List[int] = []
        skews: List[float] = []
        failovers = rebalances = 0
        ids = count()
        n_passes = _pass_count(seconds, inputs.CLUSTER_PASS_S, units)
        passes = inputs.cluster_passes(self.seed, n_passes)
        track = SpeedTrack()
        intervals: List[Tuple[float, float]] = []
        start = time.perf_counter()
        for queries in passes:
            for query in queries:
                if tracer is not None:
                    tracer.query_id = next(ids)
                began = time.perf_counter()
                result = coordinator.run_query(query.xpath, query.k, algorithm=query.algorithm)
                latency = time.perf_counter() - began
                track.probe()
                intervals.append((began, began + latency))
                failure = None
                if result.degraded or result.missing_shards:
                    failure = "degraded"
                records.append(
                    Record(
                        query,
                        latency,
                        inputs.answer_key(result.answers),
                        failure=failure,
                        versions=(query.label,),
                    )
                )
                rounds.append(result.rounds)
                failovers += result.failovers
                rebalances += result.rebalances
                ops = [row["operations"] for row in coordinator.health()["per_shard"].values()]
                mean = sum(ops) / len(ops)
                skews.append(max(ops) / mean if mean else 1.0)
        wall = time.perf_counter() - start
        for record, factor in zip(records, track.scales(intervals)):
            record.scale = factor
        facts = {
            "cluster.rounds": sum(rounds) / max(len(rounds), 1),
            "cluster.failovers": float(failovers),
            "cluster.rebalances": float(rebalances),
            "cluster.shard_ops_skew": sum(skews) / max(len(skews), 1),
        }
        return Measured(
            records, wall, len(passes), facts, passes=_pass_times(records, len(passes[0])),
            cpu_scale=track.cpu_scale(),
        )

    def check(self, records: List[Record]) -> None:
        forest = inputs.forest_tree(self.documents)
        oracles = {label: oracle_scores(forest, x) for label, x in QUERIES.items()}
        for record in records:
            classify(record, oracles)

    def meta(self) -> Dict[str, Any]:
        return {
            "documents": inputs.document_summary(self.documents),
            "shards": inputs.CLUSTER_SHARDS,
            "k": inputs.CLUSTER_K,
            "algorithms": ["whirlpool_s"],
        }


class ServiceOpen:
    """Open loop: seeded Poisson arrivals into ``WhirlpoolService``."""

    name = "service-open"
    limit_s = inputs.SERVICE_LIMIT_S
    open_loop = True
    block_s = inputs.SERVICE_BLOCK_S

    def __init__(self, seed: int, seconds: float) -> None:
        self.inputs = inputs.service_inputs(seed, seconds, self.block_s)
        _stamp_resolutions()

    def setup(self) -> Any:
        from repro.service.request import QueryRequest
        from repro.service.service import WhirlpoolService

        databases = {d.name: parser.parse_document(d.text) for d in self.inputs.documents}
        replacements = [parser.parse_document(d.text) for d in self.inputs.replacements]
        service = WhirlpoolService(databases, workers=inputs.SERVICE_WORKERS)
        # Warm the engine cache, one document at a time so the warm-up
        # never overflows the admission queue.
        for name in databases:
            tickets = [
                service.submit(QueryRequest(name, xpath, k=3)) for xpath in QUERIES.values()
            ]
            for ticket in tickets:
                ticket.result(timeout=60)
        return service, replacements

    def close(self, state: Any) -> None:
        state[0].drain()

    def measure(
        self, state: Any, seconds: float, tracer: Optional[Tracer],
        units: Optional[int] = None,
    ) -> Measured:
        from repro.service.request import Outcome, QueryRequest

        service, replacements = state
        # Oracle keys of each handle's versions, with registration times.
        history: Dict[str, List[Tuple[float, Any]]] = {
            d.name: [(-math.inf, ("initial", i))]
            for i, d in enumerate(self.inputs.documents)
        }
        sent: List[Tuple[inputs.Operation, float, float, Any]] = []
        late: List[float] = []
        # A closed loop probes the host after each operation, writes
        # included, and keeps each operation's time.  The open loop's
        # latencies are reported as timed: queue wait does not scale with
        # the host's speed.
        track = SpeedTrack()
        operations: List[Tuple[bool, float, float]] = []  # (read?, began, ended)
        start = time.perf_counter() + (0.05 if self.open_loop else 0.0)
        for op in self.inputs.operations:
            due = start + op.due
            wait = due - time.perf_counter()
            if self.open_loop and wait > 0:
                time.sleep(wait)
            now = time.perf_counter()
            if not self.open_loop:
                due = now
            late.append(max(now - due, 0.0))
            if op.replacement is not None:
                history[op.document].append((now, ("replacement", op.replacement)))
                service.register_document(op.document, replacements[op.replacement])
                if not self.open_loop:
                    operations.append((False, now, time.perf_counter()))
                    track.probe()
                continue
            query = op.query
            ticket = service.submit(
                QueryRequest(
                    op.document,
                    query.xpath,
                    k=query.k,
                    priority=op.priority,
                    algorithm=query.algorithm,
                )
            )
            sent.append((op, due, now, ticket))
            if self.open_loop:
                continue
            ticket.result(timeout=120)
            operations.append((True, now, time.perf_counter()))
            track.probe()
        factors = track.scales([(began, ended) for _, began, ended in operations])
        scales = [f for (read, _, _), f in zip(operations, factors) if read]
        if self.open_loop:
            scales = [1.0] * len(sent)
        # (reads, seconds, scaled seconds) of each whole block, writes
        # included.
        passes: List[Tuple[int, float, float]] = []
        reads, took, scaled = 0, 0.0, 0.0
        for (read, began, ended), factor in zip(operations, factors):
            reads += read
            took += ended - began
            scaled += (ended - began) * factor
            if reads == self.inputs.block_reads:
                passes.append((reads, took, scaled))
                reads, took, scaled = 0, 0.0, 0.0
        records: List[Record] = []
        queue_waits: List[float] = []
        runs: List[float] = []
        refused = fallbacks = 0
        finished = start
        for (op, due, submitted, ticket), scale in zip(sent, scales):
            response = ticket.result(timeout=120)
            resolved = ticket.resolved_at
            finished = max(finished, resolved)
            versions = tuple(
                key
                for index, (registered, key) in enumerate(history[op.document])
                if registered <= resolved
                and (
                    index + 1 == len(history[op.document])
                    or history[op.document][index + 1][0] > submitted
                )
            )
            older = tuple(
                key for registered, key in history[op.document] if key not in versions
            )
            failure = None
            answers = None
            if response.outcome in (Outcome.REJECTED, Outcome.SHED):
                refused += 1
                failure = response.outcome.value
            elif response.outcome is Outcome.FAILED:
                failure = "error"
            else:
                answers = inputs.answer_key(response.result.answers)
                runs.append(response.result.stats.wall_time_seconds)
                if response.outcome is Outcome.DEGRADED:
                    failure = "degraded"
            if response.fallback_from is not None:
                fallbacks += 1
            queue_waits.append(response.queue_wait_seconds)
            records.append(
                Record(
                    op.query,
                    resolved - due,
                    answers,
                    failure=failure,
                    versions=versions,
                    older=older,
                    scale=scale,
                )
            )
        wait_tail = layers.tail(queue_waits)
        facts = {
            "service.queue_wait_p50_s": layers.percentile(queue_waits, 50),
            "service.queue_wait_tail_s": wait_tail["value"],
            "service.run_p50_s": layers.percentile(runs, 50),
            "service.refused": float(refused),
            "service.fallbacks": float(fallbacks),
            "loadgen.late_p95_s": layers.percentile(late, 95),
        }
        meta = {
            "late_p95_s": facts["loadgen.late_p95_s"],
            "late_max_s": max(late, default=0.0),
            "writes": len(self.inputs.replacements),
        }
        return Measured(
            records, finished - start, len(sent), facts, meta, passes,
            1.0 if self.open_loop else track.cpu_scale(),
        )

    def check(self, records: List[Record]) -> None:
        trees = {("initial", i): d.tree for i, d in enumerate(self.inputs.documents)}
        trees.update(
            {("replacement", i): d.tree for i, d in enumerate(self.inputs.replacements)}
        )
        oracles: Dict[Any, Dict[Any, Any]] = {}

        def oracle(version: Any, label: str) -> Any:
            if (version, label) not in oracles:
                oracles[version, label] = oracle_scores(trees[version], QUERIES[label])
            return oracles[version, label]

        for record in records:
            label = record.query.label
            classify(
                record,
                {v: oracle(v, label) for v in record.versions + record.older},
            )

    def meta(self) -> Dict[str, Any]:
        return {
            "documents": inputs.document_summary(self.inputs.documents),
            "replacement_documents": inputs.document_summary(self.inputs.replacements),
            "offered_rate_per_s": inputs.SERVICE_RATE_PER_S if self.open_loop else None,
            "operations": len(self.inputs.operations),
            "write_every": inputs.SERVICE_WRITE_EVERY,
            "workers": inputs.SERVICE_WORKERS,
            "k_values": list(inputs.SERVICE_K_VALUES),
            "algorithm_weights": dict(inputs.SERVICE_ALGORITHM_WEIGHTS),
        }


class ServiceClosed(ServiceOpen):
    """Closed loop, one client: the ``service-open`` operations, each
    submitted when the one before it has been answered (latency from
    submission).  The same service, documents, mix and writes, without
    the idle gaps and overlaps that make open-loop latency follow the
    host's changes of speed."""

    name = "service-closed"
    open_loop = False
    block_s = inputs.SERVICE_CLOSED_BLOCK_S


def _pass_count(seconds: float, pass_s: float, units: Optional[int]) -> int:
    """Closed loops run a set number of whole passes, so each run does
    the same work: ``units`` when given, else as many nominal passes as
    fit ``seconds`` (one at least)."""
    return units if units is not None else max(1, round(seconds / pass_s))


def _pass_times(records: List[Record], size: int) -> List[Tuple[int, float, float]]:
    """(queries, seconds, scaled seconds) of each whole pass of ``size``
    consecutive records."""
    return [
        (
            size,
            sum(r.latency for r in records[i:i + size]),
            sum(r.latency * r.scale for r in records[i:i + size]),
        )
        for i in range(0, len(records) - size + 1, size)
    ]


def _stamp_resolutions() -> None:
    """Stamp each ticket with the time of its winning ``resolve``: the
    completion time of an open-loop request."""
    from repro.service.request import Ticket

    original = Ticket.resolve
    if getattr(original, "stamps", False):
        return

    def resolve(ticket: Any, response: Any) -> bool:
        # Stamped before the original wakes the waiting client; only the
        # first call stamps, as only the first resolves.
        ticket.__dict__.setdefault("resolved_at", time.perf_counter())
        return original(ticket, response)

    resolve.stamps = True  # type: ignore[attr-defined]
    Ticket.resolve = resolve  # type: ignore[method-assign]


def classify(record: Record, oracles: Dict[Any, Dict[Any, float]]) -> None:
    """exact: matches the oracle of a version it may come from; stale:
    matches only an older version; wrong: matches none.  Refused,
    errored and degraded requests keep their failure as status."""
    if record.failure is not None:
        record.status = record.failure
        return
    k = record.query.k
    for version in record.versions:
        if mismatch(record.answers, oracles[version], k) is None:
            record.status = EXACT
            return
    for version in record.older:
        if mismatch(record.answers, oracles[version], k) is None:
            record.status = "stale"
            return
    record.status = "wrong"
    record.failure = mismatch(record.answers, oracles[record.versions[-1]], k)


WORKLOADS = {w.name: w for w in (EngineXmark, ServiceOpen, ServiceClosed, ClusterTwoShard)}
