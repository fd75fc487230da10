"""Which public functions the traced run wraps, and the per-layer
metrics computed from their spans.

Each metric is named ``<module>.<metric>`` after the layer it measures.
Metrics with a ``/query`` unit are per attempted query, so runs of
different length compare.  ``*_s`` times are self times (a span minus
its same-thread children), except ``cluster.bootstrap_s`` and
``cluster.step_wait_s``, which are whole spans because their work
happens in the shard processes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from tracer import Tracer

#: (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("topk.threshold_calls", "count/query"),
    ("topk.threshold_s", "s/query"),
    ("topk.entries_scanned", "count/query"),
    ("topk.observe_calls", "count/query"),
    ("router.choose_calls", "count/query"),
    ("router.choose_s", "s/query"),
    ("server.candidate_counts_calls", "count/query"),
    ("server.process_calls", "count/query"),
    ("server.process_s", "s/query"),
    ("engine.join_comparisons", "count/query"),
    ("xmldb.related_calls", "count/query"),
    ("xmldb.related_s", "s/query"),
    ("xmldb.related_per_op", "ratio"),
    ("queues.ops", "count/query"),
    ("queues.s", "s/query"),
    ("queues.wait_s", "s/query"),
    ("engine.server_ops", "count/query"),
    ("engine.created", "count/query"),
    ("engine.pruned_frac", "fraction"),
    ("engine.run_s", "s/query"),
    ("xmldb.parse_s", "s"),
    ("engine.build_s", "s"),
    ("engine.builds", "count"),
    ("service.queue_wait_p50_s", "s"),
    ("service.queue_wait_tail_s", "s"),
    ("service.run_p50_s", "s"),
    ("service.queue_depth_max", "count"),
    ("service.refused", "count"),
    ("service.fallbacks", "count"),
    ("service.writes", "count"),
    ("recovery.checkpoints", "count/query"),
    ("recovery.checkpoint_bytes", "bytes/query"),
    ("recovery.save_s", "s/query"),
    ("cluster.spawns", "count/query"),
    ("cluster.bootstrap_s", "s/query"),
    ("cluster.rounds", "count/query"),
    ("cluster.step_wait_s", "s/query"),
    ("cluster.frame_bytes", "bytes/query"),
    ("cluster.merge_s", "s/query"),
    ("cluster.failovers", "count"),
    ("cluster.rebalances", "count"),
    ("cluster.shard_ops_skew", "ratio"),
    ("loadgen.late_p95_s", "s"),
    ("bench.trace_overhead_frac", "fraction"),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary (restored by ``tracer.close()``)."""
    from repro.cluster import coordinator, net, protocol
    from repro.core import engine, queues, router, server, topk
    from repro.recovery import generations
    from repro.service import queue as admission
    from repro.service import service
    from repro.xmldb import index, parser

    add = tracer.add
    tracer.link_threads()

    # core.topk: the pruning threshold and the per-root score table.
    tracer.wrap(
        topk.TopKSet,
        "threshold",
        "topk.threshold",
        before=lambda a, kw: add("topk.entries_scanned", a[0].entry_count()),
    )
    tracer.wrap(topk.TopKSet, "is_pruned", "topk.is_pruned")
    tracer.wrap(topk.TopKSet, "observe", "topk.observe")

    # core.router: every strategy that defines its own choose().
    strategies = [router.RoutingStrategy]
    while strategies:
        cls = strategies.pop()
        strategies.extend(cls.__subclasses__())
        if "choose" in cls.__dict__:
            tracer.wrap(cls, "choose", "router.choose")

    # core.server and the xmldb index probes underneath it.
    tracer.wrap(server.Server, "candidate_counts", "server.candidate_counts")
    tracer.wrap(server.Server, "process", "server.process")
    tracer.wrap(index.DatabaseIndex, "related", "xmldb.related")

    # core.queues.
    for method in ("put", "get", "get_nowait"):
        tracer.wrap(queues.MatchQueue, method, f"queues.{method}")

    # The engine facade: builds, runs and their ExecutionStats.
    def run_stats(args: tuple, kwargs: dict, result: Any) -> None:
        stats = result.stats
        add("engine.server_ops", stats.server_operations)
        add("engine.created", stats.partial_matches_created)
        add("engine.pruned", stats.partial_matches_pruned)
        add("engine.join_comparisons", stats.join_comparisons)

    tracer.wrap(engine.Engine, "__init__", "engine.init")
    tracer.wrap(engine.Engine, "run", "engine.run", after=run_stats)
    tracer.wrap(parser, "parse_document", "xmldb.parse")
    tracer.wrap(parser, "parse_forest", "xmldb.parse")

    # service: admission, worker take (which names the request the
    # worker thread now serves), document writes.
    tracer.wrap(
        admission.AdmissionQueue,
        "offer",
        "service.offer",
        after=lambda a, kw, r: tracer.sample("service.depth", a[0].depth()),
    )

    def took(args: tuple, kwargs: dict, entry: Any) -> None:
        if entry is not None:
            tracer.set_thread_query(entry.ticket.request_id)

    tracer.wrap(admission.AdmissionQueue, "take", "service.take", after=took)
    tracer.wrap(service.WhirlpoolService, "register_document", "service.register_document")

    # recovery: checkpoint generations the coordinator stores.
    tracer.wrap(
        generations.CheckpointGenerations,
        "save",
        "recovery.save",
        before=lambda a, kw: add(
            "recovery.checkpoint_bytes", len(json.dumps(a[2], separators=(",", ":")))
        ),
    )

    # cluster: worker lifecycle, RPCs, frames and the merge.
    handle = coordinator.ShardHandle
    tracer.wrap(handle, "spawn", "cluster.spawn")
    tracer.wrap(
        handle,
        "rpc",
        "cluster.rpc",
        name_of=lambda a, kw: "cluster.rpc." + str(a[1] if len(a) > 1 else kw.get("op")),
    )
    tracer.wrap(handle, "post", "cluster.post")
    tracer.wrap(handle, "finish", "cluster.finish")
    tracer.wrap(
        net,
        "encode_frame",
        "cluster.encode_frame",
        after=lambda a, kw, r: add("cluster.frame_bytes", len(r)),
    )
    tracer.wrap(
        protocol,
        "decode_body",
        "cluster.decode_frame",
        before=lambda a, kw: add("cluster.frame_bytes", len(a[0])),
    )
    tracer.wrap(coordinator, "merge_answers", "cluster.merge_answers")
    tracer.wrap(coordinator, "kth_score", "cluster.kth_score")
    tracer.wrap(coordinator.Coordinator, "run_query", "cluster.run_query")


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: List[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest value, or the median when that lies below it."""
    ordered = sorted(values)
    n = len(ordered)
    if n - 11 < (n - 1) / 2:
        return {"value": percentile(ordered, 50), "percentile": 50.0, "samples": n}
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def per_layer(tracer: Tracer, queries: int, facts: Dict[str, float]) -> Dict[str, float]:
    """Every PER_LAYER metric; ``facts`` supplies the ones the workload
    measures itself (service responses, cluster results, the generator,
    the trace overhead)."""
    per_query = 1.0 / max(queries, 1)
    calls, self_s, count = tracer.calls, tracer.self_seconds, tracer.count
    server_ops = count("engine.server_ops")
    created = count("engine.created")
    step_wait = sum(
        duration
        for duration, parent in tracer.spans("cluster.finish")
        if parent is None or not parent.startswith("cluster.rpc.")
    )
    bootstrap = sum(
        duration
        for name in ("cluster.spawn", "cluster.rpc.init", "cluster.rpc.begin")
        for duration, _ in tracer.spans(name)
    )
    metrics = {
        "topk.threshold_calls": calls("topk.threshold") * per_query,
        "topk.threshold_s": (self_s("topk.threshold") + self_s("topk.is_pruned")) * per_query,
        "topk.entries_scanned": count("topk.entries_scanned") * per_query,
        "topk.observe_calls": calls("topk.observe") * per_query,
        "router.choose_calls": calls("router.choose") * per_query,
        # The router's estimate probes are its cost, not the server op's.
        "router.choose_s": (self_s("router.choose") + self_s("server.candidate_counts"))
        * per_query,
        "server.candidate_counts_calls": calls("server.candidate_counts") * per_query,
        "server.process_calls": calls("server.process") * per_query,
        "server.process_s": self_s("server.process") * per_query,
        "engine.join_comparisons": count("engine.join_comparisons") * per_query,
        "xmldb.related_calls": calls("xmldb.related") * per_query,
        "xmldb.related_s": self_s("xmldb.related") * per_query,
        "xmldb.related_per_op": calls("xmldb.related") / server_ops if server_ops else 0.0,
        "queues.ops": sum(calls(f"queues.{m}") for m in ("put", "get", "get_nowait"))
        * per_query,
        "queues.s": (self_s("queues.put") + self_s("queues.get_nowait")) * per_query,
        "queues.wait_s": self_s("queues.get") * per_query,
        "engine.server_ops": server_ops * per_query,
        "engine.created": created * per_query,
        "engine.pruned_frac": count("engine.pruned") / created if created else 0.0,
        "engine.run_s": self_s("engine.run") * per_query,
        "xmldb.parse_s": self_s("xmldb.parse"),
        "engine.build_s": self_s("engine.init"),
        "engine.builds": float(calls("engine.init")),
        "service.queue_depth_max": max(tracer.samples("service.depth"), default=0.0),
        "service.writes": float(calls("service.register_document")),
        "recovery.checkpoints": calls("recovery.save") * per_query,
        "recovery.checkpoint_bytes": count("recovery.checkpoint_bytes") * per_query,
        "recovery.save_s": self_s("recovery.save") * per_query,
        "cluster.spawns": calls("cluster.spawn") * per_query,
        "cluster.bootstrap_s": bootstrap * per_query,
        "cluster.step_wait_s": step_wait * per_query,
        "cluster.frame_bytes": count("cluster.frame_bytes") * per_query,
        "cluster.merge_s": (self_s("cluster.merge_answers") + self_s("cluster.kth_score"))
        * per_query,
    }
    metrics.update(facts)
    for name, _ in PER_LAYER:
        metrics.setdefault(name, 0.0)
    return {name: metrics[name] for name, _ in PER_LAYER}


#: Spans that mostly wait rather than work: Whirlpool-M's server threads
#: blocked on an empty queue, idle service workers, and the coordinator
#: waiting for shard replies.  They are kept out of the self-time ranking.
WAITS = ("queues.get", "service.take", "cluster.finish")


def self_time_table(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Self seconds per layer (waits excluded), per span name, and of
    the waiting spans, each largest first (for the metadata)."""
    spans = {name: tracer.self_seconds(name) for name in tracer.names}
    layers: Dict[str, float] = {}
    for name, seconds in spans.items():
        if name not in WAITS:
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds

    def ranked(table: Dict[str, float]) -> Dict[str, float]:
        return dict(sorted(table.items(), key=lambda item: -item[1]))

    return {
        "by_layer": ranked(layers),
        "by_span": ranked({n: v for n, v in spans.items() if n not in WAITS}),
        "waits": ranked({n: v for n, v in spans.items() if n in WAITS}),
    }
