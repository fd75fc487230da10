"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload engine-xmark --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run (the
run first repeats the workload untraced for half the time, then traced
on the same inputs, and reports the tracing overhead between the two).
The line before it is the run's metadata.  Both, and the spans of a
traced run, are also written under ``.perfbench_out/``.  Closed-loop
and set-up times are scaled to a reference host speed (hostspeed.py);
the metadata holds the end-to-end metrics unscaled too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import SpeedTrack

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Set-up repeats of an untraced run: at least SETUP_MIN_REPEATS and
#: until SETUP_BUDGET_S has passed, once before the measured loop and
#: once after it; ``setup_s`` is the median of all of them.  Splitting
#: them round the loop samples the machine at two moments half a minute
#: apart, which steadies the median against short spells of slowness.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_BUDGET_S = 1.5
#: An open-loop run whose generator is later than this at p95 did not
#: offer the load it claims: it is marked invalid.
LATE_LIMIT_S = 0.05

END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("exact_frac", "fraction"),
    ("cpu_per_query_s", "s"),
    ("peak_rss_mb", "MB"),
    ("slo_met_frac", "fraction"),
)


def cpu_seconds() -> float:
    """CPU of this process plus its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def timed_setups(
    workload: Any, repeats: int, budget_s: float = 0.0
) -> Tuple[Any, List[Tuple[float, float]]]:
    """Set up at least ``repeats`` times and until ``budget_s`` has
    passed (at most SETUP_MAX_REPEATS); return the last set-up and the
    time of each, as timed and scaled to the reference host speed."""
    intervals: List[Tuple[float, float]] = []
    state = None
    track = SpeedTrack()
    began_all = time.perf_counter()
    while len(intervals) < repeats or (
        time.perf_counter() - began_all < budget_s and len(intervals) < SETUP_MAX_REPEATS
    ):
        if state is not None:
            workload.close(state)
            state = None
        gc.collect()
        track.probe()
        began = time.perf_counter()
        state = workload.setup()
        intervals.append((began, time.perf_counter()))
        track.probe()
    setups = [
        (ended - began, (ended - began) * factor)
        for (began, ended), factor in zip(intervals, track.scales(intervals))
    ]
    return state, setups


def phase(workload: Any, seconds: float, tracer: Any = None, units: Optional[int] = None) -> Any:
    """Set up, measure on the last set-up and close.  An untraced phase
    (no ``tracer``) repeats its set-up before and after the loop."""
    repeats, budget = (1, 0.0) if tracer is not None else (SETUP_MIN_REPEATS, SETUP_BUDGET_S)
    state, setups = timed_setups(workload, repeats, budget)
    cpu_before = cpu_seconds()
    measured = workload.measure(state, seconds, tracer, units)
    workload.close(state)
    measured.meta["cpu_s"] = cpu_seconds() - cpu_before
    measured.meta["peak_rss_mb"] = peak_rss_mb()
    if tracer is None:
        state, after = timed_setups(workload, repeats, budget)
        workload.close(state)
        setups += after
    measured.meta["setup_s"] = setups
    return measured


def end_to_end(measured: Any, limit_s: float, scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics; times scaled to the reference host speed
    (hostspeed.py) unless ``scaled`` is false."""
    import layers
    from workloads import EXACT

    records = measured.records
    attempted = max(len(records), 1)

    def seconds(record: Any) -> float:
        return record.latency * record.scale if scaled else record.latency

    exact = [r for r in records if r.status == EXACT]
    latencies = [seconds(r) for r in records if r.answers is not None]
    tail = layers.tail(latencies)
    measured.meta["latency_tail"] = {k: v for k, v in tail.items() if k != "value"}
    # A closed loop's throughput is its exact share times the median
    # pass's rate, so a stall of the host confined to one pass does not
    # move it; an open loop's rate is set by its schedule.
    if measured.passes:
        rates = [n / (scaled_s if scaled else s) for n, s, scaled_s in measured.passes]
        rate = len(exact) / attempted * statistics.median(rates)
    else:
        rate = len(exact) / measured.wall_s
    setups = [scaled_s if scaled else s for s, scaled_s in measured.meta["setup_s"]]
    return {
        "setup_s": statistics.median(setups),
        "queries_per_s": rate,
        "latency_p50_s": layers.percentile(latencies, 50),
        "latency_tail_s": tail["value"],
        "exact_frac": len(exact) / attempted,
        "cpu_per_query_s": measured.meta["cpu_s"] / attempted
        * (measured.cpu_scale if scaled else 1.0),
        "peak_rss_mb": measured.meta["peak_rss_mb"],
        "slo_met_frac": sum(1 for r in exact if seconds(r) <= limit_s) / attempted,
    }


def source_version() -> Dict[str, Optional[str]]:
    """The git commit when there is one, and a digest of ``src/``."""
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds / 2 if args.trace else args.seconds
    workload = WORKLOADS[args.workload](args.seed, seconds)

    meta: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "latency_limit_s": workload.limit_s,
        "offered_rate_per_s": None,
        "shards": None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **source_version(),
        **workload.meta(),
    }
    untraced = phase(workload, seconds)
    phases = [untraced]
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = phase(workload, seconds, tracer, units=untraced.units)
        finally:
            tracer.close()
        phases.append(traced)
    for measured in phases:
        workload.check(measured.records)

    records = [r for measured in phases for r in measured.records]
    statuses = Counter(r.status for r in records)
    failures = Counter(r.failure for r in records if r.status == "wrong")
    late = max(m.facts.get("loadgen.late_p95_s", 0.0) for m in phases)
    valid = late <= LATE_LIMIT_S
    if args.trace:
        per_query = [m.meta["cpu_s"] / max(len(m.records), 1) for m in phases]
        facts = dict(traced.facts)
        facts["bench.trace_overhead_frac"] = per_query[1] / per_query[0] - 1.0
        values = layers.per_layer(tracer, len(traced.records), facts)
        units = dict(layers.PER_LAYER)
        meta["self_time_s"] = layers.self_time_table(tracer)
        meta["spans"] = tracer.span_count()
        meta["spans_file"] = os.path.relpath(
            tracer.write(OUT, f"spans-{args.workload}-seed{args.seed}"), ROOT
        )
    else:
        values = end_to_end(untraced, workload.limit_s)
        meta["unscaled_metrics"] = end_to_end(untraced, workload.limit_s, scaled=False)
        units = dict(END_TO_END)
    meta.update(
        statuses=dict(statuses),
        wrong_answers=dict(failures),
        valid=valid,
        phases=[{"wall_s": m.wall_s, "units": m.units, "queries": len(m.records),
                 "passes": m.passes, "cpu_scale": m.cpu_scale, **m.meta}
                for m in phases],
    )
    if not valid:
        print(f"run invalid: the generator ran {late:.3f}s late at p95", file=sys.stderr)
    if statuses.get("wrong"):
        print(f"{statuses['wrong']} answers differ from the oracle: {dict(failures)}",
              file=sys.stderr)

    result = {
        "correct": valid and not statuses.get("wrong"),
        "attempted": len(records),
        "failed": len(records) - statuses.get("exact", 0),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w") as out:
        json.dump({"metadata": meta, "result": result}, out, indent=1)
    print(json.dumps({"metadata": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
