"""One workload process: set up, then run a closed-loop pass over the queries.

Started by ``run.py`` in a fresh interpreter, so that its set-up is what a
command-line user pays: starting Python, importing kacoh and building
every spec the workload uses.  Set-up is timed from ``--spawned-at``, the
parent's ``perf_counter()`` just before it started this process (on Linux
both read the same monotonic clock).  When it ends the worker prints one
JSON line with its measurements.

The loop is closed with one client: each query is sent only after the
previous answer has returned and been checked.  A pass runs every query
once, in an order drawn from the seed, so every seed does the same work.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from time import perf_counter

import hostspeed
import spans
import workloads


def set_up(name: str, spawned_at: float):
    """Import kacoh and build the specs; time each stage between speed probes."""
    clock = hostspeed.SegmentClock(spawned_at)
    kacoh = workloads.import_kacoh()
    import_s = clock.split()
    data = workloads.load(name)
    specs = {}
    build_s = 0.0
    for key, entry in data["specs"].items():
        started = perf_counter()
        specs[key] = workloads.build_spec(kacoh, entry)
        build_s += perf_counter() - started
        clock.split(at_least=0.02)
    queries = workloads.prepare(kacoh, data, specs)
    clock.split()
    timing = {
        "wall_s": clock.wall,
        "scaled_s": clock.scaled,
        "start_and_import_s": import_s,
        "spec_build_s": build_s,
    }
    return kacoh, queries, timing


def order_for(seed: int, size: int) -> list:
    """The seed's query order: a permutation that interleaves the specs."""
    order = list(range(size))
    random.Random(seed).shuffle(order)
    return order


def run_pass(kacoh, queries, order, tracer=None):
    """One closed-loop pass; returns (wall seconds, latencies, scaled, failures).

    ``latencies`` maps each query index that succeeded to its seconds, and
    ``scaled`` to those seconds at reference host speed, by the mean of the
    speed probes run just before and just after the query.
    """
    latencies = {}
    scaled = {}
    failures = []
    started = perf_counter()
    before = hostspeed.probe()
    for i in order:
        q = queries[i]
        t0 = perf_counter()
        try:
            if tracer is None:
                result, text = workloads.execute(kacoh, q)
            else:
                result, text = tracer.run_query(q.qid, lambda: workloads.execute(kacoh, q))
            latency = perf_counter() - t0
            reason = workloads.check(q, result, text)
        except Exception as exc:  # a failed query is counted, not fatal
            reason = f"{type(exc).__name__}: {exc}"
        after = hostspeed.probe()
        if reason is None:
            latencies[i] = latency
            scaled[i] = hostspeed.scale(latency, (before + after) / 2)
        else:
            failures.append(f"{q.qid}: {reason}")
        before = after
    return perf_counter() - started, latencies, scaled, failures


def measure(kacoh, queries, seed) -> dict:
    """One pass in the seed's order; latencies are listed by query index."""
    wall, lat, scaled, failures = run_pass(kacoh, queries, order_for(seed, len(queries)))
    return {
        "pass_s": wall,
        "latencies_s": [lat.get(i) for i in range(len(queries))],
        "scaled_latencies_s": [scaled.get(i) for i in range(len(queries))],
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(kacoh, queries, seed, spans_path) -> dict:
    """An untraced and then a traced pass, both in the seed's order.

    Layer times, like the overhead, are at reference host speed: each span
    is scaled by the factor its query's latency was scaled by.
    """
    order = order_for(seed, len(queries))
    _, _, plain, failures = run_pass(kacoh, queries, order)
    tracer = spans.Tracer()
    tracer.install(kacoh)
    try:
        _, raw, traced, fail = run_pass(kacoh, queries, order, tracer)
    finally:
        tracer.uninstall()
    failures += fail
    if spans_path:
        tracer.write(spans_path)
    speed = {queries[i].qid: traced[i] / raw[i] for i in traced}
    table = spans.summarize(tracer.spans, speed)
    metrics = spans.layer_metrics(table)
    metrics["trace.overhead_frac"] = sum(traced.values()) / sum(plain.values()) - 1
    return {"failures": failures, "layers": table, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--mode", required=True, choices=("setup", "pass", "trace"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", help="trace mode: write the spans here (gzip JSON)")
    args = parser.parse_args()

    kacoh, queries, timing = set_up(args.workload, args.spawned_at)
    out = {"setup": timing}
    if args.mode == "pass":
        out.update(measure(kacoh, queries, args.seed))
    elif args.mode == "trace":
        out.update(trace(kacoh, queries, args.seed, args.spans))
    out["queries"] = len(queries)
    out["specs"] = len({q.spec_key for q in queries})
    out["kernel"] = kacoh._orbit.active_kernel()[0]
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    sys.exit(main())
