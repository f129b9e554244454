"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


@pytest.fixture(scope="module")
def kacoh():
    return workloads.import_kacoh()


def test_beta_cdf_known_values():
    assert run.beta_cdf(2, 3, 0.4) == pytest.approx(0.5248, abs=1e-12)
    assert run.beta_cdf(1, 1, 0.3) == pytest.approx(0.3, abs=1e-12)
    assert run.beta_cdf(50.5, 50.5, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert run.beta_cdf(3, 2, 0.0) == 0.0 and run.beta_cdf(3, 2, 1.0) == 1.0


def test_percentile_is_harrell_davis():
    # Symmetric samples: the median estimate is the centre.
    assert run.percentile(list(range(10, 0, -1)), 50) == pytest.approx(5.5)
    assert run.percentile([7.5], 90) == 7.5
    # On 1..100 the p90 estimate sits between the 90th and 91st samples.
    assert 90 < run.percentile(list(range(1, 101)), 90) < 91
    # Order statistics far from the percentile carry almost no weight.
    samples = [1.0] * 50 + [2.0] * 50
    assert run.percentile(samples + [1e9], 10) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_pooled_latencies_drop_failed_queries():
    passes = [
        {"scaled_latencies_s": [0.3, 0.2, None]},
        {"scaled_latencies_s": [0.1, None, 0.5]},
    ]
    assert run.pooled(passes) == [0.3, 0.2, 0.1, 0.5]


def test_segment_clock_scales_each_stage(monkeypatch):
    probes = iter([0.002, 0.004])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    now = iter([10.0, 10.1, 10.1, 10.4, 10.4])
    monkeypatch.setattr(hostspeed, "perf_counter", lambda: next(now))
    clock = hostspeed.SegmentClock(started=9.9)
    assert clock.split(at_least=0.5) == 0.0        # too short: stage continues
    assert clock.split() == pytest.approx(0.2)     # 9.9 .. 10.1, probe 2 ms
    assert clock.split() == pytest.approx(0.3)     # 10.1 .. 10.4, probes 2 and 4 ms
    assert clock.wall == pytest.approx(0.5)
    assert clock.scaled == pytest.approx(0.2 * 0.001 / 0.002 + 0.3 * 0.001 / 0.003)


def _span(name, start, end, parent, count=0, count2=0):
    return [name, float(start), float(end), parent, "q", count, count2]


def test_self_time_subtracts_nested_children():
    trace = [
        _span("query", 0, 10, -1),
        _span("a", 1, 4, 0),
        _span("b", 2, 3, 1),       # grandchild: counts against a, not the root
        _span("c", 5, 6, 0),
        _span("c", 6, 8, 0),
    ]
    assert spans.self_times(trace) == [10 - 3 - 1 - 2, 3 - 1, 1, 1, 2]
    table = spans.summarize(trace)
    assert table["c"] == {"calls": 2, "count": 0, "count2": 0, "busy_s": 3.0, "self_s": 3.0}
    # Self times of every span add up to the root's duration.
    assert sum(row["self_s"] for row in table.values()) == table["query"]["busy_s"]


def test_self_time_clips_overlapping_children():
    trace = [
        _span("query", 0, 10, -1),
        _span("a", 2, 6, 0),
        _span("a", 4, 7, 0),       # overlaps its sibling: covered once
        _span("a", 9, 12, 0),      # runs past its parent: clipped at 10
    ]
    assert spans.self_times(trace)[0] == 10 - 5 - 1


def test_layer_metrics_and_accounting():
    trace = [
        _span("query", 0, 10, -1),
        _span("cohomology.h1_inner_form", 0, 8, 0, count=3),
        _span("labelings.enumerate_Kn", 0, 1, 1, count=40),
        _span("labelings.filter", 1, 3, 1, count=40, count2=10),
        _span("diagram.build", 3, 4, 1),
        _span("query", 10, 20, -1),
        _span("cohomology.h1_inner_form", 10, 18, 5, count=3),
    ]
    m = spans.layer_metrics(spans.summarize(trace))
    assert m["cohomology.witnesses"] == 6
    assert m["labelings.enumerated"] == 40
    assert m["labelings.kept"] == 10
    assert m["labelings.kept_ratio"] == 0.25
    assert m["diagram.builds"] == 1
    assert m["cohomology.self_s"] == 4 + 8
    assert m["trace.query_s"] == 20
    assert m["trace.uncovered_s"] == 4
    assert m["trace.accounted_frac"] == 1


def test_summarize_scales_spans_by_their_query_speed():
    trace = [
        ["query", 0.0, 10.0, -1, "fast", 0, 0],
        ["a", 2.0, 6.0, 0, "fast", 0, 0],
        ["query", 10.0, 20.0, -1, "slow", 0, 0],
    ]
    table = spans.summarize(trace, {"slow": 0.5})
    assert table["query"]["busy_s"] == 10 + 5
    assert table["query"]["self_s"] == 6 + 5
    assert table["a"]["busy_s"] == 4


def test_tracer_records_parents_and_restores_attributes(kacoh):
    originals = {}
    for module, attr, _ in spans.WRAPPED:
        owner = getattr(kacoh, module)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        originals[(module, attr)] = (owner, vars(owner)[attr])

    tracer = spans.Tracer()
    tracer.install(kacoh)
    try:
        spec = kacoh.preset_spec("sc:A2")
        z = kacoh.lattice.enumerate_center(spec)[1]
        tracer.run_query("q1", lambda: kacoh.cohomology.nth_root_classes(spec, z, 3))
    finally:
        tracer.uninstall()
    for (module, attr), (owner, fn) in originals.items():
        assert vars(owner)[attr] is fn, (module, attr)

    names = [s[0] for s in tracer.spans]
    assert names[0] == "query" and tracer.spans[0][3] == -1
    assert all(s[4] == "q1" for s in tracer.spans)
    roots = names.index("cohomology.nth_root_classes")
    assert tracer.spans[roots][3] == 0
    for name in ("lattice.check_central", "oracle.build_coweight_lattice",
                 "labelings.enumerate_Kn", "labelings.filter",
                 "labelings.orbit_decompose", "cohomology.phi"):
        rec = tracer.spans[names.index(name)]
        assert rec[3] == roots, name
    reduce = tracer.spans[names.index("exactalg.reduce_mod_basis")]
    assert tracer.spans[reduce[3]][0] in ("oracle.build_coweight_lattice", "cohomology.phi")


def _cheapest(kacoh, name, count):
    data = workloads.load(name)
    specs = {k: workloads.build_spec(kacoh, e) for k, e in data["specs"].items()}
    queries = workloads.prepare(kacoh, data, specs)
    return sorted(queries, key=lambda q: q.spec.total_rank)[:count]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_pass_matches_recorded_digests(kacoh, name):
    queries = _cheapest(kacoh, name, 12)
    wall, latencies, scaled, failures = worker.run_pass(kacoh, queries, range(len(queries)))
    assert failures == []
    assert len(latencies) == len(scaled) == len(queries) and wall > 0


def test_smoke_pass_counts_a_wrong_answer(kacoh):
    queries = _cheapest(kacoh, "h1_twists", 3)
    queries[1].sha256 = "0" * 64
    _, latencies, _, failures = worker.run_pass(kacoh, queries, range(3))
    assert sorted(latencies) == [0, 2]
    assert failures == [f"{queries[1].qid}: document differs from the recorded digest"]


def test_workload_shape():
    sizes = {}
    for name in workloads.WORKLOADS:
        data = workloads.load(name)
        ids = [q["id"] for q in data["queries"]]
        assert len(set(ids)) == len(ids)
        assert all(len(q["sha256"]) == 64 for q in data["queries"])
        sizes[name] = (len(ids), len(data["specs"]))
    assert sizes == {
        "h1_twists": (467, 10),
        "roots_highrank": (138, 9),
        "oracle_sweep": (614, 87),
    }
    # All 16 subgroups of X/Q for A1xA1xA1 are frozen, not the 15 found by
    # all_intermediate_specs.
    oracle = workloads.load("oracle_sweep")["specs"]
    assert sum(key.startswith("A1xA1xA1/") for key in oracle) == 16


def test_paper_class_counts():
    def rec(spec, twist):
        return {"kind": "h1", "spec": spec, "twist": twist}

    assert workloads.paper_class_count(rec("sc:E7", [0] * 7 + [2])) == 4
    d12 = [0] * 12
    assert workloads.paper_class_count(rec("halfspin:D12", d12 + [2])) == 6 // 2 + 4
    assert workloads.paper_class_count(rec("halfspin:D12", [1] + d12[1:] + [1])) == 7 // 2 + 1
    assert workloads.paper_class_count(rec("so:D16", [0] * 16 + [2])) == 17
    assert workloads.paper_class_count(rec("sc:E6", [0] * 6 + [2])) is None


def test_order_is_a_permutation_drawn_from_the_seed():
    first = worker.order_for(5, 40)
    assert first == worker.order_for(5, 40)
    assert sorted(first) == list(range(40))
    assert first != worker.order_for(6, 40)
