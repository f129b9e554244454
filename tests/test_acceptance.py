"""Acceptance suite: the binding end-to-end criteria, one test per criterion.

Each test prints a PASS line with its measured runtime so the suite doubles
as a report (`pytest tests/test_acceptance.py -v -s`).  Numeric expectations
are frozen here; runtime ceilings are asserted where stated.
"""

import json
import subprocess
import sys
import time

from kacoh.cohomology import h1_adjoint, h1_inner_form
from kacoh.diagram import _component_sigmas
from kacoh.labelings import (
    KacLabeling,
    compact_labeling,
    enumerate_Kn,
    filter_for_central,
    filter_matching_q,
    format_labeling,
    orbit_decompose,
    parse_labeling,
)
from kacoh.lattice import (
    all_intermediate_specs,
    dual_subgroup,
    enumerate_center,
    preset_spec,
    xq_order,
)
from kacoh.diagram import ExtendedDiagram, fundamental_group
from kacoh.oracle import cross_check
from kacoh.rootdata import SimpleType, cartan_data

from conftest import simple_types
from references import act_on_labeling, sigma_geometric


def _report(name: str, started: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {name}: {elapsed:.2f}s{suffix}")


# Frozen transcription of the six extended-E7 2-labelings, in the package's
# enumeration order (lexicographic on the flat tuples).
E7_CENSUS = [
    ((0, 0, 0, 0, 0, 0, 0, 2), "000/00/002"),
    ((0, 0, 0, 0, 0, 0, 1, 0), "000/01/000"),
    ((0, 0, 0, 0, 0, 1, 0, 0), "000/00/010"),
    ((0, 1, 0, 0, 0, 0, 0, 0), "010/00/000"),
    ((1, 0, 0, 0, 0, 0, 0, 1), "100/00/001"),
    ((2, 0, 0, 0, 0, 0, 0, 0), "200/00/000"),
]


def test_criterion_1_e7_census():
    started = time.perf_counter()
    d = ExtendedDiagram([SimpleType.parse("E7")])
    labelings = enumerate_Kn(d, 2)
    got = [(p.labels, format_labeling(d, p)) for p in labelings]
    assert got == E7_CENSUS
    assert time.perf_counter() - started < 1.0
    _report("criterion 1 (E7 census)", started, "6 labelings, exact")


def test_criterion_2_e7_adjoint_partition():
    started = time.perf_counter()
    result = h1_adjoint(["E7"])
    d = result.group_spec.diagram()
    partition = {
        frozenset(format_labeling(d, m) for m in o.members) for o in result.classes
    }
    assert len(result.classes) == 4
    assert partition == {
        frozenset({"000/00/002", "200/00/000"}),
        frozenset({"100/00/001"}),
        frozenset({"010/00/000", "000/00/010"}),
        frozenset({"000/01/000"}),
    }
    _report("criterion 2 (E7 adjoint)", started, "4 classes, exact partition")


def test_criterion_3_e7_simply_connected():
    started = time.perf_counter()
    spec = preset_spec("sc:E7")
    d = spec.diagram()
    even = ["000/00/002", "000/00/010", "010/00/000", "200/00/000"]
    odd = ["000/01/000", "100/00/001"]
    for q_text, expected in (
        ("000/00/002", even),
        ("010/00/000", even),
        ("000/01/000", odd),
        ("100/00/001", odd),
    ):
        result = h1_inner_form(spec, parse_labeling(d, q_text))
        got = [format_labeling(d, o.representative) for o in result.classes]
        assert got == expected, q_text
        assert all(len(o.members) == 1 for o in result.classes)
    _report("criterion 3 (E7 simply connected)", started, "counts 4 and 2")


def test_criterion_4_halfspin_formulas():
    started = time.perf_counter()
    for k in range(2, 11):
        ell = 2 * k
        spec = preset_spec(f"halfspin:D{ell}")
        d = spec.diagram()
        even = h1_inner_form(spec, compact_labeling(d))
        assert len(even.classes) == k // 2 + 4, ell
        odd_labels = [0] * d.num_vertices
        odd_labels[d.slot(0, 0)] = odd_labels[d.slot(0, 1)] = 1
        odd = h1_inner_form(spec, KacLabeling(labels=tuple(odd_labels), n=2))
        assert len(odd.classes) == (k + 1) // 2 + 1, ell

    # D6: the explicit orbit lists, as orbits (representatives are the
    # lexicographically least members, which may be the mirrored labeling).
    spec = preset_spec("halfspin:D6")
    d = spec.diagram()
    even = h1_inner_form(spec, compact_labeling(d))
    got = {frozenset(format_labeling(d, m) for m in o.members) for o in even.classes}
    assert got == {
        frozenset({"10/000/10"}),
        frozenset({"01/000/01"}),
        frozenset({"20/000/00", "00/000/20"}),
        frozenset({"02/000/00", "00/000/02"}),
        frozenset({"00/100/00", "00/001/00"}),
    }
    odd = h1_inner_form(spec, parse_labeling(d, "11/000/00"))
    got = {frozenset(format_labeling(d, m) for m in o.members) for o in odd.classes}
    assert got == {
        frozenset({"11/000/00", "00/000/11"}),
        frozenset({"10/000/01", "01/000/10"}),
        frozenset({"00/010/00"}),
    }
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report("criterion 4 (half-spin formulas)", started, "k=2..10 and D6 lists")


def test_criterion_5_so_comparison():
    started = time.perf_counter()
    for ell in range(4, 9):
        spec = preset_spec(f"so:D{ell}")
        result = h1_inner_form(spec, compact_labeling(spec.diagram()))
        assert len(result.classes) == ell + 1, ell
    _report("criterion 5 (SO comparison)", started, "l+1 classes for l=4..8")


def test_criterion_6_sigma_cross_check():
    started = time.perf_counter()
    checked = 0
    for typ in simple_types(8):
        data = cartan_data(typ)
        for j, table_perm in _component_sigmas(typ).items():
            assert sigma_geometric(data, j) == table_perm, (typ, j)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report("criterion 6 (sigma cross-check)", started, f"{checked} generators")


def test_criterion_7_oracle_equivalence_sweep():
    started = time.perf_counter()
    runs = 0
    products = [
        tuple(SimpleType.parse(t) for t in name.split("x"))
        for name in ("A1xA1", "A3xA1", "A1xA1xA1", "C3xA1", "A2xG2xA1")
    ]
    for comps in [(typ,) for typ in simple_types(6)] + products:
        for spec in all_intermediate_specs(comps):
            for z in enumerate_center(spec):
                for n in (1, 2, 3):
                    report = cross_check(spec, z, n)
                    assert report.ok, (comps, spec.generators, n, report.failure)
                    runs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _report("criterion 7 (oracle sweep rank<=6)", started, f"{runs} verified runs")

    e7_started = time.perf_counter()
    for preset in ("sc:E7", "ad:E7"):
        spec = preset_spec(preset)
        for z in enumerate_center(spec):
            report = cross_check(spec, z, 2)
            assert report.ok, (preset, report.failure)
    assert time.perf_counter() - e7_started < 30.0
    _report("criterion 7 (E7 oracle)", e7_started, "both lattices, both z")


def test_criterion_8_invariance_suite():
    started = time.perf_counter()

    # Congruence sets are stable under the dual classes, n <= 4, rank <= 8.
    for typ in simple_types(8):
        for spec in all_intermediate_specs((typ,)):
            d = spec.diagram()
            sub = dual_subgroup(spec)
            for n in (1, 2, 3, 4):
                labelings = enumerate_Kn(d, n)
                for z in enumerate_center(spec):
                    filtered = set(filter_for_central(labelings, spec, z))
                    for g in sub.elements:
                        assert {act_on_labeling(g, p) for p in filtered} == filtered
            for q in enumerate_Kn(d, 2):
                kept = set(filter_matching_q(enumerate_Kn(d, 2), spec, q, d))
                for g in sub.elements:
                    assert {act_on_labeling(g, p) for p in kept} == kept

    # Neutrality with exact zero witness.
    for preset in ("sc:E7", "halfspin:D6", "so:D5", "sc:A3", "ad:C3"):
        spec = preset_spec(preset)
        d = spec.diagram()
        for q in enumerate_Kn(d, 2):
            result = h1_inner_form(spec, q)
            assert q in result.classes[result.neutral_index].members
            assert all(x == 0 for x in result.witnesses[result.neutral_index])

    # Level-1 labelings form a single orbit of the full class group.
    for typ in simple_types(8):
        d = ExtendedDiagram([typ])
        orbits = orbit_decompose(enumerate_Kn(d, 1), fundamental_group(d))
        assert len(orbits) == 1, typ

    # Perfect duality of the quotient orders for every subgroup.
    for typ in simple_types(8):
        total = xq_order(preset_spec(f"sc:{typ}"))
        for spec in all_intermediate_specs((typ,)):
            assert xq_order(spec) * dual_subgroup(spec).order == total, typ

    _report("criterion 8 (invariance suite)", started)


def test_criterion_9_cli_determinism():
    started = time.perf_counter()
    cmd = [
        sys.executable, "-m", "kacoh.cli",
        "h1", "--spec", "sc:E7", "--q", "000/00/002", "--format", "json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout != b""
    doc = json.loads(first.stdout)
    assert doc["class_count"] == 4
    cmd2 = [
        sys.executable, "-m", "kacoh.cli",
        "oracle-check", "--spec", "halfspin:D6", "--format", "json",
    ]
    third = subprocess.run(cmd2, capture_output=True, check=True)
    fourth = subprocess.run(cmd2, capture_output=True, check=True)
    assert third.stdout == fourth.stdout != b""
    _report("criterion 9 (CLI determinism)", started, "byte-identical reruns")
