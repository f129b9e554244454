import gc
import itertools
from fractions import Fraction as F

import pytest

from conftest import rank5_products, simple_types
from kacoh.diagram import ExtendedDiagram, fundamental_group
from kacoh.labelings import (
    KacLabeling,
    _component_solutions,
    _slot_columns,
    act_on_labeling,
    compact_labeling,
    count_Kn,
    enumerate_Kn,
    filter_for_central,
    filter_matching_q,
    format_labeling,
    labeling_weight,
    orbit_decompose,
    parse_labeling,
    residue_key,
)
from kacoh.lattice import (
    CentralElement,
    all_intermediate_specs,
    dual_subgroup,
    enumerate_center,
    preset_spec,
    validate_spec,
)
from kacoh.rootdata import BudgetError, InternalCheckError, LabelingError, SimpleType


def D(*names):
    return ExtendedDiagram([SimpleType.parse(n) for n in names])


# The six 2-labelings of extended E7, frozen in enumeration (lex) order.
E7_K2 = [
    (0, 0, 0, 0, 0, 0, 0, 2),  # all weight on the extra vertex
    (0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 1),
    (2, 0, 0, 0, 0, 0, 0, 0),
]
E7_EVEN = [E7_K2[0], E7_K2[2], E7_K2[3], E7_K2[5]]
E7_ODD = [E7_K2[1], E7_K2[4]]


def test_a1_k2():
    d = D("A1")
    assert [p.labels for p in enumerate_Kn(d, 2)] == [(0, 2), (1, 1), (2, 0)]


def test_e7_k2_census():
    d = D("E7")
    assert [p.labels for p in enumerate_Kn(d, 2)] == E7_K2


def test_k1_is_mark_one_indicators(types_rank8):
    for typ in types_rank8:
        d = D(str(typ))
        k1 = enumerate_Kn(d, 1)
        indicators = set()
        for s in range(d.num_vertices):
            if d.marks[s] == 1:
                labels = [0] * d.num_vertices
                labels[s] = 1
                indicators.add(tuple(labels))
        assert {p.labels for p in k1} == indicators, typ


def test_enumeration_is_lexicographic():
    for names in (("A3", "E6"), ("D5",), ("B3", "C2", "A2"), ("G2",), ("E7",)):
        d = D(*names)
        for n in range(1, 5):
            labelings = enumerate_Kn(d, n)
            assert labelings == sorted(labelings), (names, n)


def test_counts_monotone_in_n():
    for name in ("A3", "C3", "D5", "F4", "G2"):
        d = D(name)
        counts = [len(enumerate_Kn(d, n)) for n in range(1, 5)]
        assert counts == sorted(counts), name


def test_product_enumeration():
    d = D("A1", "A1")
    k2 = enumerate_Kn(d, 2)
    assert len(k2) == 9
    assert k2[0].labels == (0, 2, 0, 2)


def brute_force_Kn(d, n):
    """Every n-labeling of ``d``, by brute force, in lexicographic order.

    Each root-vertex label runs over ``0..n // mark`` in
    ``itertools.product`` order.  A combination is kept when every
    component's weighted sum is at most n, and each component's extra
    vertex (last in its block, mark 1) takes the rest.  The extra labels
    are determined by the others, so the product order is the
    lexicographic order of the full label tuples.
    """
    blocks = [d.component_slots(k)[:-1] for k in range(len(d.components))]
    marks = [d.marks[s] for block in blocks for s in block]
    # Mark times label per slot, so that the first cut, on the total, runs
    # in C; the cut on each component's sum follows on what is left.
    weighted, totals = itertools.tee(itertools.product(*(range(0, n + 1, m) for m in marks)))
    bound = n * len(blocks)
    out = []
    for w in itertools.compress(weighted, map(bound.__ge__, map(sum, totals))):
        labels, start = [], 0
        for block in blocks:
            end = start + len(block)
            labels += [x // m for x, m in zip(w[start:end], marks[start:end])]
            labels.append(n - sum(w[start:end]))
            start = end
        if min(labels) >= 0:
            out.append(tuple(labels))
    return out


def test_enumeration_matches_brute_force(types_rank8):
    for typ in types_rank8:
        d = D(str(typ))
        for n in range(1, 7):
            assert [p.labels for p in enumerate_Kn(d, n)] == brute_force_Kn(d, n), (typ, n)
    # Products: the flat order is component-major.
    for names in (("A2", "A1"), ("B3", "G2"), ("A1", "A1", "A1")):
        d = D(*names)
        for n in range(1, 5):
            assert [p.labels for p in enumerate_Kn(d, n)] == brute_force_Kn(d, n), (names, n)


def test_enumeration_at_high_rank():
    labelings = enumerate_Kn(D("A200"), 2)
    assert len(labelings) == 202 * 201 // 2
    assert labelings[0].labels == (0,) * 200 + (2,)
    assert labelings[1].labels == (0,) * 199 + (1, 1)
    assert labelings[-1].labels == (2,) + (0,) * 200
    # The recursion follows the nonzero labels, not the diagram's length.
    assert len(enumerate_Kn(D("A1000"), 1)) == 1001


def test_filter_for_central_a1():
    d = D("A1")
    spec = preset_spec("sc:A1")
    trivial, nontrivial = enumerate_center(spec)
    k2 = enumerate_Kn(d, 2)
    assert [p.labels for p in filter_for_central(k2, spec, trivial)] == [(0, 2), (2, 0)]
    assert [p.labels for p in filter_for_central(k2, spec, nontrivial)] == [(1, 1)]


def test_filter_for_central_partitions_kn(types_rank6):
    # Every labeling satisfies the congruence for exactly one central element.
    for typ in types_rank6[:8]:
        spec = preset_spec(f"sc:{typ}")
        d = spec.diagram()
        for n in (1, 2, 3):
            kn = enumerate_Kn(d, n)
            total = 0
            for z in enumerate_center(spec):
                total += len(filter_for_central(kn, spec, z))
            assert total == len(kn), (typ, n)


def test_filter_matching_q_e7():
    spec = preset_spec("sc:E7")
    d = spec.diagram()
    k2 = enumerate_Kn(d, 2)
    for q_labels in (E7_K2[0], E7_K2[3]):
        q = KacLabeling(labels=q_labels, n=2)
        assert [p.labels for p in filter_matching_q(k2, spec, q, d)] == E7_EVEN
    for q_labels in (E7_K2[1], E7_K2[4]):
        q = KacLabeling(labels=q_labels, n=2)
        assert [p.labels for p in filter_matching_q(k2, spec, q, d)] == E7_ODD


def test_filter_matching_q_adjoint_keeps_all():
    spec = preset_spec("ad:E7")
    d = spec.diagram()
    k2 = enumerate_Kn(d, 2)
    q = KacLabeling(labels=E7_K2[1], n=2)
    assert filter_matching_q(k2, spec, q, d) == k2


def test_integer_filters_match_fraction_reference(types_rank6):
    # The integer columns against the exact labeling_weight sums: every
    # lattice of every simple type of rank <= 6 and of A1xA1xA1 at n = 1..3
    # with every q, and high-rank presets at n = 2 with one q per class.
    cases = [(s, (1, 2, 3), False) for typ in types_rank6 for s in all_intermediate_specs((typ,))]
    cases += [(s, (1, 2, 3), False) for s in all_intermediate_specs(("A1", "A1", "A1"))]
    cases += [
        (preset_spec(p), (2,), True) for p in ("sc:A40", "halfspin:D20", "so:D16", "sc:D4xD4")
    ]
    for spec, ns, sample in cases:
        d = spec.diagram()
        center = enumerate_center(spec)
        for n in ns:
            kn = enumerate_Kn(d, n)
            weights = {
                p: tuple(labeling_weight(d, gen, p) for gen in spec.generators)
                for p in kn
            }
            for z in center:
                expected = [p for p in kn if weights[p] == z.values]
                assert filter_for_central(kn, spec, z) == expected, (spec, z, n)
            twists = {weights[q]: q for q in kn}.values() if sample else kn
            for q in twists:
                expected = [p for p in kn if weights[p] == weights[q]]
                assert filter_matching_q(kn, spec, q, d) == expected, (spec, q)
            # A twist of level 0 has no nonzero label, and the key zero.
            zero = KacLabeling((0,) * d.num_vertices, 0)
            expected = [p for p in kn if not any(weights[p])]
            assert filter_matching_q(kn, spec, zero, d) == expected, (spec, n)


def test_filter_for_central_value_outside_the_lattice():
    # 1/3 is no pairing value of sc:E7 (order 2): nothing matches.
    spec = preset_spec("sc:E7")
    d = spec.diagram()
    z = CentralElement(values=(F(1, 3),))
    assert filter_for_central(enumerate_Kn(d, 3), spec, z) == []


def test_filter_matching_q_rejects_invalid():
    spec = preset_spec("sc:E7")
    d = spec.diagram()
    bad = KacLabeling(labels=(1,) * 8, n=2)
    with pytest.raises(LabelingError):
        filter_matching_q(enumerate_Kn(d, 2), spec, bad, d)


def test_action_on_e7_labelings():
    d = D("E7")
    g = fundamental_group(d).elements[1]
    q1 = KacLabeling(labels=E7_K2[0], n=2)
    q2 = KacLabeling(labels=E7_K2[5], n=2)
    q6 = KacLabeling(labels=E7_K2[1], n=2)
    assert act_on_labeling(g, q1) == q2
    assert act_on_labeling(g, q6) == q6


def test_e7_adjoint_orbit_partition():
    d = D("E7")
    orbits = orbit_decompose(enumerate_Kn(d, 2), fundamental_group(d))
    members = [{m.labels for m in o.members} for o in orbits]
    assert {frozenset(s) for s in members} == {
        frozenset({E7_K2[0], E7_K2[5]}),
        frozenset({E7_K2[4]}),
        frozenset({E7_K2[2], E7_K2[3]}),
        frozenset({E7_K2[1]}),
    }
    for o in orbits:
        assert o.representative == o.members[0] == min(o.members)
        assert o.stabilizer_order * len(o.members) == 2


def test_trivial_group_gives_singletons():
    spec = preset_spec("sc:E7")
    d = spec.diagram()
    sub = dual_subgroup(spec)
    orbits = orbit_decompose(enumerate_Kn(d, 2), sub)
    assert all(len(o.members) == 1 for o in orbits)
    assert len(orbits) == 6


def test_d6_halfspin_orbit_lists():
    spec = preset_spec("halfspin:D6")
    d = spec.diagram()
    sub = dual_subgroup(spec)
    k2 = enumerate_Kn(d, 2)

    even = filter_matching_q(k2, spec, compact_labeling(d), d)
    even_orbits = orbit_decompose(even, sub)
    assert len(even_orbits) == 5
    shown = {frozenset(format_labeling(d, m) for m in o.members) for o in even_orbits}
    assert shown == {
        frozenset({"10/000/10"}),
        frozenset({"01/000/01"}),
        frozenset({"20/000/00", "00/000/20"}),
        frozenset({"02/000/00", "00/000/02"}),
        frozenset({"00/100/00", "00/001/00"}),
    }

    q_odd = parse_labeling(d, "11/000/00")
    odd_orbits = orbit_decompose(filter_matching_q(k2, spec, q_odd, d), sub)
    assert len(odd_orbits) == 3
    shown = {frozenset(format_labeling(d, m) for m in o.members) for o in odd_orbits}
    assert shown == {
        frozenset({"11/000/00", "00/000/11"}),
        frozenset({"10/000/01", "01/000/10"}),
        frozenset({"00/010/00"}),
    }


def test_orbit_decompose_requires_closed_input():
    d = D("E7")
    group = fundamental_group(d)
    k2 = enumerate_Kn(d, 2)
    with pytest.raises(InternalCheckError):
        orbit_decompose(k2[:-1], group)  # drops one member of an orbit


def test_orbit_decompose_rejects_duplicates():
    d = D("A1")
    group = fundamental_group(d)
    k2 = enumerate_Kn(d, 2)
    with pytest.raises(LabelingError):
        orbit_decompose(k2 + [k2[0]], group)


def test_format_parse_round_trip():
    for names in (("E7",), ("D6",), ("A1", "E6"), ("C4",), ("G2",), ("E8",), ("B5",)):
        d = D(*names)
        for n in (1, 2, 3):
            for p in enumerate_Kn(d, n):
                assert parse_labeling(d, format_labeling(d, p)) == p
                assert parse_labeling(d, format_labeling(d, p, "flat")) == p


def test_parse_e7_display_strings():
    d = D("E7")
    assert parse_labeling(d, "000/00/002").labels == E7_K2[0]
    assert parse_labeling(d, "000/01/000").labels == E7_K2[1]
    assert parse_labeling(d, "200/00/000").labels == E7_K2[5]
    assert parse_labeling(d, "100/00/001").labels == E7_K2[4]


def test_parse_errors():
    d = D("E7")
    for bad in ("000/00", "000/00/0025", "00a/00/002", "000/00/002;000"):
        with pytest.raises(LabelingError):
            parse_labeling(d, bad)
    with pytest.raises(LabelingError):
        parse_labeling(d, "2,0,0,0,0,0,0,0,0")  # wrong length
    d2 = D("A1", "A1")
    with pytest.raises(LabelingError):
        parse_labeling(d2, "2,0,1,0")  # components disagree on n


def test_compact_labeling():
    d = D("A1", "E6")
    q = compact_labeling(d, 2)
    assert q.labels[d.slot(0, 0)] == 2 and q.labels[d.slot(1, 0)] == 2
    assert sum(q.labels) == 4



def _carried_keys_match(spec, n) -> int:
    pairs = enumerate_Kn(spec.diagram(), n, spec.derived(_slot_columns))
    assert [p for _, p in pairs] == enumerate_Kn(spec.diagram(), n), (spec, n)
    for key, p in pairs:
        assert key == residue_key(spec, p.labels), (spec, p)
    return len(pairs)


def test_enumeration_carries_the_residue_key():
    # The K_n of test_enumeration_at_high_rank, on lattices whose generator
    # row has a nonzero entry at every root vertex (X = P, from the first
    # fundamental weight), and every lattice of rank <= 6 at n = 1..4.
    for rank, n, size in ((200, 2, 202 * 201 // 2), (1000, 1, 1001)):
        weight = tuple(F(rank - i, rank + 1) for i in range(rank))
        assert _carried_keys_match(validate_spec([f"A{rank}"], [weight]), n) == size
    checked = 0
    for comps in [(t,) for t in simple_types(6)] + [
        ("A1", "A1", "A1"), ("A3", "A1"), ("C3", "A1"), ("A2", "G2", "A1"), ("A3", "A3"),
    ]:
        for spec in all_intermediate_specs(comps):
            for n in range(1, 5):
                checked += _carried_keys_match(spec, n)
    assert checked == 39035


def _product_assembly(diagram, n, congruence) -> list:
    """K_n of a product as the itertools.product of its components'
    solutions, labels joined by ``sum(labels, ())`` and keys summed mod m."""
    m, columns = congruence
    per_component = [
        _component_solutions(diagram, k, n, columns, m) for k in range(len(diagram.components))
    ]
    return [
        (tuple([sum(x) % m for x in zip(*keys)]), KacLabeling(sum(labels, ()), n))
        for labels, keys in (zip(*combo) for combo in itertools.product(*per_component))
    ]


def test_product_enumeration_matches_itertools_product():
    # enumerate_Kn extends the solutions one component at a time; the
    # reference assembles the product at once, on every lattice of every
    # product of rank <= 5 but A1^5.
    checked = 0
    for comps in rank5_products():
        d = ExtendedDiagram(comps)
        for spec in all_intermediate_specs(comps):
            for n in (1, 2, 3):
                expected = _product_assembly(d, n, spec.derived(_slot_columns))
                assert enumerate_Kn(d, n, spec.derived(_slot_columns)) == expected, (spec, n)
                checked += len(expected)
        keyless = (1, ((),) * d.num_vertices)
        for n in (1, 2, 3):
            assert enumerate_Kn(d, n) == [p for _, p in _product_assembly(d, n, keyless)], (comps, n)
    assert checked == 138342


def test_count_Kn_matches_enumeration():
    for names in [(str(t),) for t in simple_types(8)] + [("A2", "G2", "A1"), ("D4", "A1", "A1")]:
        d = D(*names)
        for n in range(1, 7):
            assert count_Kn(d, n) == len(enumerate_Kn(d, n)), (names, n)
    # C(50, 20) labelings of A30 at n = 20, counted without enumerating.
    assert count_Kn(D("A30"), 20) == 47129212243960


def test_enumeration_refuses_a_Kn_above_the_budget(monkeypatch):
    d = D("A3")
    assert count_Kn(d, 2) == 10
    monkeypatch.setenv("KACOH_MAX_LABELINGS", "10")
    assert len(enumerate_Kn(d, 2)) == 10
    monkeypatch.setenv("KACOH_MAX_LABELINGS", "9")
    with pytest.raises(BudgetError, match="K_2: 10 labelings, above the budget of 9"):
        enumerate_Kn(d, 2)
    monkeypatch.delenv("KACOH_MAX_LABELINGS")
    # An n whose single-label labelings alone pass the budget is refused
    # before anything of size n is built.
    with pytest.raises(BudgetError, match="at least 10000000000000000000001 labelings"):
        enumerate_Kn(D("A1"), 10 ** 22)


def _collections_during(build, enabled):
    """``build()``, the generations of the collections that started during
    it with the collector on or off as ``enabled``, and whether it was on
    when ``build`` returned."""
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    gc.callbacks.append(hook)
    try:
        result = build()
        after = gc.isenabled()
    finally:
        gc.callbacks.remove(hook)
        (gc.enable if before else gc.disable)()
    return result, starts, after


@pytest.mark.parametrize("enabled", [True, False])
def test_kn_table_builds_with_the_collector_paused(enabled):
    # A cold K_2 of sc:A60 makes 1,891 labelings, and the keyed call on a
    # warm K_2 of sc:A100 5,151 pairs, more than the free list of pairs
    # holds: enough allocations for several collections if the collector
    # ran during either build.
    from kacoh import labelings

    diagram = preset_spec("sc:A60").diagram()
    labelings._kn_table.cache_clear()
    labelings._weight_columns.cache_clear()
    table, starts, after = _collections_during(lambda: labelings._kn_table(diagram, 2), enabled)
    assert len(table[0]) == 1891
    assert starts == []
    assert after is enabled
    spec = preset_spec("sc:A100")
    congruence = labelings._slot_columns(spec)
    kn = enumerate_Kn(spec.diagram(), 2)
    pairs, starts, after = _collections_during(
        lambda: enumerate_Kn(spec.diagram(), 2, congruence), enabled
    )
    assert len(pairs) == 5151 and [p for _, p in pairs] == kn
    assert starts == []
    assert after is enabled
