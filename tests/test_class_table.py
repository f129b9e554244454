"""The class table: one enumeration of K_n per (spec, n), one orbit
decomposition per congruence class, shared by every query on the spec."""

from fractions import Fraction

import pytest

from kacoh import cohomology
from kacoh.cohomology import h1_inner_form, nth_root_classes, roots_document
from kacoh.diagram import fundamental_group
from kacoh.labelings import (
    act_on_labeling,
    compact_labeling,
    enumerate_Kn,
    filter_for_central,
    filter_matching_q,
    orbit_decompose,
    residue_key,
)
from kacoh.lattice import (
    GroupSpec,
    all_intermediate_specs,
    dual_subgroup,
    enumerate_center,
    preset_spec,
)
from kacoh.oracle import cross_check
from kacoh.rootdata import BudgetError, InternalCheckError, SimpleType

from conftest import simple_types


def _sweep_specs():
    """Every lattice of every simple type of rank <= 6, and of A1xA1xA1."""
    a1 = SimpleType.parse("A1")
    for comps in [(typ,) for typ in simple_types(6)] + [(a1, a1, a1)]:
        yield from all_intermediate_specs(comps)


def _cold(spec):
    """An equal spec that has built nothing yet."""
    return GroupSpec(components=spec.components, den=spec.den, rows=spec.rows)


def _reference(spec, n, select, *args) -> tuple:
    """The classes as the pipeline computed them before the class table."""
    kn = enumerate_Kn(spec.diagram(), n)
    return tuple(orbit_decompose(select(kn, spec, *args), dual_subgroup(spec)))


def test_class_table_agrees_with_reference():
    checked = 0
    for spec in _sweep_specs():
        for q in enumerate_Kn(spec.diagram(), 2):
            expected = _reference(spec, 2, filter_matching_q, q, spec.diagram())
            assert h1_inner_form(_cold(spec), q).classes == expected, (spec, q)
            for _ in range(2):  # first and second time on one spec
                assert h1_inner_form(spec, q).classes == expected, (spec, q)
            checked += 1
        for n in (1, 2, 3):
            for z in enumerate_center(spec):
                expected = _reference(spec, n, filter_for_central, z)
                sizes = tuple(len(o.members) for o in expected)
                assert nth_root_classes(_cold(spec), z, n).classes == expected
                # What cross_check computes stays in the table for the next query.
                checked_spec = _cold(spec)
                report = cross_check(checked_spec, z, n)
                assert report.ok and report.kac_orbit_sizes == sizes, report.failure
                assert nth_root_classes(checked_spec, z, n).classes == expected
                for _ in range(2):
                    assert nth_root_classes(spec, z, n).classes == expected, (spec, z, n)
                assert cross_check(spec, z, n).kac_orbit_sizes == sizes
                checked += 1
    assert checked > 1000


def test_orbit_decompose_matches_group_images():
    """Each orbit is the set of images of its members under the whole group."""
    for spec in _sweep_specs():
        group = dual_subgroup(spec)
        for n in (1, 2, 3):
            labelings = enumerate_Kn(spec.diagram(), n)
            keys = {residue_key(spec, p.labels) for p in labelings}
            for key in keys:
                kept = [p for p in labelings if residue_key(spec, p.labels) == key]
                orbits = orbit_decompose(kept, group)
                assert sorted(p for o in orbits for p in o.members) == kept
                for o in orbits:
                    images = {act_on_labeling(g, o.representative) for g in group.elements}
                    assert o.members == tuple(sorted(images))
                    assert o.representative == o.members[0]
                    assert o.stabilizer_order * len(o.members) == group.order
                    # The orbits hold the input's own labelings.
                    assert all(any(m is p for p in kept) for m in o.members)
                assert [o.representative for o in orbits] == sorted(
                    o.representative for o in orbits
                )


def test_labelings_enumerated_once_per_spec_and_n(monkeypatch):
    enumerated, decomposed = [], []
    real_enumerate, real_decompose = cohomology.enumerate_Kn, cohomology.orbit_decompose

    def counting_enumerate(diagram, n, congruence):
        enumerated.append(n)
        return real_enumerate(diagram, n, congruence)

    def counting_decompose(labelings, group):
        decomposed.append(labelings[0] if labelings else None)
        return real_decompose(labelings, group)

    monkeypatch.setattr(cohomology, "enumerate_Kn", counting_enumerate)
    monkeypatch.setattr(cohomology, "orbit_decompose", counting_decompose)
    for preset in ("sc:E7", "ad:A3xA3"):
        spec = preset_spec(preset)
        twists = enumerate_Kn(spec.diagram(), 2)
        classes = {residue_key(spec, q.labels) for q in twists}
        enumerated.clear()
        decomposed.clear()
        for _ in range(2):
            for q in twists:
                h1_inner_form(spec, q)
        assert enumerated == [2], preset
        # One orbit decomposition per congruence class of twists.
        assert len(decomposed) == len(classes), preset
        for z in enumerate_center(spec):
            for n in (2, 3):
                nth_root_classes(spec, z, n)
        assert enumerated == [2, 3], preset


def test_one_enumeration_per_root_system(monkeypatch):
    """Every lattice of a root system keys its labelings from one K_n."""
    from kacoh import labelings

    labelings._kn_table.cache_clear()
    solved = []
    real_solutions = labelings._component_solutions

    def counting_solutions(diagram, k, n, columns, m):
        solved.append((diagram.components, n, k))
        return real_solutions(diagram, k, n, columns, m)

    monkeypatch.setattr(labelings, "_component_solutions", counting_solutions)
    a1 = SimpleType.parse("A1")
    specs = [_cold(spec) for spec in all_intermediate_specs((a1, a1, a1))]
    assert len(specs) == 16
    for spec in specs:
        for n in (1, 2, 3):
            for z in enumerate_center(spec):
                nth_root_classes(spec, z, n)
    assert sorted(solved) == [((a1, a1, a1), n, k) for n in (1, 2, 3) for k in range(3)]
    # The adjoint and the simply connected lattice hold the same objects.
    adjoint, simply_connected = specs[0], specs[-1]
    held = {
        id(p)
        for o in nth_root_classes(adjoint, enumerate_center(adjoint)[0], 2).classes
        for p in o.members
    }
    members = [
        p
        for z in enumerate_center(simply_connected)
        for o in nth_root_classes(simply_connected, z, 2).classes
        for p in o.members
    ]
    assert len(members) == len(held) == 27 and {id(p) for p in members} == held
    # The budget holds on a warm table.
    monkeypatch.setenv("KACOH_MAX_LABELINGS", "26")
    with pytest.raises(BudgetError, match="27 labelings"):
        enumerate_Kn(specs[0].diagram(), 2)
    with pytest.raises(BudgetError, match="27 labelings"):
        nth_root_classes(_cold(simply_connected), enumerate_center(simply_connected)[0], 2)


def test_one_pass_over_Kn_per_table(monkeypatch):
    """Each query filters its own class's labelings only, not all of K_n."""
    received = []
    real_filter = cohomology.filter_for_central

    def counting_filter(labelings, spec, z):
        received.append(len(labelings))
        return real_filter(labelings, spec, z)

    monkeypatch.setattr(cohomology, "filter_for_central", counting_filter)
    spec = _cold(preset_spec("sc:A11"))
    center = enumerate_center(spec)
    for z in center:
        nth_root_classes(spec, z, 3)
    assert len(received) == len(center) == 12
    assert sum(received) <= len(enumerate_Kn(spec.diagram(), 3))


def test_cross_check_classifies_the_keyed_bucket(monkeypatch):
    """cross_check classifies its class's bucket as the enumeration keyed it,
    with no second congruence filter, and finds the classes of nth_root_classes."""
    from kacoh import labelings

    calls = []
    real = labelings.residue_key

    def counting(spec, labels):
        calls.append(labels)
        return real(spec, labels)

    monkeypatch.setattr(labelings, "residue_key", counting)
    checked = 0
    for preset in ("sc:A3", "ad:A3xA3", "halfspin:D6", "sc:E6", "so:B3"):
        spec = _cold(preset_spec(preset))
        for z in enumerate_center(spec):
            for n in (1, 2, 3):
                report = cross_check(spec, z, n)
                assert report.ok, report.failure
                assert calls == [], (preset, z, n)
                expected = nth_root_classes(_cold(spec), z, n).classes
                calls.clear()
                assert report.kac_orbit_sizes == tuple(len(o.members) for o in expected)
                checked += 1
    assert checked == 33
    # The counter does see the congruence filter when one runs.
    kn = enumerate_Kn(spec.diagram(), 2)
    filter_for_central(kn, spec, z)
    assert calls == [p.labels for p in kn]


def test_coverage_check_fires(monkeypatch):
    """A filter that drops a labeling of the class, or swaps one for a
    labeling of another class, is an internal error."""
    real_filter = cohomology.filter_for_central
    monkeypatch.setattr(
        cohomology, "filter_for_central", lambda *args: real_filter(*args)[1:]
    )
    spec = _cold(preset_spec("sc:A11"))
    z = enumerate_center(spec)[0]
    with pytest.raises(InternalCheckError, match="cover"):
        nth_root_classes(spec, z, 3)
    kn = enumerate_Kn(spec.diagram(), 3)
    kept = real_filter(kn, spec, z)
    foreign = next(p for p in kn if p not in kept)
    monkeypatch.setattr(
        cohomology, "filter_for_central", lambda *args: real_filter(*args)[1:] + [foreign]
    )
    with pytest.raises(InternalCheckError, match="is in one and not the other"):
        nth_root_classes(_cold(spec), z, 3)


@pytest.mark.parametrize(
    "query",
    [
        lambda spec: h1_inner_form(spec, compact_labeling(spec.diagram())),
        lambda spec: nth_root_classes(spec, enumerate_center(spec)[0], 2),
    ],
    ids=["h1", "roots"],
)
def test_escape_check_still_fires(monkeypatch, query):
    # The full coweight-class group moves sc:E6 labelings between classes.
    monkeypatch.setattr(cohomology, "dual_subgroup", lambda s: fundamental_group(s.diagram()))
    with pytest.raises(InternalCheckError, match="outside the filtered set"):
        query(preset_spec("sc:E6"))


def test_torus_point_strings_match_fractions():
    for preset, n in (("sc:A7", 6), ("sc:E6", 4), ("halfspin:D8", 3), ("sc:A1xA1xA1xA1", 4)):
        spec = preset_spec(preset)
        for z in enumerate_center(spec):
            result = nth_root_classes(spec, z, n)
            doc = roots_document(result, spec)
            for cls, point in zip(doc["classes"], result.torus_points):
                coords = [Fraction(x, point.denominator) for x in point.numerators]
                assert cls["torus_point"] == [f"{c.numerator}/{c.denominator}" for c in coords]
