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
from kacoh.rootdata import InternalCheckError, SimpleType

from conftest import simple_types


def _sweep_specs():
    """Every lattice of every simple type of rank <= 6, and of A1xA1xA1."""
    a1 = SimpleType.parse("A1")
    for comps in [(typ,) for typ in simple_types(6)] + [(a1, a1, a1)]:
        yield from all_intermediate_specs(comps)


def _cold(spec):
    """An equal spec that has built nothing yet."""
    return GroupSpec(components=spec.components, generators=spec.generators)


def _reference(spec, n, select, arg) -> tuple:
    """The classes as the pipeline computed them before the class table."""
    d = spec.diagram()
    return tuple(orbit_decompose(select(enumerate_Kn(d, n), spec, arg, d), dual_subgroup(spec)))


def test_class_table_agrees_with_reference():
    checked = 0
    for spec in _sweep_specs():
        for q in enumerate_Kn(spec.diagram(), 2):
            expected = _reference(spec, 2, filter_matching_q, q)
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


def test_one_pass_over_Kn_per_table(monkeypatch):
    """Each query filters its own class's labelings only, not all of K_n."""
    received = []
    real_filter = cohomology.filter_for_central

    def counting_filter(labelings, spec, z, diagram):
        received.append(len(labelings))
        return real_filter(labelings, spec, z, diagram)

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
    real = labelings._congruent

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(labelings, "_congruent", counting)
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
    filter_for_central(enumerate_Kn(spec.diagram(), 2), spec, z, spec.diagram())
    assert len(calls) == 1


def test_coverage_check_fires(monkeypatch):
    """A filter that drops a labeling of the class is an internal error."""
    real_filter = cohomology.filter_for_central
    monkeypatch.setattr(
        cohomology, "filter_for_central", lambda *args: real_filter(*args)[1:]
    )
    spec = _cold(preset_spec("sc:A11"))
    with pytest.raises(InternalCheckError, match="cover"):
        nth_root_classes(spec, enumerate_center(spec)[0], 3)


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
