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

    def counting_enumerate(diagram, n):
        enumerated.append(n)
        return real_enumerate(diagram, n)

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
