from fractions import Fraction as F

import pytest

from kacoh.diagram import ExtendedDiagram, fundamental_group
from kacoh.lattice import (
    CentralElement,
    all_intermediate_specs,
    check_central,
    dual_subgroup,
    enumerate_center,
    preset_spec,
    spec_from_document,
    spec_to_document,
    validate_spec,
    xq_elements,
    xq_order,
)
from kacoh.oracle import cross_check
from kacoh.rootdata import SimpleType, SpecError
from references import pairing


E7_LAMBDA = (F(1, 2), 0, F(1, 2), 0, 0, 0, F(1, 2))


def test_validate_e7():
    spec = validate_spec(["E7"], [E7_LAMBDA])
    assert xq_order(spec) == 2
    assert spec.generators == (tuple(F(x) for x in E7_LAMBDA),)


def test_validate_halfspin():
    for ell in (4, 6, 8):
        vec = [F(0)] * ell
        for i in list(range(1, ell - 2, 2)) + [ell]:
            vec[i - 1] = F(1, 2)
        spec = validate_spec([f"D{ell}"], [tuple(vec)])
        assert xq_order(spec) == 2
        assert preset_spec(f"halfspin:D{ell}") == spec


def test_adjoint_is_trivial_quotient():
    spec = validate_spec(["E7"], [])
    assert xq_order(spec) == 1
    assert spec.generators == ()


def test_rejects_non_weight():
    with pytest.raises(SpecError) as exc:
        validate_spec(["A2"], [(F(1, 2), F(0))])
    assert "pairing" in str(exc.value)


def test_rejects_empty_components():
    with pytest.raises(SpecError):
        validate_spec([], [])


def test_rejects_wrong_length():
    with pytest.raises(SpecError):
        validate_spec(["A2"], [(F(1, 3),)])


def test_pairing_values():
    d = ExtendedDiagram([SimpleType.parse("E7")])
    # Vertex 1 is the unique non-extra mark-1 vertex of E7; the value is the
    # generator's coefficient there.
    assert pairing(E7_LAMBDA, 1, d) == F(1, 2)
    for j in (2, 7):  # both carry mark 2
        with pytest.raises(SpecError):
            pairing(E7_LAMBDA, j, d)
    hs = preset_spec("halfspin:D6")
    d6 = ExtendedDiagram([SimpleType.parse("D6")])
    assert pairing(hs.generators[0], 5, d6) == 0
    assert pairing(hs.generators[0], 6, d6) == F(1, 2)


def test_pairing_well_defined_mod_integers():
    d = ExtendedDiagram([SimpleType.parse("E7")])
    shifted = tuple(c + k for c, k in zip(E7_LAMBDA, (3, -2, 0, 1, 0, 5, -1)))
    assert pairing(shifted, 1, d) == pairing(E7_LAMBDA, 1, d)


def test_dual_subgroups():
    assert dual_subgroup(preset_spec("sc:E7")).order == 1
    assert dual_subgroup(preset_spec("ad:E7")).order == 2
    for ell in (4, 6, 8):
        sub = dual_subgroup(preset_spec(f"halfspin:D{ell}"))
        assert sub.order == 2
        assert {e.tags for e in sub.elements} == {(0,), (ell - 1,)}


def test_dual_extremes(types_rank8):
    for typ in types_rank8:
        full = fundamental_group(ExtendedDiagram([typ]))
        assert dual_subgroup(preset_spec(f"ad:{typ}")).order == full.order
        assert dual_subgroup(preset_spec(f"sc:{typ}")).order == 1


def test_duality_product(types_rank8):
    # |X/Q| * |Xv/Qv| = |P/Q| for every intermediate lattice.
    for typ in types_rank8:
        total = xq_order(preset_spec(f"sc:{typ}"))
        for spec in all_intermediate_specs((typ,)):
            assert xq_order(spec) * dual_subgroup(spec).order == total, (typ, spec)


def test_subgroup_counts():
    counts = {
        "A5": 4,   # divisors of 6
        "A6": 2,   # divisors of 7
        "D6": 5,   # subgroups of Z2 x Z2
        "D5": 3,   # subgroups of Z4
        "E6": 2,
        "E8": 1,
        "G2": 1,
    }
    for name, expected in counts.items():
        assert len(all_intermediate_specs((SimpleType.parse(name),))) == expected, name


def test_subgroup_sweep_of_a_product():
    # Z2^3 has 16 subgroups; the full group needs three generators.
    specs = all_intermediate_specs(("A1", "A1", "A1"))
    assert len(specs) == 16
    assert len({xq_elements(spec) for spec in specs}) == 16
    assert [xq_order(spec) for spec in specs] == [1] + [2] * 7 + [4] * 7 + [8]
    for spec in specs:
        for z in enumerate_center(spec):
            report = cross_check(spec, z, 2)
            assert report.ok, (spec, z, report.failure)


def test_spec_data_built_once():
    spec = preset_spec("halfspin:D6")
    assert spec.diagram() is spec.diagram()
    assert dual_subgroup(spec) is dual_subgroup(spec)
    # Equal specs compare equal whatever each has built so far.
    assert preset_spec("halfspin:D6") == spec


def test_lattices_of_one_root_system_share_diagram_and_group():
    sc, ad = preset_spec("sc:A3"), preset_spec("ad:A3")
    diagram = sc.diagram()
    assert ad.diagram() is diagram
    assert diagram.full_group is ad.diagram().full_group
    assert diagram.full_group.diagram is diagram
    # Both dual subgroups are cut from that one group.
    assert dual_subgroup(ad).elements == diagram.full_group.elements
    assert set(dual_subgroup(sc).elements) < set(diagram.full_group.elements)
    # The constructor, and fundamental_group of it, build anew.
    fresh = ExtendedDiagram(sc.components)
    assert fresh == diagram and fresh is not diagram
    assert fresh.full_group is not diagram.full_group
    assert fresh.full_group.elements == diagram.full_group.elements
    assert fundamental_group(diagram) is not diagram.full_group


def test_central_values_reduced_mod_1():
    z = CentralElement(values=(F(-1), F(3, 2), 2, F(-1, 3)))
    assert z.values == (0, F(1, 2), 0, F(2, 3))
    spec = preset_spec("sc:A1")
    assert CentralElement(values=(F(3, 2),)) == enumerate_center(spec)[1]
    check_central(spec, CentralElement(values=(F(-1),)))


def test_center_sizes():
    assert len(enumerate_center(preset_spec("ad:E7"))) == 1
    assert len(enumerate_center(preset_spec("sc:E7"))) == 2
    assert len(enumerate_center(preset_spec("halfspin:D6"))) == 2
    assert len(enumerate_center(preset_spec("sc:D5"))) == 4
    assert len(enumerate_center(preset_spec("sc:A6"))) == 7


def test_center_deterministic_and_trivial_first():
    center = enumerate_center(preset_spec("sc:D5"))
    assert center[0].is_trivial
    assert center == enumerate_center(preset_spec("sc:D5"))
    assert len(set(center)) == len(center)


def test_check_central_rejects_bad_values():
    spec = preset_spec("sc:E7")  # generator of order 2
    with pytest.raises(SpecError):
        check_central(spec, CentralElement(values=(F(1, 3),)))
    check_central(spec, CentralElement(values=(F(1, 2),)))


def test_cross_component_generator():
    spec = validate_spec(["A1", "A1"], [(F(1, 2), F(1, 2))])
    assert xq_order(spec) == 2
    assert dual_subgroup(spec).order == 2
    tags = {e.tags for e in dual_subgroup(spec).elements}
    assert tags == {(0, 0), (1, 1)}


def test_so_presets():
    assert preset_spec("so:B3").generators == ()
    so4 = preset_spec("so:D4")
    assert xq_order(so4) == 2
    # the third order-2 subgroup: annihilated exactly by {id, sigma_1}
    assert {e.tags for e in dual_subgroup(so4).elements} == {(0,), (1,)}
    so5 = preset_spec("so:D5")
    assert xq_order(so5) == 2
    assert {e.tags for e in dual_subgroup(so5).elements} == {(0,), (1,)}


def test_preset_errors():
    for bad in ("sc", "spin:E7", "halfspin:D5", "halfspin:B4", "so:A2", "sc:H9"):
        with pytest.raises(SpecError):
            preset_spec(bad)


def test_spec_document_is_fresh_on_every_call():
    spec = preset_spec("halfspin:D6")
    doc = spec_to_document(spec)
    expected = {"components": ["D6"], "generators": [["1/2", "0/1", "1/2", "0/1", "0/1", "1/2"]]}
    assert doc == expected
    doc["components"].append("A1")
    doc["generators"][0][1] = "1/3"
    doc["generators"].append([])
    doc["extra"] = True
    assert spec_to_document(spec) == expected


def test_spec_document_round_trip():
    spec = preset_spec("halfspin:D6")
    doc = spec_to_document(spec)
    assert doc["components"] == ["D6"]
    assert spec_from_document(doc) == spec
    with pytest.raises(SpecError):
        spec_from_document({"generators": []})
    with pytest.raises(SpecError):
        spec_from_document({"components": ["D6"], "generators": [[0.5] * 6]})
    for bad in ({"components": [7]}, {"components": "D6"},
                {"components": ["D6"], "generators": [5]}):
        with pytest.raises(SpecError):
            spec_from_document(bad)


def _coset_loop_closure(gens, rank, den):
    """The subgroup of (Z/den)^rank generated by gens: a coset pass per generator."""
    out = {(0,) * rank}
    for g in gens:
        coset = list(out)
        while True:
            coset = [tuple([(a + b) % den for a, b in zip(v, g)]) for v in coset]
            if coset[0] in out:
                break
            out.update(coset)
    return out


def test_int_closure_matches_coset_loop():
    # _int_closure skips a generator already in the subgroup; the reference
    # runs a coset pass for every generator.  The doubled lists skip every
    # repeated generator.
    from conftest import simple_types
    from kacoh.lattice import _int_closure

    specs = [
        spec
        for comps in (("A1",) * 4, ("A3", "A3"), ("D4", "D4"))
        for spec in all_intermediate_specs(comps)
    ]
    for typ in simple_types(12):
        specs += [preset_spec(f"sc:{typ}"), preset_spec(f"ad:{typ}")]
    specs += [preset_spec(f"halfspin:D{r}") for r in range(4, 13, 2)]
    specs += [preset_spec(f"so:{f}{r}") for f in "BD" for r in range(4, 13)]
    assert len(specs) == 67 + 15 + 67 + 2 * 49 + 5 + 18
    for spec in specs:
        den, gens = spec.den, list(spec.rows)
        rank = spec.total_rank
        for gs in (gens, gens + gens[::-1]):
            assert _int_closure(gs, rank, den) == _coset_loop_closure(gs, rank, den), spec


def _element_loop_specs(components):
    """all_intermediate_specs as it was first written: every subgroup is
    closed with every element outside it, one element per coset or not."""
    from kacoh.lattice import _fractions, _int_closure, _weight_basis, validate_spec

    comps = tuple(SimpleType.parse(t) for t in components)
    full = validate_spec(comps, _weight_basis(comps))
    den, elements = full.den, sorted(full.closure)
    frac = dict(zip(elements, _fractions(elements, den)))
    rank = full.total_rank
    trivial = frozenset(_int_closure([], rank, den))
    found = {trivial: []}
    frontier = [trivial]
    while frontier:
        grown = []
        for sub in frontier:
            gens = found[sub]
            for e in elements:
                if e in sub:
                    continue
                bigger = frozenset(_int_closure(gens + [e], rank, den))
                if bigger not in found:
                    found[bigger] = gens + [e]
                    grown.append(bigger)
        frontier = grown
    return tuple(
        validate_spec(comps, [frac[g] for g in gens])
        for _, gens in sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    )


def test_lattice_search_by_coset_matches_element_loop():
    # Every product of simple types of total rank <= 4 (no aliases: B from
    # rank 3, D from rank 4), then three larger groups of lattices.
    import itertools

    from conftest import simple_types

    factors = [str(t) for t in simple_types(4) if t.rank >= {"B": 3, "D": 4}.get(t.family, 1)]
    products = [
        comps
        for size in (1, 2, 3, 4)
        for comps in itertools.combinations_with_replacement(factors, size)
        if sum(SimpleType.parse(t).rank for t in comps) <= 4
    ]
    counts = {}
    for comps in products + [("A1",) * 5, ("A3", "A3", "A1"), ("D4", "D4")]:
        specs = all_intermediate_specs(comps)
        assert specs == _element_loop_specs(comps), comps
        counts["x".join(comps)] = len(specs)
    assert (counts["A1xA1xA1xA1xA1"], counts["A3xA3xA1"], counts["D4xD4"]) == (374, 54, 67)


def test_sc_presets_match_the_full_weight_basis():
    # preset_spec("sc:...") keeps only the fundamental weights that enlarge
    # P/Q; the reference validates every one of them.
    from kacoh.lattice import _weight_basis

    names = (
        [f"A{r}" for r in range(1, 41)]
        + [f"B{r}" for r in range(2, 12)]
        + [f"C{r}" for r in range(2, 12)]
        + [f"D{r}" for r in range(4, 25)]
        + ["E6", "E7", "E8", "F4", "G2"]
        + ["A1xA1", "A3xA3", "D4xD4", "D6xA1", "E7xB3", "A2xG2xA1"]
    )
    assert len(names) == 92
    for name in names:
        comps = tuple(SimpleType.parse(t) for t in name.split("x"))
        full = validate_spec(comps, _weight_basis(comps))
        assert preset_spec(f"sc:{name}") == full, name


PRESET_NAMES = (
    [f"sc:{t}" for t in ("A1", "A7", "B4", "C5", "D4", "D7", "E6", "E7", "E8", "F4", "G2")]
    + ["sc:A1xA1xA1", "sc:D4xA3", "ad:A5", "ad:D4xE6", "so:B5", "so:D4", "so:D9"]
    + [f"halfspin:D{r}" for r in range(4, 21, 2)]
)


def test_no_spec_passes_through_fractions_inside_the_package(monkeypatch):
    # validate_spec and _scaled are the Fraction door; the presets, the
    # lattice sweep and the congruence of X = P build from integer rows.
    from kacoh import labelings, lattice

    calls = []
    for name in ("validate_spec", "_scaled"):
        def counted(*args, _real=getattr(lattice, name), _name=name):
            calls.append((_name, args))
            return _real(*args)
        monkeypatch.setattr(lattice, name, counted)

    assert len(all_intermediate_specs(("A1",) * 3)) == 16
    validated = [args for name, args in calls if name == "validate_spec"]
    assert len(validated) <= 1 and all(not gens for _, gens in validated)
    assert all(not args[0] for name, args in calls if name == "_scaled")
    for name in PRESET_NAMES:
        calls.clear()
        spec = lattice.preset_spec(name)
        labelings._weight_columns.cache_clear()
        labelings._weight_columns(spec.diagram())
        assert calls == [], name


def test_validate_spec_rebuilds_every_spec_from_its_generators():
    from conftest import products

    specs = [spec for comps in products(4) for spec in all_intermediate_specs(comps)]
    specs += [preset_spec(name) for name in PRESET_NAMES]
    for spec in specs:
        again = validate_spec(spec.components, spec.generators)
        assert again == spec and hash(again) == hash(spec), spec
        assert spec_to_document(again) == spec_to_document(spec)
        assert again.describe() == spec.describe()


def test_document_texts_spell_the_generators():
    # The texts are spelled from the integer rows; format_rational over the
    # Fraction generators is the reference.
    from conftest import products, simple_types
    from kacoh.lattice import _document_texts, format_rational

    groups = products(4) + [(t,) for t in simple_types(8)]
    specs = [spec for comps in groups for spec in all_intermediate_specs(comps)]
    specs += [preset_spec(name) for name in PRESET_NAMES]
    for spec in specs:
        components, texts = _document_texts(spec)
        assert components == tuple(str(t) for t in spec.components)
        assert texts == tuple(tuple(format_rational(x) for x in g) for g in spec.generators), spec
